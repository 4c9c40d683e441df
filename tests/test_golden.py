"""The command line's output bytes against the committed golden manifest.

``tests/golden/manifest.json`` holds, for each call of
``tests/golden/update.py``, its exit code and the sha256 of its stdout,
stderr and ``--out`` file.  A change that alters output bytes reruns
``python tests/golden/update.py`` and says which entries changed and why.
"""

import json

import pytest

from golden import update


@pytest.fixture(scope="module")
def manifest():
    return json.loads(update.MANIFEST.read_text())


def test_manifest_covers_every_call(manifest):
    assert [e["argv"] for e in manifest["calls"]] == update.CALLS


def test_outputs_match_manifest(manifest, tmp_path, monkeypatch):
    if update.versions() != {k: manifest[k] for k in ("python", "numpy")}:
        pytest.skip(f"manifest made under Python {manifest['python']} and "
                    f"numpy {manifest['numpy']}, whose help text and draws "
                    "it records")
    monkeypatch.setenv("COLUMNS", "80")
    assert update.write_fixtures(tmp_path) == manifest["fixtures"]
    changed = [(want["argv"], {k: (want[k], got[k]) for k in want
                               if want[k] != got[k]})
               for want, got in zip(manifest["calls"],
                                    update.run_calls(tmp_path))
               if want != got]
    assert changed == []


def test_changes_names_each_difference():
    entry = {"argv": ["weight", "--counts", "a b.tsv"], "exit": 0,
             "stdout": "1", "stderr": "2", "out": None}
    old = {"python": "3.11", "numpy": "2.4", "fixtures": {"a": "1", "b": "2"},
           "calls": [entry, {**entry, "argv": ["tv"]}]}
    new = {"python": "3.11", "numpy": "2.5", "fixtures": {"a": "1", "c": "3"},
           "calls": [{**entry, "exit": 1, "stderr": "3"},
                     {**entry, "argv": ["--help"]}]}
    assert update.changes(old, new) == [
        "numpy: 2.4 -> 2.5", "fixture c: added", "fixture b: removed",
        "changed (exit, stderr): weight --counts 'a b.tsv'",
        "added: --help", "removed: tv"]
    assert update.changes(new, new) == []
    assert update.changes({}, new)[-2:] == [
        "added: weight --counts 'a b.tsv'", "added: --help"]
