"""The environment of Python child processes that tests start."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def child_env(**extra: str) -> dict:
    """``os.environ`` with this checkout's ``src`` first on PYTHONPATH, so
    a child imports the package under test whether or not the parent's
    PYTHONPATH names it, updated with ``extra``."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}
