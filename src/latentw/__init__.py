"""latentw: latent-weight analysis of categorical probability sources.

Computes and estimates the largest weight a structured model class can
carry as a mixture component of a categorical source.  The main class is
the exchangeable distributions (closed-form weight, unique component and
residual, bounds via marginals and symbol lumping, TV projection);
singleton and product/i.i.d. classes are handled by sup-min optimization.
Sampling-based inference adds bootstrap bias correction and the Gaussian
limit theory, and a methylation pipeline applies all of it to epiread
files of bisulfite-sequencing data.
"""

__version__ = "0.1.0"

from .space import (
    CountVector,
    Distribution,
    OrbitIndex,
    SampleSpace,
    build_orbit_index,
    empirical_distribution,
    read_counts,
    write_counts,
)
from .exchangeable import (
    ExchangeableDecomposition,
    decompose,
    exchangeable_weight,
    is_exchangeable,
    lump,
    lumping_weight_bound,
    marginal_weight_bound,
    marginalize,
    synthesize_mixture,
    tv_distance,
    tv_distance_to_exchangeable,
)
from .product import (
    ProductClassSpec,
    SupMinResult,
    class_weight,
    singleton_weight,
)
from .inference import (
    BiasTableRow,
    LimitLawSpec,
    WeightEstimate,
    asymptotic_variance,
    bootstrap_distribution,
    estimate,
    limit_law_sample,
    limit_law_spec,
    sample_size_heuristic,
    subsample_size,
    worst_case_source,
)
from .methylation import (
    CorrelationReport,
    EpireadRecord,
    TripletRecord,
    TripletReport,
    correlate,
    extract_triplets,
    parse_epireads,
    triplet_report,
    write_report_tsv,
)
from . import errors

__all__ = [name for name in dir() if not name.startswith("_")]
