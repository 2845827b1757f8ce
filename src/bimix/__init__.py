"""Overlapping community estimation for bipartite weighted networks.

Generative sampling from eight edge-weight laws, deterministic spectral
membership estimation, evaluation metrics, and a replicated simulation
harness with a catalogue of reference scenarios.
"""

__version__ = "0.1.0"

from .disp import FitResult, IllPosedFitError, disp, memberships_from_embedding
from .harness import (
    SCENARIO_NAMES,
    SweepPlan,
    SweepPoint,
    SweepResult,
    run_replicates,
    run_sweep,
    scenario,
)
from .ingest import EdgeListError, load_edge_list, summarize
from .metrics import (
    SeparationMargins,
    empirical_tau_gamma,
    error_rate,
    hamm_rc,
    mixed_proportion,
    separation_margins,
)
from .model import (
    InvalidModelError,
    ModelSpec,
    build_omega,
    make_planted_memberships,
    make_standard_two_block,
    validate_model,
)
from .sampler import (
    EdgeDistribution,
    RandomSource,
    RhoInterval,
    SamplingDomainError,
    sample_adjacency,
)
from .spectral import TruncatedSVD, estimate_k_eigengap, singular_values, top_k_svd

__all__ = [
    "EdgeDistribution",
    "EdgeListError",
    "FitResult",
    "IllPosedFitError",
    "InvalidModelError",
    "ModelSpec",
    "RandomSource",
    "RhoInterval",
    "SCENARIO_NAMES",
    "SamplingDomainError",
    "SeparationMargins",
    "SweepPlan",
    "SweepPoint",
    "SweepResult",
    "TruncatedSVD",
    "build_omega",
    "disp",
    "empirical_tau_gamma",
    "error_rate",
    "estimate_k_eigengap",
    "hamm_rc",
    "load_edge_list",
    "make_planted_memberships",
    "make_standard_two_block",
    "memberships_from_embedding",
    "mixed_proportion",
    "run_replicates",
    "run_sweep",
    "sample_adjacency",
    "scenario",
    "separation_margins",
    "singular_values",
    "summarize",
    "top_k_svd",
    "validate_model",
]
