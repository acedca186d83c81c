"""Bayes factors for ANOVA models with order and equality constraints.

Models are defined by constraints on group means (equalities merge groups,
inequalities orient them). Each model's evidence combines the marginal
likelihood of its collapsed design under a conditional intrinsic prior with
the prior and posterior probabilities of its inequality region.
"""

from .compare import BfBreakdown, ComparisonReport, Settings, bf_k0, compare, pairwise_bf
from .constraints import (
    ConstraintModel,
    EncompassingDesign,
    ParseError,
    build_design,
    encompassing_of,
    model_to_string,
    parse_model_spec,
    region_contains,
    region_mask,
)
from .data import AnovaData, ingest_csv
from .evidence import (
    EvidenceResult,
    log_bf_encompassing_vs_null,
    log_marginal_chib,
    log_marginal_quadrature,
    null_loglik,
)
from .gaussian import RandomSource
from .intrinsic import CipSpec, NullParams, cip_logpdf, cip_sample, estimate_null_params, make_cip
from .posterior import (
    InsufficientPriorMassError,
    PosteriorDraws,
    RegionProbEstimate,
    log_bf_constrained_vs_encompassing,
    region_prob,
)
from .scenarios import MODEL_STRINGS, SimScenario, generate_scenario, make_preset, preset_names
from .simulate import PowerRow, SummaryTable, power_table, run_simulation_study

__version__ = "0.1.0"

__all__ = [
    "AnovaData",
    "BfBreakdown",
    "CipSpec",
    "ComparisonReport",
    "ConstraintModel",
    "EncompassingDesign",
    "EvidenceResult",
    "InsufficientPriorMassError",
    "MODEL_STRINGS",
    "NullParams",
    "ParseError",
    "PosteriorDraws",
    "PowerRow",
    "RandomSource",
    "RegionProbEstimate",
    "Settings",
    "SimScenario",
    "SummaryTable",
    "bf_k0",
    "build_design",
    "cip_logpdf",
    "cip_sample",
    "compare",
    "encompassing_of",
    "estimate_null_params",
    "generate_scenario",
    "ingest_csv",
    "log_bf_constrained_vs_encompassing",
    "log_bf_encompassing_vs_null",
    "log_marginal_chib",
    "log_marginal_quadrature",
    "make_cip",
    "make_preset",
    "model_to_string",
    "null_loglik",
    "pairwise_bf",
    "parse_model_spec",
    "power_table",
    "preset_names",
    "region_contains",
    "region_mask",
    "region_prob",
    "run_simulation_study",
]
