"""Bayes factors for ANOVA models with order and equality constraints.

Models are defined by constraints on group means (equalities merge groups,
inequalities orient them). Each model's evidence combines the marginal
likelihood of its collapsed design under a conditional intrinsic prior with
the prior and posterior probabilities of its inequality region.
"""

from .compare import BfBreakdown, Settings, compare
from .constraints import ConstraintModel, encompassing_of, parse_model_spec
from .data import AnovaData
from .gaussian import RandomSource
from .intrinsic import NullParams, make_cip
from .posterior import InsufficientPriorMassError

__version__ = "0.1.0"

__all__ = [
    "AnovaData",
    "BfBreakdown",
    "ConstraintModel",
    "InsufficientPriorMassError",
    "NullParams",
    "RandomSource",
    "Settings",
    "compare",
    "encompassing_of",
    "make_cip",
    "parse_model_spec",
]
