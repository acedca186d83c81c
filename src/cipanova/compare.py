"""Bayes factors against the null and posterior model probabilities.

Each constrained model's Bayes factor against the null composes two factors
through its encompassing design: evidence of the design against the point
null, and the posterior-to-prior cone mass ratio of the order constraints.
posterior.py computes the two cone masses exactly; _breakdown composes the
Bayes factor, or the upper bound of an unresolved one, from them and the
evidence.  Both factors read one prepared design per encompassing design and
call, so the common prior cancels exactly and the posterior cone mass mixes
over the evidence rule's own Gauss-Chebyshev nodes and weights.  Model
probabilities follow from the Bayes factors and prior model weights: each
exp(log posterior weight - the largest) over the sum of them.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from .constraints import ConstraintModel, encompassing_of, model_to_string
from .data import AnovaData, GroupStats
from .evidence import EVIDENCE_TOL, EvidenceResult, PreparedIntegrand, null_log_density
from .gaussian import RandomSource
from .intrinsic import NullParams, make_cip, null_fit
from .posterior import (
    ConeMass,
    InsufficientPriorMassError,
    PosteriorConeMass,
    posterior_cone_mass,
    prior_cone_mass,
    truncation_floor,
)


@dataclass(frozen=True)
class Settings:
    """An order whose prior cone mass is below 1/prior_draws is refused; answers do not use it."""

    prior_draws: int = 100_000
    # Ignored: the posterior is drawn exactly, with no chain.  The two retired
    # chain lengths are still accepted so callers that pass them keep working.
    mcmc_iters: int | None = None
    burnin: int | None = None

    def __post_init__(self) -> None:
        value = self.prior_draws
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"prior_draws must be an integer, got {value!r}")
        if value < 1:
            raise ValueError("draw counts must be positive")


@dataclass(frozen=True)
class BfBreakdown:
    """Log Bayes factor of one model against the null, split into its factors.

    prior_region and post_region are the cone masses of an ordered model.  An
    unresolved posterior mass gives log_bf_c_vs_e -inf and resolution_bound,
    the log BF its upper bound would give.
    """

    model: str
    log_bf_e_vs_0: float
    log_bf_c_vs_e: float
    log_bf_c_vs_0: float
    evidence: EvidenceResult | None = None
    prior_region: ConeMass | None = None
    post_region: PosteriorConeMass | None = None
    below_resolution: bool = False
    resolution_bound: float | None = None

    def __post_init__(self) -> None:
        if self.log_bf_c_vs_0 != self.log_bf_e_vs_0 + self.log_bf_c_vs_e:
            raise ValueError("total must be the exact sum of the two factors")


def bf_k0(stats: GroupStats, models: list[ConstraintModel], theta0: NullParams,
          settings: Settings) -> tuple[BfBreakdown, ...]:
    """Bayes factor breakdown of each model against the null on one dataset's group statistics.

    Models on one encompassing design share its PreparedIntegrand, so each
    design's class statistics, evidence and eta nodes are computed once per
    call.  The prior masses alone decide a refusal, so all are checked first:
    one below 1/prior_draws or the truncation floor is refused.
    """
    names = [m.name or model_to_string(m) for m in models]
    if len(set(names)) != len(names):
        raise ValueError("duplicate model names")
    # keyed by the equality classes, which are the encompassing design, so
    # each design is built once, when its classes are first met
    prepared: dict[tuple[tuple[int, ...], ...], PreparedIntegrand] = {}
    priors = {}
    for i, model in enumerate(models):
        if model.J != len(stats.sizes):
            raise ValueError(f"model is over {model.J} groups, data has {len(stats.sizes)}")
        if not model.is_null and model.classes not in prepared:
            prepared[model.classes] = PreparedIntegrand(
                stats, theta0, make_cip(encompassing_of(model), stats.sizes))
        if model.has_order:
            priors[i] = prior_cone_mass(model, tuple(int(n) for n in prepared[model.classes].sizes))
            least = max(1.0 / settings.prior_draws, truncation_floor(model))
            if priors[i].estimate < least:
                raise InsufficientPriorMassError(
                    f"the prior cone mass of {names[i]}, {priors[i].estimate:.3g}, is below "
                    f"{least:.3g}, the larger of 1/prior_draws and the truncation floor")
    log_null = null_log_density(stats, theta0)
    return tuple(_breakdown(model, name, prepared.get(model.classes), log_null, priors.get(i))
                 for i, (model, name) in enumerate(zip(models, names)))


def _breakdown(model: ConstraintModel, name: str, prep: PreparedIntegrand | None,
               log_null: float, prior: ConeMass | None) -> BfBreakdown:
    if prep is None:
        return BfBreakdown(model=name, log_bf_e_vs_0=0.0, log_bf_c_vs_e=0.0, log_bf_c_vs_0=0.0)
    ev = prep.evidence
    lbf_e0 = ev.log_marginal - log_null
    if prior is None:
        return BfBreakdown(model=name, log_bf_e_vs_0=lbf_e0, log_bf_c_vs_e=0.0,
                           log_bf_c_vs_0=lbf_e0 + 0.0, evidence=ev)
    post = posterior_cone_mass(model, prep)
    below = post.estimate is None
    log_prior = np.log(prior.estimate)
    # an unresolved posterior mass gives no log BF, only its upper bound
    lbf_ce = -np.inf if below else float(np.log(post.estimate) - log_prior)
    return BfBreakdown(
        model=name, log_bf_e_vs_0=lbf_e0, log_bf_c_vs_e=lbf_ce, log_bf_c_vs_0=lbf_e0 + lbf_ce,
        evidence=ev, prior_region=prior, post_region=post, below_resolution=below,
        resolution_bound=float(post.log_upper_bound - log_prior) if below else None)


@dataclass(frozen=True)
class ComparisonReport:
    """Per-model breakdowns, log Bayes factors against the reference and model probabilities."""

    theta0: NullParams
    model_names: tuple[str, ...]
    breakdowns: tuple[BfBreakdown, ...]
    prior_probs: tuple[float, ...]
    posterior_probs: tuple[float, ...]
    log_display_bf: tuple[float, ...]
    reference: str

    @property
    def display_bf(self) -> tuple[float, ...]:
        """Bayes factors against the reference: inf or 0.0 past the float range."""
        with np.errstate(over="ignore"):
            return tuple(float(b) for b in np.exp(np.array(self.log_display_bf)))

    def to_record(self) -> dict:
        models = []
        for name, bd, prior_p, pmp, dbf in zip(self.model_names, self.breakdowns,
                                               self.prior_probs, self.posterior_probs,
                                               self.display_bf):
            entry = {
                "name": name,
                "log_bf_e_vs_0": bd.log_bf_e_vs_0,
                "log_bf_c_vs_e": bd.log_bf_c_vs_e,
                "log_bf_c_vs_0": bd.log_bf_c_vs_0,
                "prior_prob": prior_p,
                "posterior_prob": pmp,
                "display_bf": dbf,
            }
            if bd.evidence is not None:
                entry["evidence"] = asdict(bd.evidence)
            if bd.prior_region is not None:
                entry["prior_region"] = asdict(bd.prior_region)
                post = asdict(bd.post_region)
                del post["log_upper_bound"]  # the record keeps the bound itself
                post["upper_bound"] = bd.post_region.upper_bound
                entry["post_region"] = post
            if bd.below_resolution:
                entry["below_resolution"] = True
                entry["resolution_bound"] = bd.resolution_bound
            models.append(entry)
        return {
            "theta0": {"alpha0": self.theta0.alpha0, "sigma0": self.theta0.sigma0},
            "reference": self.reference,
            "models": models,
        }

    def to_text(self) -> str:
        width = max([14, *map(len, self.model_names)])
        bf_head = "BF vs " + self.reference
        bfs = [_format_bf(*bf) for bf in zip(self.display_bf, self.log_display_bf)]
        bf_width = max([18] + [len(text) + 1 for text in [bf_head, *bfs]])
        header = f"{'model':<{width}}{'log BF vs null':>16}{bf_head:>{bf_width}}{'post prob':>12}"
        lines = [
            f"null fit: alpha0={self.theta0.alpha0:.6g} sigma0={self.theta0.sigma0:.6g}",
            header,
            "-" * len(header),
        ]
        for name, bd, pmp, bf in zip(self.model_names, self.breakdowns, self.posterior_probs, bfs):
            notes = ["(posterior mass unresolved)"] if bd.below_resolution else []
            if bd.evidence is not None and bd.evidence.node_doubling_delta >= EVIDENCE_TOL:
                notes.append(
                    f"(evidence unconverged: delta={bd.evidence.node_doubling_delta:.2g} nat)")
            note = "".join("  " + n for n in notes)
            lines.append(f"{name:<{width}}{_format_log_bf(bd.log_bf_c_vs_0):>16}"
                         f"{bf:>{bf_width}}{pmp:>12.4f}{note}")
        return "\n".join(lines)


def _format_log_bf(value: float) -> str:
    """Fixed point while it leaves the 16-character column a space to spare; else exponent."""
    text = f"{value:.4f}"
    return text if len(text) < 16 else f"{value:.4e}"


def _format_bf(bf: float, log_bf: float) -> str:
    """Fixed point inside [1e-4, 1e12], where it fits the column and keeps digits; else exponent.

    Where bf is past the float range, inf or 0.0, the exponent form comes from
    log_bf while it leaves the 18-character column a space to spare.
    """
    text = f"{bf:.4f}" if 1e-4 <= bf <= 1e12 else f"{bf:.4e}"
    if 0.0 < bf < math.inf or log_bf == -math.inf:  # -inf: an unresolved model
        return text
    exponent, frac = divmod(log_bf / math.log(10.0), 1.0)
    mantissa, carry = f"{10.0 ** frac:.4e}".split("e")  # carry is 1 where it rounds to 10
    wide = f"{mantissa}e{int(exponent) + int(carry):+03d}"
    return wide if len(wide) < 18 else text


def compare(data: AnovaData, models: list[ConstraintModel],
            prior_probs=None, settings: Settings | None = None,
            rng: RandomSource | None = None,
            theta0: NullParams | None = None) -> ComparisonReport:
    """Compare the models on one dataset under a shared null fit.

    The responses are read once, into the group statistics every factor
    reads.  The results depend on no seed, and rng is accepted and ignored.
    """
    if not models:
        raise ValueError("no models given")
    if settings is None:
        settings = Settings()
    if prior_probs is None:
        weights = np.full(len(models), 1.0 / len(models))
    else:
        weights = np.asarray(prior_probs, dtype=float)
        if weights.shape != (len(models),):
            raise ValueError(f"prior_probs must have length {len(models)}")
        if not np.all(np.isfinite(weights) & (weights > 0.0)):
            raise ValueError("prior probabilities must be finite and positive")
        weights = weights / weights.sum()
    stats = GroupStats.of(data.responses, data.group_sizes)
    if theta0 is None:
        theta0 = null_fit(stats)

    breakdowns = bf_k0(stats, models, theta0, settings)
    names = [bd.model for bd in breakdowns]
    log_bf = np.array([bd.log_bf_c_vs_0 for bd in breakdowns])
    if np.all(log_bf == -np.inf):
        raise ValueError(
            "no model has a resolved posterior cone mass, so every Bayes factor is "
            "below resolution and the model probabilities are undefined")
    log_post = np.log(weights) + log_bf
    # normalized by their own sum, so they sum to 1 however large the log BFs
    pmp = np.exp(log_post - np.max(log_post))
    pmp /= pmp.sum()

    ref_idx = next((i for i, m in enumerate(models) if m.is_encompassing), None)
    reference = "null" if ref_idx is None else names[ref_idx]
    log_display = log_bf if ref_idx is None else log_bf - log_bf[ref_idx]
    return ComparisonReport(
        theta0=theta0,
        model_names=tuple(names),
        breakdowns=breakdowns,
        prior_probs=tuple(float(w) for w in weights),
        posterior_probs=tuple(float(p) for p in pmp),
        log_display_bf=tuple(float(b) for b in log_display),
        reference=reference,
    )

