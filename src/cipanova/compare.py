"""Bayes factors against the null and posterior model probabilities.

Each constrained model's Bayes factor against the null composes two factors
through its encompassing design: evidence of the design against the point
null, and the posterior-to-prior cone mass ratio of the order constraints.
Both factors read one prepared design per encompassing design and call, so
the common prior cancels exactly and the exact posterior cone mass mixes over
the evidence rule's own Gauss-Jacobi nodes and weights.  Model probabilities
follow from the Bayes factors and prior model weights through a log-sum-exp
normalization.
"""

from __future__ import annotations

import numbers
from dataclasses import asdict, dataclass

import numpy as np

from .constraints import ConstraintModel, encompassing_of, model_to_string
from .data import AnovaData
from .evidence import EVIDENCE_TOL, EvidenceResult, PreparedIntegrand, null_loglik
from .gaussian import RandomSource, logsumexp
from .intrinsic import NullParams, estimate_null_params, make_cip
from .posterior import (
    PosteriorConeMass,
    RegionProbEstimate,
    below_resolution_bound,
    cached_prior_cone_mass,
    check_prior_mass,
    log_bf_constrained_vs_encompassing,
    log_bf_standard_error,
    posterior_cone_mass,
)


@dataclass(frozen=True)
class Settings:
    """Prior cone evaluations; the default suits desk-scale studies."""

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

    log_bf_se is the Monte Carlo standard error of log_bf_c_vs_e from the
    prior cone-mass hit count (the posterior mass is exact): 0 for a model
    without an order, None when the posterior mass is unresolved.  The prior
    mass is prior_draws cone evaluations from ceil(prior_draws/2) draws and
    their sign flips, whose delta-method error sqrt((1 - 2p)/hits) is 0 for
    a two-class order.  It is counted once per order, class sizes and
    prior_draws on a fixed stream, so every call with that key shares it.
    """

    model: str
    log_bf_e_vs_0: float
    log_bf_c_vs_e: float
    log_bf_c_vs_0: float
    evidence: EvidenceResult | None = None
    prior_region: RegionProbEstimate | None = None
    post_region: PosteriorConeMass | None = None
    below_resolution: bool = False
    resolution_bound: float | None = None
    log_bf_se: float | None = 0.0

    def __post_init__(self) -> None:
        if self.log_bf_c_vs_0 != self.log_bf_e_vs_0 + self.log_bf_c_vs_e:
            raise ValueError("total must be the exact sum of the two factors")


def bf_k0(data: AnovaData, models: list[ConstraintModel], theta0: NullParams,
          settings: Settings) -> tuple[BfBreakdown, ...]:
    """Bayes factor breakdown of each model against the null on one dataset.

    Models on one encompassing design share its PreparedIntegrand, so each
    design's class statistics, evidence and eta nodes are computed once per
    call.  The prior masses alone decide a refusal, so all are checked first.
    """
    names = [m.name or model_to_string(m) for m in models]
    if len(set(names)) != len(names):
        raise ValueError("duplicate model names")
    group_sizes = data.group_sizes
    designs = [encompassing_of(m) for m in models]
    prepared: dict[ConstraintModel, PreparedIntegrand] = {}
    priors = {}
    for i, (model, design) in enumerate(zip(models, designs)):
        if model.J != data.J:
            raise ValueError(f"model is over {model.J} groups, data has {data.J}")
        if not model.is_null and design not in prepared:
            prepared[design] = PreparedIntegrand(data.responses, theta0,
                                                 make_cip(design, group_sizes))
        if model.has_order:
            priors[i] = cached_prior_cone_mass(model, prepared[design].sizes, settings.prior_draws)
            check_prior_mass(priors[i])
    log_null = null_loglik(data.responses, theta0)
    return tuple(_breakdown(model, name, prepared.get(design), log_null, priors.get(i))
                 for i, (model, name, design) in enumerate(zip(models, names, designs)))


def _breakdown(model: ConstraintModel, name: str, prep: PreparedIntegrand | None,
               log_null: float, prior_est: RegionProbEstimate | None) -> BfBreakdown:
    if prep is None:
        return BfBreakdown(model=name, log_bf_e_vs_0=0.0, log_bf_c_vs_e=0.0, log_bf_c_vs_0=0.0)
    ev = prep.evidence
    lbf_e0 = ev.log_marginal - log_null
    if prior_est is None:
        return BfBreakdown(model=name, log_bf_e_vs_0=lbf_e0, log_bf_c_vs_e=0.0,
                           log_bf_c_vs_0=lbf_e0 + 0.0, evidence=ev)
    post_est = posterior_cone_mass(model, prep)
    lbf_ce = log_bf_constrained_vs_encompassing(prior_est, post_est)
    below = post_est.estimate is None
    return BfBreakdown(
        model=name, log_bf_e_vs_0=lbf_e0, log_bf_c_vs_e=lbf_ce, log_bf_c_vs_0=lbf_e0 + lbf_ce,
        log_bf_se=None if below else log_bf_standard_error(prior_est), evidence=ev,
        prior_region=prior_est, post_region=post_est, below_resolution=below,
        resolution_bound=below_resolution_bound(prior_est, post_est) if below else None)


@dataclass(frozen=True)
class ComparisonReport:
    """Per-model breakdowns, display Bayes factors and model probabilities."""

    theta0: NullParams
    model_names: tuple[str, ...]
    breakdowns: tuple[BfBreakdown, ...]
    prior_probs: tuple[float, ...]
    posterior_probs: tuple[float, ...]
    display_bf: tuple[float, ...]
    reference: str

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
                "log_bf_se": bd.log_bf_se,
                "prior_prob": prior_p,
                "posterior_prob": pmp,
                "display_bf": dbf,
            }
            if bd.evidence is not None:
                entry["evidence"] = asdict(bd.evidence)
            if bd.prior_region is not None:
                entry["prior_region"] = asdict(bd.prior_region)
                entry["post_region"] = {**asdict(bd.post_region), "side": "posterior"}
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
        header = f"{'model':<14}{'log BF vs null':>16}{'BF vs ' + self.reference:>18}{'post prob':>12}"
        lines = [
            f"null fit: alpha0={self.theta0.alpha0:.6g} sigma0={self.theta0.sigma0:.6g}",
            header,
            "-" * len(header),
        ]
        for name, bd, pmp, dbf in zip(self.model_names, self.breakdowns,
                                      self.posterior_probs, self.display_bf):
            notes = ["(posterior mass unresolved)"] if bd.below_resolution else []
            if bd.evidence is not None and bd.evidence.node_doubling_delta >= EVIDENCE_TOL:
                notes.append(
                    f"(evidence unconverged: delta={bd.evidence.node_doubling_delta:.2g} nat)")
            note = "".join("  " + n for n in notes)
            lines.append(f"{name:<14}{bd.log_bf_c_vs_0:>16.4f}{_format_bf(dbf):>18}{pmp:>12.4f}"
                         f"{note}")
        return "\n".join(lines)


def _format_bf(bf: float) -> str:
    """Fixed point inside [1e-4, 1e12], where it fits the column and keeps digits; else exponent."""
    return f"{bf:.4f}" if 1e-4 <= bf <= 1e12 else f"{bf:.4e}"


def compare(data: AnovaData, models: list[ConstraintModel],
            prior_probs=None, settings: Settings | None = None,
            rng: RandomSource | None = None,
            theta0: NullParams | None = None) -> ComparisonReport:
    """Compare the models on one dataset under a shared null fit.

    The results depend on no seed: the evidence and the posterior cone masses
    draw nothing, and the prior cone masses are counted on a fixed stream
    (posterior.cached_prior_cone_mass).  rng is accepted and ignored, so
    existing callers keep working.
    """
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
    if theta0 is None:
        theta0 = estimate_null_params(data)

    breakdowns = bf_k0(data, models, theta0, settings)
    names = [bd.model for bd in breakdowns]
    log_bf = np.array([bd.log_bf_c_vs_0 for bd in breakdowns])
    if np.all(log_bf == -np.inf):
        raise ValueError(
            "no model has a resolved posterior cone mass, so every Bayes factor is "
            "below resolution and the model probabilities are undefined")
    log_post = np.log(weights) + log_bf
    pmp = np.exp(log_post - logsumexp(log_post))

    ref_idx = next((i for i, m in enumerate(models) if m.is_encompassing), None)
    if ref_idx is None:
        reference = "null"
        display = np.exp(log_bf)
    else:
        reference = names[ref_idx]
        display = np.exp(log_bf - log_bf[ref_idx])
    return ComparisonReport(
        theta0=theta0,
        model_names=tuple(names),
        breakdowns=breakdowns,
        prior_probs=tuple(float(w) for w in weights),
        posterior_probs=tuple(float(p) for p in pmp),
        display_bf=tuple(float(b) for b in display),
        reference=reference,
    )


def pairwise_bf(report: ComparisonReport, name_k: str, name_l: str) -> float:
    """Bayes factor of model k against model l from their shared-null factors."""
    by_name = {bd.model: bd for bd in report.breakdowns}
    try:
        k, l = by_name[name_k], by_name[name_l]
    except KeyError as exc:
        raise ValueError(f"unknown model name {exc.args[0]!r}") from None
    return float(np.exp(k.log_bf_c_vs_0 - l.log_bf_c_vs_0))
