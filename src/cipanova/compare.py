"""Bayes factors against the null and posterior model probabilities.

Each constrained model's Bayes factor against the null composes two factors
through its encompassing design: evidence of the design against the point
null, and the posterior-to-prior cone mass ratio of the order constraints.
Both factors are computed from one shared prior spec per model so the common
prior cancels exactly; the posterior draws use the same Gauss-Jacobi nodes as
the evidence rule.  Model probabilities follow from the Bayes factors and
prior model weights through a log-sum-exp normalization.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import logsumexp

from .constraints import ConstraintModel, encompassing_of, model_to_string
from .data import AnovaData
from .evidence import EvidenceResult, log_marginal_chib, log_marginal_quadrature, null_loglik
from .gaussian import RandomSource
from .intrinsic import NullParams, cip_sample, estimate_null_params, make_cip
from .posterior import (
    RegionProbEstimate,
    below_resolution_bound,
    log_bf_constrained_vs_encompassing,
    region_prob,
    sample_posterior,
)


@dataclass(frozen=True)
class Settings:
    """Draw counts and method switches; defaults suit desk-scale studies."""

    prior_draws: int = 100_000
    # Ignored: the posterior is drawn exactly, with no chain.  The two retired
    # chain lengths are still accepted so callers that pass them keep working.
    mcmc_iters: int | None = None
    burnin: int | None = None
    quadrature_nodes: int = 64
    evidence_method: str = "quadrature"
    chib_iters: int = 20_000

    def __post_init__(self) -> None:
        if self.evidence_method not in ("quadrature", "chib"):
            raise ValueError(f"unknown evidence method {self.evidence_method!r}")
        if min(self.prior_draws, self.quadrature_nodes, self.chib_iters) < 1:
            raise ValueError("draw counts must be positive")


@dataclass(frozen=True)
class BfBreakdown:
    """Log Bayes factor of one model against the null, split into its factors."""

    model: str
    log_bf_e_vs_0: float
    log_bf_c_vs_e: float
    log_bf_c_vs_0: float
    evidence: EvidenceResult | None = None
    prior_region: RegionProbEstimate | None = None
    post_region: RegionProbEstimate | None = None
    below_resolution: bool = False
    resolution_bound: float | None = None

    def __post_init__(self) -> None:
        if self.log_bf_c_vs_0 != self.log_bf_e_vs_0 + self.log_bf_c_vs_e:
            raise ValueError("total must be the exact sum of the two factors")


def bf_k0(data: AnovaData, model: ConstraintModel, theta0: NullParams,
          settings: Settings, rng: RandomSource) -> BfBreakdown:
    """Bayes factor breakdown of one model against the null on one dataset."""
    if model.J != data.J:
        raise ValueError(f"model is over {model.J} groups, data has {data.J}")
    name = model.name or model_to_string(model)
    if model.is_null:
        return BfBreakdown(model=name, log_bf_e_vs_0=0.0, log_bf_c_vs_e=0.0,
                           log_bf_c_vs_0=0.0)
    design = encompassing_of(model)
    spec = make_cip(design, data.group_sizes)
    y = data.responses
    if settings.evidence_method == "chib":
        ev = log_marginal_chib(y, theta0, spec, N=settings.chib_iters,
                               rng=rng.split(2).generator())
    else:
        ev = log_marginal_quadrature(y, theta0, spec, nodes=settings.quadrature_nodes)
    lbf_e0 = ev.log_marginal - null_loglik(y, theta0)

    if not model.has_order:
        return BfBreakdown(model=name, log_bf_e_vs_0=lbf_e0, log_bf_c_vs_e=0.0,
                           log_bf_c_vs_0=lbf_e0 + 0.0, evidence=ev)

    prior = cip_sample(theta0, spec, settings.prior_draws, rng.split(0).generator())
    prior_est = region_prob(prior, model)
    post = sample_posterior(y, theta0, spec, settings.quadrature_nodes,
                            rng.split(1).generator())
    post_est = region_prob(post, model)
    lbf_ce = log_bf_constrained_vs_encompassing(prior_est, post_est)
    below = post_est.hits == 0
    return BfBreakdown(
        model=name,
        log_bf_e_vs_0=lbf_e0,
        log_bf_c_vs_e=lbf_ce,
        log_bf_c_vs_0=lbf_e0 + lbf_ce,
        evidence=ev,
        prior_region=prior_est,
        post_region=post_est,
        below_resolution=below,
        resolution_bound=below_resolution_bound(prior_est, post_est) if below else None,
    )


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
                "prior_prob": prior_p,
                "posterior_prob": pmp,
                "display_bf": dbf,
            }
            if bd.evidence is not None:
                entry["evidence"] = asdict(bd.evidence)
            if bd.prior_region is not None:
                entry["prior_region"] = asdict(bd.prior_region)
                entry["post_region"] = asdict(bd.post_region)
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
            note = "  (below MC resolution)" if bd.below_resolution else ""
            lines.append(f"{name:<14}{bd.log_bf_c_vs_0:>16.4f}{dbf:>18.4f}{pmp:>12.4f}{note}")
        return "\n".join(lines)


def compare(data: AnovaData, models: list[ConstraintModel],
            prior_probs=None, settings: Settings | None = None,
            rng: RandomSource | None = None,
            theta0: NullParams | None = None) -> ComparisonReport:
    """Compare the models on one dataset under a shared null fit."""
    if settings is None:
        settings = Settings()
    if rng is None:
        rng = RandomSource(0)
    names = [m.name or model_to_string(m) for m in models]
    if len(set(names)) != len(names):
        raise ValueError("duplicate model names")
    if prior_probs is None:
        weights = np.full(len(models), 1.0 / len(models))
    else:
        weights = np.asarray(prior_probs, dtype=float)
        if weights.shape != (len(models),):
            raise ValueError(f"prior_probs must have length {len(models)}")
        if np.any(weights <= 0.0):
            raise ValueError("prior probabilities must be positive")
        weights = weights / weights.sum()
    if theta0 is None:
        theta0 = estimate_null_params(data)

    breakdowns = tuple(bf_k0(data, m, theta0, settings, rng.split(i))
                       for i, m in enumerate(models))
    log_bf = np.array([bd.log_bf_c_vs_0 for bd in breakdowns])
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
