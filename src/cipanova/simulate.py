"""Replicated model comparison over simulated scenarios, plus the two-group power table."""

from __future__ import annotations

import math
import statistics
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass

from .compare import Settings, compare
from .constraints import ConstraintModel, encompassing_of
from .intrinsic import make_cip
from .posterior import cached_prior_cone_mass
from .scenarios import SimScenario, generate_scenario


@dataclass(frozen=True)
class PowerRow:
    delta: float
    n_per_group: int
    power: float


def power_table(deltas=(0.2, 0.3, 0.4), sigma: float = 1.0,
                n_per_group=(25, 50), z_crit: float = 1.96) -> list[PowerRow]:
    """One-sided detection probability of a two-group mean gap at the z threshold.

    The test statistic is the standardized difference of two group means, so
    power = P{Z > z} = erfc(z / sqrt 2) / 2 with z = z_crit - delta/sd and
    sd^2 = 2 sigma^2 / n.
    """
    if sigma <= 0 or any(n < 2 for n in n_per_group) or any(d < 0 for d in deltas):
        raise ValueError("need sigma > 0, n >= 2 and nonnegative deltas")
    rows = []
    for delta in deltas:
        for n in n_per_group:
            z = z_crit - delta / (sigma * (2.0 / n) ** 0.5)
            rows.append(PowerRow(delta=float(delta), n_per_group=int(n),
                                 power=0.5 * math.erfc(z / math.sqrt(2.0))))
    return rows


@dataclass(frozen=True)
class SummaryTable:
    """Share of replications won by each model and the true model's median probability."""

    scenario: str
    reps: int
    model_names: tuple[str, ...]
    top_share: dict[str, float]
    median_true_pmp: float

    def to_text(self) -> str:
        head = f"scenario {self.scenario}  ({self.reps} replications)"
        cols = "".join(f"{name:>10}" for name in self.model_names)
        shares = "".join(f"{100.0 * self.top_share[name]:>10.1f}" for name in self.model_names)
        return "\n".join([
            head,
            f"{'top model %':<14}{cols}",
            f"{'':<14}{shares}",
            f"median true-model posterior prob: {self.median_true_pmp:.4f}",
        ])


def _replicate(scenario: SimScenario, models: list[ConstraintModel],
               settings: Settings, r: int) -> dict:
    data = generate_scenario(scenario, r)
    report = compare(data, models, settings=settings)
    pmp = dict(zip(report.model_names, report.posterior_probs))
    top = max(range(len(report.model_names)),
              key=lambda i: (report.posterior_probs[i], -i))
    return {
        "type": "replication",
        "scenario": scenario.name,
        "rep": r,
        "seed": scenario.base_seed,
        "true_model": scenario.true_model,
        "top_model": report.model_names[top],
        "pmp": pmp,
        "log_bf": {bd.model: bd.log_bf_c_vs_0 for bd in report.breakdowns},
    }


def run_simulation_study(scenario: SimScenario, models: list[ConstraintModel],
                         settings: Settings | None = None, jobs: int = 1,
                         record_sink=None) -> SummaryTable:
    """Run every replication, stream records in index order, summarize the wins.

    Aggregation is keyed by replication index, so the summary does not depend
    on worker scheduling.  The prior cone masses are counted here, before any
    worker starts, so forked workers inherit them instead of counting them
    again.  On interrupt, records completed so far are flushed before the
    exception propagates.
    """
    if settings is None:
        settings = Settings()
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if all(m.name != scenario.true_model for m in models):
        raise ValueError(f"model list must include the true model {scenario.true_model!r}")
    for m in models:
        if m.has_order:
            spec = make_cip(encompassing_of(m), (scenario.n_per_group,) * m.J)
            cached_prior_cone_mass(m, spec.sizes, settings.prior_draws)
    records: dict[int, dict] = {}
    try:
        if jobs == 1:
            for r in range(scenario.reps):
                records[r] = _replicate(scenario, models, settings, r)
        else:
            # every worker forks at the first submit, so start no more than there are tasks
            with ProcessPoolExecutor(max_workers=min(jobs, scenario.reps)) as pool:
                pending = {pool.submit(_replicate, scenario, models, settings, r): r
                           for r in range(scenario.reps)}
                while pending:
                    done, _ = wait(pending, return_when=FIRST_COMPLETED)
                    for fut in done:
                        records[pending.pop(fut)] = fut.result()
    finally:
        if record_sink is not None:
            for r in sorted(records):
                record_sink(records[r])
    return summarize_records(scenario, models, [records[r] for r in sorted(records)])


def summarize_records(scenario: SimScenario, models: list[ConstraintModel],
                      records: list[dict]) -> SummaryTable:
    names = tuple(m.name for m in models)
    wins = {name: 0 for name in names}
    true_pmps = []
    for rec in records:
        wins[rec["top_model"]] += 1
        true_pmps.append(rec["pmp"][scenario.true_model])
    total = len(records)
    return SummaryTable(
        scenario=scenario.name,
        reps=total,
        model_names=names,
        top_share={name: wins[name] / total for name in names},
        median_true_pmp=float(statistics.median(true_pmps)),
    )
