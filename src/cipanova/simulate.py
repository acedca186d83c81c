"""Replicated model comparison over simulated scenarios, plus the two-group power table."""

from __future__ import annotations

import math
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

from .compare import Settings, compare
from .constraints import ConstraintModel
from .scenarios import SimScenario, generate_scenario

# A pool starts only when each worker gets at least this many replications:
# below that, the pool's start and each worker's cold first replication cost
# more than the replications they share out (break-even table in CHANGES.md).
MIN_REPS_PER_WORKER = 8


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
        widths = [max(10, len(name) + 1) for name in self.model_names]
        cols = "".join(f"{name:>{w}}" for name, w in zip(self.model_names, widths))
        shares = "".join(f"{100.0 * self.top_share[name]:>{w}.1f}"
                         for name, w in zip(self.model_names, widths))
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

    A pool of ``min(jobs, reps // MIN_REPS_PER_WORKER)`` worker processes runs
    the replications when that is at least 2; otherwise they run here, one
    after another, since a pool's start costs more than it saves on a few
    replications.  Records do not depend on ``jobs``: each replication seeds
    its own data, and aggregation is keyed by replication index.

    ``record_sink`` gets each record as soon as it and every record of lower
    index are done.  Replication 0 runs here before any worker starts, so the
    per-process caches it fills (the prior cone masses and the quadrature
    rules) are inherited by forked workers instead of filled again.  If a
    replication, the sink or an interrupt raises, queued replications are
    cancelled and the exception propagates; the sink has had every record
    before the first unfinished one, and no later one.
    """
    if settings is None:
        settings = Settings()
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if all(m.name != scenario.true_model for m in models):
        raise ValueError(f"model list must include the true model {scenario.true_model!r}")
    sink = record_sink or (lambda rec: None)
    replicate = partial(_replicate, scenario, models, settings)
    records = [replicate(0)]
    sink(records[0])
    workers = min(jobs, scenario.reps // MIN_REPS_PER_WORKER)
    pool = ProcessPoolExecutor(max_workers=workers) if workers >= 2 else None
    try:
        # both maps yield in index order, each record once it and every earlier one are done
        for rec in (pool.map if pool else map)(replicate, range(1, scenario.reps)):
            records.append(rec)
            sink(rec)
    finally:
        if pool:
            # after an error, a plain shutdown would wait for every queued replication
            pool.shutdown(cancel_futures=True)
    return summarize_records(scenario, models, records)


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
