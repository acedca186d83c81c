"""Workloads, timed loops and output checks of the cipanova benchmark.

Imported by run.py inside a child process, after the checkout's `src/` is on
sys.path.  The timed paths use only the documented entry points: `compare`,
`parse_model_spec`, `AnovaData` and `RandomSource`, and `cipanova.cli.main`
for `simulate`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import time
from dataclasses import dataclass, field

import numpy as np
import scipy

import calibrate
import cipanova
from cipanova import AnovaData, RandomSource, compare, parse_model_spec
from cipanova.cli import main as cli_main

import oracle
import tracing

# Log BF errors below 1e-6 nat read as 1e-6.  That is far below any difference
# that changes a model ranking, and smaller errors (which depend on where the
# integrand's peak falls between quadrature nodes) spread too widely from seed
# to seed to be gated; the raw value is still printed as log_bf_err_raw.
ERR_FLOOR = 1e-6
PMP_TOL = 1e-12
MIN_CALLS_FOR_P90 = 100
# Operations are timed in blocks of at least this long between two reference
# kernel timings (see calibrate.py).
BLOCK_S = 1.0


@dataclass(frozen=True)
class ModelDef:
    """A model string plus, for unordered models, its equality classes for the oracle."""

    name: str
    text: str
    classes: tuple[tuple[int, ...], ...] | None = None


def _null(J):
    return ModelDef("M0", " = ".join(f"mu{j}" for j in range(1, J + 1)))


def _free(J):
    return ModelDef("Me", ", ".join(f"mu{j}" for j in range(1, J + 1)),
                    tuple((j,) for j in range(1, J + 1)))


def _tiny_settings():
    return cipanova.Settings(prior_draws=2_000, mcmc_iters=1_500, burnin=300)


def _is_refusal(exc: BaseException) -> bool:
    """The program's documented refusal when no prior draw lands in the cone."""
    return any(c.__name__ == "InsufficientPriorMassError" for c in type(exc).__mro__)


def _grouped(rng, means, sds, sizes):
    y = np.concatenate([m + s * rng.standard_normal(n) for m, s, n in zip(means, sds, sizes)])
    return AnovaData(responses=y, groups=np.repeat(np.arange(1, len(sizes) + 1), sizes))


def _call_seed(seed: int, i: int) -> int:
    """Seed of the i-th operation of a run: fresh per operation, fixed by the run's seed."""
    return seed * 1_000_003 + i


def _peak_rss_mb(children: int = 0) -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if children else 0
    return (own + children * kids) / 1024.0


@dataclass
class Outcome:
    status: str  # "ok", "refused" or "failed"
    seconds: float
    record: dict | None = None
    detail: str = ""
    scaled: float = math.nan  # seconds at reference speed


@dataclass
class Result:
    attempted: int
    failed: int
    failures: list[str]
    metrics: dict[str, float]
    report: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)


class CompareLoop:
    """One client calling `compare` in a closed loop over a fixed round of calls.

    Each round is `plan`, a list of (dataset index, model list) pairs; every
    call gets a fresh seed.  Timed loops run whole rounds, so shares such as
    the answer rate do not depend on where the clock stops.  Calls at the
    plan indices in `may_refuse` hold a cone whose prior mass is below the
    prior draws' resolution: there the program's documented refusal is an
    answer-rate loss, anywhere else it is a failed call.
    """

    def __init__(self, seed: int, datasets, plan, tiny: bool, may_refuse=()) -> None:
        self.seed = seed
        self.datasets = datasets
        self.defs = plan
        self.may_refuse = frozenset(may_refuse)
        self.plan = [(d, [parse_model_spec(m.text, J=datasets[d].J, name=m.name) for m in models])
                     for d, models in plan]
        self.kwargs = {"settings": _tiny_settings()} if tiny else {}

    def run_op(self, i: int, tracer: tracing.Tracer | None = None) -> Outcome:
        d, models = self.plan[i % len(self.plan)]
        span = tracer.span("compare") if tracer else contextlib.nullcontext()
        rng = RandomSource(_call_seed(self.seed, i))
        start = time.perf_counter()
        try:
            with span:
                report = compare(self.datasets[d], models, rng=rng, **self.kwargs)
        except Exception as exc:  # one op's failure is counted, the loop goes on
            seconds = time.perf_counter() - start
            expected = _is_refusal(exc) and i % len(self.plan) in self.may_refuse
            status = "refused" if expected else "failed"
            return Outcome(status, seconds, detail=f"{type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - start
        return Outcome("ok", seconds, record=report.to_record())

    def warm_up(self) -> None:
        self.run_op(0)

    def measure(self, seconds: float, trace: bool) -> Result:
        """Untraced rounds, or with `trace` untraced and traced rounds in turn."""
        tracer = tracing.Tracer()
        plain: list[Outcome] = []
        traced: list[Outcome] = []
        kernel = [calibrate.kernel_seconds()]
        i = 0
        start = time.perf_counter()
        while True:
            block: list[Outcome] = []
            block_start = time.perf_counter()
            while time.perf_counter() - block_start < BLOCK_S:
                for outcomes, with_trace in ((plain, False), (traced, True))[:1 + trace]:
                    with (tracing.probes_installed(tracer) if with_trace
                          else contextlib.nullcontext()):
                        for _ in self.plan:
                            outcomes.append(self.run_op(i, tracer if with_trace else None))
                            block.append(outcomes[-1])
                            i += 1
            kernel.append(calibrate.kernel_seconds())
            for o in block:
                o.scaled = calibrate.scale(o.seconds, kernel[-2], kernel[-1])
            if time.perf_counter() - start >= seconds:
                break
        ops = plain + traced
        failures = self.check(ops)
        failed = sum(o.status == "failed" for o in ops)
        answered = sum(o.status == "ok" for o in ops)
        times = [o.scaled for o in plain]
        report = {
            "calls": len(ops),
            "refused": sum(o.status == "refused" for o in ops),
            "error_rate": (len(ops) - answered) / len(ops),
            "log_bf_mc_sd": self.mc_sd(ops),
            "log_bf_err_raw": self.log_bf_err(ops),
            "call_p50_wall_s": statistics.median(o.seconds for o in plain),
            "kernel_s_median": statistics.median(kernel),
        }
        if len(times) >= MIN_CALLS_FOR_P90:
            report["call_p90_s"] = statistics.quantiles(times, n=10)[-1]
        if trace:
            metrics = tracing.layer_metrics(tracer, len(traced))
            metrics["trace.overhead_s"] = (statistics.median(o.scaled for o in traced)
                                           - statistics.median(times))
            metrics["posterior.log_bf_mc_sd"] = report["log_bf_mc_sd"]
            spans = tracer.spans
        else:
            metrics = {
                "call_p50_s": statistics.median(times),
                "ops_per_s": len(plain) / math.fsum(times),
                "answer_rate": answered / len(ops),
                "log_bf_err": max(report["log_bf_err_raw"], ERR_FLOOR),
                "peak_rss_mb": _peak_rss_mb(),
            }
            spans = []
        return Result(len(ops), failed, failures, metrics, report, spans)

    def check(self, ops: list[Outcome]) -> list[str]:
        """Output checks, run after timing: probabilities, finiteness, reproducibility."""
        failures = []
        for i, o in enumerate(ops):
            if o.status == "failed":
                failures.append(f"call {i} failed: {o.detail}")
            elif o.status == "ok":
                failures += [f"call {i}: {msg}" for msg in
                             _check_record(o.record, self.defs[i % len(self.defs)][1])]
        again = self.run_op(0)
        first = ops[0]
        if again.status != first.status or _canonical(again.record) != _canonical(first.record):
            failures.append("the same seed twice did not give bit-identical breakdowns")
        return failures

    def log_bf_err(self, ops: list[Outcome]) -> float:
        """Max |log BF vs null - oracle| over unordered non-null models."""
        refs: dict[tuple[int, str], float] = {}
        for d, models in self.defs:
            data = self.datasets[d]
            for m in models:
                if m.classes is not None and (d, m.name) not in refs:
                    refs[d, m.name] = oracle.log_bf_vs_null(data.responses, data.groups,
                                                            m.classes)
        err = 0.0
        for i, o in enumerate(ops):
            if o.status != "ok":
                continue
            d = self.defs[i % len(self.defs)][0]
            for entry in o.record["models"]:
                ref = refs.get((d, entry["name"]))
                if ref is not None:
                    err = max(err, abs(entry["log_bf_c_vs_0"] - ref))
        return err

    def mc_sd(self, ops: list[Outcome]) -> float:
        """Max over models of the across-call SD of log BF, among models finite in every call."""
        values: dict[tuple[int, str], list[float]] = {}
        for i, o in enumerate(ops):
            if o.status == "ok":
                for entry in o.record["models"]:
                    values.setdefault((i % len(self.plan), entry["name"]), []).append(
                        entry["log_bf_c_vs_0"])
        sds = [statistics.stdev(v) for v in values.values()
               if len(v) > 1 and all(math.isfinite(x) for x in v)]
        return max(sds, default=0.0)


def _canonical(record) -> str:
    return json.dumps(record, sort_keys=True)


def _check_record(record: dict, models) -> list[str]:
    out = []
    entries = record["models"]
    if [e["name"] for e in entries] != [m.name for m in models]:
        out.append("model names do not match the request")
    total = math.fsum(e["posterior_prob"] for e in entries)
    if abs(total - 1.0) > PMP_TOL:
        out.append(f"posterior model probabilities sum to {total!r}")
    for e in entries:
        lbf = e["log_bf_c_vs_0"]
        if e["name"] == "M0" and lbf != 0.0:
            out.append(f"null log BF is {lbf}, not 0")
        if not (math.isfinite(lbf) or (lbf == -math.inf and e.get("below_resolution"))):
            out.append(f"{e['name']}: log BF {lbf} is not finite and not flagged")
    return out


def pop3_compare(seed: int, tiny: bool) -> CompareLoop:
    """The paper's pop3 population, n_per_group 25, with the preset's four models."""
    data = _grouped(np.random.default_rng(seed), (2.23, 1.33, 3.23, 2.33, 3.23),
                    (1.55,) * 5, (25,) * 5)
    models = [_null(5), ModelDef("M2", "mu1 < mu2 < mu3 < mu4 < mu5"),
              ModelDef("M3", "mu2 < mu1 < mu4 < {mu3 = mu5}"), _free(5)]
    return CompareLoop(seed, [data], [(0, models)], tiny)


LARGE_N_SIZES = (1, 50, 200, 500, 1000, 1500, 2000, 3000, 4000, 7749)
TINY_LARGE_N_SIZES = (1, 3, 10, 25, 50, 75, 100, 150, 200, 386)


def large_n_unordered(seed: int, tiny: bool) -> CompareLoop:
    """J=10 unbalanced groups (n=20000, one singleton), small trend, no order constraint."""
    rng = np.random.default_rng(seed)
    sizes = TINY_LARGE_N_SIZES if tiny else LARGE_N_SIZES
    means = tuple(0.02 * j for j in range(10))
    datasets = [_grouped(rng, means, (1.0,) * 10, sizes) for _ in range(4)]
    tie = ModelDef("tie", "mu1 = mu2 = mu3 = mu4 = mu5, mu6 = mu7 = mu8 = mu9 = mu10",
                   ((1, 2, 3, 4, 5), (6, 7, 8, 9, 10)))
    models = [_null(10), tie, _free(10)]
    return CompareLoop(seed, datasets, [(d, models) for d in range(len(datasets))], tiny)


def j10_orders(seed: int, tiny: bool) -> CompareLoop:
    """J=10 groups of 20; a 5-vs-5 partial order (mass 1/252) and the total order (1/10!)."""
    data = _grouped(np.random.default_rng(seed), tuple(0.1 * j for j in range(10)),
                    (1.0,) * 10, (20,) * 10)
    split = ModelDef("split", "{mu1, mu2, mu3, mu4, mu5} < {mu6, mu7, mu8, mu9, mu10}")
    total = ModelDef("total", " < ".join(f"mu{j}" for j in range(1, 11)))
    return CompareLoop(seed, [data], [(0, [_null(10), split, _free(10)]),
                                      (0, [_null(10), total, _free(10)])], tiny, may_refuse={1})


class SimulateLoop:
    """`cipanova simulate pop2l --n-per-group 50 --jobs 2 --output records`, in-process.

    Each invocation runs REPS replications under a fresh seed; an operation
    is one replication.
    """

    REPS = 2
    JOBS = 2

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.n_per_group = 10 if tiny else 50
        self.extra = (["--prior-draws", "2000", "--mcmc-iters", "1500", "--burnin", "300"]
                      if tiny else [])

    def invoke(self, i: int, jobs: int, tracer: tracing.Tracer | None = None):
        """Run one invocation; return its wall seconds, exit code and output lines."""
        argv = ["simulate", "pop2l", "--n-per-group", str(self.n_per_group), "--jobs", str(jobs),
                "--output", "records", "--reps", str(self.REPS),
                "--seed", str(_call_seed(self.seed, i)), *self.extra]
        buf = io.StringIO()
        traced = (tracing.probes_installed(tracer) if tracer else contextlib.nullcontext())
        span = tracer.span("simulate") if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        with traced, span, contextlib.redirect_stdout(buf):
            code = cli_main(argv)
        seconds = time.perf_counter() - start
        return seconds, code, buf.getvalue().splitlines()

    def warm_up(self) -> None:
        self.invoke(0, self.JOBS)

    def measure(self, seconds: float, trace: bool) -> Result:
        tracer = tracing.Tracer()
        runs = []  # (invocation index, jobs, traced, seconds at reference speed, code, lines)
        kernel = [calibrate.kernel_seconds()]
        wall = []
        i = 0
        start = time.perf_counter()
        while True:
            sides = ((self.JOBS, False), (1, False), (1, True)) if trace else ((self.JOBS, False),)
            for jobs, with_trace in sides:
                seconds_i, code, lines = self.invoke(i, jobs, tracer if with_trace else None)
                kernel.append(calibrate.kernel_seconds())
                scaled = calibrate.scale(seconds_i, kernel[-2], kernel[-1])
                runs.append((i, jobs, with_trace, scaled, code, lines))
                if jobs == self.JOBS:
                    wall.append(seconds_i)
            i += 1
            if time.perf_counter() - start >= seconds:
                break
        if not trace:
            # bit-identity across --jobs, checked outside the timed loop
            runs.append((0, 1, False, *self.invoke(0, 1)))
        failures = self.check(runs)
        main = [r for r in runs if r[1] == self.JOBS]
        failed_runs = sum(r[4] != 0 for r in main)
        attempted = len(main) * self.REPS
        report = {"invocations": len(main), "reps_per_invocation": self.REPS,
                  "error_rate": failed_runs * self.REPS / attempted,
                  "log_bf_err_raw": self.log_bf_err(runs),
                  "call_p50_wall_s": statistics.median(wall),
                  "kernel_s_median": statistics.median(kernel)}
        if trace:
            jobs1 = statistics.median(r[3] for r in runs if r[1] == 1 and not r[2])
            jobs1_traced = statistics.median(r[3] for r in runs if r[2])
            jobs2 = statistics.median(r[3] for r in main)
            traced_reps = sum(r[2] for r in runs) * self.REPS
            metrics = tracing.layer_metrics(tracer, traced_reps)
            metrics["simulate.pool_efficiency"] = jobs1 / (self.JOBS * jobs2)
            metrics["trace.overhead_s"] = (jobs1_traced - jobs1) / self.REPS
            metrics["posterior.log_bf_mc_sd"] = 0.0
            spans = tracer.spans
        else:
            metrics = {
                "call_p50_s": statistics.median(r[3] for r in main),
                "ops_per_s": attempted / math.fsum(r[3] for r in main),
                "answer_rate": (attempted - failed_runs * self.REPS) / attempted,
                "log_bf_err": max(report["log_bf_err_raw"], ERR_FLOOR),
                "peak_rss_mb": _peak_rss_mb(children=self.JOBS),
            }
            spans = []
        return Result(attempted, failed_runs * self.REPS, failures, metrics, report, spans)

    def check(self, runs) -> list[str]:
        failures = []
        by_invocation: dict[int, list[str]] = {}
        for i, jobs, _traced, _seconds, code, lines in runs:
            if code != 0:
                failures.append(f"simulate invocation {i} (jobs={jobs}) exited with {code}")
                continue
            failures += [f"invocation {i}: {msg}" for msg in self._check_lines(lines)]
            reps = [ln for ln in lines if json.loads(ln).get("type") == "replication"]
            if i in by_invocation and by_invocation[i] != reps:
                failures.append(f"invocation {i}: records differ between --jobs settings")
            by_invocation.setdefault(i, reps)
        return failures

    def _check_lines(self, lines) -> list[str]:
        recs = [json.loads(ln) for ln in lines]
        out = []
        if [r.get("type") for r in recs] != ["config"] + ["replication"] * self.REPS + ["summary"]:
            return [f"unexpected record sequence {[r.get('type') for r in recs]}"]
        for r in recs[1:-1]:
            total = math.fsum(r["pmp"].values())
            if abs(total - 1.0) > PMP_TOL:
                out.append(f"rep {r['rep']}: posterior probabilities sum to {total!r}")
            if r["log_bf"]["M0"] != 0.0 or not all(
                    math.isfinite(v) or v == -math.inf for v in r["log_bf"].values()):
                out.append(f"rep {r['rep']}: bad log Bayes factors {r['log_bf']}")
        if [r["rep"] for r in recs[1:-1]] != list(range(self.REPS)):
            out.append("replications are not streamed in index order")
        return out

    def log_bf_err(self, runs) -> float:
        """Oracle check of the free model's log BF; needs the data generator, when present."""
        try:
            from cipanova.scenarios import generate_scenario, make_preset
        except ImportError:
            return 0.0
        err = 0.0
        seen = set()
        for i, _jobs, _traced, _seconds, code, lines in runs:
            if code != 0 or i in seen:
                continue
            seen.add(i)
            scenario, _ = make_preset("pop2l", n_per_group=self.n_per_group, reps=self.REPS,
                                      base_seed=_call_seed(self.seed, i))
            for ln in lines:
                rec = json.loads(ln)
                if rec.get("type") != "replication":
                    continue
                data = generate_scenario(scenario, rec["rep"])
                ref = oracle.log_bf_vs_null(data.responses, data.groups, _free(5).classes)
                err = max(err, abs(rec["log_bf"]["Me"] - ref))
        return err


WORKLOADS = {
    "pop3-compare": pop3_compare,
    "pop2l-simulate": SimulateLoop,
    "large-n-unordered": large_n_unordered,
    "j10-orders": j10_orders,
}


def provenance(root, seed: int, workload: str) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cipanova": getattr(cipanova, "__version__", None),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }
