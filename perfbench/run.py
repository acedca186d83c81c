"""Benchmark for cipanova: four workloads, end-to-end metrics or traced per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pop3-compare --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it print
each metric with its unit, the informational figures and the provenance.
The full result, with the spans of a traced run, is written under
`.perfbench_out/`.

This process only launches.  Set-up time is measured on fresh child
processes (start, `import cipanova`, inputs, first untimed operation); the
last child goes on to the timed loop and the output checks.  Every child
runs with BLAS pinned to one thread and imports cipanova from `src/` of the
checkout, never from elsewhere.  Times are scaled to a reference CPU speed
(see calibrate.py); the raw medians are printed alongside.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

SETUP_SAMPLES = 3
TIME_LIMIT_S = 170.0
BLAS_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                   "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
WORKLOAD_NAMES = ("pop3-compare", "pop2l-simulate", "large-n-unordered", "j10-orders")
# Units of the informational figures; the metrics' units come from BENCHMARK.json.
REPORT_UNITS = {"call_p90_s": "s", "call_p50_wall_s": "s", "error_rate": "ratio",
                "kernel_s_median": "s", "log_bf_err_raw": "nat", "log_bf_mc_sd": "nat",
                "setup_wall_s": "s"}


class BenchError(RuntimeError):
    pass


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small inputs and draw counts (smoke test)")
    p.add_argument("--role", choices=("launch", "setup", "measure"), default="launch",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _source_root() -> Path:
    root = Path.cwd()
    if not (root / "src" / "cipanova" / "__init__.py").is_file():
        raise BenchError(f"no src/cipanova under {root}; run from the root of a checkout")
    return root


def _run_child(args, role: str, deadline: float) -> tuple[float, float, dict]:
    """Start a child; return its set-up time (start to first op done), that time at
    reference speed, and the child's result."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    env = {**os.environ, **BLAS_ENV}
    kernel_before = calibrate.kernel_seconds()
    started = time.monotonic()
    # own session, so a timeout also stops the pool workers the child started
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{role} child did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"{role} child exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{role} child printed no result")
    result = json.loads(lines[-1])
    # CLOCK_MONOTONIC is shared by all processes on the host
    setup = result.pop("ready_monotonic") - started
    return setup, calibrate.scale(setup, kernel_before, result.pop("ready_kernel_s")), result


def _metric_units(root: Path, trace: int) -> dict[str, str]:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def launch(args) -> int:
    root = _source_root()
    units = _metric_units(root, args.trace)
    deadline = time.monotonic() + TIME_LIMIT_S
    samples = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            samples.append(_run_child(args, "setup", deadline)[:2])
    wall, scaled, result = _run_child(args, "measure", deadline)
    samples.append((wall, scaled))
    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(scaled for _, scaled in samples)
        result["report"]["setup_wall_s"] = statistics.median(wall for wall, _ in samples)
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")

    failures = result["failures"]
    summary = {
        "correct": not failures and result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
    }
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps({**result, "summary": summary}) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    for name, m in summary["metrics"].items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    for name, value in sorted(result["report"].items()):
        print(f"  report {name:<41} {value} {REPORT_UNITS.get(name, '')}".rstrip())
    for msg in failures:
        print(f"  CHECK FAILED: {msg}")
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    print(f"written {out_path.relative_to(root)}")
    print(json.dumps(summary))
    return 0


def child(args) -> int:
    root = _source_root()
    sys.path.insert(0, str(root / "src"))
    import cipanova

    if not Path(cipanova.__file__).resolve().is_relative_to((root / "src").resolve()):
        raise BenchError(f"imported cipanova from {cipanova.__file__}, not from the checkout")
    import bench

    loop = bench.WORKLOADS[args.workload](args.seed, args.tiny)
    loop.warm_up()
    ready = {"ready_monotonic": time.monotonic(), "ready_kernel_s": calibrate.kernel_seconds()}
    if args.role == "setup":
        print(json.dumps(ready))
        return 0
    res = loop.measure(args.seconds, bool(args.trace))
    print(json.dumps({
        **ready,
        "attempted": res.attempted,
        "failed": res.failed,
        "failures": res.failures,
        "metrics": res.metrics,
        "report": res.report,
        "provenance": bench.provenance(root, args.seed, args.workload),
        "spans": res.spans,
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return launch(args) if args.role == "launch" else child(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
