"""Tests of the benchmark's own code: span self times, probes, the evidence oracle, smoke runs.

Run from the repository root with `python -m pytest perfbench/tests`.
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import oracle  # noqa: E402
import tracing  # noqa: E402
from cipanova import AnovaData, ConstraintModel, encompassing_of, make_cip  # noqa: E402
from cipanova.evidence import log_marginal_quadrature, null_loglik  # noqa: E402
from cipanova.intrinsic import estimate_null_params  # noqa: E402

WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def test_self_time_subtracts_child_coverage_once():
    spans = [
        (0, "root", 0.0, 10.0, None, 0),
        (1, "a", 1.0, 4.0, 0, 0),
        (2, "b", 3.0, 6.0, 0, 0),        # overlaps a: the overlap is covered once
        (3, "a.inner", 2.0, 3.0, 1, 0),
        (4, "late", 9.0, 12.0, 0, 0),    # only its part inside the parent counts
    ]
    assert tracing.self_times(spans) == pytest.approx(
        {0: 10.0 - 5.0 - 1.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 3.0})


def test_nested_spans_share_the_op_of_their_root():
    tracer = tracing.Tracer()
    for _ in range(2):
        with tracer.span("compare"):
            with tracer.span("evidence"):
                pass
            with tracer.span("posterior"):
                with tracer.span("mask"):
                    pass
    by_name = {}
    for sid, name, start, end, parent, op in tracer.spans:
        by_name.setdefault(name, []).append((sid, parent, op))
        assert start <= end
    roots = [sid for sid, parent, _ in by_name["compare"]]
    assert [parent for _, parent, _ in by_name["compare"]] == [None, None]
    assert [op for _, _, op in by_name["mask"]] == roots
    posterior_ids = [sid for sid, _, _ in by_name["posterior"]]
    assert [parent for _, parent, _ in by_name["mask"]] == posterior_ids


def test_missing_probe_target_reports_zero_calls():
    # the package attribute `compare` is the function, so fetch the module itself
    compare_module = importlib.import_module("cipanova.compare")
    original = compare_module.make_cip
    tracer = tracing.Tracer()
    probes = [("cipanova.compare", "no_such_layer", "posterior.run_posterior_chain", None),
              ("cipanova_no_such_module", "f", "intrinsic.make_cip", None),
              ("cipanova.compare", "make_cip", "intrinsic.make_cip", None)]
    with tracing.probes_installed(tracer, probes):
        assert compare_module.make_cip is not original
    assert compare_module.make_cip is original
    metrics = tracing.layer_metrics(tracer, ops=3)
    assert metrics["posterior.run_posterior_chain.calls"] == 0.0
    assert metrics["posterior.run_posterior_chain.self_s"] == 0.0
    assert metrics["intrinsic.make_cip.self_s"] == 0.0


@pytest.mark.parametrize("n_per_group", [3, 25])
@pytest.mark.parametrize("classes", [((1,), (2,), (3,), (4,), (5,)),
                                     ((1, 2), (3, 4, 5)),
                                     ((1,), (2,), (3, 5), (4,))])
def test_oracle_matches_4096_node_rule(n_per_group, classes):
    rng = np.random.default_rng(7)
    means = (2.23, 1.33, 3.23, 2.33, 3.23)
    y = np.concatenate([m + 1.55 * rng.standard_normal(n_per_group) for m in means])
    data = AnovaData(responses=y, groups=np.repeat(np.arange(1, 6), n_per_group))
    theta0 = estimate_null_params(data)
    model = ConstraintModel.create(5, classes, [])
    spec = make_cip(encompassing_of(model), data.group_sizes)
    want = log_marginal_quadrature(data.responses, theta0, spec, nodes=4096).log_marginal
    got = oracle.log_marginal(data.responses, data.groups, classes, theta0.alpha0, theta0.sigma0)
    assert got == pytest.approx(want, abs=1e-8)
    alpha0, sigma0 = oracle.null_fit(data.responses)
    assert (alpha0, sigma0) == pytest.approx((theta0.alpha0, theta0.sigma0), rel=1e-13)
    assert oracle.null_loglik(data.responses, alpha0, sigma0) == pytest.approx(
        null_loglik(data.responses, theta0), abs=1e-9)


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_smoke_run(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    if workload == "j10-orders" and trace == 0:
        assert result["metrics"]["answer_rate"]["value"] == 0.5


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
