"""Command line interface: compare, simulate, power, selftest."""

from __future__ import annotations

import argparse
import json
import re
import sys

import numpy as np

from .compare import Settings, compare
from .constraints import model_to_string, parse_model_spec, region_contains
from .data import ingest_csv
from .gaussian import LowRankGaussian, RandomSource, inverted_beta_logpdf, lowrank_logpdf, mvn_logpdf
from .intrinsic import NullParams
from .scenarios import MODEL_STRINGS, make_preset, preset_names
from .simulate import power_table, run_simulation_study

_NAMED_MODEL = re.compile(r"^(?!mu\d)([A-Za-z_][\w.-]*)=(.+)$")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (None, 0) else int(exc.code)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--prior-draws", type=int, default=None)
    # Retired chain lengths: accepted and ignored, and hidden from --help, so
    # scripts that still pass them keep running.
    common.add_argument("--mcmc-iters", type=int, default=None, help=argparse.SUPPRESS)
    common.add_argument("--burnin", type=int, default=None, help=argparse.SUPPRESS)
    common.add_argument("--quadrature-nodes", type=int, default=None)
    common.add_argument("--evidence-method", choices=("quadrature", "chib"), default=None)
    common.add_argument("--output", choices=("text", "records"), default="text")
    common.add_argument("--jobs", type=int, default=None)
    common.add_argument("--config", default=None, help="JSON file with defaults for these flags")

    parser = argparse.ArgumentParser(
        prog="cipanova",
        description="Compare constrained ANOVA models with conditional intrinsic priors.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compare", parents=[common],
                       help="compare models on a group,response CSV file")
    p.add_argument("data", nargs="?", default=None, help="CSV file with group,response columns")
    p.add_argument("--model", action="append", default=[],
                   help="model string, optionally NAME=STRING; repeatable")
    p.add_argument("--prior-probs", default=None, help="comma-separated prior model weights")
    p.add_argument("--theta0", default=None, help="null fit override as alpha0,sigma0")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("simulate", parents=[common],
                       help="replicate a preset scenario and summarize model wins")
    p.add_argument("preset", nargs="?", default=None, choices=[None] + preset_names())
    p.add_argument("--reps", type=int, default=None)
    p.add_argument("--n-per-group", type=int, default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("power", parents=[common],
                       help="two-group z-test power table")
    p.add_argument("--deltas", default="0.2,0.3,0.4")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--sizes", default="25,50")
    p.add_argument("--z-crit", type=float, default=1.96)
    p.set_defaults(func=_cmd_power)

    p = sub.add_parser("selftest", parents=[common], help="run built-in invariant checks")
    p.set_defaults(func=_cmd_selftest)
    return parser


def _load_config(path):
    if path is None:
        return {}
    with open(path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    return cfg


def _pick(flag, cfg, key, default):
    if flag is not None:
        return flag
    return cfg.get(key, default)


def _resolve_settings(args, cfg) -> Settings:
    return Settings(
        prior_draws=_pick(args.prior_draws, cfg, "prior_draws", 100_000),
        quadrature_nodes=_pick(args.quadrature_nodes, cfg, "quadrature_nodes", 64),
        evidence_method=_pick(args.evidence_method, cfg, "evidence_method", "quadrature"),
        chib_iters=cfg.get("chib_iters", 20_000),
    )


def _parse_model_args(model_args, cfg, J):
    specs: list[tuple[str, str]] = []
    for name, text in cfg.get("models", {}).items():
        specs.append((str(name), str(text)))
    auto = 0
    for raw in model_args:
        m = _NAMED_MODEL.match(raw.strip())
        if m:
            specs.append((m.group(1), m.group(2)))
        else:
            auto += 1
            specs.append((f"model{auto}", raw))
    if not specs:
        raise ValueError("no models given; use --model or a config file")
    return [parse_model_spec(text, J=J, name=name) for name, text in specs]


def _cmd_compare(args) -> int:
    cfg = _load_config(args.config)
    settings = _resolve_settings(args, cfg)
    seed = int(_pick(args.seed, cfg, "seed", 0))
    path = _pick(args.data, cfg, "data", None)
    if path is None:
        raise ValueError("no data file given")
    data = ingest_csv(path)
    models = _parse_model_args(args.model, cfg, J=data.J)
    probs = _pick(args.prior_probs, cfg, "prior_probs", None)
    if isinstance(probs, str):
        probs = [float(x) for x in probs.split(",")]
    raw_theta0 = _pick(args.theta0, cfg, "theta0", None)
    theta0 = _parse_theta0(raw_theta0)
    report = compare(data, models, prior_probs=probs, settings=settings,
                     rng=RandomSource(seed), theta0=theta0)
    if args.output == "records":
        record = report.to_record()
        record.update(type="comparison", seed=seed, settings=_settings_dict(settings))
        print(json.dumps(record, sort_keys=True))
    else:
        if data.group_labels is not None and list(data.group_labels) != [
                str(j) for j in range(1, data.J + 1)]:
            print("group coding: " + ", ".join(
                f"{lab}->{j}" for j, lab in enumerate(data.group_labels, start=1)))
        print(report.to_text())
    return 0


def _parse_theta0(raw):
    if raw is None:
        return None
    if isinstance(raw, str):
        parts = [float(x) for x in raw.split(",")]
    elif isinstance(raw, dict):
        parts = [float(raw["alpha0"]), float(raw["sigma0"])]
    else:
        parts = [float(x) for x in raw]
    if len(parts) != 2:
        raise ValueError("theta0 must give alpha0,sigma0")
    return NullParams(alpha0=parts[0], sigma0=parts[1])


def _settings_dict(settings: Settings) -> dict:
    return {
        "prior_draws": settings.prior_draws,
        "quadrature_nodes": settings.quadrature_nodes,
        "evidence_method": settings.evidence_method,
        "chib_iters": settings.chib_iters,
    }


def _cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    settings = _resolve_settings(args, cfg)
    preset = _pick(args.preset, cfg, "preset", None)
    if preset is None:
        raise ValueError(f"no preset given; choose from {', '.join(preset_names())}")
    seed = int(_pick(args.seed, cfg, "seed", 0))
    reps = int(_pick(args.reps, cfg, "reps", 50))
    n_per_group = int(_pick(args.n_per_group, cfg, "n_per_group", 25))
    jobs = int(_pick(args.jobs, cfg, "jobs", 1))
    scenario, models = make_preset(preset, n_per_group=n_per_group, reps=reps,
                                   base_seed=seed)
    sink = None
    if args.output == "records":
        header = {"type": "config", "scenario": preset, "reps": reps, "seed": seed,
                  "n_per_group": n_per_group,
                  "models": {m.name: model_to_string(m) for m in models},
                  "settings": _settings_dict(settings)}
        print(json.dumps(header, sort_keys=True), flush=True)

        def sink(rec):
            print(json.dumps(rec, sort_keys=True), flush=True)

    table = run_simulation_study(scenario, models, settings=settings, jobs=jobs,
                                 record_sink=sink)
    if args.output == "records":
        summary = {"type": "summary", "scenario": table.scenario, "reps": table.reps,
                   "top_share": table.top_share,
                   "median_true_pmp": table.median_true_pmp}
        print(json.dumps(summary, sort_keys=True))
    else:
        print(table.to_text())
    return 0


def _cmd_power(args) -> int:
    deltas = [float(x) for x in args.deltas.split(",")]
    sizes = [int(x) for x in args.sizes.split(",")]
    rows = power_table(deltas=deltas, sigma=args.sigma, n_per_group=sizes,
                       z_crit=args.z_crit)
    if args.output == "records":
        for row in rows:
            print(json.dumps({"type": "power", "delta": row.delta,
                              "n_per_group": row.n_per_group, "power": row.power},
                             sort_keys=True))
    else:
        print(f"{'delta':>8}{'n/group':>10}{'power':>10}")
        for row in rows:
            print(f"{row.delta:>8.2f}{row.n_per_group:>10d}{row.power:>10.2f}")
    return 0


def _cmd_selftest(args) -> int:
    failures = 0
    for name, check in _SELFTESTS:
        try:
            check()
            print(f"ok - {name}")
        except Exception as exc:
            failures += 1
            print(f"FAIL - {name}: {exc}")
    if failures:
        print(f"{failures} check(s) failed", file=sys.stderr)
        return 1
    print("all checks passed")
    return 0


def _check_notation_roundtrip():
    for name, text in MODEL_STRINGS.items():
        model = parse_model_spec(text, J=5, name=name)
        again = parse_model_spec(model_to_string(model), J=5, name=name)
        assert again == model, f"{name} did not round-trip"


def _check_region_cone():
    model = parse_model_spec(MODEL_STRINGS["M3"], J=5)
    rng = np.random.default_rng(5)
    for _ in range(200):
        delta = rng.normal(size=3) * 3.0
        inside = region_contains(model, delta)
        for c in (0.1, 7.0):
            assert region_contains(model, c * delta) == inside, "cone invariance failed"


def _check_lowrank_dense():
    rng = np.random.default_rng(11)
    Z = np.column_stack([np.ones(6), rng.integers(0, 2, size=6).astype(float)])
    winv = np.array([[0.9, -0.2], [-0.2, 0.5]])
    r = rng.normal(size=6)
    g = LowRankGaussian(a=0.7, b=1.3, Z=Z, winv=winv)
    dense = 0.7 * np.eye(6) + 1.3 * Z @ winv @ Z.T
    want = mvn_logpdf(r, np.zeros(6), dense)
    got = lowrank_logpdf(r, g)
    assert abs(got - want) < 1e-10, f"{got} vs {want}"


def _check_inverted_beta_half_cauchy():
    s0 = 1.7
    for sigma in (0.3, 1.0, 2.9):
        v = sigma**2
        lhs = inverted_beta_logpdf(v, 0.5, 0.5, s0**2)
        rhs = (np.log(2.0) - np.log(np.pi * s0) - np.log1p(v / s0**2)
               - np.log(2.0 * sigma))
        assert abs(lhs - rhs) < 1e-12


def _check_power_values():
    rows = power_table()
    got = [round(r.power, 2) for r in rows]
    want = [0.10, 0.17, 0.18, 0.32, 0.29, 0.52]
    assert all(abs(g - w) <= 0.011 for g, w in zip(got, want)), got


def _check_pmp_normalization():
    from .scenarios import generate_scenario, SimScenario
    scenario = SimScenario(name="check", means=(0.0, 0.5, 1.0), sds=(1.0, 1.0, 1.0),
                           n_per_group=10, true_model="M2", reps=1, base_seed=3)
    data = generate_scenario(scenario, 0)
    models = [parse_model_spec("mu1 = mu2 = mu3", J=3, name="M0"),
              parse_model_spec("mu1 < mu2 < mu3", J=3, name="M2"),
              parse_model_spec("mu1, mu2, mu3", J=3, name="Me")]
    small = Settings(prior_draws=4000)
    report = compare(data, models, settings=small, rng=RandomSource(9))
    assert abs(sum(report.posterior_probs) - 1.0) < 1e-12


_SELFTESTS = [
    ("model notation round-trip", _check_notation_roundtrip),
    ("constraint region is a cone", _check_region_cone),
    ("low-rank density matches dense", _check_lowrank_dense),
    ("inverted-beta matches half-Cauchy in sigma", _check_inverted_beta_half_cauchy),
    ("power table reference values", _check_power_values),
    ("model probabilities normalize", _check_pmp_normalization),
]


if __name__ == "__main__":
    sys.exit(main())
