"""Command line interface: compare, simulate, power, selftest."""

from __future__ import annotations

import argparse
import itertools
import json
import math
import re
import sys

from .compare import Settings, compare
from .constraints import model_to_string, parse_model_spec
from .data import ingest_csv
from .intrinsic import NullParams
from .scenarios import MODEL_STRINGS, SimScenario, generate_scenario, make_preset, preset_names
from .simulate import MIN_REPS_PER_WORKER, power_table, run_simulation_study

_NAMED_MODEL = re.compile(r"^(?!mu\d)([A-Za-z_][\w.-]*)=(.+)$")


def main(argv=None) -> int:
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None) is not None:
            # the config's values become the subcommand's defaults, so flags win
            commands[args.command].set_defaults(**_load_config(args.config, args.command))
            args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return 0 if exc.code in (None, 0) else int(exc.code)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's parser, by name."""
    parser = argparse.ArgumentParser(
        prog="cipanova",
        description="Compare constrained ANOVA models with conditional intrinsic priors.")
    sub = parser.add_subparsers(dest="command", required=True)

    compare_p = sub.add_parser("compare", help="compare models on a group,response CSV file")
    compare_p.add_argument("data", nargs="?", help="CSV file with group,response columns")
    compare_p.add_argument("--model", action="append", default=[],
                           help="model string, optionally NAME=STRING; repeatable")
    compare_p.add_argument("--prior-probs", help="comma-separated prior model weights")
    compare_p.add_argument("--theta0", help="null fit override as alpha0,sigma0")
    compare_p.set_defaults(func=_cmd_compare, models={})

    simulate_p = sub.add_parser("simulate",
                                help="replicate a preset scenario and summarize model wins")
    simulate_p.add_argument("preset", nargs="?", choices=[None] + preset_names())
    simulate_p.add_argument("--reps", type=int, default=50)
    simulate_p.add_argument("--n-per-group", type=int, default=25)
    simulate_p.add_argument("--jobs", type=int, default=1,
                            help="worker processes; a pool starts only when each worker "
                                 f"gets {MIN_REPS_PER_WORKER} or more replications, and "
                                 "the records do not depend on it")
    simulate_p.add_argument("--seed", type=int, default=0, help="seed of the data generation")
    # Retired chain lengths: accepted and ignored, and hidden from --help, so
    # scripts that still pass them keep running.
    simulate_p.add_argument("--mcmc-iters", type=int, help=argparse.SUPPRESS)
    simulate_p.add_argument("--burnin", type=int, help=argparse.SUPPRESS)
    simulate_p.set_defaults(func=_cmd_simulate)

    power_p = sub.add_parser("power", help="two-group z-test power table")
    power_p.add_argument("--deltas", default="0.2,0.3,0.4")
    power_p.add_argument("--sigma", type=float, default=1.0)
    power_p.add_argument("--sizes", default="25,50")
    power_p.add_argument("--z-crit", type=float, default=1.96)
    power_p.set_defaults(func=_cmd_power)

    for p in (compare_p, simulate_p):
        p.add_argument("--prior-draws", type=int, default=Settings.prior_draws,
                       help="refuse an order whose exact prior cone mass is below "
                            "1/PRIOR_DRAWS; answered results do not depend on it")
        p.add_argument("--config", help="JSON file of defaults for this subcommand's flags")
    for p in (compare_p, simulate_p, power_p):
        p.add_argument("--output", choices=("text", "records"), default="text")

    sub.add_parser("selftest", help="run built-in invariant checks").set_defaults(
        func=_cmd_selftest)
    return parser, sub.choices


def _numbers(value, count=None) -> bool:
    """Whether value is a list of numbers, or a comma-separated string of them."""
    if isinstance(value, str):
        try:
            value = [float(x) for x in value.split(",")]
        except ValueError:
            return False
    return (isinstance(value, list) and count in (None, len(value))
            and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value))


# what each config key must hold, as reported when it does not, and the check
_CONFIG_TYPES = {
    **dict.fromkeys(("seed", "reps", "n_per_group", "jobs", "prior_draws"), (
        "an integer", lambda v: isinstance(v, int) and not isinstance(v, bool))),
    "data": ("a string", lambda v: isinstance(v, str)),
    "preset": ("one of " + ", ".join(preset_names()), lambda v: v in preset_names()),
    "models": ("an object of model strings",
               lambda v: isinstance(v, dict) and all(isinstance(s, str) for s in v.values())),
    "prior_probs": ("a list of numbers or a comma-separated string of them", _numbers),
    "theta0": ('two numbers, an object of numbers alpha0 and sigma0, or an "alpha0,sigma0" '
               "string", lambda v: _numbers(v, 2) or (
                   isinstance(v, dict) and sorted(v) == ["alpha0", "sigma0"]
                   and _numbers(list(v.values())))),
}

# the config keys each subcommand reads; each is the dest of its flag
_CONFIG_KEYS = {
    "compare": ("data", "models", "prior_probs", "theta0", "prior_draws"),
    "simulate": ("preset", "reps", "n_per_group", "jobs", "seed", "prior_draws"),
}


def _load_config(path, command) -> dict:
    with open(path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    unknown = sorted(set(cfg) - set(_CONFIG_KEYS[command]))
    if unknown:
        raise ValueError(f"{path}: config keys that {command} does not read: "
                         f"{', '.join(unknown)}")
    for key, value in cfg.items():
        kind, check = _CONFIG_TYPES[key]
        if not check(value):
            raise ValueError(f"{path}: config key {key} must be {kind}, got {value!r}")
    return cfg


def _split(text: str, flag: str, kind=float) -> list:
    try:
        return [kind(x) for x in text.split(",")]
    except ValueError:
        what = "integers" if kind is int else "numbers"
        raise ValueError(f"{flag} must be comma-separated {what}, got {text!r}") from None


def _parse_model_args(config_models, model_args, J):
    specs = list(config_models.items())
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
    settings = Settings(prior_draws=args.prior_draws)
    if args.data is None:
        raise ValueError("no data file given")
    data = ingest_csv(args.data)
    models = _parse_model_args(args.models, args.model, J=data.J)
    probs = args.prior_probs
    if isinstance(probs, str):
        probs = _split(probs, "--prior-probs")
    theta0 = _parse_theta0(args.theta0)
    report = compare(data, models, prior_probs=probs, settings=settings, theta0=theta0)
    if list(data.group_labels) != [str(j) for j in range(1, data.J + 1)]:
        # on stderr beside records, so stdout stays one JSON line
        print("group coding: " + ", ".join(
            f"{lab}->{j}" for j, lab in enumerate(data.group_labels, start=1)),
            file=sys.stderr if args.output == "records" else sys.stdout)
    if args.output == "records":
        record = report.to_record()
        record.update(type="comparison", settings=_settings_dict(settings))
        print(json.dumps(record, sort_keys=True))
    else:
        print(report.to_text())
    return 0


def _parse_theta0(raw):
    if raw is None:
        return None
    if isinstance(raw, str):
        raw = _split(raw, "--theta0")
    elif isinstance(raw, dict):
        raw = [raw["alpha0"], raw["sigma0"]]
    if len(raw) != 2:
        raise ValueError("--theta0 must give alpha0,sigma0")
    return NullParams(*map(float, raw))


def _settings_dict(settings: Settings) -> dict:
    return {"prior_draws": settings.prior_draws}


def _cmd_simulate(args) -> int:
    settings = Settings(prior_draws=args.prior_draws)
    if args.preset is None:
        raise ValueError(f"no preset given; choose from {', '.join(preset_names())}")
    scenario, models = make_preset(args.preset, n_per_group=args.n_per_group, reps=args.reps,
                                   base_seed=args.seed)
    sink = None
    if args.output == "records":
        header = {"type": "config", "scenario": args.preset, "reps": args.reps,
                  "seed": args.seed, "n_per_group": args.n_per_group,
                  "models": {m.name: model_to_string(m) for m in models},
                  "settings": _settings_dict(settings)}
        print(json.dumps(header, sort_keys=True), flush=True)

        def sink(rec):
            print(json.dumps(rec, sort_keys=True), flush=True)

    table = run_simulation_study(scenario, models, settings=settings, jobs=args.jobs,
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
    deltas = _split(args.deltas, "--deltas")
    sizes = _split(args.sizes, "--sizes", int)
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


def _expect(ok: bool, message: str) -> None:
    """Fail a check; unlike assert, this holds under python -O."""
    if not ok:
        raise AssertionError(message)


def _check_notation_roundtrip():
    for name, text in MODEL_STRINGS.items():
        model = parse_model_spec(text, J=5, name=name)
        again = parse_model_spec(model_to_string(model), J=5, name=name)
        _expect(again == model, f"{name} did not round-trip")


def _check_orthant_mass():
    # pop3's M3 is a chain over classes of sizes (25, 25, 50, 25) whose three
    # successive differences are a trivariate normal with correlations -1/2,
    # -1/sqrt(3) and 0, whose positive orthant has mass
    # 1/8 + (sum of their arcsines) / (4 pi)
    scenario, models = make_preset("pop3", n_per_group=25, reps=1)
    report = compare(generate_scenario(scenario, 0), models)
    got = report.breakdowns[report.model_names.index("M3")].prior_region.estimate
    want = 1.0 / 12.0 - math.asin(1.0 / math.sqrt(3.0)) / (4.0 * math.pi)
    _expect(abs(got - want) < 1e-12 * want, f"{got} vs orthant mass {want}")


def _check_total_orders():
    # the 3! total orders of three groups partition the space, and on equal
    # groups each has prior mass 1/3!
    scenario = SimScenario(name="check", means=(0.0, 0.5, 1.0), sds=(1.0, 1.0, 1.0),
                           n_per_group=10, true_model="M2", reps=1, base_seed=3)
    orders = [parse_model_spec(" < ".join(f"mu{j}" for j in perm), J=3)
              for perm in itertools.permutations((1, 2, 3))]
    report = compare(generate_scenario(scenario, 0),
                     [parse_model_spec("mu1 = mu2 = mu3", J=3), *orders])
    for name, bd in zip(report.model_names[1:], report.breakdowns[1:]):
        got = bd.prior_region.estimate
        _expect(abs(got - 1.0 / 6.0) < 1e-12, f"prior mass of {name}: {got} vs 1/3!")
    post = sum(bd.post_region.estimate for bd in report.breakdowns[1:])
    _expect(abs(post - 1.0) < 1e-12, f"posterior masses sum to {post}")
    total = sum(report.posterior_probs)
    _expect(abs(total - 1.0) < 1e-12, f"model probabilities sum to {total}")


_SELFTESTS = [
    ("model notation round-trip", _check_notation_roundtrip),
    ("pop3 M3 prior cone mass matches its orthant mass", _check_orthant_mass),
    ("total orders partition the prior and the posterior", _check_total_orders),
]


if __name__ == "__main__":
    sys.exit(main())
