import argparse
import ast
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import cipanova
from cipanova import cli, simulate
from cipanova.cli import _CONFIG_KEYS, _build_parser, _load_config, main


@pytest.fixture
def data_csv(tmp_path):
    rng = np.random.default_rng(3)
    lines = ["group,response"]
    for j, mu in enumerate((0.0, 0.8, 1.6), start=1):
        for v in rng.normal(mu, 1.0, size=8):
            lines.append(f"{j},{v:.6f}")
    p = tmp_path / "groups.csv"
    p.write_text("\n".join(lines) + "\n")
    return p


FAST_FLAGS = ["--prior-draws", "5000"]


def test_no_command_is_usage_error(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for cmd in ("compare", "simulate", "power", "selftest"):
        assert cmd in out
    assert main(["compare", "--help"]) == 0
    out = capsys.readouterr().out
    assert "--prior-draws" in out
    assert "--mcmc-iters" not in out and "--burnin" not in out


def test_power_text_and_records(capsys):
    assert main(["power"]) == 0
    text = capsys.readouterr().out
    assert "delta" in text and "0.52" in text
    assert main(["power", "--output", "records", "--deltas", "0.2", "--sizes", "25"]) == 0
    line = capsys.readouterr().out.strip()
    rec = json.loads(line)
    assert rec["type"] == "power"
    assert rec["power"] == pytest.approx(0.1051, abs=5e-5)


def test_interrupt_prints_a_note_and_exits_130(capsys, monkeypatch):
    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_cmd_power", interrupted)
    assert main(["power"]) == 130
    assert capsys.readouterr() == ("", "interrupted\n")


def test_compare_text_output(capsys, data_csv):
    code = main(["compare", str(data_csv), "--model", "M0=mu1=mu2=mu3",
                 "--model", "up=mu1<mu2<mu3", "--model", "Me=mu1,mu2,mu3", *FAST_FLAGS])
    assert code == 0
    out = capsys.readouterr().out
    assert "null fit:" in out
    assert "M0" in out and "up" in out
    assert "BF vs Me" in out


def test_compare_records_are_stable(capsys, data_csv):
    argv = ["compare", str(data_csv), "--model", "mu1<mu2<mu3",
            "--output", "records", *FAST_FLAGS]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second  # byte-identical rerun
    rec = json.loads(first)
    assert rec["type"] == "comparison"
    assert "seed" not in rec
    assert rec["settings"] == {"prior_draws": 5000}
    assert rec["models"][0]["name"] == "model1"  # unnamed specs are numbered


def test_compare_takes_no_seed(capsys, data_csv, tmp_path):
    # compare's results do not depend on a seed, so it takes none, by flag or by config
    argv = ["compare", str(data_csv), "--model", "up=mu1<mu2<mu3", "--model", "Me=mu1,mu2,mu3",
            "--output", "records", *FAST_FLAGS]
    assert main(argv + ["--seed", "1"]) == 2
    assert "--seed" in capsys.readouterr().err
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"data": str(data_csv), "seed": 1}))
    assert main(["compare", "--config", str(cfg_path), *argv[2:]]) == 1
    out, err = capsys.readouterr()
    assert not out
    assert err == f"error: {cfg_path}: config keys that compare does not read: seed\n"


def test_model_name_prefix_rules(capsys, data_csv):
    # 'mu3=mu1<mu2' must parse as a model string, not as a name assignment
    code = main(["compare", str(data_csv), "--model", "mu3=mu1<mu2",
                 "--output", "records", *FAST_FLAGS])
    assert code == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["models"][0]["name"] == "model1"


def test_compare_refuses_constant_groups(capsys, tmp_path):
    p = tmp_path / "flat.csv"
    p.write_text("group,response\n" + "".join(f"{j},{v}\n" for j, v in zip(
        np.repeat([1, 2, 3], 5), np.repeat([0.3, 1.7, 2.9], 5))))
    assert main(["compare", str(p), "--model", "mu1<mu2<mu3", *FAST_FLAGS]) == 1
    assert capsys.readouterr().err.startswith("error: the responses are constant within every class")


def test_compare_refusal_names_the_model(capsys, tmp_path):
    # a 15-antichain between two classes needs more rows than the memory budget
    # holds; the control order before it is answered
    rng = np.random.default_rng(15)
    p = tmp_path / "wide.csv"
    p.write_text("group,response\n" + "".join(
        f"{j},{v:.6f}\n" for j, v in zip(np.repeat(np.arange(1, 18), 20), rng.normal(size=340))))
    treated = "{" + ",".join(f"mu{j}" for j in range(2, 18)) + "}"
    middle = "{" + ",".join(f"mu{j}" for j in range(2, 17)) + "}"
    assert main(["compare", str(p), "--model", f"ctl=mu1<{treated}",
                 "--model", f"mid=mu1<{middle}<mu17", "--prior-draws", "2000"]) == 1
    assert capsys.readouterr().err.startswith(
        "error: a component of the order of mid over 17 classes needs more than 10922 rows per "
        "grid point; its exact cone mass exceeds the memory budget")


def test_compare_group_recode_note(capsys, tmp_path):
    p = tmp_path / "lab.csv"
    rows = ["group,response"]
    rng = np.random.default_rng(0)
    for lab, mu in (("ctl", 0.0), ("trt", 1.0)):
        for v in rng.normal(mu, 1.0, size=6):
            rows.append(f"{lab},{v:.4f}")
    p.write_text("\n".join(rows) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # reported once, by the CLI, not as a warning
        assert main(["compare", str(p), "--model", "mu1<mu2", *FAST_FLAGS]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("group coding: ctl->1, trt->2\nnull fit:") and not err
        assert out.count("group coding") == 1
        # beside records the line goes to stderr, so stdout stays one JSON line
        assert main(["compare", str(p), "--model", "mu1<mu2", "--output", "records",
                     *FAST_FLAGS]) == 0
    out, err = capsys.readouterr()
    assert err == "group coding: ctl->1, trt->2\n"
    assert json.loads(out)["type"] == "comparison" and out.count("\n") == 1


def test_compare_errors(capsys, data_csv, tmp_path):
    assert main(["compare", str(tmp_path / "missing.csv"),
                 "--model", "mu1<mu2<mu3"]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["compare", str(data_csv)]) == 1
    assert "no models" in capsys.readouterr().err
    assert main(["compare", "--model", "mu1<mu2<mu3"]) == 1
    assert "no data file" in capsys.readouterr().err
    assert main(["compare", str(data_csv), "--model", "mu9<mu1"]) == 1
    capsys.readouterr()
    assert main(["compare", str(data_csv), "--model", "M0=mu1=mu2=mu3", "--model",
                 "up=mu1<mu2<mu3", "--prior-probs", "nan,1", *FAST_FLAGS]) == 1
    assert "finite" in capsys.readouterr().err
    assert main(["compare", str(data_csv), "--model", "mu1<mu2<mu3",
                 "--evidence-method", "chib"]) == 2
    capsys.readouterr()


def test_compare_fails_when_every_model_is_below_resolution(capsys, tmp_path):
    rng = np.random.default_rng(34)
    lines = ["group,response"]
    for j, mu in enumerate((0.0, 1.5, 3.0), start=1):
        lines += [f"{j},{v:.6f}" for v in rng.normal(mu, 0.3, size=12)]
    path = tmp_path / "rise.csv"
    path.write_text("\n".join(lines) + "\n")
    assert main(["compare", str(path), "--model", "down=mu1>mu2>mu3",
                 "--model", "mixed=mu2>mu1>mu3", *FAST_FLAGS]) == 1
    captured = capsys.readouterr()
    assert "no model has a resolved posterior cone mass" in captured.err
    assert "nan" not in captured.out


def test_import_loads_no_scipy():
    # the runtime needs numpy only; scipy is a test-time reference
    env = dict(os.environ)
    src = str(Path(cipanova.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # the install check runs there too, and under -O, which strips assert
    code = ("import sys, cipanova, cipanova.cli\n"
            "scipy = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "loaded = scipy()\n"
            "code = cipanova.cli.main(['selftest'])\n"
            "print(loaded, code, scipy())")
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert out.splitlines()[-1] == "[] 0 []"


def test_config_file_merging(capsys, data_csv, tmp_path):
    cfg = {
        "data": str(data_csv),
        "models": {"null": "mu1=mu2=mu3", "trend": "mu1<mu2<mu3"},
        "prior_draws": 5000,
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["compare", "--config", str(cfg_path), "--output", "records"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert [m["name"] for m in rec["models"]] == ["null", "trend"]
    assert rec["settings"] == {"prior_draws": 5000}
    # explicit flag beats the config value
    assert main(["compare", "--config", str(cfg_path), "--prior-draws", "6000",
                 "--output", "records"]) == 0
    rec2 = json.loads(capsys.readouterr().out)
    assert rec2["settings"] == {"prior_draws": 6000}
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    assert main(["compare", "--config", str(bad)]) == 1
    capsys.readouterr()
    retired = tmp_path / "retired.json"
    retired.write_text(json.dumps({**cfg, "chib_iters": 20_000, "evidence_method": "chib"}))
    assert main(["compare", "--config", str(retired)]) == 1
    err = capsys.readouterr().err
    assert "chib_iters" in err and "evidence_method" in err


@pytest.mark.parametrize("command, key, value", [
    ("simulate", "reps", 2.7),
    ("compare", "prior_draws", 1500.5),
    ("compare", "prior_draws", "5000"),
    ("simulate", "seed", True),
    ("simulate", "n_per_group", 8.0),
    ("simulate", "jobs", None),
])
def test_config_integers_must_be_integers(capsys, data_csv, tmp_path, command, key, value):
    cfg = {"compare": {"data": str(data_csv), "models": {"null": "mu1=mu2=mu3"}},
           "simulate": {"preset": "pop3", "reps": 1, "n_per_group": 8}}[command]
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({**cfg, key: value}))
    assert main([command, "--config", str(cfg_path)]) == 1
    out, err = capsys.readouterr()
    assert not out
    assert f"config key {key} must be an integer" in err


@pytest.mark.parametrize("models", [["mu1 < mu2"], {"up": 5}, "mu1 < mu2 < mu3"])
def test_config_models_must_map_names_to_strings(capsys, data_csv, tmp_path, models):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"data": str(data_csv), "models": models}))
    assert main(["compare", "--config", str(cfg_path)]) == 1
    out, err = capsys.readouterr()
    assert not out
    assert "config key models must be an object of model strings" in err


@pytest.mark.parametrize("command, key, value", [
    ("compare", "data", 0),  # open() would take 0 as a file descriptor and read stdin
    ("compare", "data", None),
    ("simulate", "preset", 3),
    ("compare", "prior_probs", {"a": 1}),
    ("compare", "prior_probs", [0.5, "0.5"]),
    ("compare", "prior_probs", [True, 1]),
    ("compare", "theta0", {"alpha0": 1}),
    ("compare", "theta0", {"alpha0": 1, "sigma0": "2"}),
    ("compare", "theta0", [1.0, 2.0, 3.0]),
    ("compare", "theta0", 1.5),
    ("compare", "prior_probs", "1,x"),
    ("compare", "theta0", "0.5,sigma"),
    ("compare", "theta0", "0.5"),
])
def test_config_values_must_have_their_types(capsys, data_csv, tmp_path, command, key, value):
    cfg = {"compare": {"data": str(data_csv), "models": {"null": "mu1=mu2=mu3"}},
           "simulate": {"preset": "pop3", "reps": 1, "n_per_group": 8}}[command]
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({**cfg, key: value}))
    assert main([command, "--config", str(cfg_path)]) == 1
    out, err = capsys.readouterr()
    assert not out
    assert err.startswith(f"error: {cfg_path}: config key {key} must be ")


def test_config_takes_every_documented_form_of_prior_probs_and_theta0(capsys, data_csv,
                                                                      tmp_path):
    models = {"null": "mu1=mu2=mu3", "free": "mu1,mu2,mu3"}
    forms = [({"prior_probs": [1, 3.0]}, {"prior_probs": "1,3"}),
             ({"theta0": [0.5, 2]}, {"theta0": {"sigma0": 2.0, "alpha0": 0.5}},
              {"theta0": "0.5,2"})]
    for same in forms:
        records = []
        for extra in same:
            cfg_path = tmp_path / "run.json"
            cfg_path.write_text(json.dumps({"data": str(data_csv), "models": models, **extra}))
            assert main(["compare", "--config", str(cfg_path), "--output", "records"]) == 0
            records.append(json.loads(capsys.readouterr().out))
        assert all(rec == records[0] for rec in records)
    assert records[0]["theta0"] == {"alpha0": 0.5, "sigma0": 2.0}


@pytest.mark.parametrize("command, flag, value", [
    ("compare", "--prior-probs", "a,b"),
    ("compare", "--prior-probs", "1,"),
    ("compare", "--theta0", "1,x"),
    ("power", "--deltas", "0.2,x"),
    ("power", "--sizes", "25,1.5"),
])
def test_number_lists_that_do_not_parse_name_their_flag(capsys, data_csv, command, flag,
                                                        value):
    argv = {"compare": ["compare", str(data_csv), "--model", "mu1<mu2",
                        "--model", "mu1,mu2,mu3", *FAST_FLAGS],
            "power": ["power"]}[command]
    assert main([*argv, flag, value]) == 1
    out, err = capsys.readouterr()
    assert not out
    assert err.startswith(f"error: {flag} must be comma-separated ")


# every option string of each subcommand, hidden ones included
CLI_SURFACE = {
    "compare": {"-h", "--help", "data", "--model", "--prior-probs", "--theta0",
                "--prior-draws", "--output", "--config"},
    "simulate": {"-h", "--help", "preset", "--reps", "--n-per-group", "--jobs", "--seed",
                 "--prior-draws", "--output", "--config", "--mcmc-iters", "--burnin"},
    "power": {"-h", "--help", "--deltas", "--sigma", "--sizes", "--z-crit", "--output"},
    "selftest": {"-h", "--help"},
}
CONFIG_KEYS = {
    "compare": {"data": "d.csv", "models": {"m": "mu1<mu2"}, "prior_probs": [1, 1],
                "theta0": [0.0, 1.0], "prior_draws": 5000},
    "simulate": {"preset": "pop3", "reps": 2, "n_per_group": 8, "jobs": 1, "seed": 1,
                 "prior_draws": 5000},
}


def test_each_subcommand_takes_only_its_own_flags_and_config_keys(tmp_path):
    _, commands = _build_parser()
    assert set(commands) == set(CLI_SURFACE)
    for name, parser in commands.items():
        got = {opt for action in parser._actions
               for opt in (action.option_strings or [action.dest])}
        assert got == CLI_SURFACE[name], name
    for name, own in CONFIG_KEYS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(own))
        assert _load_config(path, name) == own
        for other, keys in CONFIG_KEYS.items():
            for key in set(keys) - set(own):
                path.write_text(json.dumps({key: keys[key]}))
                with pytest.raises(ValueError, match=f"{name} does not read: {key}$"):
                    _load_config(path, name)


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_bullets(lead: str) -> dict[str, set[str]]:
    """The backticked words of each `name`: bullet in the README list that follows lead."""
    text = README.read_text(encoding="utf-8")
    block = text[text.index(lead) + len(lead):].lstrip("\n").split("\n\n")[0]
    bullets = re.split(r"^- ", block, flags=re.M)[1:]
    return {m.group(1): set(re.findall(r"`([^`]+)`", m.group(2)))
            for m in (re.match(r"`(\w+)`:(.*)", b, re.S) for b in bullets)}


def test_readme_lists_each_subcommands_flags_and_config_keys():
    _, commands = _build_parser()
    flags = {name: {opt for action in parser._actions if action.help != argparse.SUPPRESS
                    for opt in action.option_strings if opt not in ("-h", "--help")}
             for name, parser in commands.items()}
    listed = _readme_bullets("Each subcommand takes only the flags it reads:")
    assert {name: {w.split()[0] for w in words if w.startswith("--")}
            for name, words in listed.items()} == flags
    keys = _readme_bullets("each subcommand reads its\nown keys:")
    assert keys == {name: set(own) for name, own in _CONFIG_KEYS.items()}


def test_theta0_flag(capsys, data_csv):
    assert main(["compare", str(data_csv), "--model", "Me=mu1,mu2,mu3",
                 "--theta0", "0.5,2.0", "--output", "records", *FAST_FLAGS]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["theta0"] == {"alpha0": 0.5, "sigma0": 2.0}
    assert main(["compare", str(data_csv), "--model", "Me=mu1,mu2,mu3",
                 "--theta0", "0.5"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("theta0, message", [
    ("nan,1", "alpha0 must be finite, got nan"),
    ("0,inf", "sigma0 must be positive and finite, got inf"),
    ("0,1e-170", "sigma0 = 1e-170 is out of range: its square underflows"),
    ("0,1e200", "sigma0 = 1e+200 is out of range: its square overflows"),
    ("1e308,1", "the sums of squares of the responses about alpha0 = 1e+308 overflow"),
    # the mode's starting eta rounds to 1: from about 1e-8 times the spread
    *[(f"0,{s0}", f"sigma0 = {float(s0):g} is too small for the within-class spread of the "
                  "responses: the error variance's posterior sits where eta rounds to 1")
      for s0 in ("1e-9", "1e-150")],
])
def test_theta0_the_evidence_cannot_use_is_refused(capsys, data_csv, theta0, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused with a message, not a numpy warning
        assert main(["compare", str(data_csv), "--model", "up=mu1<mu2<mu3",
                     f"--theta0={theta0}", *FAST_FLAGS]) == 1
    out, err = capsys.readouterr()
    assert not out and err == f"error: {message}\n"


def test_simulate_records_stream(capsys):
    argv = ["simulate", "pop3", "--reps", "2", "--n-per-group", "8",
            "--output", "records", "--seed", "3", *FAST_FLAGS]
    assert main(argv) == 0
    first = capsys.readouterr().out
    lines = first.strip().splitlines()
    types = [json.loads(line)["type"] for line in lines]
    assert types == ["config", "replication", "replication", "summary"]
    header = json.loads(lines[0])
    assert header["models"]["M3"] == "mu2 < mu1 < mu4 < {mu3 = mu5}"
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_simulate_records_match_across_jobs(capsys, monkeypatch):
    monkeypatch.setattr(simulate, "MIN_REPS_PER_WORKER", 1)  # pool these 3 replications
    argv = ["simulate", "pop2l", "--reps", "3", "--n-per-group", "10",
            "--output", "records", "--seed", "4", *FAST_FLAGS]
    outs = []
    for jobs in ("1", "2"):
        assert main(argv + ["--jobs", jobs]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert outs[0].count('"type": "replication"') == 3


def test_simulate_text_and_errors(capsys):
    assert main(["simulate", "pop1", "--reps", "2", "--n-per-group", "6",
                 *FAST_FLAGS]) == 0
    out = capsys.readouterr().out
    assert "scenario pop1" in out and "top model %" in out
    assert main(["simulate"]) == 1
    assert "no preset" in capsys.readouterr().err
    assert main(["simulate", "nosuch"]) == 2
    capsys.readouterr()


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(cli._SELFTESTS) >= 3
    for name, _ in cli._SELFTESTS:
        assert f"ok - {name}" in out
    assert "all checks passed" in out


def test_selftest_uses_no_assert_statement():
    # python -O strips assert, which would let a failing check print ok
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_selftest_reports_a_failing_check(capsys, monkeypatch):
    def broken():
        raise AssertionError("mass off by 1")

    monkeypatch.setattr(cli, "_SELFTESTS", [("broken check", broken)])
    assert main(["selftest"]) == 1
    captured = capsys.readouterr()
    assert "FAIL - broken check: mass off by 1" in captured.out
    assert "all checks passed" not in captured.out
    assert "1 check(s) failed" in captured.err
