import json

import numpy as np
import pytest

from cipanova.cli import main


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


def test_compare_text_output(capsys, data_csv):
    code = main(["compare", str(data_csv), "--model", "M0=mu1=mu2=mu3",
                 "--model", "up=mu1<mu2<mu3", "--model", "Me=mu1,mu2,mu3",
                 "--seed", "4", *FAST_FLAGS])
    assert code == 0
    out = capsys.readouterr().out
    assert "null fit:" in out
    assert "M0" in out and "up" in out
    assert "BF vs Me" in out


def test_compare_records_are_stable(capsys, data_csv):
    argv = ["compare", str(data_csv), "--model", "mu1<mu2<mu3",
            "--output", "records", "--seed", "7", *FAST_FLAGS]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second  # byte-identical rerun
    assert main(argv + ["--mcmc-iters", "3000", "--burnin", "500"]) == 0
    assert capsys.readouterr().out == first  # retired chain lengths are ignored
    rec = json.loads(first)
    assert rec["type"] == "comparison"
    assert rec["seed"] == 7
    assert rec["settings"] == {"prior_draws": 5000, "quadrature_nodes": 64,
                               "evidence_method": "quadrature", "chib_iters": 20_000}
    assert rec["models"][0]["name"] == "model1"  # unnamed specs are numbered


def test_model_name_prefix_rules(capsys, data_csv):
    # 'mu3=mu1<mu2' must parse as a model string, not as a name assignment
    code = main(["compare", str(data_csv), "--model", "mu3=mu1<mu2",
                 "--output", "records", *FAST_FLAGS])
    assert code == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["models"][0]["name"] == "model1"


def test_compare_group_recode_note(capsys, tmp_path):
    p = tmp_path / "lab.csv"
    rows = ["group,response"]
    rng = np.random.default_rng(0)
    for lab, mu in (("ctl", 0.0), ("trt", 1.0)):
        for v in rng.normal(mu, 1.0, size=6):
            rows.append(f"{lab},{v:.4f}")
    p.write_text("\n".join(rows) + "\n")
    with pytest.warns(UserWarning):
        code = main(["compare", str(p), "--model", "mu1<mu2", *FAST_FLAGS])
    assert code == 0
    out = capsys.readouterr().out
    assert "group coding: ctl->1, trt->2" in out


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


def test_config_file_merging(capsys, data_csv, tmp_path):
    cfg = {
        "data": str(data_csv),
        "models": {"null": "mu1=mu2=mu3", "trend": "mu1<mu2<mu3"},
        "prior_draws": 5000,
        "seed": 12,
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["compare", "--config", str(cfg_path), "--output", "records"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert [m["name"] for m in rec["models"]] == ["null", "trend"]
    assert rec["seed"] == 12
    # explicit flag beats the config value
    assert main(["compare", "--config", str(cfg_path), "--seed", "99",
                 "--output", "records"]) == 0
    rec2 = json.loads(capsys.readouterr().out)
    assert rec2["seed"] == 99
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    assert main(["compare", "--config", str(bad)]) == 1
    capsys.readouterr()


def test_theta0_flag(capsys, data_csv):
    assert main(["compare", str(data_csv), "--model", "Me=mu1,mu2,mu3",
                 "--theta0", "0.5,2.0", "--output", "records", *FAST_FLAGS]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["theta0"] == {"alpha0": 0.5, "sigma0": 2.0}
    assert main(["compare", str(data_csv), "--model", "Me=mu1,mu2,mu3",
                 "--theta0", "0.5"]) == 1
    capsys.readouterr()


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
    out = capsys.readouterr().out
    assert out.count("ok -") == 6
    assert "all checks passed" in out
