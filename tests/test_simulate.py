import numpy as np
import pytest
from scipy.stats import norm

from cipanova.compare import Settings
from cipanova.scenarios import make_preset
from cipanova.simulate import power_table, run_simulation_study, summarize_records

TINY = Settings(prior_draws=8_000)


def test_power_default_grid_values():
    rows = power_table()
    got = {(r.delta, r.n_per_group): r.power for r in rows}
    # frozen from the closed form power = Phi(delta * sqrt(n/2) - 1.96)
    want = {
        (0.2, 25): 0.1051, (0.2, 50): 0.1685,
        (0.3, 25): 0.1842, (0.3, 50): 0.3228,
        (0.4, 25): 0.2926, (0.4, 50): 0.5160,
    }
    for key, val in want.items():
        assert got[key] == pytest.approx(val, abs=5e-5)


def test_power_closed_form_and_edges():
    rows = power_table(deltas=(0.0,), n_per_group=(30,))
    assert rows[0].power == pytest.approx(norm.sf(1.96), abs=1e-12)  # size 0.025
    big = power_table(deltas=(5.0,), n_per_group=(50,))
    assert big[0].power > 0.999
    direct = power_table(deltas=(0.37,), sigma=1.3, n_per_group=(40,), z_crit=1.64)
    sd = 1.3 * np.sqrt(2.0 / 40)
    assert direct[0].power == pytest.approx(float(norm.sf(1.64 - 0.37 / sd)), abs=1e-12)
    with pytest.raises(ValueError):
        power_table(sigma=0.0)
    with pytest.raises(ValueError):
        power_table(deltas=(-0.1,))
    with pytest.raises(ValueError):
        power_table(n_per_group=(1,))


def test_study_is_deterministic_and_streams_in_order():
    scenario, models = make_preset("pop3", n_per_group=10, reps=4, base_seed=5)
    seen = []
    table = run_simulation_study(scenario, models, settings=TINY, jobs=1,
                                 record_sink=seen.append)
    again = run_simulation_study(scenario, models, settings=TINY, jobs=1)
    assert table == again
    assert [rec["rep"] for rec in seen] == [0, 1, 2, 3]
    assert all(rec["type"] == "replication" for rec in seen)
    assert all(rec["true_model"] == "M3" for rec in seen)
    assert table.reps == 4
    assert sum(table.top_share.values()) == pytest.approx(1.0, abs=1e-12)
    for rec in seen:
        assert sum(rec["pmp"].values()) == pytest.approx(1.0, abs=1e-9)


def test_parallel_matches_sequential():
    scenario, models = make_preset("pop1", n_per_group=8, reps=4, base_seed=11)
    serial = run_simulation_study(scenario, models, settings=TINY, jobs=1)
    parallel = run_simulation_study(scenario, models, settings=TINY, jobs=2)
    assert serial == parallel


def test_study_validation():
    scenario, models = make_preset("pop3", n_per_group=10, reps=2)
    with pytest.raises(ValueError):
        run_simulation_study(scenario, models, settings=TINY, jobs=0)
    without_true = [m for m in models if m.name != "M3"]
    with pytest.raises(ValueError, match="true model"):
        run_simulation_study(scenario, without_true, settings=TINY)


def test_summarize_records_and_text():
    scenario, models = make_preset("pop3", n_per_group=10, reps=3)
    records = [
        {"top_model": "M3", "pmp": {"M0": 0.1, "M2": 0.1, "M3": 0.7, "Me": 0.1}},
        {"top_model": "M3", "pmp": {"M0": 0.2, "M2": 0.1, "M3": 0.6, "Me": 0.1}},
        {"top_model": "M0", "pmp": {"M0": 0.5, "M2": 0.1, "M3": 0.3, "Me": 0.1}},
    ]
    table = summarize_records(scenario, models, records)
    assert table.top_share == {"M0": 1 / 3, "M2": 0.0, "M3": 2 / 3, "Me": 0.0}
    assert table.median_true_pmp == pytest.approx(0.6)
    text = table.to_text()
    assert "pop3" in text and "3 replications" in text
    assert "66.7" in text and "median true-model posterior prob: 0.6000" in text
