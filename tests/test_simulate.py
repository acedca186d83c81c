import os
import time

import numpy as np
import pytest
from scipy.stats import norm

from cipanova import posterior, simulate
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
    grid = power_table(deltas=(0.0, 0.1, 0.45, 1.3, 3.0), sigma=0.7,
                       n_per_group=(2, 25, 400), z_crit=1.64)
    for row in grid:
        sd = 0.7 * np.sqrt(2.0 / row.n_per_group)
        assert abs(row.power - norm.sf(1.64 - row.delta / sd)) <= 1e-15
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


def test_parallel_matches_sequential(monkeypatch):
    monkeypatch.setattr(simulate, "MIN_REPS_PER_WORKER", 1)  # pool these 4 replications
    scenario, models = make_preset("pop1", n_per_group=8, reps=4, base_seed=11)
    serial = run_simulation_study(scenario, models, settings=TINY, jobs=1)
    parallel = run_simulation_study(scenario, models, settings=TINY, jobs=2)
    assert serial == parallel


def test_workers_inherit_the_prior_masses_counted_in_the_parent(monkeypatch):
    posterior.cached_prior_cone_mass.cache_clear()
    parent = os.getpid()
    counted = []
    count = posterior.prior_cone_mass

    def parent_only(model, sizes, T, rng):
        if os.getpid() != parent:
            raise AssertionError("a worker counted a prior cone mass")
        counted.append(model.order)
        return count(model, sizes, T, rng)

    monkeypatch.setattr(posterior, "prior_cone_mass", parent_only)
    monkeypatch.setattr(simulate, "MIN_REPS_PER_WORKER", 1)  # pool these 4 replications
    scenario, models = make_preset("pop3", n_per_group=8, reps=4, base_seed=13)
    parallel, serial = [], []
    run_simulation_study(scenario, models, settings=TINY, jobs=2, record_sink=parallel.append)
    assert len(counted) == sum(m.has_order for m in models)
    run_simulation_study(scenario, models, settings=TINY, jobs=1, record_sink=serial.append)
    assert len(counted) == sum(m.has_order for m in models)
    assert parallel == serial


def test_pool_starts_only_when_each_worker_gets_enough_replications(monkeypatch):
    # a stand-in pool that records its size and runs each task inline
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def map(self, fn, iterable):
            return map(fn, iterable)

        def shutdown(self, cancel_futures=False):
            pass

    monkeypatch.setattr(simulate, "ProcessPoolExecutor", InlinePool)
    k = simulate.MIN_REPS_PER_WORKER
    serial, pooled = [], []
    # (reps, jobs): the first three run in-process, the rest on min(jobs, reps // k) workers
    for reps, jobs in ((1, 3), (k, 8), (2 * k - 1, 8), (2 * k, 8), (3 * k + 1, 2), (3 * k + 1, 4)):
        scenario, models = make_preset("pop2l", n_per_group=8, reps=reps, base_seed=17)
        run_simulation_study(scenario, models, settings=TINY, jobs=1, record_sink=serial.append)
        run_simulation_study(scenario, models, settings=TINY, jobs=jobs, record_sink=pooled.append)
    assert sizes == [2, 2, 3]
    assert pooled == serial


@pytest.mark.parametrize("jobs", [1, 2])
def test_serial_study_sends_each_record_before_the_next_replication(monkeypatch, jobs):
    events = []
    generate = simulate.generate_scenario

    def logged(scenario, r):
        events.append(("run", r))
        return generate(scenario, r)

    monkeypatch.setattr(simulate, "generate_scenario", logged)
    scenario, models = make_preset("pop2l", n_per_group=8, reps=3, base_seed=23)
    run_simulation_study(scenario, models, settings=TINY, jobs=jobs,
                         record_sink=lambda rec: events.append(("sink", rec["rep"])))
    assert events == [("run", 0), ("sink", 0), ("run", 1), ("sink", 1), ("run", 2), ("sink", 2)]


def test_an_exception_in_a_pooled_study_cancels_the_queued_replications(monkeypatch, tmp_path):
    generate = simulate.generate_scenario

    def marked(scenario, r):
        # runs in a forked worker, so it leaves a file where the parent can count it
        (tmp_path / f"rep{r}").touch()
        time.sleep(0.02)
        return generate(scenario, r)

    def failing_sink(rec):
        if rec["rep"] == 1:  # replication 0 runs before the pool, 1 is the pool's first
            raise RuntimeError("sink failed")

    monkeypatch.setattr(simulate, "generate_scenario", marked)
    monkeypatch.setattr(simulate, "MIN_REPS_PER_WORKER", 1)
    scenario, models = make_preset("pop2l", n_per_group=8, reps=40, base_seed=19)
    with pytest.raises(RuntimeError, match="sink failed"):
        run_simulation_study(scenario, models, settings=TINY, jobs=2, record_sink=failing_sink)
    # the running and prefetched replications finish; the queued rest never start
    assert len(list(tmp_path.iterdir())) < 20


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
