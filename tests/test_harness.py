import csv
import dataclasses
import itertools
import json
import random
import re
import shutil
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from vaxalloc import harness
from vaxalloc import net as netmod
from vaxalloc import sharing as shmod
from vaxalloc.epi import CompartmentState, step
from vaxalloc.harness import (GainReport, RunResult, export, export_gains,
                              gains, import_result, replicate, run,
                              run_instance)
from vaxalloc.net import membership
from vaxalloc.policy import POLICIES
from vaxalloc.scenario import ScenarioConfig, build_instance

from oracles import (export_rows, import_result_rows, infected_flow_matrix_add_at,
                     infection_split_add_at, loss_coefficients_per_call, per_agent,
                     pb_statics, totals_add_at)


def small_config(**kwargs):
    base = dict(n_nodes=40, n_agents=2, horizon=8, seed=11,
                initial_infected=0.005)
    base.update(kwargs)
    return ScenarioConfig(**base)


class TestRun:
    def test_none_policy_reduces_to_plain_stepping(self):
        cfg = small_config(policy="none")
        inst = build_instance(cfg)
        res = run_instance(inst)
        st = inst.initial
        for t in range(1, cfg.horizon + 1):
            st = step(st, inst.params, inst.network)
        final = np.stack([st.s, st.i, st.r, st.d], axis=1)
        expect = (final * inst.populations[:, None]).sum(axis=0)
        assert np.array_equal(res.global_totals[-1], expect)
        assert np.all(res.allocations == 0.0)

    def test_horizon_one(self):
        res = run(small_config(horizon=1))
        assert res.horizon == 1
        assert res.global_totals.shape == (2, 4)
        assert res.allocations.shape[0] == 1
        assert np.any(res.allocations > 0)

    @pytest.mark.parametrize("field,value", [("costs", np.nan), ("costs", 0.0),
                                             ("base_budgets", np.nan),
                                             ("base_budgets", -1.0)])
    def test_knapsack_run_rejects_bad_static_input(self, field, value):
        """solve_knapsack checks the costs and budgets on each call, so a
        knapsack run refuses them, NaN included."""
        inst = build_instance(small_config(policy="ts"))
        bad = getattr(inst, field).copy()
        bad[0] = value
        message = "costs must be positive" if field == "costs" else "budgets must be nonnegative"
        with pytest.raises(ValueError, match=message):
            run_instance(dataclasses.replace(inst, **{field: bad}))

    def test_estimates_list_the_knapsack_policies(self):
        # every policy is a knapsack policy, with an estimate, or pb or none
        assert set(POLICIES) == set(harness._ESTIMATES) | {"pb", "none"}
        assert not {"pb", "none"} & set(harness._ESTIMATES)

    @pytest.mark.parametrize("policy", ["ts", "gy", "ma", "pb"])
    def test_deterministic_rerun(self, policy):
        cfg = small_config(policy=policy, sharing=True)
        assert run(cfg).equals(run(cfg))

    def test_equals_compares_every_array_field(self):
        """A change to any one array field makes runs unequal, as does one to
        the config; the wall clock is ignored."""
        res = run(small_config(policy="ts", sharing=True))
        for f in dataclasses.fields(RunResult):
            if f.name not in ("config", "wall_clock"):
                changed = dataclasses.replace(res, **{f.name: getattr(res, f.name) + 1})
                assert not res.equals(changed), f.name
        assert not res.equals(dataclasses.replace(res, config={**res.config, "seed": 0}))
        assert res.equals(dataclasses.replace(res, wall_clock=res.wall_clock + 1.0))

    def test_totals_conserve_population(self):
        res = run(small_config(policy="ts"))
        total_pop = res.populations.sum()
        assert np.allclose(res.global_totals.sum(axis=1), total_pop, rtol=1e-10)
        assert np.allclose(res.agent_totals.sum(axis=(1, 2)), total_pop,
                           rtol=1e-10)

    def test_allocations_respect_bounds_and_budgets(self):
        res = run(small_config(policy="ts", horizon=20))
        assert np.all(res.allocations <= res.bounds + 1e-12)
        costs = res.populations
        for t in range(res.horizon):
            for a in range(res.n_agents):
                idx = res.agent_of == a
                spend = float(res.allocations[t, idx] @ costs[idx])
                assert spend <= res.budgets_effective[t, a] * (1 + 1e-9)

    def test_sharing_conserves_budget_each_period(self):
        res = run(small_config(policy="ts", sharing=True, horizon=15))
        per_period = res.budgets_effective.sum(axis=1)
        assert np.allclose(per_period, res.budgets.sum(axis=1), rtol=1e-9)

    def test_vaccination_helps_vs_none(self):
        cfg = small_config(policy="ts", horizon=20, budget_multiplier=2.0)
        vac = run(cfg)
        none = run(cfg.replace(policy="none"))
        assert vac.global_totals[-1, 3] < none.global_totals[-1, 3]


class TestGains:
    def test_identical_runs_zero_gain(self):
        base = run(small_config(policy="pb"))
        res = dataclasses.replace(base, config={**base.config, "policy": "ts"})
        rep = gains(res, base)
        assert rep.world_cumulative_pct == 0.0
        assert np.all(rep.cumulative_pct == 0.0)
        assert rep.world_last_period_pct == 0.0

    def test_uniform_one_percent_reduction(self):
        base = run(small_config(policy="pb"))
        scaled_agents = base.agent_totals.copy()
        scaled_agents[1:, :, 0] *= 0.99
        scaled_global = base.global_totals.copy()
        scaled_global[1:, 0] *= 0.99
        res = dataclasses.replace(base, config={**base.config, "policy": "ts"},
                                  agent_totals=scaled_agents,
                                  global_totals=scaled_global)
        rep = gains(res, base)
        assert rep.world_cumulative_pct == pytest.approx(1.0, rel=1e-9)
        assert rep.world_last_period_pct == pytest.approx(1.0, rel=1e-9)
        assert np.allclose(rep.cumulative_pct, 1.0)

    def test_mismatched_scenarios_rejected(self):
        a = run(small_config(policy="ts"))
        b = run(small_config(policy="pb", seed=99))
        with pytest.raises(ValueError):
            gains(a, b)


def test_coupled_run_matches_add_at_path(monkeypatch):
    """A ts run with sharing on against the same run made with the explicit
    per-period split and loss paths swapped in, and then with the explicit
    infected-flow matrix as well. The explicit paths add in another order,
    so each funds the same nodes, learns the same Beta counts and keeps the
    agent totals within 1e-12 relative."""
    cfg = ScenarioConfig(n_nodes=150, n_agents=4, horizon=20, seed=3,
                         policy="ts", sharing=True, initial_infected=0.005)
    inst = build_instance(cfg)
    fast = run_instance(inst)
    net, k = inst.network, cfg.n_agents
    monkeypatch.setattr(
        shmod, "infection_split",
        lambda state, params, agent_of, into: tuple(
            per_agent(v, agent_of, k)
            for v in infection_split_add_at(state, params, net, agent_of)))

    def per_call_losses(state, params, net, theta, inflow):
        out = np.zeros(net.n)
        for a in range(k):
            idx = np.flatnonzero(inst.agent_of == a)
            out[idx] = loss_coefficients_per_call(state, params, net, idx, theta)
        return out
    monkeypatch.setattr(harness, "loss_coefficients", per_call_losses)
    slow = run_instance(inst)
    assert np.any(fast.sharing_ratios > 0)
    assert_same_learning(fast, slow)

    calls = []

    def explicit_flows(state, net, coupling):
        calls.append(state.t)
        return infected_flow_matrix_add_at(state, net, inst.agent_of, k)
    monkeypatch.setattr(shmod, "infected_flow_matrix", explicit_flows)
    explicit = run_instance(inst)
    assert len(calls) == cfg.horizon
    assert_same_learning(fast, explicit)


def test_sharing_run_makes_no_rates_product_for_sharing(monkeypatch):
    """A ts run with sharing multiplies by the rates only in the epidemic
    step, once per period, and by their transpose once, for the static
    agent coupling that the loss coefficients and the sharing read."""
    cfg = small_config(policy="ts", sharing=True)
    inst = build_instance(cfg)
    counts = {"rates_dot": 0, "rates_t_dot": 0}
    for name in counts:
        def counting(net, v, _name=name, _fn=getattr(netmod.FlowMatrix, name)):
            counts[_name] += 1
            return _fn(net, v)
        monkeypatch.setattr(netmod.FlowMatrix, name, counting)
    res = run_instance(inst)
    assert np.any(res.sharing_ratios > 0)
    assert counts == {"rates_dot": cfg.horizon, "rates_t_dot": 1}


def test_run_allocates_every_agent_in_one_call_per_period(monkeypatch):
    """A ts run with sharing computes the loss coefficients and solves the
    knapsack once per period for all five agents, not once per agent."""
    cfg = small_config(policy="ts", sharing=True, n_agents=5)
    counts = {"loss_coefficients": 0, "solve_knapsack": 0}
    for name in counts:
        def counting(*args, _name=name, _fn=getattr(harness, name)):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(harness, name, counting)
    res = run(cfg)
    assert np.unique(res.agent_of[res.allocations.any(axis=0)]).size > 1
    assert counts == {"loss_coefficients": cfg.horizon, "solve_knapsack": cfg.horizon}


def test_totals_match_add_at():
    """The per-agent totals sum by the agent membership, bit for bit as
    np.add.at sums them, over magnitudes from 1e-300 to 1e300."""
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(1, 3001))
        k = int(rng.integers(1, 8))
        s, i, r, d, pop = 10.0 ** rng.uniform(-150, 150, (5, n))
        state = CompartmentState(s=s, i=i, r=r, d=d, t=0)
        agent_of = rng.integers(0, k, n)
        got = harness._totals(state, pop, membership(np.zeros(n, int), 1),
                              membership(agent_of, k))
        want = totals_add_at(state, pop, agent_of, k)
        for a, b in zip(got, want):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_world_totals_match_sum_over_nodes():
    """The world totals sum by the one-row membership, bit for bit as
    sum(axis=0) sums the n x 4 array of persons: with signs mixed over
    magnitudes from 1e-150 to 1e150, with a column of zeros and one of -0.0,
    and at 200,000 nodes."""
    rng = np.random.default_rng(18)
    for n in [*rng.integers(1, 5001, 150).tolist(), 200_000]:
        s, i, r, d = 10.0 ** rng.uniform(-75, 75, (4, n)) * rng.choice([-1.0, 1.0], (4, n))
        pop = 10.0 ** rng.uniform(-75, 75, n)
        for zero in ((), ("r",), ("r", "d")):
            comps = {"s": s, "i": i, "r": r, "d": d, **dict(zip(zero, (0.0 * pop, -0.0 * pop)))}
            state = CompartmentState(**comps, t=0)
            everyone = membership(np.zeros(n, int), 1)
            got, _ = harness._totals(state, pop, everyone, everyone)
            want = (np.stack([comps[c] for c in "sird"], axis=1) * pop[:, None]).sum(axis=0)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("sharing", [False, True])
def test_plan_pb_statics_match_the_oracle(sharing):
    """pb's node lists, with their dtype, its cost sums and its spill order,
    taken from the agent membership, bit for bit as pb_statics makes them:
    with an agent of no nodes and costs of mixed signs from 1e-150 to 1e150."""
    inst = build_instance(small_config(policy="pb", n_nodes=3000, n_agents=6,
                                       sharing=sharing))
    rng = np.random.default_rng(36)
    inst.agent_of = rng.choice([0, 1, 2, 3, 5], inst.agent_of.size)
    inst.costs = 10.0 ** rng.uniform(-150, 150, inst.costs.size) \
        * rng.choice([-1.0, 1.0], inst.costs.size)
    (nodes, totals, order), (want_nodes, want_totals, want_order) = \
        harness._Plan(inst).pb, pb_statics(inst.costs, inst.agent_of, 6)
    assert len(nodes) == len(want_nodes)
    for got, want in zip(nodes, want_nodes):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(totals.view(np.uint64), want_totals.view(np.uint64))
    assert order.dtype == want_order.dtype and np.array_equal(order, want_order)


def assert_same_learning(fast, explicit):
    assert np.array_equal(fast.allocations > 0, explicit.allocations > 0)
    assert np.array_equal(fast.priors_a, explicit.priors_a)
    assert np.array_equal(fast.priors_b, explicit.priors_b)
    np.testing.assert_allclose(explicit.agent_totals, fast.agent_totals,
                               rtol=1e-12, atol=0)


def test_run_never_assembles_the_explicit_matrices(monkeypatch):
    """Set-up and a ts run with sharing read the network only through its
    factored products, so its memory does not grow with n^2."""
    def refuse(*args):
        raise AssertionError("the explicit air matrix was assembled")
    monkeypatch.setattr(netmod, "air_flows", refuse)
    inst = build_instance(ScenarioConfig(n_nodes=200, policy="ts", sharing=True))
    res = run_instance(inst)
    assert np.any(res.sharing_ratios > 0)
    assert not {"air", "flows", "rates"} & set(vars(inst.network))


def test_run_funds_no_dust():
    """The rounding a knapsack spend leaves is never funded; a run that did
    would count a Bernoulli trial for a node given nothing."""
    res = run(ScenarioConfig(n_nodes=200, policy="ts", sharing=True, seed=901))
    x = res.allocations
    assert np.any(x > 0)
    assert not np.any((x > 0) & (x < 1e-12))


class TestReplicate:
    def test_single_replication_matches_run(self):
        cfg = small_config(policy="pb")
        out = replicate(cfg, 1)
        single = run(cfg)
        assert out["n"] == 1
        assert np.allclose(out["final_totals_mean"], single.global_totals[-1])
        assert np.allclose(out["final_totals_std"], 0.0)

    def test_schema_stable_across_seed_sets(self):
        cfg = small_config(policy="ts", horizon=5)
        a = replicate(cfg.replace(seed=1), 2)
        b = replicate(cfg.replace(seed=7), 2)
        assert set(a) == set(b)
        assert "world_cumulative_gain_pct_mean" in a
        assert a["final_totals_mean"] != b["final_totals_mean"]

    def test_builds_each_instance_once(self, monkeypatch):
        calls = []

        def counting(cfg):
            calls.append(cfg.seed)
            return build_instance(cfg)
        monkeypatch.setattr(harness, "build_instance", counting)
        replicate(small_config(policy="ts", horizon=3), 3)
        assert calls == [11, 12, 13]

    def test_summary_matches_separate_runs(self):
        cfg = small_config(policy="ts", sharing=True, horizon=6)
        out = replicate(cfg.replace(seed=5), 2)
        assert out["seeds"] == [5, 6]
        finals, world = [], []
        for sd, entry in zip([5, 6], out["runs"]):
            res = run(cfg.replace(seed=sd))
            rep = gains(res, run(cfg.replace(seed=sd, policy="pb")))
            assert entry == {"seed": sd,
                             "final_totals": res.global_totals[-1].tolist(),
                             "world_cumulative_gain_pct": rep.world_cumulative_pct,
                             "world_last_period_gain_pct": rep.world_last_period_pct}
            finals.append(res.global_totals[-1])
            world.append(rep.world_cumulative_pct)
        assert out["final_totals_mean"] == np.array(finals).mean(axis=0).tolist()
        assert out["world_cumulative_gain_pct_mean"] == float(np.mean(world))

    @pytest.mark.parametrize("policy", POLICIES)
    def test_pairs_each_knapsack_policy_with_pb(self, policy):
        out = replicate(small_config(policy=policy, horizon=3), 1)
        assert ("world_cumulative_gain_pct" in out["runs"][0]) == (policy in harness._ESTIMATES)

    def test_validation(self):
        with pytest.raises(ValueError):
            replicate(small_config(), 0)


class TestExport:
    def test_round_trip(self, tmp_path):
        res = run(small_config(policy="ts", sharing=True))
        export(res, tmp_path / "out")
        back = import_result(tmp_path / "out")
        assert res.equals(back)

    def test_nonempty_directory_requires_overwrite(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "stale.txt").write_text("x")
        res = run(small_config(policy="pb", horizon=2))
        with pytest.raises(FileExistsError):
            export(res, out)
        export(res, out, overwrite=True)
        assert (out / "manifest.json").exists()

    def test_failed_export_leaves_no_partial_directory(self, tmp_path):
        res = run(small_config(policy="pb", horizon=2))
        out = tmp_path / "out"
        with pytest.raises(TypeError):
            export(dataclasses.replace(res, priors_a=None), out)
        assert list(tmp_path.iterdir()) == []
        export(res, out)
        assert res.equals(import_result(out))
        assert list(tmp_path.iterdir()) == [out]

    def test_failed_overwrite_keeps_old_run(self, tmp_path):
        old = run(small_config(policy="pb", horizon=2))
        out = tmp_path / "out"
        export(old, out)
        before = {f.name: f.read_bytes() for f in out.iterdir()}
        new = run(small_config(policy="ts", horizon=3))
        with pytest.raises(TypeError):
            export(dataclasses.replace(new, priors_a=None), out, overwrite=True)
        assert {f.name: f.read_bytes() for f in out.iterdir()} == before
        (out / "stale.txt").write_text("x")
        export(new, out, overwrite=True)
        assert new.equals(import_result(out))
        assert not (out / "stale.txt").exists()
        assert list(tmp_path.iterdir()) == [out]

    def test_failed_rename_restores_old_run(self, tmp_path, monkeypatch):
        old = run(small_config(policy="pb", horizon=2))
        out = tmp_path / "out"
        export(old, out)
        before = {f.name: f.read_bytes() for f in out.iterdir()}
        real_replace = harness.os.replace

        def replace(src, dst):
            if Path(src).name == "new":
                raise OSError("rename refused")
            real_replace(src, dst)

        monkeypatch.setattr(harness.os, "replace", replace)
        with pytest.raises(OSError, match="rename refused"):
            export(run(small_config(policy="ts", horizon=3)), out, overwrite=True)
        assert {f.name: f.read_bytes() for f in out.iterdir()} == before
        assert list(tmp_path.iterdir()) == [out]

    def test_exports_byte_identical(self, tmp_path):
        cfg = small_config(policy="ts", seed=42)
        export(run(cfg), tmp_path / "a")
        export(run(cfg), tmp_path / "b")
        for fa in sorted((tmp_path / "a").iterdir()):
            fb = tmp_path / "b" / fa.name
            assert fa.read_bytes() == fb.read_bytes()

    def test_manifest_carries_full_config(self, tmp_path):
        cfg = small_config(policy="gy", budget_multiplier=2.0)
        export(run(cfg), tmp_path / "out")
        with open(tmp_path / "out" / "manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["config"] == cfg.to_dict()

    def test_gain_report_export(self, tmp_path):
        rep = GainReport(cumulative_pct=np.array([1.5, -0.2]),
                         last_period_pct=np.array([2.0, 0.0]),
                         world_cumulative_pct=1.1,
                         world_last_period_pct=1.7)
        path = tmp_path / "gains.csv"
        export_gains(rep, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "region,cumulative_gain_pct,last_period_gain_pct"
        assert lines[1].startswith("world,1.1,")
        assert len(lines) == 4

    def test_sharing_csv_header_and_row(self, tmp_path):
        res = hand_made_result(1, 1, 1, [0.0])
        res.sharing_ratios[:] = 0.2
        res.budgets[:] = 10.0
        res.budgets_effective[:] = 8.0
        export(res, tmp_path / "out")
        lines = (tmp_path / "out" / "sharing.csv").read_text().splitlines()
        assert lines[0] == "t,agent_id,budget,ratio,budget_effective"
        assert lines[1] == "1,0,10.0,0.2,8.0"

    def test_global_csv_rows_parse_to_totals(self, tmp_path):
        res = run(small_config(policy="ts", sharing=True))
        export(res, tmp_path / "out")
        with open(tmp_path / "out" / "global.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "S", "I", "R", "D"]
        assert [int(r[0]) for r in rows[1:]] == list(range(res.horizon + 1))
        parsed = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
        assert np.array_equal(parsed, res.global_totals)


RESULT_ARRAYS = ("populations", "agent_of", "global_totals", "agent_totals",
                 "budgets", "budgets_effective", "allocations", "theta_hat",
                 "theta_obs", "bounds", "sharing_ratios", "priors_a", "priors_b")
CSV_FILES = ("global.csv", "agents.csv", "sharing.csv")
RUN_FILES = ("manifest.json", *CSV_FILES, "allocations.npy", "theta_hat.npy",
             "theta_obs.npy", "bounds.npy", "populations.npy", "agent_of.npy",
             "priors_a.npy", "priors_b.npy")


def hand_made_result(n, horizon, k, values, traces=None):
    """A RunResult whose float arrays cycle through ``values``, its
    populations through the positive ones and its four traces through
    ``traces`` (by default ``values``), x equal to the bound."""
    def floats(*shape, of=values):
        return np.resize(np.asarray(of, dtype=float), shape).copy()
    traces = values if traces is None else traces
    return RunResult(
        config={"horizon": horizon, "n_agents": k, "n_nodes": n},
        populations=floats(n, of=[v for v in values if v > 0]), agent_of=np.arange(n) % k,
        global_totals=floats(horizon + 1, 4),
        agent_totals=floats(horizon + 1, k, 4), budgets=floats(horizon, k),
        budgets_effective=floats(horizon, k),
        allocations=floats(horizon, n, of=traces),
        theta_hat=floats(horizon, n, of=traces)[::-1].copy(),
        theta_obs=floats(horizon, n, of=traces), bounds=floats(horizon, n, of=traces),
        sharing_ratios=floats(horizon, k),
        priors_a=np.arange(1, n + 1, dtype=np.int64),
        priors_b=np.arange(n, 0, -1).astype(np.int64))


def assert_bit_equal(a, b):
    assert a.config == b.config
    for name in RESULT_ARRAYS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        assert x.shape == y.shape, name
        assert np.array_equal(x.view(np.uint64), y.view(np.uint64)), name


def assert_same_files(a, b):
    assert sorted(p.name for p in Path(a).iterdir()) == sorted(RUN_FILES)
    for name in RUN_FILES:
        assert (Path(a) / name).read_bytes() == (Path(b) / name).read_bytes(), name


class TestColumnWiseIO:
    """export and import_result against the row-by-row CSV writer and reader
    and the hand-built .npy writer and reader in tests/oracles.py: byte-equal
    files, bit-equal arrays with equal dtypes."""

    def check(self, res, tmp_path):
        export(res, tmp_path / "cols")
        export_rows(res, tmp_path / "rows")
        assert_same_files(tmp_path / "cols", tmp_path / "rows")
        back = import_result(tmp_path / "cols")
        assert_bit_equal(back, import_result_rows(tmp_path / "cols"))
        assert_bit_equal(back, res)

    @pytest.mark.parametrize("sharing", [False, True])
    @pytest.mark.parametrize("policy", ["ts", "gy", "ma", "pb"])
    def test_runs(self, tmp_path, policy, sharing):
        self.check(run(small_config(policy=policy, sharing=sharing)), tmp_path)

    def test_one_node_world(self, tmp_path):
        self.check(run(ScenarioConfig(n_nodes=1, n_agents=1, horizon=3,
                                      sharing=True)), tmp_path)

    def test_one_period_one_agent(self, tmp_path):
        self.check(run(small_config(n_agents=1, horizon=1, sharing=True)), tmp_path)

    def test_extreme_values(self, tmp_path):
        res = hand_made_result(5, 3, 2, [-0.0, 5e-324, 1e-300, 9.999e-05, 1e16,
                                         1.7976931348623157e308, 0.1, 1e-05],
                               traces=[-0.0, 5e-324, 1e-300, 9.999e-05, 1.0,
                                       2.2250738585072014e-308, 0.1, 1e-05])
        self.check(res, tmp_path)
        assert "-0.0" in (tmp_path / "cols" / "agents.csv").read_text()

    def test_signed_zeros_with_repeats(self, tmp_path):
        # five values over six budgets and eight nodes: the budget column and
        # every period's traces hold 0.0 and -0.0, each more than once
        res = hand_made_result(8, 3, 2, [0.0, -0.0, 0.0, -0.0, 0.25])
        self.check(res, tmp_path)
        lines = (tmp_path / "cols" / "sharing.csv").read_text().splitlines()
        budgets = [line.split(",")[2] for line in lines[1:]]
        assert budgets.count("0.0") > 1 and budgets.count("-0.0") > 1

    def test_shuffled_rows_are_refused(self, tmp_path):
        # import reads each table's rows in the order export writes them, and
        # names the first row out of that order
        export(run(small_config(policy="ts", sharing=True)), tmp_path / "good")
        for name in CSV_FILES:
            shutil.copytree(tmp_path / "good", tmp_path / name)
            path = tmp_path / name / name
            header, *rows = path.read_bytes().split(b"\r\n")[:-1]
            random.Random(5).shuffle(rows)
            path.write_bytes(b"\r\n".join([header, *rows, b""]))
            with pytest.raises(ValueError) as exc:
                import_result(tmp_path / name)
            assert re.match(f"{re.escape(str(path))}: the row on line \\d+ is not the row for ",
                            str(exc.value))


@pytest.mark.parametrize("text,fault", [
    (b"a,b\n1,2\n3\n", "the row on line 3 has no field for column b"),
    (b"a,b\r\n0,2\r\n1,x\r\n", "'x' on line 3, column b, is not a number"),
    (b"a,b\n\n0,2\n\n1\n", "on line 5 "),
    (b"a,b\r\n\r\n0,2\r\n\r\n\r\n1,?\r\n", "'?' on line 6, column b,"),
    (b"a,b\r0,2\r1,x\r", "on line 3,"),
    (b"\xffa,b\n0,2\n", "byte 0xff on line 1 is not UTF-8 text"),
    (b"a,b\r\n0,2\r\n1,\xff\r\n", "byte 0xff on line 3 is not UTF-8 text"),
    (b"a,b\n" + b"0,2\n" * 5000 + b"1,\xfe\n", "byte 0xfe on line 5002 is not UTF-8"),
    (b"a,b\n\n0,2\n\n5,3\n", "a = 5 on line 5 is not an integer in 0..1"),
    (b"a,b\r\n\r\n1,2\r\n0.5,3\r\n", "a = 0.5 on line 4 is not an integer in 0..1"),
    (b"a,b\r\n\r\n0,2\r\n1,3\r\n\r\n0,4\r\n",
     "the row on line 6 is not the row for any of the grid's 2 cells"),
    (b"a,b\n\n0,2\n", "the table ends before the row for a=1"),
    (b"a,b\n1,2\n\n0,3\n", "the row on line 2 is not the row for a=0"),
    (b"a,b\n\n0,2\n\n-1,12\n", "a = -1 on line 5 is not an integer in 0..1"),
    (b"a,b\r\n\r\nnan,2.5\r\n", "a = nan on line 3 is not an integer in 0..1"),
    (b"a,b\n0,3\n\n\ninf,-1\n", "a = inf on line 5 is not an integer in 0..1"),
    (b"a,b\n\n0,2\n\n1,nan\n", "b = nan on line 5 is not finite"),
    (b"a,b\r\n0,-inf\r\n1,2\r\n", "b = -inf on line 2 is not finite"),
])
def test_read_table_names_the_line_of_a_fault(tmp_path, text, fault):
    """A short row, a field that does not parse and bytes that are not
    UTF-8 name the file and the line they are on, across blank lines and
    any line ending; a byte past the reader's first chunk too. So do an id
    that is not an integer in its range, a value that is not finite, a row
    out of export's order and a row past the last cell; a table that ends
    early names the missing cell."""
    path = tmp_path / "t.csv"
    path.write_bytes(text)
    with pytest.raises(ValueError) as exc:
        harness._read_table(path, [("a", 0, 1)], ["b"])
    assert str(exc.value).startswith(f"{path}: ") and fault in str(exc.value)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), grid=st.lists(st.tuples(st.integers(0, 2), st.integers(1, 4)),
                                     min_size=1, max_size=3))
def test_read_table_names_the_first_cell_without_one_row(data, grid):
    """Over a grid of up to 3 ids, each from lo over d values, a table reads
    back only when its rows are the cells in C order, one each. Otherwise the
    fault is the first one a walk along the whole grid meets: the line of a
    row that is not its cell's or is past the last cell, or the first cell
    whose row the table ends before."""
    order = list(itertools.product(*(range(lo, lo + d) for lo, d in grid)))
    anything = st.lists(st.tuples(*(st.integers(lo, lo + d - 1) for lo, d in grid)),
                        max_size=12)
    cells = data.draw(st.permutations(order) | anything | st.builds(
        lambda k, more: order[:k] + more, st.integers(0, len(order)), anything))
    ids = [(f"i{j}", lo, lo + d - 1) for j, (lo, d) in enumerate(grid)]
    first = next((row for row, (got, want) in enumerate(zip(cells, order)) if got != want),
                 min(len(cells), len(order)))

    def where(cell):
        return ", ".join(f"i{j}={i}" for j, i in enumerate(cell))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        path.write_text("\n".join([",".join([name for name, _, _ in ids] + ["v"])]
                                  + [",".join(map(str, (*c, k))) for k, c in enumerate(cells)]
                                  + [""]))
        if cells == order:
            (values,) = harness._read_table(path, ids, ["v"])
            assert values.shape == tuple(d for _, d in grid)
            assert values.ravel().tolist() == list(range(len(order)))
            return
        with pytest.raises(ValueError) as exc:
            harness._read_table(path, ids, ["v"])
        cell = (where(order[first]) if first < len(order)
                else f"any of the grid's {len(order)} cells")
        fault = (f"the row on line {first + 2} is not the row for {cell}" if first < len(cells)
                 else f"the table ends before the row for {cell}")
        assert str(exc.value) == f"{path}: {fault}"


def test_read_table_of_a_vast_grid_allocates_none_of_it(tmp_path):
    # a manifest may give any size: 10 ** 30 periods, or an id range past int64
    path = tmp_path / "t.csv"
    path.write_text("t,a,b\n0,0,1\n0,1,2\n")
    for ids, missing in (([("t", 0, 10 ** 30), ("a", 0, 1)], "t=1, a=0"),
                         ([("t", 0, 0), ("a", 0, 10 ** 400)], "t=0, a=2")):
        with pytest.raises(ValueError, match=f"the table ends before the row for {missing}$"):
            harness._read_table(path, ids, ["b"])


def test_export_peak_memory(tmp_path):
    # n = 3000, T = 104, 211 distinct values: the traces go to disk without
    # a copy and the CSV tables hold n strings a column at most, so the peak
    # is about 0.5 MB, while holding the traces' strings would take about 20 MB
    res = hand_made_result(3000, 104, 5, np.random.default_rng(3).random(211))
    tracemalloc.start()
    try:
        export(res, tmp_path / "run")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_import_peak_memory_is_below_one_trace(tmp_path):
    # n = 2000, T = 104: the traces are mapped from their files, not read into
    # new arrays, so the peak stays below one trace's 1.66 MB; reading the
    # four took 7.35 MB
    res = hand_made_result(2000, 104, 5, np.random.default_rng(3).random(211))
    export(res, tmp_path / "run")
    import_result(tmp_path / "run")  # the first call's lazy imports are not the import's
    tracemalloc.start()
    try:
        back = import_result(tmp_path / "run")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.equals(res)
    assert peak < res.allocations.nbytes


def _trace_files(directory) -> dict:
    return {name: (Path(directory) / f"{name}.npy").read_bytes() for name in harness._TRACES}


def test_imported_traces_are_writable_and_never_write_their_files(tmp_path):
    res = hand_made_result(600, 5, 2, np.random.default_rng(4).random(31))
    export(res, tmp_path / "run")
    before = _trace_files(tmp_path / "run")
    back = import_result(tmp_path / "run")
    for name in harness._TRACES:
        arr = getattr(back, name)
        assert type(arr) is np.ndarray and arr.flags.writeable
        arr[...] = 0.5
    assert all((getattr(back, name) == 0.5).all() for name in harness._TRACES)
    assert _trace_files(tmp_path / "run") == before
    assert import_result(tmp_path / "run").equals(res)


def test_held_import_survives_an_overwrite_of_its_directory(tmp_path):
    # export renames a new directory into place and deletes the old one; the
    # held result's pages, none read before, still come from the old files
    res = hand_made_result(600, 10, 3, np.random.default_rng(5).random(97))
    other = hand_made_result(600, 10, 3, np.random.default_rng(6).random(89))
    export(res, tmp_path / "run")
    held = import_result(tmp_path / "run")
    export(other, tmp_path / "run", overwrite=True)
    assert held.equals(res)
    assert import_result(tmp_path / "run").equals(other)


@settings(max_examples=50, deadline=None)
@given(data=st.data(), n=st.integers(1, 20), horizon=st.integers(1, 5),
       k=st.integers(1, 4))
def test_export_import_round_trip(data, n, horizon, k):
    def floats(*shape, lo=None, hi=None):
        return data.draw(hnp.arrays(np.float64, shape, elements=st.floats(
            lo, hi, allow_nan=False, allow_infinity=False)))

    def traces():
        # in the ranges import_result accepts, -0.0 and subnormals included
        return floats(horizon, n, lo=-0.0, hi=1.0)
    lower, upper = traces(), traces()
    res = RunResult(
        config={"horizon": horizon, "n_agents": k, "n_nodes": n, "seed": 0},
        populations=floats(n, lo=5e-324),
        agent_of=data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, k - 1))),
        global_totals=floats(horizon + 1, 4), agent_totals=floats(horizon + 1, k, 4),
        budgets=floats(horizon, k), budgets_effective=floats(horizon, k),
        allocations=np.minimum(lower, upper), theta_hat=traces(),
        theta_obs=traces(), bounds=np.maximum(lower, upper),
        sharing_ratios=floats(horizon, k),
        priors_a=data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, 10 ** 6))),
        priors_b=data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, 10 ** 6))))
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first", Path(tmp) / "second"
        export(res, first)
        back = import_result(first)
        assert_bit_equal(back, res)
        export(back, second)
        assert_same_files(first, second)
