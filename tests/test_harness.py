import dataclasses
import json

import numpy as np
import pytest

from vaxalloc import harness
from vaxalloc import sharing as shmod
from vaxalloc.epi import step
from vaxalloc.harness import (GainReport, RunResult, export, export_gains,
                              gains, import_result, replicate, run,
                              run_instance)
from vaxalloc.scenario import ScenarioConfig, build_instance

from oracles import (infected_flow_matrix_add_at, infection_split_add_at,
                     loss_coefficients_per_call)


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

    @pytest.mark.parametrize("policy", ["ts", "gy", "ma", "pb"])
    def test_deterministic_rerun(self, policy):
        cfg = small_config(policy=policy, sharing=True)
        assert run(cfg).equals(run(cfg))

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
    """A ts run with sharing on equals the same run made with the explicit
    per-period sharing and loss paths swapped in."""
    cfg = ScenarioConfig(n_nodes=150, n_agents=4, horizon=20, seed=3,
                         policy="ts", sharing=True, initial_infected=0.005)
    inst = build_instance(cfg)
    fast = run_instance(inst)
    net, agent_of = inst.network, inst.agent_of
    monkeypatch.setattr(
        shmod, "infection_split",
        lambda state, params, coupling: shmod.InfectionSplit(
            *infection_split_add_at(state, params, net, agent_of)))
    monkeypatch.setattr(
        shmod, "infected_flow_matrix",
        lambda state, coupling: infected_flow_matrix_add_at(
            state, net, agent_of, cfg.n_agents))
    monkeypatch.setattr(
        harness, "loss_coefficients",
        lambda state, params, net, idx, theta, inflow:
            loss_coefficients_per_call(state, params, net, idx, theta))
    slow = run_instance(inst)
    assert np.any(fast.sharing_ratios > 0)
    assert fast.equals(slow)


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
        a = replicate(cfg, 2, seeds=[1, 2])
        b = replicate(cfg, 2, seeds=[7, 8])
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
        out = replicate(cfg, 2, seeds=[5, 6])
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

    def test_validation(self):
        with pytest.raises(ValueError):
            replicate(small_config(), 0)
        with pytest.raises(ValueError):
            replicate(small_config(), 3, seeds=[1, 2])


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
