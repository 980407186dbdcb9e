import numpy as np
import pytest

from vaxalloc import net as netmod
from vaxalloc import scenario
from vaxalloc.scenario import (EfficiencyModel, ScenarioConfig,
                               budgets, build_instance, build_world,
                               capacity_to_mean_efficiency, draw_mean_rates,
                               draw_realized_rates, stream)


class TestCapacityMapping:
    def test_endpoints_and_midpoint(self):
        g = capacity_to_mean_efficiency(np.array([0.01, 0.03, 0.05]))
        assert np.allclose(g, [0.5, 0.7, 0.9])

    def test_single_agent_midpoint(self):
        assert capacity_to_mean_efficiency(np.array([0.02]))[0] == 0.7

    def test_flat_profile_midpoint(self):
        g = capacity_to_mean_efficiency(np.array([0.04, 0.04, 0.04]))
        assert np.all(g == 0.7)

    def test_monotone_in_capacity(self):
        rng = np.random.default_rng(0)
        caps = np.sort(rng.uniform(0.001, 0.1, 8))
        g = capacity_to_mean_efficiency(caps)
        assert np.all(np.diff(g) >= 0)
        assert np.all((g >= 0.5) & (g <= 0.9))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            capacity_to_mean_efficiency(np.array([]))


class TestMeanRates:
    def test_zero_epsilon_exact(self):
        base = np.array([0.6, 0.8])
        agent_of = np.array([0, 0, 1, 1])
        th = draw_mean_rates(base, agent_of, 0.0, np.random.default_rng(1))
        assert np.array_equal(th, [0.6, 0.6, 0.8, 0.8])

    def test_clipped_support(self):
        base = np.array([0.9])
        agent_of = np.zeros(5000, dtype=int)
        th = draw_mean_rates(base, agent_of, 0.3, np.random.default_rng(2))
        assert th.min() >= 0.6 - 1e-12
        assert th.max() <= 1.0

    def test_empirical_mean(self):
        base = np.array([0.7])
        agent_of = np.zeros(100_000, dtype=int)
        th = draw_mean_rates(base, agent_of, 0.2, np.random.default_rng(3))
        assert abs(th.mean() - 0.7) < 0.01


class TestRealizedRates:
    def test_zero_epsilon(self):
        means = np.array([0.3, 0.7])
        out = draw_realized_rates(means, 0.0, np.random.default_rng(4))
        assert np.array_equal(out, means)

    def test_support_bounds(self):
        means = np.full(100_000, 0.5)
        out = draw_realized_rates(means, 0.2, np.random.default_rng(5))
        assert out.min() >= 0.3 - 1e-12 and out.max() <= 0.7 + 1e-12
        assert out.min() < 0.31 and out.max() > 0.69

    def test_clipping_at_one(self):
        means = np.full(50_000, 0.95)
        out = draw_realized_rates(means, 0.1, np.random.default_rng(6))
        assert out.max() <= 1.0
        assert (out == 1.0).mean() > 0.1


class TestBudgets:
    def test_product(self):
        pops = np.full(100, 10_000.0)  # agent population 10^6
        agent_of = np.zeros(100, dtype=int)
        b = budgets(np.array([0.02]), pops, agent_of, 1.0)
        assert b[0] == pytest.approx(20_000.0)

    def test_multiplier_linearity(self):
        rng = np.random.default_rng(7)
        pops = rng.uniform(1000, 20_000, 30)
        agent_of = rng.integers(0, 3, 30)
        caps = np.array([0.01, 0.02, 0.05])
        b1 = budgets(caps, pops, agent_of, 1.0)
        b2 = budgets(caps, pops, agent_of, 2.0)
        assert np.allclose(b2, 2.0 * b1)

    def test_full_coverage_boundary(self):
        pops = np.array([100.0, 200.0])
        b = budgets(np.array([1.0]), pops, np.zeros(2, dtype=int), 1.0)
        assert b[0] >= pops.sum()


class TestConfig:
    def test_roundtrip(self, tmp_path):
        cfg = ScenarioConfig(n_nodes=50, n_agents=2, policy="gy", sharing=True,
                             seed=13, capacities=[0.01, 0.04])
        path = tmp_path / "config.json"
        cfg.save(path)
        assert ScenarioConfig.load(path) == cfg

    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioConfig(horizon=0)
        with pytest.raises(ValueError):
            ScenarioConfig(budget_multiplier=0.0)
        with pytest.raises(ValueError):
            ScenarioConfig(policy="greedy")
        with pytest.raises(ValueError):
            ScenarioConfig(n_agents=3, capacities=[0.1, 0.1])

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig.from_dict({"n_nodes": 10, "bogus": 1})

    def test_capacities_in_half_open_unit_interval(self):
        for caps in ([0.0, 0.5], [0.5, 1.5]):
            with pytest.raises(ValueError, match="capacities"):
                ScenarioConfig(n_agents=2, capacities=caps)
        assert ScenarioConfig(n_agents=2, capacities=[0.5, 1.0]).capacities == [0.5, 1.0]

    def test_efficiency_model_validation(self):
        with pytest.raises(ValueError):
            EfficiencyModel(mean_rates=np.array([1.2]), epsilon=0.1)


class TestBuildInstance:
    def test_deterministic(self):
        cfg = ScenarioConfig(n_nodes=40, n_agents=2, horizon=10, seed=21)
        a = build_instance(cfg)
        b = build_instance(cfg)
        assert np.array_equal(a.populations, b.populations)
        assert np.array_equal(a.params.beta, b.params.beta)
        assert np.array_equal(a.efficiency.mean_rates, b.efficiency.mean_rates)
        assert np.array_equal(a.base_budgets, b.base_budgets)
        assert (a.network.flows != b.network.flows).nnz == 0

    def test_seed_changes_instance(self):
        a = build_instance(ScenarioConfig(n_nodes=40, n_agents=2, seed=1))
        b = build_instance(ScenarioConfig(n_nodes=40, n_agents=2, seed=2))
        assert not np.array_equal(a.populations, b.populations)

    def test_shapes_and_ranges(self):
        cfg = ScenarioConfig(n_nodes=60, n_agents=3, seed=5, epsilon=0.3)
        inst = build_instance(cfg)
        assert inst.populations.shape == (60,)
        assert set(inst.agent_of) == {0, 1, 2}
        assert np.all((inst.efficiency.mean_rates >= 0)
                      & (inst.efficiency.mean_rates <= 1))
        assert np.all(inst.params.beta >= 0.2) and np.all(inst.params.beta <= 0.5)
        assert np.all(inst.costs == inst.populations)
        assert np.allclose(inst.initial.s + inst.initial.i, 1.0)

    def test_assigns_airports_once(self, monkeypatch):
        calls = []
        assign = netmod.assign_airports

        def counting(*args, **kwargs):
            calls.append(args)
            return assign(*args, **kwargs)
        monkeypatch.setattr(netmod, "assign_airports", counting)
        build_instance(ScenarioConfig(n_nodes=200, n_agents=3, seed=4))
        assert len(calls) == 1

    def test_world_is_build_world_of_the_world_stream(self):
        cfg = ScenarioConfig(n_nodes=60, n_agents=3, seed=8)
        inst = build_instance(cfg)
        nodes, _, _, network = build_world(
            cfg, np.random.SeedSequence(entropy=(8, scenario._STREAM_WORLD)))
        assert np.array_equal(inst.populations, nodes.population)
        assert np.array_equal(inst.agent_of, nodes.agent_id)
        assert (inst.network.flows != network.flows).nnz == 0
        assert inst.network.rho == network.rho

    def test_explicit_capacities_respected(self):
        cfg = ScenarioConfig(n_nodes=40, n_agents=2, seed=3,
                             capacities=[0.01, 0.05])
        inst = build_instance(cfg)
        assert np.array_equal(inst.capacities, [0.01, 0.05])
        g = capacity_to_mean_efficiency(inst.capacities)
        assert np.allclose(g, [0.5, 0.9])


def test_stream_independence_and_determinism():
    a = stream(7, 11, 3).random(4)
    b = stream(7, 11, 3).random(4)
    c = stream(7, 11, 4).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
