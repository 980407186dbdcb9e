"""Metamorphic relations: runs compared with other runs of the same model,
so that they need no second implementation of a formula.

- Scale: multiplying every population and the air table by 2**k leaves
  every trace as it was and multiplies the totals and budgets by exactly
  2**k, so no threshold in persons hides where a proportion is meant.
- Decoupling: on a world with no ground edge in range and no air flow, no
  agent's infections reach another, so sharing moves nothing.
- Horizon prefix: a run of horizon T' < T is the first T' periods of the
  run of horizon T, bit for bit, so no period's decision looks ahead. It
  holds because a window width capped at T' changes no bound in periods
  t <= T' (such a window already reaches back to period 1), and every draw
  is keyed by (seed, stream, t)."""

import dataclasses

import numpy as np
import pytest

from vaxalloc import net as netmod
from vaxalloc.harness import RunResult, run, run_instance
from vaxalloc.policy import POLICIES, window_width
from vaxalloc.scenario import ScenarioConfig, build_instance

# (policy, sharing) of the runs each relation compares
RUNS = [("ts", True), ("gy", True), ("ma", True), ("pb", False)]
# the fields that do not change with the scale
SAME = ("allocations", "theta_hat", "theta_obs", "bounds", "sharing_ratios",
        "priors_a", "priors_b")
# the fields in persons, which scale
SCALED = ("global_totals", "agent_totals", "budgets_effective")
# the fields with a row per period, and the totals, with a row more for t = 0
PERIODS = ("budgets", "budgets_effective", "allocations", "theta_hat", "theta_obs",
           "bounds", "sharing_ratios")
TOTALS = ("global_totals", "agent_totals")


def scaled_synth_world(k):
    """net.synth_world with its populations and air table multiplied by 2**k;
    scenario.build_world looks it up when called, so its worlds are scaled."""
    real = netmod.synth_world

    def synth(*args, **kwargs):
        nodes, airports, table, nearest = real(*args, **kwargs)
        nodes = netmod.Nodes(nodes.lat, nodes.lon, nodes.population * 2.0 ** k,
                             nodes.agent_id)
        return nodes, airports, netmod.AirFlowTable(table.ids, table.g * 2.0 ** k), nearest
    return synth


@pytest.mark.parametrize("k", [2, -3])
@pytest.mark.parametrize("policy,sharing", RUNS)
def test_scaled_world_scales_only_the_totals(monkeypatch, policy, sharing, k):
    cfg = ScenarioConfig(n_nodes=300, n_agents=4, horizon=30, seed=901, policy=policy,
                         sharing=sharing)
    base = run(cfg)
    monkeypatch.setattr(netmod, "synth_world", scaled_synth_world(k))
    inst = build_instance(cfg)
    assert np.array_equal(inst.populations, base.populations * 2.0 ** k)
    scaled = run_instance(inst)
    for name in SAME:
        assert np.array_equal(getattr(scaled, name), getattr(base, name)), name
    for name in SCALED:
        assert np.array_equal(getattr(scaled, name), getattr(base, name) * 2.0 ** k), name
    if sharing:  # the relation is not met by a run that shares nothing
        assert np.any(base.sharing_ratios > 0)


@pytest.mark.parametrize("policy", [policy for policy, _ in RUNS])
def test_decoupled_agents_share_nothing(policy):
    cfg = ScenarioConfig(n_nodes=400, n_agents=4, horizon=30, seed=3, policy=policy,
                         ground_range_km=10.0, air_fraction=0.0)
    off, on = run(cfg), run(cfg.replace(sharing=True))
    assert np.all(on.sharing_ratios == 0)
    for f in dataclasses.fields(RunResult):
        if f.name not in ("config", "wall_clock"):
            assert np.array_equal(getattr(on, f.name), getattr(off, f.name)), f.name


@pytest.mark.parametrize("sharing", [False, True])
@pytest.mark.parametrize("policy", POLICIES)
def test_shorter_horizon_is_a_prefix(policy, sharing):
    cfg = ScenarioConfig(n_nodes=400, n_agents=4, horizon=40, seed=7, policy=policy,
                         sharing=sharing)
    short_horizon = 13
    long, short = run(cfg), run(cfg.replace(horizon=short_horizon))
    for name in (*PERIODS, *TOTALS):
        rows = short_horizon + (name in TOTALS)
        a, b = getattr(short, name), getattr(long, name)[:rows]
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    # the relation reaches the cap: some window is wider than the short horizon
    inst = build_instance(cfg)
    assert np.any(window_width(inst.populations, inst.network, cfg.horizon) > short_horizon)
    if sharing:  # and the sharing rows: the short run shares
        assert np.any(short.sharing_ratios > 0)
