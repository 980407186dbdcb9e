"""Simulation orchestration: the per-period policy/epidemic/sharing loop,
gain metrics against the population baseline, replication, and run export."""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from tokenize import TokenError

import numpy as np

from . import policy as polmod
from . import scenario as scmod
from . import sharing as shmod
from .epi import CompartmentState, step_vaccinated
from .net import _line_of, _read_columns, _reprs, _write_json, _write_table
from .policy import PolicyState, loss_coefficients, pb_allocate, update_bounds, window_width
# every agent's knapsack, on inputs run_instance checks once per run, under the
# public name that perfbench/spans.py traces as policy.solve_knapsack
from .policy import _allocate_knapsack as solve_knapsack
from .scenario import (Instance, ScenarioConfig, build_instance,
                       draw_realized_rates, stream)

_SCHEMA = 2
# the (T, n) traces, each written as <name>.npy
_TRACES = ("allocations", "theta_hat", "theta_obs", "bounds")


@dataclass
class RunResult:
    """Everything observable from one simulated horizon.

    Totals are in persons (population-weighted proportions); row t=0 of the
    totals arrays is the initial state. ``wall_clock`` is in-memory metadata
    only and is never exported, so exports stay seed-deterministic.
    """

    config: dict
    populations: np.ndarray
    agent_of: np.ndarray
    global_totals: np.ndarray       # (T+1, 4) S,I,R,D persons
    agent_totals: np.ndarray        # (T+1, K, 4)
    budgets: np.ndarray             # (T, K) configured
    budgets_effective: np.ndarray   # (T, K) after sharing
    allocations: np.ndarray         # (T, n)
    theta_hat: np.ndarray           # (T, n)
    theta_obs: np.ndarray           # (T, n), recorded where allocated
    bounds: np.ndarray              # (T, n)
    sharing_ratios: np.ndarray      # (T, K)
    priors_a: np.ndarray
    priors_b: np.ndarray
    wall_clock: float = 0.0

    @property
    def horizon(self) -> int:
        return self.allocations.shape[0]

    @property
    def n_agents(self) -> int:
        return self.agent_totals.shape[1]

    def equals(self, other: "RunResult") -> bool:
        """Exact equality of all exported content: the config and every
        array field (wall clock ignored)."""
        if self.config != other.config:
            return False
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in dataclasses.fields(self)
                   if f.name not in ("config", "wall_clock"))


@dataclass
class GainReport:
    """Relative susceptible-mass reduction vs. a baseline run, in percent.
    Regions are agents; the world aggregate is kept separate."""

    cumulative_pct: np.ndarray    # per agent
    last_period_pct: np.ndarray   # per agent
    world_cumulative_pct: float
    world_last_period_pct: float


def _totals_key(agent_of: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bins of the entries of an n x 4 array of S, I, R, D, flattened: the
    (agent, compartment) bin 4 * agent + compartment, and the compartment."""
    agent_of = np.asarray(agent_of)
    return (4 * agent_of[:, None] + np.arange(4)).ravel(), np.tile(np.arange(4), agent_of.size)


def _totals(state: CompartmentState, populations: np.ndarray,
            key: tuple[np.ndarray, np.ndarray], n_agents: int) -> tuple[np.ndarray, np.ndarray]:
    """Global and per-agent S, I, R, D persons; ``key`` is ``_totals_key``."""
    comps = np.stack([state.s, state.i, state.r, state.d], axis=1)
    weighted = (comps * populations[:, None]).ravel()
    # bincount adds each bin in node order from 0.0, as sum(axis=0) adds a
    # column and np.add.at an agent's, so the sums are the same
    per_agent, compartment = key
    return (np.bincount(compartment, weights=weighted, minlength=4),
            np.bincount(per_agent, weights=weighted, minlength=4 * n_agents).reshape(n_agents, 4))


# theta_hat of period t for each policy, from (policy state, seed, t); each entry looks its
# estimator up in policy when called, so a replacement there (perfbench, a test) is what runs
_ESTIMATES = {
    "ts": lambda pol, seed, t: polmod.ts_sample(pol.a, pol.b, stream(seed, scmod.STREAM_TS, t)),
    "gy": lambda pol, seed, t: polmod.gy_estimate(pol.a, pol.b),
    "ma": lambda pol, seed, t: polmod.ma_estimate(pol.obs_sum, pol.obs_count),
    "pb": lambda pol, seed, t: np.zeros(pol.n),
    "none": lambda pol, seed, t: np.zeros(pol.n),
}


class _Plan:
    """What a run works out once, before its first period: the agent coupling
    (for ts, gy, ma or sharing on), each node's own-agent inflow (for the
    knapsack), each agent's nodes and cost sum and the spill order of every
    node (for pb) and the key of the per-agent totals."""

    def __init__(self, inst: Instance):
        cfg, net = inst.config, inst.network
        knapsack = cfg.policy in ("ts", "gy", "ma")
        # the knapsack trusts the static costs and budgets in every period
        # (bounds stay in [0, 1]), so they are checked once, so that NaN fails
        if knapsack and not (np.all(inst.costs > 0) and np.all(inst.base_budgets >= 0)):
            raise ValueError("costs must be positive, budgets nonnegative")
        self.inst = inst
        self.coupling = (shmod.AgentCoupling(net, inst.agent_of, cfg.n_agents)
                         if knapsack or cfg.sharing else None)
        self.inflow = self.coupling.c[np.arange(net.n), inst.agent_of] if knapsack else None
        self.pb = None
        if cfg.policy == "pb":
            nodes = [np.flatnonzero(inst.agent_of == a) for a in range(cfg.n_agents)]
            self.pb = (nodes, np.array([inst.costs[idx].sum() for idx in nodes]),
                       np.lexsort((np.arange(net.n), -inst.costs, inst.agent_of)))
        self.key = _totals_key(inst.agent_of)


def _period(plan: _Plan, pol: PolicyState, state: CompartmentState, b_eff: np.ndarray,
            t: int) -> tuple:
    """Period t from ``state`` with effective budgets ``b_eff``: the bounds,
    theta_hat, the allocation x, the realized rates, the stepped state and the
    sharing plan that sets the next period's budgets (None without sharing).
    ``pol`` learns from the period's trials and records x."""
    inst = plan.inst
    cfg, net = inst.config, inst.network
    bounds = update_bounds(pol, t)
    theta_hat = _ESTIMATES[cfg.policy](pol, cfg.seed, t)
    x = np.zeros(net.n)
    if plan.inflow is not None:
        losses = loss_coefficients(state, inst.params, net, theta_hat, plan.inflow)
        x = solve_knapsack(losses, inst.costs, b_eff, bounds, inst.agent_of)
    if plan.pb is not None:
        x = pb_allocate(inst.costs, b_eff, bounds, inst.agent_of, *plan.pb)
    theta_t = draw_realized_rates(inst.efficiency.mean_rates, inst.efficiency.epsilon,
                                  stream(cfg.seed, scmod.STREAM_REALIZED, t))
    new_state = step_vaccinated(state, inst.params, net, x, theta_t)
    shared = (shmod.plan_sharing(new_state, inst.params, net, inst.agent_of,
                                 inst.base_budgets, inst.capacities, plan.coupling)
              if cfg.sharing else None)
    polmod.observe_and_update(pol, x, theta_t, stream(cfg.seed, scmod.STREAM_TRIALS, t))
    pol.record_allocation(t, x)
    return bounds, theta_hat, x, theta_t, new_state, shared


def run_instance(inst: Instance) -> RunResult:
    """Run the full horizon for one instance.

    Period ordering: effective budgets (carried over from the previous
    period in sharing mode), estimate + every agent's knapsack solve with
    windowed bounds, epidemic step with realized efficiencies, next-period
    sharing quantities from the stepped state, then Bernoulli prior updates.
    """
    t_start = time.perf_counter()
    cfg = inst.config
    n, k, horizon = inst.network.n, cfg.n_agents, cfg.horizon
    plan = _Plan(inst)
    pol = PolicyState(n=n, horizon=horizon,
                      window=window_width(inst.populations, inst.network, horizon))
    res = RunResult(
        config=cfg.to_dict(), populations=inst.populations.copy(),
        agent_of=inst.agent_of.copy(), global_totals=np.zeros((horizon + 1, 4)),
        agent_totals=np.zeros((horizon + 1, k, 4)),
        budgets=np.tile(inst.base_budgets, (horizon, 1)),
        budgets_effective=np.zeros((horizon, k)), sharing_ratios=np.zeros((horizon, k)),
        priors_a=pol.a, priors_b=pol.b, **{name: np.zeros((horizon, n)) for name in _TRACES})
    state, b_eff = inst.initial, inst.base_budgets
    res.global_totals[0], res.agent_totals[0] = _totals(state, inst.populations, plan.key, k)
    for t in range(1, horizon + 1):
        row = t - 1
        res.budgets_effective[row] = b_eff
        res.bounds[row], res.theta_hat[row], x, theta_t, state, shared = _period(
            plan, pol, state, b_eff, t)
        res.allocations[row] = x
        res.theta_obs[row] = np.where(x > 0, theta_t, 0.0)
        if shared is not None:
            res.sharing_ratios[row], b_eff = shared.ratios, shared.budgets_out
        res.global_totals[t], res.agent_totals[t] = _totals(state, inst.populations, plan.key, k)
    res.priors_a, res.priors_b = pol.a.copy(), pol.b.copy()
    res.wall_clock = time.perf_counter() - t_start
    return res


def run(config: ScenarioConfig) -> RunResult:
    return run_instance(build_instance(config))


def gains(result: RunResult, baseline: RunResult) -> GainReport:
    """Gain of a policy run vs. its paired baseline, from susceptible-mass
    sums over periods 1..T (cumulative) and the final period."""
    own, base = ({key: v for key, v in r.config.items() if key != "policy"}
                 for r in (result, baseline))
    if own != base:
        raise ValueError("runs differ beyond the policy; gains are undefined")

    def _pct(policy_sum, baseline_sum):
        out = np.zeros(baseline_sum.shape)
        pos = baseline_sum != 0
        out[pos] = 100.0 * (1.0 - policy_sum[pos] / baseline_sum[pos])
        return out

    s_pol = result.agent_totals[1:, :, 0]
    s_base = baseline.agent_totals[1:, :, 0]
    cum = _pct(s_pol.sum(axis=0), s_base.sum(axis=0))
    last = _pct(s_pol[-1], s_base[-1])
    g_pol = result.global_totals[1:, 0]
    g_base = baseline.global_totals[1:, 0]
    world_cum, world_last = _pct(np.array([g_pol.sum(), g_pol[-1]]),
                                 np.array([g_base.sum(), g_base[-1]])).tolist()
    return GainReport(cumulative_pct=cum, last_period_pct=last,
                      world_cumulative_pct=world_cum, world_last_period_pct=world_last)


def replicate(config: ScenarioConfig, n: int) -> dict:
    """Run n instances seeded ``config.seed + i`` and aggregate.

    For every policy but ``pb`` and ``none``, a paired ``pb`` run is made per
    seed on the same instance, built once, so gains isolate the policy.
    """
    if n < 1:
        raise ValueError("replication count must be >= 1")
    seeds = list(range(config.seed, config.seed + n))

    finals, gains_world, per_seed = [], [], []
    for sd in seeds:
        cfg = config.replace(seed=sd)
        inst = build_instance(cfg)
        res = run_instance(inst)
        entry = {"seed": sd, "final_totals": res.global_totals[-1].tolist()}
        if config.policy not in ("pb", "none"):
            # build_instance never reads the policy
            base = run_instance(dataclasses.replace(
                inst, config=cfg.replace(policy="pb")))
            rep = gains(res, base)
            entry["world_cumulative_gain_pct"] = rep.world_cumulative_pct
            entry["world_last_period_gain_pct"] = rep.world_last_period_pct
            gains_world.append(rep.world_cumulative_pct)
        finals.append(res.global_totals[-1])
        per_seed.append(entry)

    finals = np.array(finals)
    out = {
        "policy": config.policy,
        "n": n,
        "seeds": seeds,
        "final_totals_mean": finals.mean(axis=0).tolist(),
        "final_totals_std": finals.std(axis=0).tolist(),
        "runs": per_seed,
    }
    if gains_world:
        out["world_cumulative_gain_pct_mean"] = float(np.mean(gains_world))
        out["world_cumulative_gain_pct_std"] = float(np.std(gains_world))
    return out


# ---------------------------------------------------------------------------
# export / import
#
# The four (T, n) traces are .npy files of little-endian float64 in C order.
# The other tables are CSV, written by net._write_table and read by
# net._read_columns a column at a time. A float is written as the repr of the
# Python float, which reads back to the same bits; each distinct value of a
# column is formatted once (net._reprs).

def check_out_dir(directory, overwrite: bool = False) -> Path:
    """Path(directory); OSError unless absent or a directory, empty unless ``overwrite``."""
    directory = Path(directory)
    # iterdir raises NotADirectoryError for a file, whatever overwrite says
    if directory.exists() and any(directory.iterdir()) and not overwrite:
        raise FileExistsError(
            f"{directory}: directory not empty; pass overwrite to replace")
    return directory


def export(result: RunResult, directory, overwrite: bool = False) -> None:
    """Write the run to a directory: a manifest, CSV tables and the four
    (T, n) traces as .npy files.

    Refuses to touch a non-empty directory unless ``overwrite`` is set. The
    files go to a temporary sibling directory, renamed into place once
    complete, so a failed export leaves the target as it was.
    """
    directory = check_out_dir(directory, overwrite)
    directory.parent.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f".{directory.name}.", dir=directory.parent))
    try:
        (work / "new").mkdir()
        _write_run(result, work / "new")
        if directory.exists():
            os.replace(directory, work / "old")
        try:
            os.replace(work / "new", directory)
        except BaseException:
            if (work / "old").exists():
                os.replace(work / "old", directory)
            raise
    finally:
        shutil.rmtree(work)


def _write_run(result: RunResult, directory: Path) -> None:
    _write_json(directory / "manifest.json", {"schema": _SCHEMA, "config": result.config})

    horizon, k = result.horizon, result.n_agents
    node_ids = list(map(str, range(result.populations.shape[0])))
    # (t, agent) of each agents.csv row; sharing.csv's rows are those from t = 1
    t, agent = (list(map(str, c.tolist())) for c in (np.repeat(np.arange(horizon + 1), k),
                                                      np.tile(np.arange(k), horizon + 1)))

    _write_table(directory / "nodes.csv", ["node_id", "population", "agent_id"],
                 (node_ids, _reprs(result.populations),
                  map(str, np.asarray(result.agent_of, dtype=np.int64).tolist())))

    totals = _reprs(result.global_totals)
    _write_table(directory / "global.csv", ["t", "S", "I", "R", "D"],
                 (map(str, range(horizon + 1)), *(totals[c::4] for c in range(4))))

    totals = _reprs(result.agent_totals)
    budgets, beffs = map(_reprs, (result.budgets, result.budgets_effective))
    _write_table(directory / "agents.csv",
                 ["t", "agent_id", "S", "I", "R", "D", "budget", "budget_effective"],
                 (t, agent, *(totals[c::4] for c in range(4)), [""] * k + budgets,
                  [""] * k + beffs))

    for name in _TRACES:
        np.save(directory / f"{name}.npy",
                np.ascontiguousarray(getattr(result, name), dtype="<f8"),
                allow_pickle=False)

    with np.errstate(all="ignore"):  # as a Python float product, no warning
        b_out = np.multiply(result.budgets, result.sharing_ratios, dtype=float)
    _write_table(directory / "sharing.csv",
                 ["t", "agent_id", "ratio", "budget_in", "budget_out",
                  "budget_effective"],
                 (t[k:], agent[k:], _reprs(result.sharing_ratios), budgets, _reprs(b_out),
                  beffs))

    _write_table(directory / "priors.csv", ["node_id", "a", "b"],
                 (node_ids, *(map(str, np.asarray(p, dtype=np.int64).tolist())
                              for p in (result.priors_a, result.priors_b))))


def _integers(path, name, values, lo, hi) -> np.ndarray:
    """``values``, column ``name`` of a CSV file, as int64, each checked to be
    an integer in [lo, hi]; a fault names the line of the first bad value."""
    bad = np.flatnonzero(~((values >= lo) & (values <= hi) & (values == np.floor(values))))
    if bad.size:
        raise ValueError(f"{path}: {name} = {values[bad[0]]:g} on line "
                         f"{_line_of(path, bad[0])} is not an integer in {lo}..{hi}")
    return values.astype(np.int64)


def _read_table(path, ids, columns, blank_as_nan=(), integers=()) -> list[np.ndarray]:
    """The float ``columns`` of a CSV table, each scattered into an array over
    the grid of its ``ids``, given as (name, lo, hi). Each id, and each value
    of a column named in ``integers``, given the same way, must be an integer
    in its range, and each grid cell must have exactly one row, in any order.
    Fields in ``blank_as_nan`` read an empty field as NaN. Every fault raises
    ValueError naming the file and, where a row is at fault, its line."""
    names = [name for name, _, _ in ids] + list(columns)
    data = _read_columns(path, {c: (lambda s: float(s or "nan")) if c in blank_as_nan
                                else float for c in names})
    shape = [hi - lo + 1 for _, lo, hi in ids]
    cell = np.zeros(data[0].size, dtype=np.int64)
    for name, lo, hi in (*ids, *integers):  # before the scatter, in file order
        col = _integers(path, name, data[names.index(name)], lo, hi)
        if (name, lo, hi) in ids:
            cell = cell * (hi - lo + 1) + col - lo
    out = np.empty((len(columns), int(np.prod(shape))))
    out[:, cell] = data[len(ids):]
    counts = np.bincount(cell, minlength=out.shape[1])
    wrong = np.flatnonzero(counts != 1)
    if wrong.size:
        where = ", ".join(f"{name}={int(c) + lo}" for (name, lo, _), c
                          in zip(ids, np.unravel_index(wrong[0], shape)))
        rows = np.flatnonzero(cell == wrong[0])
        again = f", again on line {_line_of(path, rows[1])}" if rows.size > 1 else ""
        raise ValueError(f"{path}: the row for {where} appears {rows.size} times, "
                         f"not once{again}")
    return list(out.reshape(len(columns), *shape))


def _read_trace(path, shape, upper) -> np.ndarray:
    """The float64 array of ``shape`` in the .npy file at ``path``, each value
    v with 0 <= v <= ``upper``, a number or an array of ``shape``. Any fault
    raises ValueError naming the file."""
    try:
        with open(path, "rb") as fh:
            arr = np.lib.format.read_array(fh, allow_pickle=False)
            trailing = fh.read(1)
    except (ValueError, TypeError, SyntaxError, TokenError) as exc:
        # what the .npy reader raises on a cut file, a bad header or an
        # object array
        raise ValueError(f"{path}: not a readable .npy array ({exc})") from None
    if arr.dtype != np.dtype("<f8") or arr.shape != shape:
        raise ValueError(f"{path}: {arr.dtype.str} of shape {arr.shape}, not <f8 "
                         f"of shape {shape}")
    if trailing:
        raise ValueError(f"{path}: bytes follow the array")
    bad = ~((arr >= 0) & (arr <= upper))  # NaN and infinities fail too
    if bad.any():
        t, i = np.argwhere(bad)[0]
        raise ValueError(f"{path}: {float(arr[t, i])!r} of t = {t + 1}, node {i} is "
                         f"not in [0, {upper if np.isscalar(upper) else 'its bound'}]")
    return arr


def _matches(path, name, got, want, source) -> None:
    """Raise ValueError naming the file unless ``got`` equals ``want``, NaN == NaN."""
    bad = np.flatnonzero(~((got == want) | (np.isnan(got) & np.isnan(want))))
    if bad.size:
        t, i = divmod(int(bad[0]), got.shape[1])
        raise ValueError(f"{path}: {name} of t = {t + 1}, id {i} is "
                         f"{float(got[t, i])!r}, not as in {source}")


def import_result(directory) -> RunResult:
    """Rebuild a RunResult from an exported directory.

    Rows may come in any order. A wrong schema, a missing column, a field
    that does not parse, an id out of range, a missing or repeated row, a
    column that disagrees with the table it repeats, or a trace that is not
    a (T, n) float64 array with 0 <= x <= bound <= 1 and 0 <= theta <= 1
    raises ValueError naming the file.
    """
    directory = Path(directory)
    path = directory / "manifest.json"
    with open(path, encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except (ValueError, RecursionError) as exc:  # decode, JSON or depth
            raise ValueError(f"{path}: {exc}") from None
    schema = manifest.get("schema") if isinstance(manifest, dict) else None
    if schema == 1:
        raise ValueError(f"{path}: schema 1 predates schema {_SCHEMA}, which holds "
                         "the traces as .npy files; simulate the run again")
    if schema != _SCHEMA:
        raise ValueError(f"{path}: schema {schema!r} is not {_SCHEMA}")
    config = manifest.get("config")
    horizon, k, n = sizes = [config.get(key) if isinstance(config, dict) else None
                             for key in ("horizon", "n_agents", "n_nodes")]
    for key, value in zip(("horizon", "n_agents", "n_nodes"), sizes):
        if type(value) is not int or value < 1:  # not a bool, as JSON's true is
            raise ValueError(f"{path}: the config's {key} is {value!r}, not an integer >= 1")
    nodes = [("node_id", 0, n - 1)]

    path = directory / "nodes.csv"
    populations, agents = _read_table(path, nodes, ["population", "agent_id"],
                                      integers=[("agent_id", 0, k - 1)])

    global_totals = np.stack(_read_table(directory / "global.csv", [("t", 0, horizon)],
                                         ["S", "I", "R", "D"]), axis=-1)

    path = directory / "agents.csv"
    *totals, budgets, budgets_eff = _read_table(
        path, [("t", 0, horizon), ("agent_id", 0, k - 1)],
        ["S", "I", "R", "D", "budget", "budget_effective"],
        blank_as_nan=("budget", "budget_effective"))
    if np.isnan(budgets[1:]).any() or np.isnan(budgets_eff[1:]).any():
        raise ValueError(f"{path}: a budget after t = 0 is empty or NaN")

    shape = (horizon, n)
    bounds = _read_trace(directory / "bounds.npy", shape, 1.0)
    allocations = _read_trace(directory / "allocations.npy", shape, bounds)
    theta_hat, theta_obs = (_read_trace(directory / f"{name}.npy", shape, 1.0)
                            for name in ("theta_hat", "theta_obs"))

    path = directory / "sharing.csv"
    ratios, b_in, b_out, b_eff = _read_table(
        path, [("t", 1, horizon), ("agent_id", 0, k - 1)],
        ["ratio", "budget_in", "budget_out", "budget_effective"])
    _matches(path, "budget_in", b_in, budgets[1:], "agents.csv")
    _matches(path, "budget_effective", b_eff, budgets_eff[1:], "agents.csv")
    with np.errstate(all="ignore"):  # as the export's Python product, no warning
        _matches(path, "budget_out", b_out, b_in * ratios, "budget_in * ratio")

    path = directory / "priors.csv"
    priors_a, priors_b = _read_table(path, nodes, ["a", "b"],
                                     integers=[("a", 0, 2 ** 53), ("b", 0, 2 ** 53)])

    return RunResult(
        config=config, populations=populations, agent_of=agents.astype(np.int64),
        global_totals=global_totals, agent_totals=np.stack(totals, axis=-1),
        budgets=budgets[1:], budgets_effective=budgets_eff[1:],
        allocations=allocations, theta_hat=theta_hat, theta_obs=theta_obs,
        bounds=bounds, sharing_ratios=ratios, priors_a=priors_a.astype(np.int64),
        priors_b=priors_b.astype(np.int64))


def export_gains(report: GainReport, path) -> None:
    columns = (np.append(report.world_cumulative_pct, report.cumulative_pct),
               np.append(report.world_last_period_pct, report.last_period_pct))
    _write_table(path, ["region", "cumulative_gain_pct", "last_period_gain_pct"],
                 (["world", *map(str, range(len(columns[0]) - 1))], *map(_reprs, columns)))
