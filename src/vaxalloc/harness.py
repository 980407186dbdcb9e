"""Simulation orchestration: the per-period policy/epidemic/sharing loop,
gain metrics against the population baseline, replication, and run export."""

from __future__ import annotations

import dataclasses
import math
import os
import shutil
import sys
import tempfile
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from tokenize import TokenError

import numpy as np

from . import policy as polmod
from . import scenario as scmod
from . import sharing as shmod
from .epi import CompartmentState, step_vaccinated
from .net import _line_of, _read_columns, _read_json, _reprs, _write_json, _write_table
from .policy import (PolicyState, loss_coefficients, pb_allocate, solve_knapsack,
                     update_bounds, window_width)
from .scenario import (Instance, ScenarioConfig, build_instance,
                       draw_realized_rates, stream)

_SCHEMA = 3
# the config fields that size a run's tables
_SIZES = ("horizon", "n_agents", "n_nodes")
# the (T, n) traces, each written as <name>.npy
_TRACES = ("allocations", "theta_hat", "theta_obs", "bounds")
# the dtype of each array written as <name>.npy: the traces and the per-node arrays
_ARRAYS = {**dict.fromkeys(_TRACES, "<f8"), "populations": "<f8", "agent_of": "<i8",
           "priors_a": "<i8", "priors_b": "<i8"}


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


# the knapsack policies, each with its theta_hat of period t from (policy state, seed, t);
# each entry looks its estimator up in policy when called, so a replacement there
# (perfbench, a test) is what runs. pb and none estimate nothing: their theta_hat is zero.
_ESTIMATES = {
    "ts": lambda pol, seed, t: polmod.ts_sample(pol.a, pol.b, stream(seed, scmod.STREAM_TS, t)),
    "gy": lambda pol, seed, t: polmod.gy_estimate(pol.a, pol.b),
    "ma": lambda pol, seed, t: polmod.ma_estimate(pol.obs_sum, pol.obs_count),
}


class _Plan:
    """What a run works out once, before its first period: the agent coupling
    (for a knapsack policy or sharing on), each node's own-agent inflow (for
    the knapsack), each agent's nodes and cost sum and the spill order of every
    node (for pb) and the key of the per-agent totals."""

    def __init__(self, inst: Instance):
        cfg, net = inst.config, inst.network
        knapsack = cfg.policy in _ESTIMATES
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
    theta_hat, x = np.zeros(net.n), np.zeros(net.n)
    if plan.inflow is not None:
        theta_hat = _ESTIMATES[cfg.policy](pol, cfg.seed, t)
        losses = loss_coefficients(state, inst.params, net, theta_hat, plan.inflow)
        x = solve_knapsack(losses, inst.costs, b_eff, bounds, inst.agent_of)
    if plan.pb is not None:
        x = pb_allocate(inst.costs, b_eff, bounds, inst.agent_of, *plan.pb)
    theta_t = draw_realized_rates(inst.mean_rates, cfg.epsilon,
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

    For a knapsack policy (one of ``_ESTIMATES``), a paired ``pb`` run is made
    per seed on the same instance, built once, so gains isolate the policy.
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
        if config.policy in _ESTIMATES:
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
# The four (T, n) traces and the four per-node arrays are .npy files of
# little-endian float64 or int64 in C order; an imported result maps them
# copy-on-write (_read_npy). The per-period tables are CSV, written by
# net._write_table and read by net._read_columns a column at a time. A float
# is written as the repr of the Python float, which reads back to the same
# bits; each distinct value of a column is formatted once (net._reprs).

def check_out_dir(directory, overwrite: bool = False) -> Path:
    """Path(directory); OSError unless absent or a directory, empty unless ``overwrite``."""
    directory = Path(directory)
    # iterdir raises NotADirectoryError for a file, whatever overwrite says
    if directory.exists() and any(directory.iterdir()) and not overwrite:
        raise FileExistsError(
            f"{directory}: directory not empty; pass overwrite to replace")
    return directory


def export(result: RunResult, directory, overwrite: bool = False) -> None:
    """Write the run to a directory: a manifest, the per-period CSV tables
    and the traces and per-node arrays as .npy files.

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
    # (t, agent) of each agents.csv row; sharing.csv's rows are those from t = 1
    t, agent = (list(map(str, c.tolist())) for c in (np.repeat(np.arange(horizon + 1), k),
                                                      np.tile(np.arange(k), horizon + 1)))

    totals = _reprs(result.global_totals)
    _write_table(directory / "global.csv", ["t", "S", "I", "R", "D"],
                 (map(str, range(horizon + 1)), *(totals[c::4] for c in range(4))))

    totals = _reprs(result.agent_totals)
    _write_table(directory / "agents.csv", ["t", "agent_id", "S", "I", "R", "D"],
                 (t, agent, *(totals[c::4] for c in range(4))))

    _write_table(directory / "sharing.csv",
                 ["t", "agent_id", "budget", "ratio", "budget_effective"],
                 (t[k:], agent[k:], *map(_reprs, (result.budgets, result.sharing_ratios,
                                                  result.budgets_effective))))

    for name, dtype in _ARRAYS.items():
        np.save(directory / f"{name}.npy",
                np.ascontiguousarray(getattr(result, name), dtype=dtype), allow_pickle=False)


def _read_table(path, ids, columns) -> list[np.ndarray]:
    """The float ``columns`` of a CSV table as arrays over the grid of its
    ``ids``, given as (name, lo, hi), each cell in one row, in C order, as
    ``export`` writes them; each id is an integer in its range. Every fault
    raises ValueError naming the file and, where a row is at fault, its line."""
    names = [name for name, _, _ in ids] + list(columns)
    data = _read_columns(path, dict.fromkeys(names, float))
    for name, lo, hi in ids:  # in file order
        values, hi = data[names.index(name)], min(hi, 2 ** 62)  # no float past int64 casts
        bad = np.flatnonzero(~((values >= lo) & (values <= hi) & (values == np.floor(values))))
        if bad.size:
            raise ValueError(f"{path}: {name} = {values[bad[0]]:g} on line "
                             f"{_line_of(path, bad[0])} is not an integer in {lo}..{hi}")
        data[names.index(name)] = values.astype(np.int64)
    shape = [hi - lo + 1 for _, lo, hi in ids]
    rows, cells = data[0].size, math.prod(shape)
    # the ids of the cells in C order up to the one after the last row; capping
    # each side at rows + 1 changes none of them, and makes nothing grid-sized
    want = [w + lo for w, (_, lo, _) in zip(np.unravel_index(
        np.arange(min(rows + 1, cells)), [min(d, rows + 1) for d in shape]), ids)]
    wrong = np.flatnonzero(np.any([d[:cells] != w[:rows] for d, w in zip(data, want)], axis=0))
    at = wrong[0] if wrong.size else min(rows, cells)  # the first row or cell without its match
    if at < max(rows, cells):
        cell = (", ".join(f"{name}={w[at]}" for (name, _, _), w in zip(ids, want))
                if at < cells else f"any of the grid's {cells} cells")
        raise ValueError(f"{path}: the row on line {_line_of(path, at)} is not the row for {cell}"
                         if at < rows else f"{path}: the table ends before the row for {cell}")
    return [d.reshape(shape) for d in data[len(ids):]]


def _read_npy(path, shape, dtype, lo, hi) -> np.ndarray:
    """The array of ``shape`` and ``dtype`` that ``np.save`` wrote at ``path``
    (format 1.0, C order), each value v with lo <= v <= hi, ``hi`` a number
    or an array of ``shape``. Any fault raises ValueError naming the file.

    The header and the file's length are checked before anything of the size
    the header claims is made; the data is then mapped copy-on-write, so the
    array is writable and a write never reaches the file."""
    dtype = np.dtype(dtype)
    nbytes = dtype.itemsize * math.prod(shape)
    with open(path, "rb") as fh:
        try:
            with warnings.catch_warnings():
                # the reader warns when it has to rewrite a header to parse it
                warnings.simplefilter("error")
                if (version := np.lib.format.read_magic(fh)) != (1, 0):
                    raise ValueError(f"format version {version} is not 1.0")
                got, fortran_order, descr = np.lib.format.read_array_header_1_0(fh)
        except (ValueError, SyntaxError, TokenError, Warning) as exc:
            # what the reader raises on a cut file or a bad header; some of its
            # messages run over several lines
            raise ValueError(f"{path}: not a readable .npy array "
                             f"({str(exc).splitlines()[0]})") from None
        if descr != dtype or got != shape or fortran_order:
            raise ValueError(f"{path}: {descr.str} of shape {got} in {'CF'[fortran_order]} "
                             f"order, not {dtype.str} of shape {shape} in C order")
        offset = fh.tell()
        data = os.fstat(fh.fileno()).st_size - offset
        if data != nbytes:
            raise ValueError(f"{path}: {data} bytes of data, not the {nbytes} of the array")
        arr = np.memmap(fh, dtype=dtype, mode="c", offset=offset, shape=shape).view(np.ndarray)
    # min and max are NaN if a value is, and NaN fails every comparison
    if not (arr.min() >= lo and (arr.max() <= hi if np.isscalar(hi) else (arr <= hi).all())):
        at = tuple(np.argwhere(~((arr >= lo) & (arr <= hi)))[0])
        where = f"t = {at[0] + 1}, node {at[1]}" if arr.ndim == 2 else f"node {at[0]}"
        top = repr(hi) if np.isscalar(hi) else "its bound"
        raise ValueError(f"{path}: {arr[at].item()!r} of {where} is not in [{lo!r}, {top}]")
    return arr


def _manifest_config(manifest) -> dict:
    """The config of a run manifest, as exported, once ScenarioConfig accepts
    it; it may leave out any field but the sizes that import_result reads."""
    schema = manifest.get("schema") if isinstance(manifest, dict) else None
    if schema in (1, 2):
        raise ValueError(f"schema {schema} predates schema {_SCHEMA}, which holds every "
                         "per-node array as a .npy file; simulate the run again")
    if schema != _SCHEMA:
        raise ValueError(f"schema {schema!r} is not {_SCHEMA}")
    config = manifest.get("config")
    ScenarioConfig.from_dict(config)
    if missing := [key for key in _SIZES if key not in config]:
        raise ValueError(f"the config has no {missing[0]}")
    return config


def import_result(directory) -> RunResult:
    """Rebuild a RunResult from an exported directory.

    The directory must be as ``export`` writes it: a wrong schema, a missing
    column, a field that does not parse, a row out of place, missing or
    extra, or a .npy array that ``_read_npy`` refuses raises ValueError
    naming the file.

    The .npy arrays are copy-on-write maps of the directory's files: the
    directory may be replaced (``export`` renames a new one into place) while
    the result is in use, but a .npy file must not be cut short in place.
    """
    directory = Path(directory)
    config = _read_json(directory / "manifest.json", _manifest_config)
    horizon, k, n = (config[key] for key in _SIZES)
    agents = ("agent_id", 0, k - 1)

    global_totals = np.stack(_read_table(directory / "global.csv", [("t", 0, horizon)],
                                         ["S", "I", "R", "D"]), axis=-1)
    agent_totals = np.stack(_read_table(directory / "agents.csv", [("t", 0, horizon), agents],
                                        ["S", "I", "R", "D"]), axis=-1)
    budgets, ratios, budgets_eff = _read_table(directory / "sharing.csv",
                                               [("t", 1, horizon), agents],
                                               ["budget", "ratio", "budget_effective"])

    def array(name, lo, hi):
        shape = (horizon, n) if name in _TRACES else (n,)
        return _read_npy(directory / f"{name}.npy", shape, _ARRAYS[name], lo, hi)
    bounds = array("bounds", 0, 1.0)
    return RunResult(  # a population is positive and finite
        config=config, populations=array("populations", math.ulp(0.0), sys.float_info.max),
        agent_of=array("agent_of", 0, k - 1), global_totals=global_totals,
        agent_totals=agent_totals, budgets=budgets, budgets_effective=budgets_eff,
        allocations=array("allocations", 0, bounds), theta_hat=array("theta_hat", 0, 1.0),
        theta_obs=array("theta_obs", 0, 1.0), bounds=bounds, sharing_ratios=ratios,
        priors_a=array("priors_a", 0, 2 ** 53), priors_b=array("priors_b", 0, 2 ** 53))


def export_gains(report: GainReport, path) -> None:
    columns = (np.append(report.world_cumulative_pct, report.cumulative_pct),
               np.append(report.world_last_period_pct, report.last_period_pct))
    _write_table(path, ["region", "cumulative_gain_pct", "last_period_gain_pct"],
                 (["world", *map(str, range(len(columns[0]) - 1))], *map(_reprs, columns)))
