"""Simulation orchestration: the per-period policy/epidemic/sharing loop,
gain metrics against the population baseline, replication, and run export."""

from __future__ import annotations

import csv
import dataclasses
import itertools
import json
import os
import re
import shutil
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
from .net import _reprs, _write_table
from .policy import (PolicyState, loss_coefficients, pb_allocate, spill_order,
                     update_bounds, window_width)
# the knapsack on inputs run_instance checks once per run; bound under the
# public name so that perfbench/spans.py traces it as policy.solve_knapsack
from .policy import _greedy_fill as solve_knapsack
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
        """Exact equality of all exported content (wall clock ignored)."""
        if self.config != other.config:
            return False
        arrays = ("populations", "agent_of", "global_totals", "agent_totals",
                  "budgets", "budgets_effective", "allocations", "theta_hat",
                  "theta_obs", "bounds", "sharing_ratios", "priors_a", "priors_b")
        return all(np.array_equal(getattr(self, name), getattr(other, name))
                   for name in arrays)


@dataclass
class GainReport:
    """Relative susceptible-mass reduction vs. a baseline run, in percent.
    Regions are agents; the world aggregate is kept separate."""

    cumulative_pct: np.ndarray    # per agent
    last_period_pct: np.ndarray   # per agent
    world_cumulative_pct: float
    world_last_period_pct: float


def _totals_key(agent_of: np.ndarray) -> np.ndarray:
    """The (agent, compartment) bin 4 * agent + compartment of each entry of
    an n x 4 array of S, I, R, D."""
    return 4 * np.asarray(agent_of)[:, None] + np.arange(4)


def _totals(state: CompartmentState, populations: np.ndarray,
            key: np.ndarray, n_agents: int) -> tuple[np.ndarray, np.ndarray]:
    """Global and per-agent S, I, R, D persons; ``key`` is ``_totals_key``."""
    comps = np.stack([state.s, state.i, state.r, state.d], axis=1)
    weighted = comps * populations[:, None]
    glob = weighted.sum(axis=0)
    # bincount adds each bin in node order, as np.add.at does, so the sums
    # are the same
    per_agent = np.bincount(key.ravel(), weights=weighted.ravel(),
                            minlength=4 * n_agents).reshape(n_agents, 4)
    return glob, per_agent


def run_instance(inst: Instance) -> RunResult:
    """Run the full horizon for one instance.

    Period ordering: effective budgets (carried over from the previous
    period in sharing mode), per-agent estimate + knapsack solve with
    windowed bounds, epidemic step with realized efficiencies, next-period
    sharing quantities from the stepped state, then Bernoulli prior updates.
    """
    t_start = time.perf_counter()
    cfg = inst.config
    net = inst.network
    n = net.n
    k = cfg.n_agents
    horizon = cfg.horizon
    pol_name = cfg.policy
    agent_nodes = [np.flatnonzero(inst.agent_of == a) for a in range(k)]
    agent_costs = [inst.costs[idx] for idx in agent_nodes]
    knapsack = pol_name in ("ts", "gy", "ma")
    b_conf = inst.base_budgets
    b_eff = b_conf.copy()
    # the knapsack trusts the static costs and budgets in every period
    # (bounds stay in [0, 1]), so they are checked once, so that NaN fails
    if knapsack and not (np.all(inst.costs > 0) and np.all(b_conf >= 0)):
        raise ValueError("costs must be positive, budgets nonnegative")
    coupling = (shmod.AgentCoupling(net, inst.agent_of, k)
                if knapsack or cfg.sharing else None)
    inflow = coupling.c[np.arange(n), inst.agent_of] if knapsack else None
    spill = [spill_order(c) for c in agent_costs] if pol_name == "pb" else None
    key = _totals_key(inst.agent_of)

    pol = PolicyState(n=n, horizon=horizon,
                      window=window_width(inst.populations, net, horizon))

    global_totals = np.zeros((horizon + 1, 4))
    agent_totals = np.zeros((horizon + 1, k, 4))
    budgets_tr = np.zeros((horizon, k))
    budgets_eff_tr = np.zeros((horizon, k))
    alloc_tr = np.zeros((horizon, n))
    theta_hat_tr = np.zeros((horizon, n))
    theta_obs_tr = np.zeros((horizon, n))
    bounds_tr = np.zeros((horizon, n))
    ratios_tr = np.zeros((horizon, k))

    state = inst.initial
    global_totals[0], agent_totals[0] = _totals(state, inst.populations, key, k)

    for t in range(1, horizon + 1):
        row = t - 1
        budgets_tr[row] = b_conf
        budgets_eff_tr[row] = b_eff

        bounds = update_bounds(pol, t)
        bounds_tr[row] = bounds
        x = np.zeros(n)

        if pol_name == "ts":
            theta_hat = polmod.ts_sample(pol.a, pol.b,
                                         stream(cfg.seed, scmod.STREAM_TS, t))
        elif pol_name == "gy":
            theta_hat = polmod.gy_estimate(pol.a, pol.b)
        elif pol_name == "ma":
            theta_hat = polmod.ma_estimate(pol.obs_sum, pol.obs_count)
        else:
            theta_hat = np.zeros(n)
        theta_hat_tr[row] = theta_hat

        if knapsack:
            for a in range(k):
                idx = agent_nodes[a]
                losses = loss_coefficients(state, inst.params, net, idx, theta_hat,
                                           inflow)
                x[idx] = solve_knapsack(losses, agent_costs[a], float(b_eff[a]),
                                        bounds[idx])
        elif pol_name == "pb":
            for a in range(k):
                idx = agent_nodes[a]
                x[idx] = pb_allocate(agent_costs[a], float(b_eff[a]), bounds[idx],
                                     spill[a])

        theta_t = draw_realized_rates(inst.efficiency.mean_rates,
                                      inst.efficiency.epsilon,
                                      stream(cfg.seed, scmod.STREAM_REALIZED, t))
        new_state = step_vaccinated(state, inst.params, net, x, theta_t)

        if cfg.sharing:
            plan = shmod.plan_sharing(new_state, inst.params, net, inst.agent_of,
                                      b_conf, inst.capacities, coupling)
            ratios_tr[row] = plan.ratios
            b_eff = plan.budgets_out

        polmod.observe_and_update(pol, x, theta_t,
                                  stream(cfg.seed, scmod.STREAM_TRIALS, t))

        pol.record_allocation(t, x)
        alloc_tr[row] = x
        theta_obs_tr[row] = np.where(x > 0, theta_t, 0.0)
        global_totals[t], agent_totals[t] = _totals(new_state, inst.populations, key, k)
        state = new_state

    return RunResult(
        config=cfg.to_dict(), populations=inst.populations.copy(),
        agent_of=inst.agent_of.copy(), global_totals=global_totals,
        agent_totals=agent_totals, budgets=budgets_tr,
        budgets_effective=budgets_eff_tr, allocations=alloc_tr,
        theta_hat=theta_hat_tr, theta_obs=theta_obs_tr, bounds=bounds_tr,
        sharing_ratios=ratios_tr, priors_a=pol.a.copy(), priors_b=pol.b.copy(),
        wall_clock=time.perf_counter() - t_start)


def run(config: ScenarioConfig) -> RunResult:
    return run_instance(build_instance(config))


def gains(result: RunResult, baseline: RunResult) -> GainReport:
    """Gain of a policy run vs. its paired baseline, from susceptible-mass
    sums over periods 1..T (cumulative) and the final period."""
    own = dict(result.config)
    base = dict(baseline.config)
    own.pop("policy")
    base.pop("policy")
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
    world_cum = float(_pct(np.array([g_pol.sum()]), np.array([g_base.sum()]))[0])
    world_last = float(_pct(np.array([g_pol[-1]]), np.array([g_base[-1]]))[0])
    return GainReport(cumulative_pct=cum, last_period_pct=last,
                      world_cumulative_pct=world_cum,
                      world_last_period_pct=world_last)


def replicate(config: ScenarioConfig, n: int) -> dict:
    """Run n instances seeded ``config.seed + i`` and aggregate.

    When the configured policy is not PB, a paired PB run is executed per
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
# The other tables are CSV, written and read a column at a time. A float is
# written as the repr of the Python float, which reads back to the same bits,
# and every line ends in "\r\n" as csv.writer ends it; each distinct value of
# a column is formatted once (net._reprs).

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
    manifest = {"schema": _SCHEMA, "config": result.config}
    with open(directory / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")

    horizon = result.horizon
    k = result.n_agents
    n = result.populations.shape[0]
    agent_of = np.asarray(result.agent_of, dtype=np.int64).tolist()
    periods = range(1, horizon + 1)

    _write_table(directory / "nodes.csv", ["node_id", "population", "agent_id"],
                 zip(range(n), _reprs(result.populations), agent_of))

    totals = _reprs(result.global_totals)
    _write_table(directory / "global.csv", ["t", "S", "I", "R", "D"],
                 ([t, *totals[4 * t:4 * t + 4]] for t in range(horizon + 1)))

    totals = _reprs(result.agent_totals)
    budgets, beffs = ([""] * k + _reprs(arr)
                      for arr in (result.budgets, result.budgets_effective))
    _write_table(directory / "agents.csv",
                 ["t", "agent_id", "S", "I", "R", "D", "budget", "budget_effective"],
                 ([*divmod(c, k), *totals[4 * c:4 * c + 4], budgets[c], beffs[c]]
                  for c in range((horizon + 1) * k)))

    for name in _TRACES:
        np.save(directory / f"{name}.npy",
                np.ascontiguousarray(getattr(result, name), dtype="<f8"),
                allow_pickle=False)

    with np.errstate(all="ignore"):  # as a Python float product, no warning
        b_out = np.multiply(result.budgets, result.sharing_ratios, dtype=float)
    _write_table(directory / "sharing.csv",
                 ["t", "agent_id", "ratio", "budget_in", "budget_out",
                  "budget_effective"],
                 ([t, a, *row] for (t, a), *row in zip(
                     itertools.product(periods, range(k)),
                     *map(_reprs, (result.sharing_ratios, result.budgets, b_out,
                                   result.budgets_effective)))))

    _write_table(directory / "priors.csv", ["node_id", "a", "b"],
                 zip(range(n), *(np.asarray(p, dtype=np.int64).tolist()
                                 for p in (result.priors_a, result.priors_b))))


def _integers(path, name, values, lo, hi) -> np.ndarray:
    """``values`` as int64, each checked to be an integer in [lo, hi]."""
    bad = ~((values >= lo) & (values <= hi) & (values == np.floor(values)))
    if bad.any():
        raise ValueError(f"{path}: {name} = {values[bad][0]:g} is not an integer "
                         f"in {lo}..{hi}")
    return values.astype(np.int64)


_NUMPY_ROW = re.compile(r"at row (\d+)")


def _fault_line(path, exc: ValueError) -> str:
    """The message of ``exc``, raised reading the CSV file at ``path``, with
    the line of the file it is on. Lines end in \\n, \\r\\n or \\r, as
    numpy's reader ends them."""
    raw = Path(path).read_bytes()
    if isinstance(exc, UnicodeDecodeError):
        try:
            raw.decode("utf-8")  # the reader's offset is into a chunk, not the file
        except UnicodeDecodeError as whole:
            # a line break ends every line but the last
            line = len((raw[:whole.start] + b".").splitlines())
            return f"byte {raw[whole.start]:#04x} on line {line} is not UTF-8 text"
    msg = str(exc)
    match = _NUMPY_ROW.search(msg)
    if match is None or not msg.startswith(("could not convert", "invalid column")):
        return msg
    # numpy counts the non-empty lines after the header, from 0 in "could
    # not convert string ..." and from 1 in "invalid column index ..."
    row = int(match.group(1)) - msg.startswith("invalid column")
    lines = [no for no, text in enumerate(raw.splitlines()[1:], start=2) if text]
    if not 0 <= row < len(lines):
        return msg
    return f"{msg[:match.start()]}on line {lines[row]}{msg[match.end():]}"


def _read_table(path, ids, columns, blank_as_nan=()) -> list[np.ndarray]:
    """The float ``columns`` of a CSV table, each scattered into an array over
    the grid of its ``ids``, given as (name, lo, hi). Each id must be an
    integer in its range and each grid cell must have exactly one row, in any
    order. Fields in ``blank_as_nan`` read an empty field as NaN. Every fault
    raises ValueError naming the file."""
    names = [name for name, _, _ in ids] + list(columns)
    shape = [hi - lo + 1 for _, lo, hi in ids]
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            header = fh.readline().rstrip("\r\n").split(",")
            missing = [c for c in names if c not in header]
            if not missing:
                converters = {header.index(c): lambda s: float(s or "nan")
                              for c in blank_as_nan}
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)  # no rows
                    data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2,
                                      usecols=[header.index(c) for c in names],
                                      converters=converters or None)
        except ValueError as exc:  # UnicodeDecodeError is one
            raise ValueError(f"{path}: {_fault_line(path, exc)}") from None
    if missing:
        raise ValueError(f"{path}: header lacks column {', '.join(missing)}")
    cell = np.zeros(data.shape[0], dtype=np.int64)
    for col, (name, lo, hi), size in zip(data.T, ids, shape):
        cell = cell * size + _integers(path, name, col, lo, hi) - lo
    out = np.empty((len(columns), int(np.prod(shape))))
    out[:, cell] = data[:, len(ids):].T
    counts = np.bincount(cell, minlength=out.shape[1])
    wrong = np.flatnonzero(counts != 1)
    if wrong.size:
        where = ", ".join(f"{name}={int(c) + lo}" for (name, lo, _), c
                          in zip(ids, np.unravel_index(wrong[0], shape)))
        raise ValueError(f"{path}: the row for {where} appears "
                         f"{counts[wrong[0]]} times, not once")
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
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    schema = manifest.get("schema") if isinstance(manifest, dict) else None
    if schema == 1:
        raise ValueError(f"{path}: schema 1 predates schema {_SCHEMA}, which holds "
                         "the traces as .npy files; simulate the run again")
    if schema != _SCHEMA:
        raise ValueError(f"{path}: schema {schema!r} is not {_SCHEMA}")
    config = manifest.get("config")
    try:
        horizon, k, n = (int(config[key]) for key in ("horizon", "n_agents", "n_nodes"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: the config needs integer horizon, n_agents "
                         f"and n_nodes ({exc})") from None
    nodes = [("node_id", 0, n - 1)]

    path = directory / "nodes.csv"
    populations, agents = _read_table(path, nodes, ["population", "agent_id"])
    agent_of = _integers(path, "agent_id", agents, 0, k - 1)

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
    priors_a, priors_b = (_integers(path, name, col, 0, 2 ** 53) for name, col in
                          zip("ab", _read_table(path, nodes, ["a", "b"])))

    return RunResult(
        config=config, populations=populations, agent_of=agent_of,
        global_totals=global_totals, agent_totals=np.stack(totals, axis=-1),
        budgets=budgets[1:], budgets_effective=budgets_eff[1:],
        allocations=allocations, theta_hat=theta_hat, theta_obs=theta_obs,
        bounds=bounds, sharing_ratios=ratios, priors_a=priors_a,
        priors_b=priors_b)


def export_gains(report: GainReport, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["region", "cumulative_gain_pct", "last_period_gain_pct"])
        w.writerow(["world", repr(report.world_cumulative_pct),
                    repr(report.world_last_period_pct)])
        for a in range(report.cumulative_pct.shape[0]):
            w.writerow([a, repr(float(report.cumulative_pct[a])),
                        repr(float(report.last_period_pct[a]))])
