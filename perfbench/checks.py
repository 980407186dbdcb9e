"""Correctness checks written apart from the program, or drawn from
properties the method must have. Each returns a list of failure messages;
an empty list means the check passed."""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

REPLAY_TOL = 1e-9    # replayed global totals, as a share of world population
REL_TOL = 1e-12      # float identities between exported numbers
SPEND_TOL = 1e-9     # spend against budget, relative
BOUND_TOL = 1e-12    # allocation fraction against its bound, absolute


def _close(a, b, tol) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


def replay(inst, result) -> list[str]:
    """Re-run the SIRD-with-mobility update from the initial state with the
    run's vaccination theta_obs * x and compare the world S, I, R, D totals
    of every period."""
    pop = np.asarray(inst.populations, dtype=float)
    rates = inst.network.rates
    rs = (np.diff(rates.indptr) > 0).astype(float)
    rho = inst.network.rho
    beta, gamma, cfr = inst.params.beta, inst.params.gamma, inst.params.cfr
    i = np.full(pop.shape[0], inst.config.initial_infected)
    s, r = 1.0 - i, np.zeros_like(i)
    world = pop.sum()

    def move(u):
        return rho * (rates @ u - rs * u)

    out = []
    for t in range(result.horizon + 1):
        if t:
            v = result.theta_obs[t - 1] * result.allocations[t - 1]
            infect = beta * s * i
            sv, rv = s * (1.0 - v), r + s * v
            s, i, r = ((s - infect) * (1.0 - v) + move(sv),
                       i + infect * (1.0 - v) - gamma * i + move(i),
                       rv + (1.0 - cfr) * gamma * i + move(rv))
        totals = np.array([pop @ s, pop @ i, pop @ r, pop @ (1.0 - s - i - r)])
        err = np.abs(totals - result.global_totals[t]).max() / world
        if not err <= REPLAY_TOL:
            out.append(f"replay: period {t} totals off by {err:.3g} of population")
            break
    return out


def budgets_and_allocations(result, costs, bounded_spend: bool) -> list[str]:
    """Sharing keeps the total budget; spend within effective budgets;
    0 <= x <= bound; with `bounded_spend` (the pb policy) each agent spends
    min(budget, sum of bound * cost)."""
    out = []
    x, bounds = result.allocations, result.bounds
    if not np.allclose(result.budgets.sum(axis=1),
                       result.budgets_effective.sum(axis=1), rtol=REL_TOL, atol=0):
        out.append("sharing: total budget not kept")
    if np.any(x < 0) or np.any(x > bounds + BOUND_TOL):
        out.append("allocation outside [0, bound]")
    k = result.n_agents
    owner = np.asarray(result.agent_of)
    for t in range(result.horizon):
        spend = np.bincount(owner, weights=x[t] * costs, minlength=k)
        room = np.bincount(owner, weights=bounds[t] * costs, minlength=k)
        b_eff = result.budgets_effective[t]
        if np.any(spend > b_eff * (1 + SPEND_TOL)):
            out.append(f"period {t + 1}: an agent spends beyond its budget")
            break
        if bounded_spend:
            want = np.minimum(b_eff, room)
            if not np.allclose(spend, want, rtol=SPEND_TOL, atol=0):
                out.append(f"period {t + 1}: pb spend differs from min(budget, room)")
                break
    return out


def learning_counts(result) -> list[str]:
    funded = (result.allocations > 0).sum(axis=0)
    if not np.array_equal(result.priors_a + result.priors_b - 2, funded):
        return ["learning: a + b - 2 differs from funded periods"]
    return []


def network(net, air_fraction: float) -> list[str]:
    """Total air flow is air_fraction of world population; rows of the rates
    sum to 1 where a node has outflow, and are empty elsewhere."""
    out = []
    if not _close(float(net.air.sum()), air_fraction * float(net.populations.sum()), 1e-9):
        out.append("network: total air flow is not air_fraction * population")
    rows = np.asarray(net.rates.sum(axis=1)).ravel()
    has_out = np.asarray(net.flows.sum(axis=1)).ravel() > 0
    if np.abs(rows[has_out] - 1.0).max(initial=0.0) > 1e-12 or np.any(rows[~has_out] != 0):
        out.append("network: rate rows do not sum to 1 where outflow > 0")
    return out


def edge_files(out_dir: Path, nodes_csv: Path, nnz: int) -> list[str]:
    """The edge list of `vaxalloc build-net`: one row per stored flow, each
    row's total is ground + air and its rate is total / row outflow, and
    rho.txt is total flow over the population of the input nodes."""
    rows = []
    with open(out_dir / "edges.csv", newline="", encoding="utf-8") as fh:
        for r in csv.DictReader(fh):
            rows.append((int(r["i"]), float(r["f_ground"]), float(r["f_air"]),
                         float(r["f_total"]), float(r["p"])))
    out = []
    if len(rows) != nnz:
        out.append(f"edges: {len(rows)} rows for {nnz} stored flows")
    outflow: dict[int, float] = {}
    for i, fg, fa, ft, _ in rows:
        if not _close(ft, fg + fa, REL_TOL):
            out.append("edges: f_total != f_ground + f_air")
            break
        outflow[i] = outflow.get(i, 0.0) + ft
    for i, _, _, ft, p in rows:
        if not _close(p, ft / outflow[i], 1e-12):
            out.append("edges: p != f_total / row outflow")
            break
    with open(nodes_csv, newline="", encoding="utf-8") as fh:
        population = math.fsum(float(r["population"]) for r in csv.DictReader(fh))
    rho = float((out_dir / "rho.txt").read_text(encoding="utf-8"))
    if not _close(rho, math.fsum(r[3] for r in rows) / population, 1e-12):
        out.append("rho.txt differs from total flow / total population")
    return out


# the files of a run directory that hold S by period, and the region of a row
S_FILES = (("global.csv", lambda row: "world"),
           ("agents.csv", lambda row: int(row["agent_id"])))


def baseline_factor(t: int, region) -> float:
    """The factor by which the benchmark's baseline scales S of period t in
    a region ("world" or an agent id)."""
    step = 0.001 if region == "world" else 0.0005 * (region + 1)
    return 1.0 + step * t


def _s_by_region(run_dir: Path) -> dict:
    """S of each period t >= 1, by region, from global.csv and agents.csv."""
    out: dict = {}
    for name, region in S_FILES:
        with open(run_dir / name, newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                if int(row["t"]) >= 1:
                    out.setdefault(region(row), []).append(float(row["S"]))
    return out


def gains_file(gains_csv: Path, run_dir: Path, base_dir: Path) -> list[str]:
    """The cumulative and last-period gain of the world and of each agent,
    recomputed from the S columns of the two run directories."""
    with open(gains_csv, newline="", encoding="utf-8") as fh:
        got = {r["region"]: (float(r["cumulative_gain_pct"]),
                             float(r["last_period_gain_pct"]))
               for r in csv.DictReader(fh)}
    run, base = _s_by_region(run_dir), _s_by_region(base_dir)
    if set(got) != {str(region) for region in base}:
        return [f"gains: regions {sorted(got)}"]
    out = []
    for region, s_base in base.items():
        s_run = run[region]
        want = (100.0 * (1.0 - math.fsum(s_run) / math.fsum(s_base)),
                100.0 * (1.0 - s_run[-1] / s_base[-1]))
        have = got[str(region)]
        if any(abs(g - w) > 1e-9 * max(1.0, abs(w)) for g, w in zip(have, want)):
            out.append(f"gains: {region} {have!r}, recomputed {want!r}")
    return out
