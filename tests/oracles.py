"""Independent reference implementations used only by tests.

These deliberately avoid the library's vectorized/closed-form paths: the
objective is evaluated term by term from its printed definition, and the
knapsack optimum is found by dynamic programming over the full 0.01 grid.
The explicit per-period, per-edge and per-entry paths that faster library
code replaced are kept here as the references it must match, exactly or,
where it adds in another order, to a stated tolerance.
"""

from __future__ import annotations

import ast
import csv
import itertools
import json
import math
import struct
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from vaxalloc import net
from vaxalloc.epi import STABILITY_BAND, CompartmentState, EpidemicInstabilityError
from vaxalloc.harness import _SCHEMA, RunResult
from vaxalloc.net import pair_distances
from vaxalloc.policy import DUST, AllocationProblem


def cross_distances(lat1, lon1, lat2, lon2, planar=False):
    """Distance matrix (len(lat1) x len(lat2)) in km, every pair by
    pair_distances."""
    return pair_distances(np.asarray(lat1, dtype=float)[:, None],
                          np.asarray(lon1, dtype=float)[:, None],
                          np.asarray(lat2, dtype=float)[None, :],
                          np.asarray(lon2, dtype=float)[None, :], planar=planar)


def direct_objective(s, i, beta, rho, p_dense, agent_nodes, theta, x):
    """Expected next-period susceptible mass of one agent, written out as the
    literal triple sum (own-node term, same-agent mobility, cross-agent
    mobility) with other agents allocating nothing."""
    agent_set = set(int(v) for v in agent_nodes)
    n = len(s)
    total = 0.0
    for a in agent_nodes:
        a = int(a)
        keep_a = 1.0 - theta[a] * x[a]
        term = (s[a] - beta[a] * s[a] * i[a]) * keep_a
        for j in range(n):
            if j == a or p_dense[a, j] == 0.0:
                continue
            if j in agent_set:
                keep_j = 1.0 - theta[j] * x[j]
                term += rho * p_dense[a, j] * (s[j] * keep_j - s[a] * keep_a)
            else:
                term += rho * p_dense[a, j] * (s[j] - s[a] * keep_a)
        total += term
    return total


def grid_knapsack_optimum(losses, costs, budget, bounds, step=0.01):
    """Minimum of sum(l_i x_i) over x_i in {0, step, ...} up to bounds with
    sum(x_i C_i) <= budget, by exact DP. Costs must be integers and bounds
    multiples of the step so every grid spend is a multiple of step."""
    losses = np.asarray(losses, dtype=float)
    costs = np.asarray(costs)
    if not np.all(costs == costs.astype(int)):
        raise ValueError("grid oracle needs integer costs")
    costs = costs.astype(int)
    steps = np.round(np.asarray(bounds) / step).astype(int)
    cap = min(int(math.floor(budget / step + 1e-9)),
              int((steps * costs).sum()))
    dp = np.full(cap + 1, np.inf)
    dp[0] = 0.0
    for l, c, g_max in zip(losses, costs, steps):
        ndp = dp.copy()
        for g in range(1, g_max + 1):
            spend = g * c
            if spend > cap:
                break
            cand = dp[:cap + 1 - spend] + g * step * l
            np.minimum(ndp[spend:], cand, out=ndp[spend:])
        dp = ndp
    return float(dp[np.isfinite(dp)].min())


def nearest_airport_bruteforce(node_xy, airport_ids, airport_xy):
    """Lowest-id nearest airport by exhaustive comparison (planar)."""
    best_id, best_d = None, None
    for aid, (ax, ay) in sorted(zip(airport_ids, airport_xy)):
        d = math.hypot(node_xy[0] - ax, node_xy[1] - ay)
        if best_d is None or d < best_d - 1e-12:
            best_id, best_d = aid, d
    return best_id


def nearest_airport_blocks(nodes, airports, planar=False, block=1 << 18):
    """Each node's nearest airport, as its position among the airports sorted
    by id, from every node-to-airport distance, computed in row blocks of
    about ``block`` distances; argmin takes the first of ties, the lowest id.
    Also each polygon's population, added in node order."""
    nodes, airports = list(nodes), sorted(airports, key=lambda a: a.id)
    nlat, nlon, pop = (np.array([getattr(nd, name) for nd in nodes], dtype=float)
                       for name in ("lat", "lon", "population"))
    alat, alon = (np.array([getattr(a, name) for a in airports], dtype=float)
                  for name in ("lat", "lon"))
    nearest = np.empty(len(nodes), dtype=np.intp)
    step = max(1, block // len(airports))
    for lo in range(0, len(nodes), step):
        rows = slice(lo, lo + step)
        dist = cross_distances(nlat[rows], nlon[rows], alat, alon, planar=planar)
        nearest[rows] = dist.argmin(axis=1)
    return nearest, np.bincount(nearest, weights=pop, minlength=len(airports))


# ---------------------------------------------------------------------------
# explicit paths for the sharing split and the own-agent inflow. The _add_at
# paths and loss_coefficients_per_call read the explicit rates, which the
# factored products stand for; agent_inflows_split is the 2K-column rates
# product per period that the static agent coupling replaced, and own_inflow
# the own-agent inflow as a run built it before the coupling. The coupling
# matches own_inflow bit for bit; everything else adds in another order, so
# the per-agent split, the infected-flow matrix and the loss coefficients
# match these paths to a few ulps or better.


def per_agent(values, agent_of, n_agents):
    """Per-node values summed per agent, in node order."""
    return np.bincount(np.asarray(agent_of, dtype=int), weights=values,
                       minlength=n_agents)


def infection_split_add_at(state, params, net, agent_of):
    """(internal, external) infection pressure per node, rebuilding the COO
    form of the rates and scattering with np.add.at."""
    agent_of = np.asarray(agent_of, dtype=int)
    coo = net.rates.tocoo()
    same = agent_of[coo.row] == agent_of[coo.col]
    inf = state.i
    contrib = coo.data * inf[coo.col]
    mob_same = np.zeros(net.n)
    mob_cross = np.zeros(net.n)
    np.add.at(mob_same, coo.row[same], contrib[same])
    np.add.at(mob_cross, coo.row[~same], contrib[~same])
    internal = inf + params.beta * state.s * inf - params.gamma * inf + net.rho * mob_same
    external = net.rho * mob_cross
    return internal, external


def infected_flow_matrix_add_at(state, net, agent_of, n_agents):
    """M[k', k] over all rate entries with np.add.at, diagonal zeroed after."""
    agent_of = np.asarray(agent_of, dtype=int)
    coo = net.rates.tocoo()
    contrib = net.rho * coo.data * state.i[coo.col]
    mat = np.zeros((n_agents, n_agents))
    np.add.at(mat, (agent_of[coo.col], agent_of[coo.row]), contrib)
    np.fill_diagonal(mat, 0.0)
    return mat


def agent_inflows_split(state, params, net, agent_of, n_agents):
    """Per-node (internal, external) pressure and the infected-flow matrix
    from Y = rates @ [Z * I, (1 - Z) * I], Z the n x K agent membership
    mask: Y[i, k] sums p_ij I_j over j in V_k, Y[i, K + k] over j outside
    V_k. The matrix takes the per-agent column sums of Y's first K columns
    and zeroes its diagonal."""
    agent_of = np.asarray(agent_of, dtype=int)
    own = agent_of[:, None] == np.arange(n_agents)
    inflows = net.rates_dot(state.i[:, None] * np.hstack((own, ~own)))
    rows = np.arange(net.n)
    inf = state.i
    internal = (inf + params.beta * state.s * inf - params.gamma * inf
                + net.rho * inflows[rows, agent_of])
    external = net.rho * inflows[rows, n_agents + agent_of]
    into = np.stack([per_agent(col, agent_of, n_agents)
                     for col in inflows[:, :n_agents].T], axis=1)
    mat = net.rho * into.T
    np.fill_diagonal(mat, 0.0)
    return internal, external, mat


def infected_flow_matrix_scatter(state, net, agent_of, c):
    """sharing.infected_flow_matrix with its (agent of j, k) sums scattered
    by np.add.at; both add in node order."""
    into = np.zeros((c.shape[1], c.shape[1]))
    np.add.at(into, np.asarray(agent_of, dtype=int), state.i[:, None] * c)
    return net.rho * into


def own_inflow(net, agent_nodes):
    """Per node i of agent k, the rate flowing into i from k's own rows:
    sum over j in V_k of p_ji, from one transposed product with the agent
    mask, keeping one column per node. ``agent_nodes`` holds one index
    array per agent."""
    own = np.zeros((net.n, len(agent_nodes)))
    for a, idx in enumerate(agent_nodes):
        own[idx, a] = 1.0
    col_in = net.rates_t_dot(own)
    out = np.zeros(net.n)
    for a, idx in enumerate(agent_nodes):
        out[idx] = col_in[idx, a]
    return out


def totals_add_at(state, populations, agent_of, n_agents):
    """harness._totals with its per-agent sums scattered by np.add.at, as
    before it called bincount; both add in node order."""
    comps = np.stack([state.s, state.i, state.r, state.d], axis=1)
    weighted = comps * populations[:, None]
    per_agent = np.zeros((n_agents, 4))
    np.add.at(per_agent, agent_of, weighted)
    return weighted.sum(axis=0), per_agent


def loss_coefficients_per_call(state, params, net, agent_nodes, theta_hat):
    """Loss coefficients with the own-agent column inflow sliced from the
    CSR rates on every call."""
    agent_nodes = np.asarray(agent_nodes, dtype=int)
    rows = net.rates[agent_nodes, :]
    col_in = np.asarray(rows.sum(axis=0)).ravel()
    s = state.s[agent_nodes]
    beta = params.beta[agent_nodes]
    inf = state.i[agent_nodes]
    out_sum = net.rate_row_sum[agent_nodes]
    th = np.asarray(theta_hat, dtype=float)[agent_nodes]
    return th * s * (-(1.0 - beta * inf) + net.rho * out_sum
                     - net.rho * col_in[agent_nodes])


def ma_estimate_lists(obs_history):
    """Running mean from per-node lists of observations, added left to
    right; 0.5 when empty."""
    out = np.empty(len(obs_history))
    for node, hist in enumerate(obs_history):
        total = 0.0
        for v in hist:
            total += v
        out[node] = total / len(hist) if hist else 0.5
    return out


def export_network_per_edge(net, edges_path, rho_path):
    """Edge list written one CSR lookup per edge."""
    ground = net.ground.tocsr()
    air = net.air.tocsr()
    rates = net.rates
    with open(edges_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["i", "j", "f_ground", "f_air", "f_total", "p"])
        coo = net.flows.tocoo()
        order = np.lexsort((coo.col, coo.row))
        for k in order:
            i, j = int(coo.row[k]), int(coo.col[k])
            w.writerow([i, j, repr(float(ground[i, j])), repr(float(air[i, j])),
                        repr(float(coo.data[k])), repr(float(rates[i, j]))])
    with open(rho_path, "w", encoding="utf-8") as fh:
        fh.write(repr(net.rho) + "\n")


def rates_sparse_product(net):
    """The explicit rates as one sparse product diag(1 / outflow) @ flows,
    which drops a product that underflows to 0; a row whose 1 / outflow
    overflows (a subnormal outflow) is divided by its outflow instead."""
    with np.errstate(over="ignore"):
        inv = np.where(net.outflow > 0, 1.0 / net._divisor, 0.0)
    huge = np.isinf(inv)
    rates = (sp.diags(np.where(huge, 1.0, inv)) @ net.flows).tocsr()
    if np.any(huge):
        row = np.repeat(np.arange(net.n), np.diff(rates.indptr))
        at = huge[row]
        rates.data[at] /= net.outflow[row[at]]
    return rates


def read_columns_csv(path, types):
    """The named columns of a CSV file with a header through the csv module,
    blank lines skipped and each field converted by its column's type in
    Python: the reader that net._read_columns must match bit for bit and
    dtype for dtype on every file it reads. It checks nothing."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = [row for row in csv.reader(fh) if row]
    return [np.array([kind(row[header.index(c)]) for row in rows], dtype=kind)
            for c, kind in types.items()]


def write_table_csv(path, header, rows):
    """A CSV table through csv.writer, one row at a time: the writer whose
    bytes net._write_table and net._write_blocks must match."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_air_flows_entries(table, path):
    """The flights file written from AirFlowTable.entries, one csv row per
    entry: the writer that net.write_air_flows must match byte for byte."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["origin", "destination", "flow"])
        w.writerows([a, b, repr(g)] for (a, b), g in table.entries.items())


# ---------------------------------------------------------------------------
# explicit world-build and epidemic-step paths that faster code replaced. The
# world build must match air_flows_lists, ground_neighborhoods_dense,
# radiation_flows_lists, air_factors_dict and gravity_entries_loops exactly;
# the step's factored product adds in another order than the three explicit
# products, and matches them to an absolute tolerance on the proportions.


def air_factors_dict(assignment, entries):
    """The air factors scattered from a dict of (origin, destination) id
    entries: each node's slot among the airports that have nodes, in
    ascending id order, and the slot-by-slot flows. ``assignment`` holds
    each node's airport id; entries naming an airport without nodes are
    skipped."""
    aids, cell = np.unique(np.asarray(assignment), return_inverse=True)
    slot = {int(aid): k for k, aid in enumerate(aids)}
    g = np.zeros((len(aids), len(aids)))
    for (a, b), flow in entries.items():
        if flow > 0 and a in slot and b in slot:
            g[slot[a], slot[b]] = flow
    return cell, g


def air_flows_lists(cell, g, populations):
    """Air flows built as Python lists of COO entries, one nonzero slot pair
    at a time, then converted and summed by scipy."""
    pop = np.asarray(populations, dtype=float)
    n = len(pop)
    members = {}
    polygon_pop = {}
    for a in range(g.shape[0]):
        idx = np.flatnonzero(cell == a)
        members[a] = idx
        polygon_pop[a] = float(pop[idx].sum())
    rows, cols, vals = [], [], []
    for a, b in zip(*np.nonzero(g > 0)):
        src, dst = members[a], members[b]
        if len(src) == 0 or len(dst) == 0:
            continue
        denom = polygon_pop[a] + polygon_pop[b]
        block = g[a, b] * (pop[src][:, None] + pop[dst][None, :]) / denom
        rr, cc = np.meshgrid(src, dst, indexing="ij")
        rows.extend(rr.ravel().tolist())
        cols.extend(cc.ravel().tolist())
        vals.extend(block.ravel().tolist())
    mat = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    mat.sum_duplicates()
    return mat


def ground_neighborhoods_dense(nodes, D, planar=False):
    """Neighbour sets read off the full n x n distance matrix."""
    lat = np.array([nd.lat for nd in nodes], dtype=float)
    lon = np.array([nd.lon for nd in nodes], dtype=float)
    dist = cross_distances(lat, lon, lat, lon, planar=planar)
    np.fill_diagonal(dist, np.inf)
    return [np.flatnonzero(dist[i] <= D) for i in range(len(nodes))]


# ---------------------------------------------------------------------------
# the grid searches of the world build before each pair was found once and
# unsure nodes got a second ring of cells: the references the searches must
# match bit for bit, arrays and dtypes


def close_pairs_both_ways(points, others, side, max_pairs=math.inf):
    """Index pairs (i, j) of a point of ``points`` and one of ``others`` in
    the same or in adjacent cells of a grid of side at least ``side``, every
    such pair in the order found; with ``others`` the same as ``points``,
    each pair both ways round and each point with itself. None if there
    would be more than ``max_pairs`` of them."""
    side = max(side, max(float(np.ptp(np.concatenate(c))) for c in zip(points, others))
               * 2.0 ** -20)
    weight = [(2 ** 20 + 3) ** k for k in range(len(points) - 1, -1, -1)]
    key = sum((np.floor((c - c.min()) / side).astype(np.int64) + 1) * w
              for c, w in zip(map(np.concatenate, zip(points, others)), weight))
    order, cell, start, count = net._cells(key[:len(points[0])])
    o_order, o_cell, o_start, o_count = net._cells(key[len(points[0]):])
    a, b = [], []
    for offset in itertools.product((-1, 0, 1), repeat=len(points)):
        target = cell + sum(o * w for o, w in zip(offset, weight))
        at = np.minimum(np.searchsorted(o_cell, target), len(o_cell) - 1)
        hit = o_cell[at] == target
        a.append(np.flatnonzero(hit))
        b.append(at[hit])
    a, b = np.concatenate(a), np.concatenate(b)
    if int(np.dot(count[a], o_count[b])) > max_pairs:
        return None
    per_member = np.repeat(o_count[b], count[a])
    i = order[np.repeat(net._ranges(start[a], count[a]), per_member)]
    j = o_order[net._ranges(np.repeat(o_start[b], count[a]), per_member)]
    return i, j


def ground_neighborhoods_both_ways(nodes, D, planar=False):
    """net.ground_neighborhoods measuring every candidate pair in both
    directions and each node against itself."""
    lat, lon = nodes.lat, nodes.lon
    points = net._grid_points(lat, lon, planar)
    if planar:
        radius = D * (1.0 + 1e-6)
    else:
        chord = 2.0 * math.sin(min(D / (2.0 * net.EARTH_RADIUS_KM), math.pi / 2.0))
        radius = chord * (1.0 + 1e-6) + net._point_slack(lat, lon)
    rows, cols = close_pairs_both_ways(points, points, radius)
    keep = (pair_distances(lat[rows], lon[rows], lat[cols], lon[cols], planar=planar) <= D) \
        & (rows != cols)
    n = len(nodes)
    key = np.sort(rows[keep] * n + cols[keep])
    return np.searchsorted(key, np.arange(n + 1) * n), key % n


def assign_airports_one_ring(nodes, airports, planar=False):
    """net.assign_airports deciding on the 3 x 3 block of cells only, and
    scanning every node it leaves unsure against every airport."""
    m = len(airports)
    by_id = np.argsort(airports.ids, kind="stable")
    alat, alon = airports.lat[by_id], airports.lon[by_id]
    nlat, nlon = nodes.lat, nodes.lon
    n = len(nodes)
    nearest = np.full(n, -1, dtype=np.intp)
    points, sites = net._grid_points(nlat, nlon, planar), net._grid_points(alat, alon, planar)
    side = max(float(np.ptp(np.concatenate(c))) for c in zip(points, sites)) \
        / math.ceil(math.sqrt(m))
    cap = 16 * (n + m)
    pairs = close_pairs_both_ways(points, sites, side, cap) \
        if side > 0 and n * m > cap else None
    rest = np.arange(n)
    if pairs is not None:
        i, j = pairs
        d = pair_distances(nlat[i], nlon[i], alat[j], alon[j], planar=planar)
        best, first = np.full(n, np.inf), np.full(n, m)
        np.minimum.at(best, i, d)
        tie = d == best[i]
        np.minimum.at(first, i[tie], j[tie])
        slack = 0.0 if planar else net._point_slack(nlat, nlon, alat, alon)
        reach = (side - slack) / (1.0 + 1e-6)
        if not planar:
            reach = 2.0 * net.EARTH_RADIUS_KM * math.asin(min(max(reach, 0.0) / 2.0, 1.0))
        done = best < reach
        nearest[done] = first[done]
        rest = np.flatnonzero(~done)
    step = max(1, (1 << 18) // m)
    for lo in range(0, len(rest), step):
        rows = rest[lo:lo + step]
        dist = pair_distances(nlat[rows][:, None], nlon[rows][:, None], alat, alon,
                              planar=planar)
        nearest[rows] = dist.argmin(axis=1)
    return nearest, np.bincount(nearest, weights=nodes.population, minlength=m)


def radiation_flows_lists(nodes, neighborhoods, alpha):
    """Radiation flows built as Python lists of COO entries, one node at a
    time, with the neighbourhood sum pop[nbr].sum() and the scalar square
    pop[i] ** 2."""
    pop = np.array([nd.population for nd in nodes], dtype=float)
    n = len(nodes)
    rows, cols, vals = [], [], []
    for i, nbr in enumerate(neighborhoods):
        if len(nbr) == 0:
            continue
        s = pop[nbr].sum()
        f = alpha * pop[i] ** 2 * pop[nbr] / (s * (pop[nbr] + s))
        rows.extend([i] * len(nbr))
        cols.extend(nbr.tolist())
        vals.extend(f.tolist())
    mat = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    mat.eliminate_zeros()
    return mat


def gravity_entries_loops(nodes, airports, grid_spacing_km, air_fraction):
    """synth_world's air table from an n x m nearest-airport matrix, a
    running sum of polygon populations per airport and a double loop over
    airport pairs with scalar squares. Airport ids must be 0..m-1."""
    nodes, airports = list(nodes), list(airports)
    nlat = np.array([nd.lat for nd in nodes], dtype=float)
    nlon = np.array([nd.lon for nd in nodes], dtype=float)
    alat = np.array([a.lat for a in airports], dtype=float)
    alon = np.array([a.lon for a in airports], dtype=float)
    mu = cross_distances(nlat, nlon, alat, alon, planar=True).argmin(axis=1)
    polygon_pop = {a.id: 0.0 for a in airports}
    for node, aid in enumerate(mu):
        polygon_pop[int(aid)] += nodes[node].population
    polygon_size = {a.id: int(np.sum(mu == a.id)) for a in airports}
    dist = cross_distances(alat, alon, alat, alon, planar=True)
    m = len(airports)
    raw = {}
    node_total = 0.0
    for a in range(m):
        for b in range(m):
            if a == b:
                continue
            d = max(dist[a, b], grid_spacing_km)
            g = polygon_pop[a] * polygon_pop[b] / d ** 2
            raw[(a, b)] = g
            node_total += g * (polygon_size[b] * polygon_pop[a]
                               + polygon_size[a] * polygon_pop[b]) \
                / (polygon_pop[a] + polygon_pop[b])
    if m < 2 or not node_total > 0:
        return {}
    scale = air_fraction * np.array([nd.population for nd in nodes]).sum() / node_total
    return {k: float(v * scale) for k, v in raw.items()}


def step_vaccinated_three_products(state, params, net, x, theta_obs):
    """The vaccinated SIRD update with one sparse product per mobility term
    (p @ sv, p @ i, p @ rv). Returns (s, i, r, d) after the same clipping and
    rescaling as the library step; the stability band is not checked."""
    s, i, r = state.s, state.i, state.r
    p, rs, rho = net.rates, net.rate_row_sum, net.rho
    vx = theta_obs * x
    keep = 1.0 - vx
    new_inf = params.beta * s * i
    sv = s * keep
    rv = r + s * vx
    s1 = (s - new_inf) * keep + rho * (p @ sv - rs * sv)
    i1 = i + new_inf * keep - params.gamma * i + rho * (p @ i - rs * i)
    r1 = rv + (1.0 - params.cfr) * params.gamma * i + rho * (p @ rv - rs * rv)
    s1, i1, r1 = (np.clip(v, 0.0, 1.0) for v in (s1, i1, r1))
    d1 = 1.0 - s1 - i1 - r1
    neg = d1 < 0.0
    if np.any(neg):
        scale = 1.0 / (s1[neg] + i1[neg] + r1[neg])
        s1[neg] *= scale
        i1[neg] *= scale
        r1[neg] *= scale
        d1[neg] = 1.0 - s1[neg] - i1[neg] - r1[neg]
    return s1, i1, r1, d1


def write_npy(path, arr):
    """A float64 array as a .npy 1.0 file built by hand: the magic string,
    the header length, the header dict padded with spaces to a multiple of 64
    bytes with its newline, then the little-endian C-order values."""
    header = f"{{'descr': '<f8', 'fortran_order': False, 'shape': {arr.shape!r}, }}"
    header += " " * (-(len(header) + 11) % 64) + "\n"
    with open(path, "wb") as fh:
        fh.write(b"\x93NUMPY\x01\x00" + struct.pack("<H", len(header))
                 + header.encode("latin1") + arr.astype("<f8").tobytes())


def read_npy(path):
    """The array of a .npy 1.0 file of little-endian float64 in C order, read
    by hand. It checks nothing."""
    data = Path(path).read_bytes()
    size = struct.unpack("<H", data[8:10])[0]
    shape = ast.literal_eval(data[10:10 + size].decode("latin1"))["shape"]
    return np.frombuffer(data[10 + size:], dtype="<f8").astype(float).reshape(shape)


def export_rows(result, directory):
    """Run export one csv row and one numpy-scalar lookup per cell, with the
    traces through write_npy: the writer that harness.export must match byte
    for byte."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump({"schema": _SCHEMA, "config": result.config}, fh, indent=2,
                  sort_keys=True)
        fh.write("\n")
    horizon = result.horizon
    k = result.n_agents
    n = result.populations.shape[0]

    def table(name, header):
        fh = open(directory / name, "w", newline="", encoding="utf-8")
        w = csv.writer(fh)
        w.writerow(header)
        return fh, w

    fh, w = table("nodes.csv", ["node_id", "population", "agent_id"])
    with fh:
        for i in range(n):
            w.writerow([i, repr(float(result.populations[i])),
                        int(result.agent_of[i])])
    fh, w = table("global.csv", ["t", "S", "I", "R", "D"])
    with fh:
        for ti, row in zip(range(horizon + 1), result.global_totals):
            w.writerow([ti] + [repr(float(v)) for v in row])
    fh, w = table("agents.csv", ["t", "agent_id", "S", "I", "R", "D", "budget",
                                 "budget_effective"])
    with fh:
        for t in range(horizon + 1):
            for a in range(k):
                budget = repr(float(result.budgets[t - 1, a])) if t >= 1 else ""
                beff = (repr(float(result.budgets_effective[t - 1, a]))
                        if t >= 1 else "")
                w.writerow([t, a] + [repr(float(v)) for v in result.agent_totals[t, a]]
                           + [budget, beff])
    for name in ("allocations", "theta_hat", "theta_obs", "bounds"):
        write_npy(directory / f"{name}.npy", getattr(result, name))
    fh, w = table("sharing.csv", ["t", "agent_id", "ratio", "budget_in",
                                  "budget_out", "budget_effective"])
    with fh:
        for t in range(1, horizon + 1):
            row = t - 1
            for a in range(k):
                ratio = float(result.sharing_ratios[row, a])
                b_in = float(result.budgets[row, a])
                w.writerow([t, a, repr(ratio), repr(b_in), repr(b_in * ratio),
                            repr(float(result.budgets_effective[row, a]))])
    fh, w = table("priors.csv", ["node_id", "a", "b"])
    with fh:
        for i in range(n):
            w.writerow([i, int(result.priors_a[i]), int(result.priors_b[i])])


def import_result_rows(directory):
    """Run import through csv.DictReader and float() per field, one row at a
    time, with the traces through read_npy: the reader that
    harness.import_result must match bit for bit and dtype for dtype. It
    checks nothing."""
    directory = Path(directory)
    with open(directory / "manifest.json", encoding="utf-8") as fh:
        config = json.load(fh)["config"]
    horizon = int(config["horizon"])
    k = int(config["n_agents"])

    def rows(name):
        with open(directory / name, newline="", encoding="utf-8") as fh:
            return list(csv.DictReader(fh))

    nodes = rows("nodes.csv")
    n = len(nodes)
    populations = np.array([float(r["population"]) for r in nodes])
    agent_of = np.array([int(r["agent_id"]) for r in nodes], dtype=int)
    global_totals = np.zeros((horizon + 1, 4))
    for r in rows("global.csv"):
        global_totals[int(r["t"])] = [float(r[c]) for c in ("S", "I", "R", "D")]
    agent_totals = np.zeros((horizon + 1, k, 4))
    budgets = np.zeros((horizon, k))
    budgets_eff = np.zeros((horizon, k))
    for r in rows("agents.csv"):
        t, a = int(r["t"]), int(r["agent_id"])
        agent_totals[t, a] = [float(r[c]) for c in ("S", "I", "R", "D")]
        if t >= 1:
            budgets[t - 1, a] = float(r["budget"])
            budgets_eff[t - 1, a] = float(r["budget_effective"])
    allocations, theta_hat, theta_obs, bounds = (
        read_npy(directory / f"{name}.npy")
        for name in ("allocations", "theta_hat", "theta_obs", "bounds"))
    ratios = np.zeros((horizon, k))
    for r in rows("sharing.csv"):
        ratios[int(r["t"]) - 1, int(r["agent_id"])] = float(r["ratio"])
    priors_a = np.zeros(n, dtype=np.int64)
    priors_b = np.zeros(n, dtype=np.int64)
    for r in rows("priors.csv"):
        priors_a[int(r["node_id"])] = int(r["a"])
        priors_b[int(r["node_id"])] = int(r["b"])
    return RunResult(
        config=config, populations=populations, agent_of=agent_of,
        global_totals=global_totals, agent_totals=agent_totals,
        budgets=budgets, budgets_effective=budgets_eff, allocations=allocations,
        theta_hat=theta_hat, theta_obs=theta_obs, bounds=bounds,
        sharing_ratios=ratios, priors_a=priors_a, priors_b=priors_b)


# ---------------------------------------------------------------------------
# the per-period paths that the vectorised allocators, the slot sums over a
# (column, slot) key, the stacked stability check and the unmasked prior
# updates replaced. Each adds in the same order as its replacement, so the
# library matches them bit for bit.

def solve_knapsack_loop(problem):
    """policy.solve_knapsack with one Python step per funded node."""
    l, c, ub = problem.losses, problem.costs, problem.bounds
    x = np.zeros(l.shape[0])
    candidates = np.flatnonzero(l < 0)
    if candidates.size == 0 or problem.budget <= 0:
        return x
    order = candidates[np.lexsort((candidates, l[candidates] / c[candidates]))]
    remaining = float(problem.budget)
    for idx in order:
        take = min(ub[idx], remaining / c[idx])
        if take <= DUST:
            continue
        x[idx] = take
        remaining -= take * c[idx]
        if remaining <= DUST * problem.budget:
            break
    return x


def allocate_knapsack_loop(losses, costs, budgets, bounds, agent_of):
    """Every agent's knapsack, agent a over its nodes ``agent_of == a`` with
    budget ``budgets[a]``: solve_knapsack_loop once per agent, scattered back."""
    x = np.zeros(len(losses))
    for a, budget in enumerate(budgets):
        idx = np.flatnonzero(agent_of == a)
        x[idx] = solve_knapsack_loop(AllocationProblem(losses[idx], costs[idx],
                                                       float(budget), bounds[idx]))
    return x


def pb_allocate_loop(costs, budget, bounds):
    """policy.pb_allocate with one Python step per node of the spill."""
    costs = np.asarray(costs, dtype=float)
    bounds = np.asarray(bounds, dtype=float)
    n = costs.shape[0]
    total = costs.sum()
    if total <= 0 or budget <= 0:
        return np.zeros(n)
    x = np.minimum(bounds, budget / total)
    residual = budget - float(x @ costs)
    if residual > 0:
        for idx in np.lexsort((np.arange(n), -costs)):
            if residual <= 0:
                break
            room = bounds[idx] - x[idx]
            if room <= 0:
                continue
            add = min(room, residual / costs[idx])
            x[idx] += add
            residual -= add * costs[idx]
    return x


def allocate_pb_loop(costs, budgets, bounds, agent_of):
    """Every agent's pb allocation, agent a over its nodes ``agent_of == a``
    with budget ``budgets[a]``: pb_allocate_loop once per agent, scattered back."""
    x = np.zeros(len(costs))
    for a, budget in enumerate(budgets):
        idx = np.flatnonzero(agent_of == a)
        x[idx] = pb_allocate_loop(costs[idx], float(budget), bounds[idx])
    return x


def pb_statics(costs, agent_of, n_agents):
    """The static inputs of policy.pb_allocate after (costs, budgets, bounds,
    agent_of), as a run makes them: each agent's nodes, each agent's cost sum
    and every node by (agent, descending cost, index)."""
    nodes = [np.flatnonzero(agent_of == a) for a in range(n_agents)]
    return (nodes, np.array([costs[idx].sum() for idx in nodes]),
            np.lexsort((np.arange(len(costs)), -costs, agent_of)))


def air_dot_bincount(net, h, v):
    """A @ v for h = H (A.T @ v for h = H.T) as an n x c array, with one
    np.bincount per column of [v, P v] for the slot sums."""
    c = v.shape[1]
    pop = net.populations[:, None]
    by_slot = np.stack([np.bincount(net.cell, weights=col, minlength=h.shape[0])
                        for col in np.hstack((v, pop * v)).T], axis=1)
    w = h @ by_slot
    return pop * w[net.cell, :c] + w[net.cell, c:]


def observe_and_update_masked(pol, x, theta_obs, rng):
    """policy.observe_and_update with boolean-mask updates."""
    x = np.asarray(x, dtype=float)
    theta_obs = np.asarray(theta_obs, dtype=float)
    u = rng.random(pol.n)
    active = x > 0
    pol.a[active & (u < theta_obs)] += 1
    pol.b[active & ~(u < theta_obs)] += 1
    pol.obs_sum[active] += theta_obs[active]
    pol.obs_count[active] += 1


def step_vaccinated_per_array(state, params, net, x, theta_obs):
    """epi.step_vaccinated with the stability check and the clip run once per
    compartment array, in s, i, r, d order."""
    s, i, r = state.s, state.i, state.r
    rs, rho = net.rate_row_sum, net.rho
    vx = theta_obs * x
    keep = 1.0 - vx
    new_inf = params.beta * s * i
    sv = s * keep
    rv = r + s * vx
    p_sv, p_i, p_rv = net.rates_dot(np.column_stack((sv, i, rv))).T
    s1 = (s - new_inf) * keep + rho * (p_sv - rs * sv)
    i1 = i + new_inf * keep - params.gamma * i + rho * (p_i - rs * i)
    r1 = rv + (1.0 - params.cfr) * params.gamma * i + rho * (p_rv - rs * rv)
    d1 = 1.0 - s1 - i1 - r1
    t1 = state.t + 1
    for arr in (s1, i1, r1, d1):
        bad = ~np.isfinite(arr) | (arr < -STABILITY_BAND) | (arr > 1.0 + STABILITY_BAND)
        if np.any(bad):
            node = int(np.flatnonzero(bad)[0])
            raise EpidemicInstabilityError(t1, node, float(arr[node]))
    s1, i1, r1 = (np.clip(v, 0.0, 1.0) for v in (s1, i1, r1))
    d1 = 1.0 - s1 - i1 - r1
    neg = d1 < 0.0
    if np.any(neg):
        scale = 1.0 / (s1[neg] + i1[neg] + r1[neg])
        s1[neg] *= scale
        i1[neg] *= scale
        r1[neg] *= scale
        d1[neg] = 1.0 - s1[neg] - i1[neg] - r1[neg]
    return CompartmentState(s=s1, i=i1, r=r1, d=d1, t=t1)


def draw_realized_rates_uniform(mean_rates, epsilon, rng):
    """scenario.draw_realized_rates through rng.uniform's array arguments."""
    mean_rates = np.asarray(mean_rates, dtype=float)
    return np.clip(rng.uniform(mean_rates - epsilon, mean_rates + epsilon), 0.0, 1.0)


def draw_mean_rates_uniform(base_rates, agent_of, epsilon, rng):
    """scenario.draw_mean_rates through rng.uniform around each node's agent
    base rate, as the instance build drew it before it took the realized-rate
    draw."""
    centers = np.asarray(base_rates, dtype=float)[np.asarray(agent_of, dtype=int)]
    return np.clip(rng.uniform(centers - epsilon, centers + epsilon), 0.0, 1.0)
