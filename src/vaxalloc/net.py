"""Mobility network construction.

Builds the global flow matrix from two components: ground commuting flows
produced by a radiation model over distance-limited neighborhoods, and air
flows distributed from an airport-to-airport table onto the population cells
of each airport's Voronoi polygon. The combined flows are row-normalized
into transition rates and summarized by a global flow-to-population ratio.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

EARTH_RADIUS_KM = 6371.0
# distances assign_airports computes at a time: a row block of nodes against
# every airport
_BLOCK = 1 << 18
_EDGE_ROWS = 1 << 10  # edges export_network formats at a time, ~100 bytes of text each


@dataclass(frozen=True)
class NodeRecord:
    """One population cell. Coordinates are degrees, or planar km for
    synthetic worlds."""

    id: int
    lat: float
    lon: float
    population: float
    agent_id: int

    def __post_init__(self):
        if not (math.isfinite(self.lat) and math.isfinite(self.lon)):
            raise ValueError(f"node {self.id}: coordinates must be finite")
        if not (math.isfinite(self.population) and self.population > 0):
            raise ValueError(f"node {self.id}: population must be positive and finite")


@dataclass(frozen=True)
class AirportRecord:
    id: int
    lat: float
    lon: float

    def __post_init__(self):
        if not (math.isfinite(self.lat) and math.isfinite(self.lon)):
            raise ValueError(f"airport {self.id}: coordinates must be finite")


@dataclass(eq=False)
class AirFlowTable:
    """Directed airport-to-airport flows, persons per period: ``g[a, b]``
    flows from airport ``ids[a]`` to airport ``ids[b]``, ids ascending."""

    ids: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=int)
        self.g = np.asarray(self.g, dtype=float)
        if (self.g.shape != (len(self.ids),) * 2 or np.any(np.diff(self.ids) <= 0)
                or np.any(np.diag(self.g) != 0)):
            raise ValueError("air flows need an m x m table, zero on the diagonal, "
                             "over m ascending airport ids")
        bad = np.argwhere(~(np.isfinite(self.g) & (self.g >= 0)))
        if bad.size:
            a, b = bad[0]
            raise ValueError(f"air flow {self.ids[a]}->{self.ids[b]} must be finite "
                             f"and nonnegative, got {float(self.g[a, b])!r}")

    @property
    def entries(self) -> dict[tuple[int, int], float]:
        """Every off-diagonal flow by (origin, destination), for the writers."""
        a, b = np.nonzero(~np.eye(len(self.ids), dtype=bool))
        return dict(zip(zip(self.ids[a].tolist(), self.ids[b].tolist()),
                        self.g[a, b].tolist()))


class FlowMatrix:
    """Combined mobility flows, row-stochastic rates and the global
    flow-to-population ratio, held factored.

    The ground flows are a sparse matrix. The air flows are kept at airport
    level: node i, in the polygon of airport slot a = ``cell[i]``, sends
    A_ij = g_ab (P_i + P_j) / (PP_a + PP_b) to node j of slot b, where PP
    are the polygon populations. With H_ab = g_ab / (PP_a + PP_b) and Z the
    node-to-slot membership, A V = P * (H Z^T V)[cell] + (H Z^T (P * V))[cell],
    and A^T factors the same way with H^T. So ``rates_dot`` and
    ``rates_t_dot`` cost O(n + ground nnz + m^2) per column, for m slots.

    ``air``, ``flows`` and ``rates`` are the explicit n x n matrices,
    assembled on first access and cached; a run never reads them. Rows of
    ``rates`` sum to 1 for nodes with outflow and are empty for nodes
    without; ``rate_row_sum`` is 1.0/0.0 accordingly, which lets the
    epidemic step write mobility terms as ``rates @ u - rate_row_sum * u``.
    """

    def __init__(self, ground: sp.spmatrix, cell: np.ndarray, g: np.ndarray,
                 populations: np.ndarray):
        populations = np.asarray(populations, dtype=float)
        if populations.sum() <= 0:
            raise ValueError("total population is zero")
        n = populations.shape[0]
        self.n = n
        self.populations = populations
        self.ground = sp.csr_matrix(ground, shape=(n, n))
        self.cell = np.asarray(cell, dtype=np.intp)
        self.g = np.asarray(g, dtype=float)
        _, polygon_pop = _slots(self.cell, populations, self.g.shape[0])
        empty = polygon_pop[self.cell] <= 0
        if np.any(empty):
            raise ValueError(f"node {int(np.flatnonzero(empty)[0])} lies in an "
                             "airport polygon of zero population")
        denom = polygon_pop[:, None] + polygon_pop[None, :]
        # a pair of slots without nodes has no flow to carry
        self.h = np.divide(self.g, denom, out=np.zeros_like(self.g), where=denom > 0)
        self._slot_keys: dict[int, np.ndarray] = {}
        outflow = (np.asarray(self.ground.sum(axis=1)).ravel()
                   + self._air_dot(self.h, np.ones((n, 1)))[0])
        self.outflow = outflow
        # a row without outflow holds only zeros, so any divisor leaves it 0;
        # dividing, not multiplying by 1 / outflow, keeps a subnormal
        # outflow from giving infinite rates
        self._divisor = np.where(outflow > 0, outflow, 1.0)
        self.rate_row_sum = (outflow > 0).astype(float)
        self.rho = float(outflow.sum() / populations.sum())

    def _air_dot(self, h: np.ndarray, v: np.ndarray) -> np.ndarray:
        """(A @ v).T for h = H, (A.T @ v).T for h = H.T; v is n x c.

        Works on c x n rows, so that every step runs along contiguous
        memory. Each slot sum adds its nodes in node order, and the h
        product sees an m x 2c C-ordered array, as a product over the
        columns of [v, P v] would."""
        vt = v.T
        c = vt.shape[0]
        m = h.shape[0]
        key = self._slot_keys.get(c)
        if key is None:
            # bin j * m + slot for row j of the 2c x n stack
            key = self._slot_keys[c] = (self.cell + m * np.arange(2 * c)[:, None]).ravel()
        stacked = np.concatenate((vt, vt * self.populations))
        by_slot = np.bincount(key, weights=stacked.ravel(), minlength=2 * c * m)
        w = (h @ np.ascontiguousarray(by_slot.reshape(2 * c, m).T)).T
        out = w[:c].take(self.cell, axis=1)
        out *= self.populations
        out += w[c:].take(self.cell, axis=1)
        return out

    def rates_dot(self, v: np.ndarray) -> np.ndarray:
        """``rates @ v`` for an n x c array v; the result's columns are
        contiguous."""
        v = np.asarray(v, dtype=float)
        out = self._air_dot(self.h, v)
        out += (self.ground @ v).T
        out /= self._divisor
        return out.T

    def rates_t_dot(self, u: np.ndarray) -> np.ndarray:
        """``rates.T @ u`` for an n x c array u."""
        u = np.asarray(u, dtype=float) / self._divisor[:, None]
        return self.ground.T @ u + self._air_dot(self.h.T, u).T

    def inflow(self) -> np.ndarray:
        """Total flow entering each node (column sums of the flow matrix)."""
        return (np.asarray(self.ground.sum(axis=0)).ravel()
                + self._air_dot(self.h.T, np.ones((self.n, 1)))[0])

    @cached_property
    def air(self) -> sp.csr_matrix:
        return air_flows(self.cell, self.g, self.populations)

    @cached_property
    def flows(self) -> sp.csr_matrix:
        flows = (self.ground + self.air).tocsr()
        flows.eliminate_zeros()
        return flows

    @cached_property
    def rates(self) -> sp.csr_matrix:
        # one sparse product, so the assembly holds no array of nnz floats
        # beyond the three matrices. A row whose 1 / outflow overflows (a
        # subnormal outflow) is divided by its outflow instead.
        with np.errstate(over="ignore"):
            inv = np.where(self.outflow > 0, 1.0 / self._divisor, 0.0)
        huge = np.isinf(inv)
        rates = (sp.diags(np.where(huge, 1.0, inv)) @ self.flows).tocsr()
        if np.any(huge):
            row = np.repeat(np.arange(self.n), np.diff(rates.indptr))
            at = huge[row]
            rates.data[at] /= self.outflow[row[at]]
        return rates


def _slots(cell: np.ndarray, populations: np.ndarray,
           m: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Ascending node indices of each of the m airport slots, and each slot's
    population summed over them in that order."""
    order = np.argsort(cell, kind="stable")
    members = np.split(order, np.searchsorted(cell[order], np.arange(1, m)))
    return members, np.array([float(populations[idx].sum()) for idx in members])


def _as_arrays(nodes: list[NodeRecord]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    lat = np.array([nd.lat for nd in nodes], dtype=float)
    lon = np.array([nd.lon for nd in nodes], dtype=float)
    pop = np.array([nd.population for nd in nodes], dtype=float)
    return lat, lon, pop


def pair_distances(lat1, lon1, lat2, lon2, planar: bool = False) -> np.ndarray:
    """Distance in km between (lat1, lon1) and (lat2, lon2), elementwise
    with numpy broadcasting.

    Great-circle by default; plain Euclidean when coordinates are planar km.
    """
    if planar:
        return np.hypot(lat1 - lat2, lon1 - lon2)
    p1, p2 = np.radians(lat1), np.radians(lat2)
    dphi = p2 - p1
    dlmb = np.radians(lon2 - lon1)
    h = np.sin(dphi / 2.0) ** 2 + np.cos(p1) * np.cos(p2) * np.sin(dlmb / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0)))


def cross_distances(lat1, lon1, lat2, lon2, planar: bool = False) -> np.ndarray:
    """Distance matrix (len(lat1) x len(lat2)) in km."""
    return pair_distances(np.asarray(lat1, dtype=float)[:, None],
                          np.asarray(lon1, dtype=float)[:, None],
                          np.asarray(lat2, dtype=float)[None, :],
                          np.asarray(lon2, dtype=float)[None, :], planar=planar)


def _close_pairs(points: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Ordered index pairs (i, j), i != j, among them every pair of points
    (rows) within ``radius`` of each other in each coordinate: the pairs in
    the same or in adjacent cells of a grid whose side is at least the
    radius."""
    dim = points.shape[1]
    lo = points.min(axis=0)
    # at most 2**20 cells a side, so that a cell's key fits in an int64
    side = max(radius, float((points.max(axis=0) - lo).max()) * 2.0 ** -20)
    weight = (2 ** 20 + 3) ** np.arange(dim - 1, -1, -1, dtype=np.int64)
    key = (np.floor((points - lo) / side).astype(np.int64) + 1) @ weight
    order = np.argsort(key, kind="stable")
    cell, start, count = np.unique(key[order], return_index=True, return_counts=True)
    found_i, found_j = [], []
    for offset in itertools.product((-1, 0, 1), repeat=dim):
        target = cell + int(np.dot(offset, weight))
        at = np.minimum(np.searchsorted(cell, target), len(cell) - 1)
        a = np.flatnonzero(cell[at] == target)
        b = at[a]
        # every member of cell a against every member of cell b
        size = count[a] * count[b]
        pair = np.repeat(np.arange(len(a)), size)
        t = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
        found_i.append(order[start[a][pair] + t // count[b][pair]])
        found_j.append(order[start[b][pair] + t % count[b][pair]])
    i, j = np.concatenate(found_i), np.concatenate(found_j)
    return i[i != j], j[i != j]


def ground_neighborhoods(nodes: list[NodeRecord], D: float,
                         planar: bool = False) -> list[np.ndarray]:
    """Index sets of nodes within distance D km, self excluded, ascending.

    A grid of cells finds the candidate pairs within a slightly enlarged
    radius: on the coordinates for planar worlds, on unit-sphere points and
    the chord 2 sin(D / 2R) for great-circle ones. A candidate is kept if
    ``pair_distances`` puts it within D, so a pair at exactly D is decided
    by the same arithmetic as an n x n distance matrix would decide it.
    """
    if not nodes:
        raise ValueError("no nodes")
    if not D > 0:
        raise ValueError("distance threshold must be positive")
    lat, lon, _ = _as_arrays(nodes)
    if planar:
        points = np.column_stack((lat, lon))
        radius = D * (1.0 + 1e-6)
    else:
        phi, lmb = np.radians(lat), np.radians(lon)
        points = np.column_stack((np.cos(phi) * np.cos(lmb), np.cos(phi) * np.sin(lmb),
                                  np.sin(phi)))
        chord = 2.0 * math.sin(min(D / (2.0 * EARTH_RADIUS_KM), math.pi / 2.0))
        # the points carry the rounding of the angles, which grows with them
        angle = max(1.0, float(np.abs(phi).max()), float(np.abs(lmb).max()))
        radius = chord * (1.0 + 1e-6) + 1e-9 * angle
    rows, cols = _close_pairs(points, radius)
    keep = pair_distances(lat[rows], lon[rows], lat[cols], lon[cols], planar=planar) <= D
    rows, cols = rows[keep], cols[keep]
    order = np.lexsort((cols, rows))
    return np.split(cols[order], np.searchsorted(rows[order], np.arange(1, len(nodes))))


def radiation_flows(nodes: list[NodeRecord],
                    neighborhoods: list[np.ndarray],
                    alpha: float) -> sp.csr_matrix:
    """Ground commuting flows from node populations.

    For node i with neighborhood population sum S_i, the flow to neighbor j
    is alpha * P_i^2 * P_j / (S_i * (P_j + S_i)). Nodes with an empty
    neighborhood emit no flow.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("commute fraction must be in [0, 1]")
    _, _, pop = _as_arrays(nodes)
    n = len(nodes)
    counts = np.array([len(nbr) for nbr in neighborhoods], dtype=np.intp)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    indices = np.concatenate([np.empty(0, dtype=np.intp), *neighborhoods])
    # S_i, summed row by row of a (nodes x k) gather for each degree k: numpy
    # sums a row in the same pairwise order as the 1-D pop[nbr].sum()
    s = np.zeros(n)
    for k in np.unique(counts[counts > 0]):
        at = np.flatnonzero(counts == k)
        s[at] = pop[indices[indptr[at][:, None] + np.arange(k)]].sum(axis=1)
    rows = np.repeat(np.arange(n), counts)
    # float_power squares with pow, as the scalar P_i ** 2 does; the array
    # x ** 2 is x * x, which now and then differs from it in the last bit
    src, dst, s_src = (alpha * np.float_power(pop, 2))[rows], pop[indices], s[rows]
    # scipy stores the indices as int32 when they fit, as for a COO build
    mat = sp.csr_matrix((src * dst / (s_src * (dst + s_src)), indices, indptr),
                        shape=(n, n))
    mat.eliminate_zeros()
    return mat


def assign_airports(nodes: list[NodeRecord], airports: list[AirportRecord],
                    planar: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Assign each node to its nearest airport; ties go to the lowest
    airport id. Returns each node's position among the airports sorted by
    id, and the population of each of their polygons."""
    if not airports:
        raise ValueError("at least one airport required")
    airports = sorted(airports, key=lambda a: a.id)
    nlat, nlon, pop = _as_arrays(nodes)
    alat = np.array([a.lat for a in airports], dtype=float)
    alon = np.array([a.lon for a in airports], dtype=float)
    nearest = np.empty(len(nodes), dtype=np.intp)
    step = max(1, _BLOCK // len(airports))
    for lo in range(0, len(nodes), step):
        block = slice(lo, lo + step)
        dist = cross_distances(nlat[block], nlon[block], alat, alon, planar=planar)
        nearest[block] = dist.argmin(axis=1)  # the first of ties: lowest id
    # bincount adds each polygon's populations in node order, from 0.0
    return nearest, np.bincount(nearest, weights=pop, minlength=len(airports))


def air_flows(cell: np.ndarray, g: np.ndarray,
              populations: np.ndarray) -> sp.csr_matrix:
    """The explicit air flow matrix of the factors: for every node i of slot
    a and j of slot b, a flow g_ab * (P_i + P_j) / (PP_a + PP_b). The CSR
    arrays are written one source slot at a time: every node of slot a has
    the same row pattern, the nodes of the slots a sends to, in ascending
    order."""
    pop = np.asarray(populations, dtype=float)
    n, m = pop.shape[0], g.shape[0]
    members, polygon_pop = _slots(cell, pop, m)
    sends = g > 0
    indptr = np.concatenate(([0], np.cumsum((sends @ np.bincount(cell, minlength=m))[cell])))
    data = np.empty(indptr[-1])
    # int32 as scipy picks for a COO -> CSR build of this shape; the CSR
    # constructor widens both index arrays if nnz needs int64
    indices = np.empty(indptr[-1], dtype=np.int32 if n <= np.iinfo(np.int32).max
                       else np.int64)
    for a, src in enumerate(members):
        dst = np.flatnonzero(sends[a, cell])
        pos = indptr[src][:, None] + np.arange(len(dst))
        data[pos] = (g[a, cell[dst]] * (pop[src][:, None] + pop[dst][None, :])
                     / (polygon_pop[a] + polygon_pop[cell[dst]]))
        indices[pos] = dst
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def build_network(nodes: list[NodeRecord], airports: list[AirportRecord],
                  air_table: AirFlowTable, D: float, alpha: float,
                  planar: bool = False,
                  nearest: np.ndarray | None = None) -> FlowMatrix:
    """End-to-end network build: neighborhoods, ground flows, airport
    assignment and the flows between the airports that have nodes.
    ``nearest``, if given, is the assignment that ``assign_airports`` returns
    for these nodes and airports, and is not computed again."""
    if not np.array_equal(air_table.ids, sorted(a.id for a in airports)):
        raise ValueError("the air table must list exactly the airports' ids")
    nbrs = ground_neighborhoods(nodes, D, planar=planar)
    ground = radiation_flows(nodes, nbrs, alpha)
    if nearest is None:
        nearest, _ = assign_airports(nodes, airports, planar=planar)
    slots, cell = np.unique(nearest, return_inverse=True)
    return FlowMatrix(ground, cell, air_table.g[np.ix_(slots, slots)],
                      _as_arrays(nodes)[2])


def synth_world(n_nodes: int, n_agents: int, *,
                grid_spacing_km: float = 50.0,
                pop_median: float = 10_000.0,
                pop_sigma: float = 0.5,
                airport_density: float = 0.05,
                air_fraction: float = 0.005,
                seed=0, with_assignment: bool = False) -> tuple:
    """Deterministic synthetic world on a planar grid: nodes, airports and
    air table.

    Log-normal node populations, contiguous agent regions (row-major index
    bands), airports sampled from node positions, and a gravity-style air
    table scaled so total air flow is ``air_fraction`` of total population.
    Coordinates are planar km; pass ``planar=True`` downstream. With
    ``with_assignment`` a fourth item follows: the planar ``assign_airports``
    assignment the gravity table was computed over, for ``build_network``,
    or None when the table needed none (one airport, or no air flow).
    """
    if n_nodes < 1 or n_agents < 1:
        raise ValueError("node and agent counts must be >= 1")
    if n_agents > n_nodes:
        raise ValueError("more agents than nodes")
    n_airports = max(1, int(round(airport_density * n_nodes)))
    if n_airports > n_nodes:
        raise ValueError("more airports than nodes")
    rng = np.random.default_rng(seed)
    ncols = int(math.ceil(math.sqrt(n_nodes)))
    xs = (np.arange(n_nodes) % ncols) * grid_spacing_km
    ys = (np.arange(n_nodes) // ncols) * grid_spacing_km
    pops = rng.lognormal(mean=math.log(pop_median), sigma=pop_sigma, size=n_nodes)
    agent_of = (np.arange(n_nodes) * n_agents) // n_nodes
    nodes = [
        NodeRecord(id=i, lat=float(ys[i]), lon=float(xs[i]),
                   population=float(pops[i]), agent_id=int(agent_of[i]))
        for i in range(n_nodes)
    ]
    site_idx = np.sort(rng.choice(n_nodes, size=n_airports, replace=False))
    airports = [
        AirportRecord(id=a, lat=float(ys[j]), lon=float(xs[j]))
        for a, j in enumerate(site_idx)
    ]
    g = np.zeros((n_airports, n_airports))
    nearest = None
    if n_airports > 1 and air_fraction != 0:
        nearest, pp = assign_airports(nodes, airports, planar=True)
        size = np.bincount(nearest, minlength=n_airports)
        dist = cross_distances(ys[site_idx], xs[site_idx], ys[site_idx], xs[site_idx],
                               planar=True)
        off = ~np.eye(n_airports, dtype=bool)
        with np.errstate(all="ignore"):  # an overflow fails the check of the total
            # float_power squares with pow, as a scalar d ** 2 does
            raw = np.outer(pp, pp) / np.float_power(np.maximum(dist, grid_spacing_km), 2)
            # node-level flow each raw unit of g fans out to
            fan = raw * (size[None, :] * pp[:, None] + size[:, None] * pp[None, :]) \
                / (pp[:, None] + pp[None, :])
            # cumsum adds in (a, b) order, one pair after another
            node_total = np.cumsum(fan[off])[-1]
            if not (np.isfinite(node_total) and node_total > 0):
                raise ValueError(f"the air table's gravity total is {float(node_total)!r},"
                                 f" not positive and finite ({grid_spacing_km!r} km grid)")
            # calibrate the node-level air flow total to air_fraction of world population
            scale = air_fraction * pops.sum() / node_total
            g[off] = raw[off] * scale
    world = nodes, airports, AirFlowTable(np.arange(n_airports), g)
    return (*world, nearest) if with_assignment else world


# ---------------------------------------------------------------------------
# file formats


def read_nodes(path) -> list[NodeRecord]:
    """Node file: header id,lat,lon,population,agent_id, ids 0..n-1 in row
    order, since the network names each node by its row."""
    out = []
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            out.append(NodeRecord(
                id=int(row["id"]), lat=float(row["lat"]), lon=float(row["lon"]),
                population=float(row["population"]), agent_id=int(row["agent_id"])))
    for pos, nd in enumerate(out):
        if nd.id != pos:
            raise ValueError(f"{path}: data row {pos + 1} has node id {nd.id}; "
                             "ids must be 0..n-1 in row order")
    return out


def write_nodes(nodes: list[NodeRecord], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "lat", "lon", "population", "agent_id"])
        for nd in nodes:
            w.writerow([nd.id, repr(nd.lat), repr(nd.lon),
                        repr(nd.population), nd.agent_id])


def read_airports(path) -> list[AirportRecord]:
    """Airport file: header id,lat,lon; each id once."""
    out = []
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            out.append(AirportRecord(id=int(row["id"]), lat=float(row["lat"]),
                                     lon=float(row["lon"])))
    ids, counts = np.unique([a.id for a in out], return_counts=True)
    if np.any(counts > 1):
        raise ValueError(f"{path}: airport id {ids[counts > 1][0]} appears more than once")
    return out


def write_airports(airports: list[AirportRecord], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "lat", "lon"])
        for a in airports:
            w.writerow([a.id, repr(a.lat), repr(a.lon)])


def read_air_flows(path, airports: list[AirportRecord]) -> AirFlowTable:
    """Flights file: header origin,destination,flow, each id an airport of
    ``airports``; rows of the same pair add up in file order."""
    ids = np.unique([a.id for a in airports])
    pos = {aid: k for k, aid in enumerate(ids.tolist())}
    g = np.zeros((len(ids), len(ids)))
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            a, b = int(row["origin"]), int(row["destination"])
            if a == b or a not in pos or b not in pos:
                raise ValueError(f"{path}: air flow {a}->{b} must join two different "
                                 "airports of the airport file")
            g[pos[a], pos[b]] += float(row["flow"])
    return AirFlowTable(ids, g)


def write_air_flows(table: AirFlowTable, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["origin", "destination", "flow"])
        w.writerows([a, b, repr(g)] for (a, b), g in table.entries.items())


def export_network(net: FlowMatrix, edges_path, rho_path) -> None:
    """Sparse edge list i,j,f_ground,f_air,f_total,p plus a rho sidecar, one
    row per flow entry in (i, j) order, each line as csv.writer writes it."""
    coo = net.flows.tocoo()
    order = np.lexsort((coo.col, coo.row))
    i, j = coo.row[order], coo.col[order]

    def at(mat):
        return np.asarray(mat.tocsr()[i, j], dtype=float).ravel()

    with open(edges_path, "w", newline="", encoding="utf-8") as fh:
        fh.write("i,j,f_ground,f_air,f_total,p\r\n")
        if coo.nnz:  # scipy returns a sparse matrix for empty index arrays
            cols = np.column_stack((at(net.ground), at(net.air), coo.data[order],
                                    at(net.rates)))
            for lo in range(0, coo.nnz, _EDGE_ROWS):
                # one _reprs for the four columns: f_total is f_air on most edges
                rows = slice(lo, lo + _EDGE_ROWS)
                texts = _reprs(cols[rows])
                fh.write("".join([f"{a},{b},{g},{r},{f},{p}\r\n" for a, b, g, r, f, p
                                  in zip(i[rows].tolist(), j[rows].tolist(),
                                         *(texts[c::4] for c in range(4)))]))
    with open(rho_path, "w", encoding="utf-8") as fh:
        fh.write(repr(net.rho) + "\n")


def _reprs(arr) -> list[str]:
    """``[repr(v) for v in arr.tolist()]`` for a float array, flattened, with
    each distinct value formatted once. Values are told apart by their bits,
    so 0.0 and -0.0 keep their own text."""
    values = np.ascontiguousarray(arr, dtype=np.float64).ravel()
    keys, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    texts = np.array([repr(v) for v in keys.view(np.float64).tolist()], dtype=object)
    return texts[inverse].tolist()
