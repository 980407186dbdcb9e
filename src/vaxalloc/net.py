"""Mobility network construction.

Builds the global flow matrix from two components: ground commuting flows
produced by a radiation model over distance-limited neighborhoods, and air
flows distributed from an airport-to-airport table onto the population cells
of each airport's Voronoi polygon. The combined flows are row-normalized
into transition rates and summarized by a global flow-to-population ratio.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import warnings
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.sparse as sp

EARTH_RADIUS_KM = 6371.0
# distances assign_airports computes at a time: a row block of nodes against
# every airport
_BLOCK = 1 << 18
_EDGE_ROWS = 1 << 10  # edges export_network assembles at a time, ~100 bytes of text each
_FAULT_ROWS = 1 << 12  # rows _fault parses at a time
_CSV = dict(delimiter=",", quotechar='"', comments=None, ndmin=1)  # how to parse a CSV line


# the rows of Nodes and of Airports
NodeRecord = namedtuple("NodeRecord", "id lat lon population agent_id")
AirportRecord = namedtuple("AirportRecord", "id lat lon")


def _check_rows(kind: str, ids: np.ndarray, columns, *faults) -> None:
    """Refuse columns (lat, lon, ...) that are not 1-D and as long as ``ids``,
    then the first row whose coordinates are not finite or that has one of
    the (mask of bad rows, message) ``faults``, naming its id."""
    if any(c.shape != (ids.size,) for c in (ids, *columns)):
        raise ValueError(f"{kind} columns must be 1-D arrays of one length")
    lat, lon = columns[:2]
    faults = ((~(np.isfinite(lat) & np.isfinite(lon)), "coordinates must be finite"),
              *faults)
    bad = np.logical_or.reduce([mask for mask, _ in faults])
    if bad.any():
        row = int(np.argmax(bad))
        raise ValueError(f"{kind} {ids[row]}: {next(m for at, m in faults if at[row])}")


class Nodes:
    """Population cells as columns; node i is row i. Coordinates are
    degrees, or planar km for synthetic worlds."""

    def __init__(self, lat, lon, population, agent_id):
        self.lat, self.lon, self.population = (np.asarray(c, dtype=float)
                                               for c in (lat, lon, population))
        self.agent_id = np.asarray(agent_id, dtype=int)
        pop = self.population
        _check_rows("node", np.arange(self.lat.size), (self.lat, self.lon, pop, self.agent_id),
                    (~(np.isfinite(pop) & (pop > 0)), "population must be positive and finite"))

    def __len__(self) -> int:
        return self.lat.size

    def __iter__(self):
        return map(NodeRecord, range(len(self)), self.lat.tolist(), self.lon.tolist(),
                   self.population.tolist(), self.agent_id.tolist())


class Airports:
    """Airports as columns ``ids``, ``lat`` and ``lon``, in the order given."""

    def __init__(self, ids, lat, lon):
        self.ids = np.asarray(ids, dtype=int)
        self.lat, self.lon = (np.asarray(c, dtype=float) for c in (lat, lon))
        _check_rows("airport", self.ids, (self.lat, self.lon))

    def __len__(self) -> int:
        return self.ids.size

    def __iter__(self):
        return map(AirportRecord, self.ids.tolist(), self.lat.tolist(), self.lon.tolist())


@dataclass(eq=False)
class AirFlowTable:
    """Directed airport-to-airport flows, persons per period: ``g[a, b]``
    flows from airport ``ids[a]`` to airport ``ids[b]``, ids ascending."""

    ids: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=int)
        self.g = np.ascontiguousarray(self.g, dtype=float)
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
        """Every off-diagonal flow by (origin, destination)."""
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
    assembled on first access and cached; a run never reads them. ``rates``
    shares ``flows``' index arrays, so neither may be edited in place
    (assigning a new ``flows`` is fine). Rows of ``rates`` sum to 1 for
    nodes with outflow and are empty for nodes without; ``rate_row_sum`` is
    1.0/0.0 accordingly, which lets the epidemic step write mobility terms
    as ``rates @ u - rate_row_sum * u``.
    """

    def __init__(self, ground: sp.spmatrix, cell: np.ndarray, g: np.ndarray,
                 populations: np.ndarray):
        populations = np.asarray(populations, dtype=float)
        with np.errstate(over="ignore"):  # refused below if not finite
            total = populations.sum()
        if not 0 < total < math.inf:
            raise ValueError(f"total population is {total}, not positive and finite")
        n = populations.shape[0]
        self.n = n
        self.populations = populations
        self.ground = sp.csr_matrix(ground, shape=(n, n))
        self.cell = np.asarray(cell, dtype=np.intp)
        self.g = np.asarray(g, dtype=float)
        z = self._members = membership(self.cell, self.g.shape[0])  # the slot membership Z^T
        polygon_pop = row_sums(z.indptr, z.indices, populations)
        empty = polygon_pop[self.cell] <= 0
        if np.any(empty):
            raise ValueError(f"node {int(np.flatnonzero(empty)[0])} lies in an "
                             "airport polygon of zero population")
        with np.errstate(over="ignore"):  # refused below if not finite
            denom = polygon_pop[:, None] + polygon_pop[None, :]
        if (bad := np.argwhere(denom == math.inf)).size:
            a, b = bad[0]
            raise ValueError(f"the population of airport polygon {a} plus that of polygon "
                             f"{b} is inf, past the float range")
        # a pair of slots without nodes has no flow to carry
        self.h = np.divide(self.g, denom, out=np.zeros_like(self.g), where=denom > 0)
        with np.errstate(over="ignore"):  # refused below if not finite
            outflow = (np.asarray(self.ground.sum(axis=1)).ravel()
                       + self._air_dot(self.h, np.ones((n, 1)))[0])
        self.outflow = outflow
        # a row without outflow holds only zeros, so any divisor leaves it 0;
        # dividing, not multiplying by 1 / outflow, keeps a subnormal
        # outflow from giving infinite rates
        self._divisor = np.where(outflow > 0, outflow, 1.0)
        self.rate_row_sum = (outflow > 0).astype(float)
        with np.errstate(over="ignore", invalid="ignore"):  # refused below if not finite
            self.rho = float(outflow.sum() / total)
        bad = np.flatnonzero(~np.isfinite(outflow))
        if bad.size or not math.isfinite(self.rho):
            raise ValueError(f"outflow of node {bad[0]} is {outflow[bad[0]]}, not finite"
                             if bad.size else f"rho is {self.rho}, not finite")

    def _air_dot(self, h: np.ndarray, v: np.ndarray) -> np.ndarray:
        """(A @ v).T for h = H, (A.T @ v).T for h = H.T; v is n x c.

        The slot sums are one product of Z^T with [v, P v], which adds each
        slot's nodes in node order and gives the h product an m x 2c
        C-ordered array. The result is c x n, so that the gathers run along
        contiguous memory."""
        c = v.shape[1]
        w = (h @ (self._members @ np.hstack((v, v * self.populations[:, None])))).T
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
        # inv_i * f_ij on flows' own index arrays, so the assembly holds one
        # array of nnz floats. A row whose 1 / outflow overflows (a subnormal
        # outflow) is divided by its outflow instead. A product that
        # underflows to 0 is dropped, from a copy of the arrays.
        flows = self.flows
        with np.errstate(over="ignore"):
            inv = np.where(self.outflow > 0, 1.0 / self._divisor, 0.0)
        huge, counts = np.isinf(inv), np.diff(flows.indptr)
        data = np.repeat(np.where(huge, 1.0, inv), counts)
        data *= flows.data
        data[_ranges(flows.indptr[:-1][huge], counts[huge])] /= \
            np.repeat(self.outflow[huge], counts[huge])
        rates = sp.csr_matrix((data, flows.indices, flows.indptr), shape=flows.shape,
                              copy=not data.all())
        if not data.all():
            rates.eliminate_zeros()
        return rates


def membership(group: np.ndarray, size: int) -> sp.csr_matrix:
    """The size x n 0/1 matrix Z^T whose row g holds the nodes i of
    group[i] = g in ascending order. A product Z^T @ V adds each row's
    entries in node order from 0.0, as np.bincount does."""
    group = np.asarray(group)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(group, minlength=size))))
    return sp.csr_matrix((np.ones(group.size), np.argsort(group, kind="stable"), indptr),
                         shape=(size, group.size))


def row_sums(indptr: np.ndarray, indices: np.ndarray, values: np.ndarray) -> np.ndarray:
    """values[indices[indptr[r]:indptr[r + 1]]].sum() for every row r, 0.0 for
    an empty one, summed row by row of a (rows x k) gather for each row length
    k: numpy sums a row in the same pairwise order as the 1-D sum."""
    counts = np.diff(indptr)
    out = np.zeros(counts.size)
    for k in np.unique(counts[counts > 0]):
        at = np.flatnonzero(counts == k)
        out[at] = values[indices[indptr[at][:, None] + np.arange(k)]].sum(axis=1)
    return out


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


def _grid_points(lat: np.ndarray, lon: np.ndarray, planar: bool) -> tuple[np.ndarray, ...]:
    """The coordinate columns of the points a grid of cells is laid over:
    lat and lon for planar worlds, unit-sphere points for great-circle ones."""
    if planar:
        return lat, lon
    phi, lmb = np.radians(lat), np.radians(lon)
    return np.cos(phi) * np.cos(lmb), np.cos(phi) * np.sin(lmb), np.sin(phi)


def _point_slack(*coords: np.ndarray) -> float:
    """Slack for the rounding of unit-sphere points, which grows with the
    angles they are computed from."""
    return 1e-9 * max(1.0, *(float(np.abs(np.radians(c)).max(initial=0.0))
                             for c in coords))


def _cells(key: np.ndarray) -> tuple[np.ndarray, ...]:
    """Rows sorted by cell key, and each occupied cell's key, first sorted
    position and row count."""
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    start = np.flatnonzero(np.diff(sorted_key, prepend=sorted_key[:1] - 1))
    return order, sorted_key[start], start, np.diff(np.append(start, key.size))


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges starts[k] .. starts[k] + lengths[k] - 1, one after another."""
    return np.repeat(starts - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())


def _close_pairs(points, others, side: float, max_pairs: float = math.inf,
                 reach: int = 1) -> tuple[np.ndarray, np.ndarray] | None:
    """Index pairs (i, j) of a point of ``points`` and one of ``others``, both
    given as coordinate columns, in cells at most ``reach`` apart in each
    coordinate on a grid whose side is at least ``side``: among them every
    pair within ``reach * side`` of each other in each coordinate. With
    ``others`` None, the pairs of two points of ``points``, each pair once
    and no point with itself. None if there would be more than
    ``max_pairs`` of them."""
    same = others is None
    cols = points if same else [np.concatenate(c) for c in zip(points, others)]
    # at most 2**20 cells a side, so that a cell's key, moved by up to 2
    # cells in each coordinate, fits in an int64 and names one cell only
    side = max(side, max(float(np.ptp(c)) for c in cols) * 2.0 ** -20)
    weight = [(2 ** 20 + 3) ** k for k in range(len(points) - 1, -1, -1)]
    key = sum((np.floor((c - c.min()) / side).astype(np.int64) + 1) * w
              for c, w in zip(cols, weight))
    n = len(points[0])
    order, cell, start, count = _cells(key[:n])
    o_order, o_cell, o_start, o_count = (order, cell, start, count) if same \
        else _cells(key[n:])
    offsets = itertools.product(range(-reach, reach + 1), repeat=len(points))
    if same:  # the cells after a cell in key order; its own cell comes below
        offsets = [o for o in offsets if o > (0,) * len(points)]
    a, b = [], []  # the occupied cells of points and of others that adjoin
    for offset in offsets:
        target = cell + sum(o * w for o, w in zip(offset, weight))
        at = np.minimum(np.searchsorted(o_cell, target), len(o_cell) - 1)
        hit = o_cell[at] == target
        a.append(np.flatnonzero(hit))
        b.append(at[hit])
    a, b = np.concatenate(a), np.concatenate(b)
    if int(np.dot(count[a], o_count[b])) > max_pairs:
        return None
    # every member of cell a, at its sorted position, against the run of
    # sorted positions of cell b
    at = _ranges(start[a], count[a])
    first, length = np.repeat(o_start[b], count[a]), np.repeat(o_count[b], count[a])
    if same:  # and each point against the points after it in its own cell
        own = np.arange(n)
        at, first = np.append(own, at), np.append(own + 1, first)
        length = np.append(np.repeat(start + count, count) - own - 1, length)
    return order[np.repeat(at, length)], o_order[_ranges(first, length)]


def ground_neighborhoods(nodes: Nodes, D: float,
                         planar: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The nodes within distance D km of each node, self excluded, as CSR
    arrays ``(indptr, indices)``: node i's neighbours, ascending, are
    ``indices[indptr[i]:indptr[i + 1]]``.

    A grid of cells finds each candidate pair once within a slightly
    enlarged radius: on the coordinates for planar worlds, on unit-sphere
    points and the chord 2 sin(D / 2R) for great-circle ones. A candidate is
    kept in both directions if ``pair_distances``, which gives a pair the
    same bits either way round, puts it within D, so a pair at exactly D is
    decided by the same arithmetic as an n x n distance matrix would decide it.
    """
    if not len(nodes):
        raise ValueError("no nodes")
    if not D > 0:
        raise ValueError("distance threshold must be positive")
    lat, lon = nodes.lat, nodes.lon
    if planar:
        radius = D * (1.0 + 1e-6)
    else:
        chord = 2.0 * math.sin(min(D / (2.0 * EARTH_RADIUS_KM), math.pi / 2.0))
        radius = chord * (1.0 + 1e-6) + _point_slack(lat, lon)
    i, j = _close_pairs(_grid_points(lat, lon, planar), None, radius)
    keep = pair_distances(lat[i], lon[i], lat[j], lon[j], planar=planar) <= D
    n = len(nodes)
    # the pairs both ways round, in (row, column) order
    key = np.sort(np.concatenate(((i * n + j)[keep], (j * n + i)[keep])))
    return np.searchsorted(key, np.arange(n + 1) * n), key % n


def radiation_flows(nodes: Nodes, neighborhoods: tuple[np.ndarray, np.ndarray],
                    alpha: float) -> sp.csr_matrix:
    """Ground commuting flows from node populations, over the CSR
    neighbourhoods that ``ground_neighborhoods`` returns.

    For node i with neighborhood population sum S_i, the flow to neighbor j
    is alpha * P_i^2 * P_j / (S_i * (P_j + S_i)). Nodes with an empty
    neighborhood emit no flow.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("commute fraction must be in [0, 1]")
    pop = nodes.population
    n = len(nodes)
    indptr, indices = neighborhoods
    with np.errstate(over="ignore"):  # refused below if not finite
        s = row_sums(indptr, indices, pop)
    if (bad := np.flatnonzero(s == math.inf)).size:
        raise ValueError(f"the population around node {bad[0]} sums to inf, past the "
                         "float range")
    rows = np.repeat(np.arange(n), np.diff(indptr))
    with np.errstate(all="ignore"):  # FlowMatrix refuses a flow that is not finite
        # float_power squares with pow, as the scalar P_i ** 2 does; the array
        # x ** 2 is x * x, which now and then differs from it in the last bit
        src, dst, s_src = (alpha * np.float_power(pop, 2))[rows], pop[indices], s[rows]
        flows = src * dst / (s_src * (dst + s_src))
    # scipy stores the indices as int32 when they fit, as for a COO build
    mat = sp.csr_matrix((flows, indices, indptr), shape=(n, n))
    mat.eliminate_zeros()
    return mat


def assign_airports(nodes: Nodes, airports: Airports,
                    planar: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Assign each node to its nearest airport; ties go to the lowest
    airport id. Returns each node's position among the airports sorted by
    id, and the population of each of their polygons.

    A grid over nodes and airports, about one airport per cell, pairs each
    node with the airports in its own and the adjacent cells. Every other
    airport is farther than the cell side, so the best candidate by
    ``pair_distances`` (the lowest id of equals) is the answer when nearer
    than the side, less a rounding slack. The nodes left are paired with the
    airports of a 5 x 5 block of cells, sure within twice the side, and the
    nodes left after that are compared with every airport.
    """
    m = len(airports)
    if not m:
        raise ValueError("at least one airport required")
    by_id = np.argsort(airports.ids, kind="stable")
    alat, alon = airports.lat[by_id], airports.lon[by_id]
    nlat, nlon = nodes.lat, nodes.lon
    n = len(nodes)
    nearest = np.full(n, -1, dtype=np.intp)
    points, sites = _grid_points(nlat, nlon, planar), _grid_points(alat, alon, planar)
    side = max(float(np.ptp(np.concatenate(c))) for c in zip(points, sites)) \
        / math.ceil(math.sqrt(m))
    slack = 0.0 if planar else _point_slack(nlat, nlon, alat, alon)
    # about 9, then 25 candidates a node on a uniform world; a pass runs only
    # if the scan it spares would exceed the cap, and a world so clustered
    # that it would need far more candidates is scanned
    cap = 16 * (n + m)
    rest = np.arange(n)
    for ring in (1, 2):
        pairs = _close_pairs([c[rest] for c in points], sites, side, cap, ring) \
            if side > 0 and len(rest) * m > cap else None
        if pairs is None:
            break
        i, j = pairs
        d = pair_distances(nlat[rest[i]], nlon[rest[i]], alat[j], alon[j], planar=planar)
        best, first = np.full(len(rest), np.inf), np.full(len(rest), m)
        np.minimum.at(best, i, d)
        tie = d == best[i]
        np.minimum.at(first, i[tie], j[tie])
        # how near an answer must be to be sure, in grid units, then in km
        reach = (ring * side - slack) / (1.0 + 1e-6)
        if not planar:  # a chord
            reach = 2.0 * EARTH_RADIUS_KM * math.asin(min(max(reach, 0.0) / 2.0, 1.0))
        done = best < reach
        nearest[rest[done]] = first[done]
        rest = rest[~done]
    step = max(1, _BLOCK // m)
    for lo in range(0, len(rest), step):
        rows = rest[lo:lo + step]
        dist = pair_distances(nlat[rows][:, None], nlon[rows][:, None], alat, alon,
                              planar=planar)
        nearest[rows] = dist.argmin(axis=1)  # the first of ties: lowest id
    # bincount adds each polygon's populations in node order, from 0.0
    return nearest, np.bincount(nearest, weights=nodes.population, minlength=m)


def air_flows(cell: np.ndarray, g: np.ndarray,
              populations: np.ndarray) -> sp.csr_matrix:
    """The explicit air flow matrix of the factors: for every node i of slot
    a and j of slot b, a flow g_ab * (P_i + P_j) / (PP_a + PP_b). The CSR
    arrays are written one source slot at a time: every node of slot a has
    the same row pattern, the nodes of the slots a sends to, in ascending
    order."""
    pop = np.asarray(populations, dtype=float)
    n, m = pop.shape[0], g.shape[0]
    slots = membership(cell, m)
    polygon_pop = row_sums(slots.indptr, slots.indices, pop)
    sends = g > 0
    indptr = np.concatenate(([0], np.cumsum((sends @ np.diff(slots.indptr))[cell])))
    data = np.empty(indptr[-1])
    # int32 as scipy picks for a COO -> CSR build of this shape; the CSR
    # constructor widens both index arrays if nnz needs int64
    indices = np.empty(indptr[-1], dtype=np.int32 if n <= np.iinfo(np.int32).max
                       else np.int64)
    for a, src in enumerate(np.split(slots.indices, slots.indptr[1:-1])):
        dst = np.flatnonzero(sends[a, cell])
        pos = indptr[src][:, None] + np.arange(len(dst))
        with np.errstate(over="ignore"):  # refused below if not finite
            data[pos] = (g[a, cell[dst]] * (pop[src][:, None] + pop[dst][None, :])
                         / (polygon_pop[a] + polygon_pop[cell[dst]]))
        indices[pos] = dst
    # no entry is negative or NaN, so the first maximum is the first inf if any
    if data.size and data[at := np.argmax(data)] == math.inf:
        i = np.searchsorted(indptr, at, side="right") - 1
        raise ValueError(f"the air flow from node {i} to node {indices[at]} is inf, "
                         "past the float range")
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def build_network(nodes: Nodes, airports: Airports, air_table: AirFlowTable,
                  D: float, alpha: float, planar: bool = False,
                  nearest: np.ndarray | None = None) -> FlowMatrix:
    """End-to-end network build: neighborhoods, ground flows, airport
    assignment and the flows between the airports that have nodes.
    ``nearest``, if given, is the assignment that ``assign_airports`` returns
    for these nodes and airports, and is not computed again."""
    if not np.array_equal(air_table.ids, np.sort(airports.ids)):
        raise ValueError("the air table must list exactly the airports' ids")
    # so that no difference of coordinates, nor a planar distance, overflows
    with np.errstate(over="ignore"):  # refused below if not finite
        lat, lon = (np.ptp(c) if c.size else 0.0
                    for c in map(np.append, (nodes.lat, nodes.lon), (airports.lat, airports.lon)))
        diagonal = np.hypot(lat, lon) if planar else 0.0
    for name, span in (("lat", lat), ("lon", lon)):
        if span == math.inf:
            raise ValueError(f"the {name} column of the nodes and airports spans more than "
                             "the float range")
    if diagonal == math.inf:
        raise ValueError("the planar distance across the nodes and airports is past the "
                         "float range")
    nbrs = ground_neighborhoods(nodes, D, planar=planar)
    ground = radiation_flows(nodes, nbrs, alpha)
    if nearest is None:
        nearest, _ = assign_airports(nodes, airports, planar=planar)
    slots, cell = np.unique(nearest, return_inverse=True)
    # the rows and columns of the airports with nodes, all when all have some
    g = air_table.g if slots.size == len(air_table.ids) else air_table.g[np.ix_(slots, slots)]
    return FlowMatrix(ground, cell, g, nodes.population)


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
    n_airports = max(1, int(round(min(airport_density * n_nodes, n_nodes + 1))))
    if n_airports > n_nodes:
        raise ValueError("more airports than nodes")
    rng = np.random.default_rng(seed)
    ncols = int(math.ceil(math.sqrt(n_nodes)))
    if not math.isfinite(2.0 * ncols * grid_spacing_km):  # so that no distance overflows
        raise ValueError(f"grid_spacing_km {grid_spacing_km!r} is too large for {n_nodes} nodes")
    xs = (np.arange(n_nodes) % ncols) * grid_spacing_km
    ys = (np.arange(n_nodes) // ncols) * grid_spacing_km
    pops = rng.lognormal(mean=math.log(pop_median), sigma=pop_sigma, size=n_nodes)
    agent_of = (np.arange(n_nodes) * n_agents) // n_nodes
    nodes = Nodes(ys, xs, pops, agent_of)
    site_idx = np.sort(rng.choice(n_nodes, size=n_airports, replace=False))
    airports = Airports(np.arange(n_airports), ys[site_idx], xs[site_idx])
    g = np.zeros((n_airports, n_airports))
    nearest = None
    if n_airports > 1 and air_fraction != 0:
        nearest, pp = assign_airports(nodes, airports, planar=True)
        size = np.bincount(nearest, minlength=n_airports)
        ay, ax = airports.lat, airports.lon
        dist = pair_distances(ay[:, None], ax[:, None], ay, ax, planar=True)
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


def _read_columns(path, types: dict) -> list[np.ndarray]:
    """The named columns of a CSV file, each an array of its type, int or float.
    The header is the first line not blank; blank lines are skipped and fields
    may be quoted. Every fault raises one ValueError naming the file and, for a
    fault in a line, the line."""
    raw = Path(path).read_bytes()
    try:
        lines = io.StringIO(raw.decode("utf-8"), newline="")
    except UnicodeDecodeError as exc:
        line = len((raw[:exc.start] + b".").splitlines())  # a break ends all lines but the last
        raise ValueError(f"{path}: byte {raw[exc.start]:#04x} on line {line} is not "
                         "UTF-8 text") from None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a file or table without rows
        header = _fields(next((line for line in lines if line.strip("\r\n")), ""))
        missing = [c for c in types if c not in header]
        if missing:
            raise ValueError(f"{path}: header lacks column {', '.join(missing)}")
        try:
            data = _parse(lines, header, types)
        except ValueError:
            raise ValueError(f"{path}: {_fault(lines, header, types)}") from None
    return [np.ascontiguousarray(data[c]) for c in types]


def _fields(line: str) -> list[str]:
    """The fields of one CSV line, unquoted."""
    return np.loadtxt([line], dtype=object, **_CSV).tolist()


def _parse(lines, header: list, types: dict) -> np.ndarray:
    """The ``types`` columns of CSV ``lines`` under ``header``, a structured array."""
    return np.loadtxt(lines, usecols=[header.index(c) for c in types], **_CSV,
                      dtype=list(types.items()))


def _fault(lines, header: list, types: dict) -> str:
    """The first field of the CSV text stream ``lines`` that does not parse on its
    own, and its line, found a block of rows at a time."""
    lines.seek(0)
    rows = ((no, line) for no, line in enumerate(lines, start=1) if line.strip("\r\n"))
    next(rows)  # the header
    while block := list(itertools.islice(rows, _FAULT_ROWS)):
        try:
            _parse([line for _, line in block], header, types)
        except ValueError:
            for (no, line), (c, kind) in itertools.product(block, types.items()):
                try:
                    _parse([line], header, {c: kind})
                except ValueError:
                    fields, at = _fields(line), header.index(c)
                    if at >= len(fields):
                        return f"the row on line {no} has no field for column {c}"
                    return (f"{fields[at]!r} on line {no}, column {c}, is not "
                            f"{'a 64-bit integer' if kind is int else 'a number'}")
    return "does not parse as a CSV table"


def _line_of(path, row) -> int:
    """The line of data row ``row`` (from 0) of a CSV file that _read_columns
    read, numbered as _fault numbers lines: the header and every data row
    are the lines not blank. Read again, for the message of a fault."""
    lines = io.StringIO(Path(path).read_bytes().decode("utf-8"), newline="")
    return [no for no, line in enumerate(lines, start=1) if line.strip("\r\n")][row + 1]


def read_nodes(path) -> Nodes:
    """Node file: header id,lat,lon,population,agent_id, ids 0..n-1 in row
    order, since the network names each node by its row."""
    ids, *columns = _read_columns(path, {"id": int, "lat": float, "lon": float,
                                         "population": float, "agent_id": int})
    wrong = np.flatnonzero(ids != np.arange(ids.size))
    if wrong.size:
        raise ValueError(f"{path}: the row on line {_line_of(path, wrong[0])} has node id "
                         f"{ids[wrong[0]]}; ids must be 0..n-1 in row order")
    return Nodes(*columns)


def write_nodes(nodes: Nodes, path) -> None:
    _write_table(path, ["id", "lat", "lon", "population", "agent_id"],
                 (map(str, range(len(nodes))),
                  *map(_reprs, (nodes.lat, nodes.lon, nodes.population)),
                  map(str, nodes.agent_id.tolist())))


def read_airports(path) -> Airports:
    """Airport file: header id,lat,lon; each id once."""
    airports = Airports(*_read_columns(path, {"id": int, "lat": float, "lon": float}))
    _, first = np.unique(airports.ids, return_index=True)
    again = np.setdiff1d(np.arange(len(airports)), first)
    if again.size:
        raise ValueError(f"{path}: airport id {airports.ids[again[0]]} on line "
                         f"{_line_of(path, again[0])} appears on an earlier line too")
    return airports


def write_airports(airports: Airports, path) -> None:
    _write_table(path, ["id", "lat", "lon"],
                 (map(str, airports.ids.tolist()), *map(_reprs, (airports.lat, airports.lon))))


def read_air_flows(path, airports: Airports) -> AirFlowTable:
    """Flights file: header origin,destination,flow, each id an airport of
    ``airports``; rows of the same pair add up in file order."""
    origin, dest, flow = _read_columns(path, {"origin": int, "destination": int,
                                              "flow": float})
    ids = np.unique(airports.ids)
    bad = np.flatnonzero((origin == dest) | ~np.isin(origin, ids) | ~np.isin(dest, ids))
    if bad.size:
        raise ValueError(f"{path}: on line {_line_of(path, bad[0])}, air flow "
                         f"{origin[bad[0]]}->{dest[bad[0]]} must join two different "
                         "airports of the airport file")
    g = np.zeros((len(ids), len(ids)))
    # unbuffered, so the rows of one pair add up in file order
    np.add.at(g, (np.searchsorted(ids, origin), np.searchsorted(ids, dest)), flow)
    return AirFlowTable(ids, g)


def write_air_flows(table: AirFlowTable, path) -> None:
    """Every off-diagonal flow, in row-major order, a row of the table at a time."""
    ids = list(map(str, table.ids.tolist()))
    _write_blocks(path, ["origin", "destination", "flow"],
                  (([ids[a]] * (len(ids) - 1), ids[:a] + ids[a + 1:], _reprs(np.delete(row, a)))
                   for a, row in enumerate(table.g)))


def _write_table(path, header, columns) -> None:
    """Write a CSV table of equal-length columns of field texts."""
    _write_blocks(path, header, [columns])


def _write_blocks(path, header, blocks) -> None:
    r"""Write a CSV table: the header, then the rows of each block of columns
    of field texts in turn, each line ending in "\r\n". The bytes are
    csv.writer's, which quotes only a field that holds ",", '"', "\r" or
    "\n", or an empty field alone in its row; the fields written here are
    float reprs, integers, and empty fields in rows of three or more."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for columns in blocks:
            if text := "\r\n".join(map(",".join, zip(*columns))):
                fh.writelines((text, "\r\n"))


def _read_json(path, parse):
    """``parse`` of the JSON in ``path``; any fault is a ValueError naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return parse(json.load(fh))
        except (ValueError, RecursionError) as exc:  # decode, JSON, depth or parse
            raise ValueError(f"{path}: {exc}") from None


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def export_network(net: FlowMatrix, edges_path, rho_path) -> None:
    """Sparse edge list i,j,f_ground,f_air,f_total,p plus a rho sidecar, one
    row per flow entry in (i, j) order, assembled a block of whole source
    rows, about ``_EDGE_ROWS`` entries, at a time."""
    flows, n = net.flows, net.n
    # the first row of each block: the rows that hold entry 0, _EDGE_ROWS, ...
    starts = np.unique(np.searchsorted(flows.indptr, np.arange(0, flows.nnz, _EDGE_ROWS),
                                       side="right") - 1)

    def block(r0, r1):
        # the block's flow entries at their places row * n + column in (i, j)
        # order, and each matrix's entry there, 0.0 where it has none; the
        # entries need not be in column order within a row
        key, total = _entries(flows, r0, r1)
        order = np.argsort(key, kind="stable")
        key, cols = key[order], np.zeros((4, len(key)))
        cols[2] = total[order]
        for col, mat in zip((cols[0], cols[1], cols[3]), (net.ground, net.air, net.rates)):
            at, values = _entries(mat, r0, r1)
            pos = np.minimum(np.searchsorted(key, at), len(key) - 1)
            hit = key[pos] == at
            col[pos[hit]] = values[hit]
        texts = _reprs(cols.T)  # one call for four columns: f_total is f_air on most edges
        return (map(str, (key // n).tolist()), map(str, (key % n).tolist()),
                *(texts[c::4] for c in range(4)))
    _write_blocks(edges_path, ["i", "j", "f_ground", "f_air", "f_total", "p"],
                  itertools.starmap(block, zip(starts, [*starts[1:], n])))
    with open(rho_path, "w", encoding="utf-8") as fh:
        fh.write(repr(net.rho) + "\n")


def _entries(mat: sp.csr_matrix, r0: int, r1: int) -> tuple[np.ndarray, np.ndarray]:
    """The places row * n + column and the values of the entries of rows
    r0 .. r1 - 1 of an n x n CSR matrix without duplicates, as stored."""
    ptr = mat.indptr[r0:r1 + 1]
    rows = np.repeat(np.arange(r0, r1), np.diff(ptr))
    return rows * mat.shape[0] + mat.indices[ptr[0]:ptr[-1]], mat.data[ptr[0]:ptr[-1]]


def _reprs(arr) -> list[str]:
    """``[repr(v) for v in arr.tolist()]`` for a float array, flattened, with
    each distinct value formatted once. Values are told apart by their bits,
    so 0.0 and -0.0 keep their own text."""
    values = np.ascontiguousarray(arr, dtype=np.float64).ravel()
    keys, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    texts = np.array([repr(v) for v in keys.view(np.float64).tolist()], dtype=object)
    return texts[inverse].tolist()
