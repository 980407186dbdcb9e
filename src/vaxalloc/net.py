"""Mobility network construction.

Builds the global flow matrix from two components: ground commuting flows
produced by a radiation model over distance-limited neighborhoods, and air
flows distributed from an airport-to-airport table onto the population cells
of each airport's Voronoi polygon. The combined flows are row-normalized
into transition rates and summarized by a global flow-to-population ratio.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

EARTH_RADIUS_KM = 6371.0


@dataclass(frozen=True)
class NodeRecord:
    """One population cell. Coordinates are degrees, or planar km for
    synthetic worlds."""

    id: int
    lat: float
    lon: float
    population: float
    agent_id: int
    airport_id: int | None = None

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


@dataclass
class AirFlowTable:
    """Directed airport-to-airport flows, persons per period."""

    entries: dict[tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self):
        for (a, b), g in self.entries.items():
            if a == b:
                raise ValueError(f"air flow self-loop at airport {a}")
            if not (math.isfinite(g) and g >= 0):
                raise ValueError(f"air flow {a}->{b} must be finite and "
                                 f"nonnegative, got {g!r}")


class FlowMatrix:
    """Combined mobility flows, row-stochastic rates and the global
    flow-to-population ratio.

    Rows of ``rates`` sum to 1 for nodes with outflow and are empty for
    nodes without; ``rate_row_sum`` is 1.0/0.0 accordingly, which lets the
    epidemic step write mobility terms as ``rates @ u - rate_row_sum * u``.
    """

    def __init__(self, ground: sp.spmatrix, air: sp.spmatrix,
                 populations: np.ndarray):
        populations = np.asarray(populations, dtype=float)
        if populations.sum() <= 0:
            raise ValueError("total population is zero")
        n = populations.shape[0]
        self.n = n
        self.populations = populations
        self.ground = sp.csr_matrix(ground, shape=(n, n))
        self.air = sp.csr_matrix(air, shape=(n, n))
        flows = (self.ground + self.air).tocsr()
        flows.eliminate_zeros()
        self.flows = flows
        outflow = np.asarray(flows.sum(axis=1)).ravel()
        self.outflow = outflow
        inv = np.where(outflow > 0, 1.0 / np.where(outflow > 0, outflow, 1.0), 0.0)
        self.rates = (sp.diags(inv) @ flows).tocsr()
        self.rate_row_sum = (outflow > 0).astype(float)
        self.rho = float(flows.sum() / populations.sum())

    def inflow(self) -> np.ndarray:
        """Total flow entering each node (column sums of the flow matrix)."""
        return np.asarray(self.flows.sum(axis=0)).ravel()


def _as_arrays(nodes: list[NodeRecord]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    lat = np.array([nd.lat for nd in nodes], dtype=float)
    lon = np.array([nd.lon for nd in nodes], dtype=float)
    pop = np.array([nd.population for nd in nodes], dtype=float)
    return lat, lon, pop


def cross_distances(lat1, lon1, lat2, lon2, planar: bool = False) -> np.ndarray:
    """Distance matrix (len(lat1) x len(lat2)) in km.

    Great-circle by default; plain Euclidean when coordinates are planar km.
    """
    lat1 = np.asarray(lat1, dtype=float)[:, None]
    lon1 = np.asarray(lon1, dtype=float)[:, None]
    lat2 = np.asarray(lat2, dtype=float)[None, :]
    lon2 = np.asarray(lon2, dtype=float)[None, :]
    if planar:
        return np.hypot(lat1 - lat2, lon1 - lon2)
    p1, p2 = np.radians(lat1), np.radians(lat2)
    dphi = p2 - p1
    dlmb = np.radians(lon2 - lon1)
    h = np.sin(dphi / 2.0) ** 2 + np.cos(p1) * np.cos(p2) * np.sin(dlmb / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0)))


def ground_neighborhoods(nodes: list[NodeRecord], D: float,
                         planar: bool = False) -> list[np.ndarray]:
    """Index sets of nodes within distance D km, self excluded."""
    if not nodes:
        raise ValueError("no nodes")
    if D <= 0:
        raise ValueError("distance threshold must be positive")
    lat, lon, _ = _as_arrays(nodes)
    dist = cross_distances(lat, lon, lat, lon, planar=planar)
    np.fill_diagonal(dist, np.inf)
    return [np.flatnonzero(dist[i] <= D) for i in range(len(nodes))]


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


def assign_airports(nodes: list[NodeRecord], airports: list[AirportRecord],
                    planar: bool = False) -> tuple[np.ndarray, dict[int, float]]:
    """Assign each node to its nearest airport; ties go to the lowest
    airport id. Returns (assigned airport ids, polygon populations)."""
    if not airports:
        raise ValueError("at least one airport required")
    airports = sorted(airports, key=lambda a: a.id)
    nlat, nlon, pop = _as_arrays(nodes)
    alat = np.array([a.lat for a in airports], dtype=float)
    alon = np.array([a.lon for a in airports], dtype=float)
    dist = cross_distances(nlat, nlon, alat, alon, planar=planar)
    nearest = dist.argmin(axis=1)  # argmin takes the first of ties: lowest id
    ids = np.array([a.id for a in airports], dtype=int)
    mu = ids[nearest]
    polygon_pop = {a.id: 0.0 for a in airports}
    for node_idx, aid in enumerate(mu):
        polygon_pop[int(aid)] += pop[node_idx]
    return mu, polygon_pop


def air_flows(assignment: np.ndarray, airports: list[AirportRecord],
              air_table: AirFlowTable, nodes: list[NodeRecord]) -> sp.csr_matrix:
    """Distribute airport-to-airport flows onto node pairs.

    Each positive table entry g between airports a and b yields, for every
    node i in polygon a and j in polygon b, a flow
    g * (P_i + P_j) / (P_a + P_b). Entries naming an airport without nodes
    are skipped. The CSR arrays are written one source airport at a time:
    every node of polygon a has the same row pattern, the nodes of the
    polygons a sends to, in ascending order.
    """
    _, _, pop = _as_arrays(nodes)
    n = len(nodes)
    # one slot per airport that has nodes, in ascending id order
    aids, cell = np.unique(np.asarray(assignment), return_inverse=True)
    members = [np.flatnonzero(cell == k) for k in range(len(aids))]
    polygon_pop = np.array([float(pop[idx].sum()) for idx in members])
    empty = polygon_pop[cell] <= 0
    if np.any(empty):
        node_idx = int(np.flatnonzero(empty)[0])
        raise ValueError(f"node {node_idx} assigned to airport "
                         f"{aids[cell[node_idx]]} with zero polygon population")
    slot = {int(aid): k for k, aid in enumerate(aids)}
    g = np.zeros((len(aids), len(aids)))
    for (a, b), flow in air_table.entries.items():
        if flow > 0 and a in slot and b in slot:
            g[slot[a], slot[b]] = flow
    sends = g > 0
    indptr = np.concatenate(([0], np.cumsum((sends @ np.bincount(cell))[cell])))
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
                  planar: bool = False) -> FlowMatrix:
    """End-to-end network build: neighborhoods, ground + air flows, rates."""
    nbrs = ground_neighborhoods(nodes, D, planar=planar)
    ground = radiation_flows(nodes, nbrs, alpha)
    mu, _ = assign_airports(nodes, airports, planar=planar)
    air = air_flows(mu, airports, air_table, nodes)
    return FlowMatrix(ground, air, _as_arrays(nodes)[2])


def synth_world(n_nodes: int, n_agents: int, *,
                grid_spacing_km: float = 50.0,
                pop_median: float = 10_000.0,
                pop_sigma: float = 0.5,
                airport_density: float = 0.05,
                air_fraction: float = 0.005,
                seed=0) -> tuple[list[NodeRecord], list[AirportRecord], AirFlowTable]:
    """Deterministic synthetic world on a planar grid.

    Log-normal node populations, contiguous agent regions (row-major index
    bands), airports sampled from node positions, and a gravity-style air
    table scaled so total air flow is ``air_fraction`` of total population.
    Coordinates are planar km; pass ``planar=True`` downstream.
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
    entries: dict[tuple[int, int], float] = {}
    if n_airports > 1:
        mu, polygon_pop = assign_airports(nodes, airports, planar=True)
        polygon_size = {a.id: int(np.sum(mu == a.id)) for a in airports}
        alat = np.array([a.lat for a in airports])
        alon = np.array([a.lon for a in airports])
        dist = cross_distances(alat, alon, alat, alon, planar=True)
        raw = {}
        node_total = 0.0  # node-level flow each raw unit of g fans out to
        for a in range(n_airports):
            for b in range(n_airports):
                if a == b:
                    continue
                d = max(dist[a, b], grid_spacing_km)
                g = polygon_pop[a] * polygon_pop[b] / d ** 2
                raw[(a, b)] = g
                node_total += g * (polygon_size[b] * polygon_pop[a]
                                   + polygon_size[a] * polygon_pop[b]) \
                    / (polygon_pop[a] + polygon_pop[b])
        if node_total > 0:
            # calibrate so the distributed node-level air flow totals
            # air_fraction of world population per period
            scale = air_fraction * pops.sum() / node_total
            entries = {k: float(v * scale) for k, v in raw.items()}
    return nodes, airports, AirFlowTable(entries)


# ---------------------------------------------------------------------------
# file formats


def read_nodes(path) -> list[NodeRecord]:
    """Node file: header id,lat,lon,population,agent_id; each id once."""
    out = []
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            out.append(NodeRecord(
                id=int(row["id"]), lat=float(row["lat"]), lon=float(row["lon"]),
                population=float(row["population"]), agent_id=int(row["agent_id"])))
    ids, counts = np.unique([nd.id for nd in out], return_counts=True)
    if np.any(counts > 1):
        raise ValueError(f"{path}: node id {ids[counts > 1][0]} appears more than once")
    return out


def write_nodes(nodes: list[NodeRecord], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "lat", "lon", "population", "agent_id"])
        for nd in nodes:
            w.writerow([nd.id, repr(nd.lat), repr(nd.lon),
                        repr(nd.population), nd.agent_id])


def read_airports(path) -> list[AirportRecord]:
    out = []
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            out.append(AirportRecord(id=int(row["id"]), lat=float(row["lat"]),
                                     lon=float(row["lon"])))
    return out


def write_airports(airports: list[AirportRecord], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "lat", "lon"])
        for a in airports:
            w.writerow([a.id, repr(a.lat), repr(a.lon)])


def read_air_flows(path) -> AirFlowTable:
    entries: dict[tuple[int, int], float] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            key = (int(row["origin"]), int(row["destination"]))
            entries[key] = entries.get(key, 0.0) + float(row["flow"])
    return AirFlowTable(entries)


def write_air_flows(table: AirFlowTable, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["origin", "destination", "flow"])
        for (a, b), g in sorted(table.entries.items()):
            w.writerow([a, b, repr(g)])


def export_network(net: FlowMatrix, edges_path, rho_path) -> None:
    """Sparse edge list i,j,f_ground,f_air,f_total,p plus a rho sidecar,
    one row per flow entry in (i, j) order."""
    coo = net.flows.tocoo()
    order = np.lexsort((coo.col, coo.row))
    i, j = coo.row[order], coo.col[order]

    def at(mat):
        return map(repr, np.asarray(mat.tocsr()[i, j], dtype=float).ravel().tolist())

    with open(edges_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["i", "j", "f_ground", "f_air", "f_total", "p"])
        if coo.nnz:  # scipy returns a sparse matrix for empty index arrays
            w.writerows(zip(i.tolist(), j.tolist(), at(net.ground), at(net.air),
                            map(repr, coo.data[order].tolist()), at(net.rates)))
    with open(rho_path, "w", encoding="utf-8") as fh:
        fh.write(repr(net.rho) + "\n")
