"""Worlds for tests: a FlowMatrix built straight from random ground flows and
random airport-level factors, node and airport tables written as rows, air
tables written as dicts, and neighbourhoods as lists."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from vaxalloc.net import AirFlowTable, Airports, FlowMatrix, Nodes


def random_airport_net(rng, n, ground_density=0.5, rho=None):
    """Random ground flows with some entries zero, a random node-to-slot map
    over 1 to 7 slots (some may get no nodes) and random slot flows g, some
    zero. With ``rho``, both flow parts are scaled so the world's
    flow-to-population ratio comes out as ``rho``."""
    ground = rng.uniform(0, 50, (n, n)) * (rng.random((n, n)) < ground_density)
    np.fill_diagonal(ground, 0.0)
    m = int(rng.integers(1, 8))
    cell = rng.integers(0, m, n)
    g = rng.uniform(0, 500, (m, m)) * (rng.random((m, m)) < 0.6)
    np.fill_diagonal(g, 0.0)
    pops = rng.uniform(500, 5000, n)
    net = FlowMatrix(sp.csr_matrix(ground), cell, g, pops)
    if rho is None or net.rho == 0:
        return net
    scale = rho / net.rho
    return FlowMatrix(sp.csr_matrix(ground * scale), cell, g * scale, pops)


def air_table(airports, entries=()):
    """The AirFlowTable over the airports' ids that holds the
    {(origin, destination): flow} entries and zero elsewhere."""
    ids = sorted(a.id for a in airports)
    pos = {aid: k for k, aid in enumerate(ids)}
    g = np.zeros((len(ids), len(ids)))
    for (a, b), flow in dict(entries).items():
        g[pos[a], pos[b]] = flow
    return AirFlowTable(ids, g)


def nodes_of(records):
    """The Nodes table of NodeRecord rows, whose ids must be 0..n-1 in order."""
    records = list(records)
    assert [nd.id for nd in records] == list(range(len(records)))
    return Nodes(*([getattr(nd, name) for nd in records]
                   for name in ("lat", "lon", "population", "agent_id")))


def airports_of(records):
    """The Airports table of AirportRecord rows, in their order."""
    records = list(records)
    return Airports(*([getattr(a, name) for a in records] for name in ("id", "lat", "lon")))


def neighbour_lists(neighborhoods):
    """Each node's neighbours, from the CSR arrays ground_neighborhoods returns."""
    indptr, indices = neighborhoods
    return np.split(indices, indptr[1:-1])


def neighbour_csr(lists):
    """The CSR arrays of a list of neighbour index arrays."""
    indptr = np.cumsum([0] + [len(nbr) for nbr in lists])
    return indptr, np.concatenate([np.empty(0, dtype=np.intp), *lists])
