"""Worlds for tests: a FlowMatrix built straight from random ground flows and
random airport-level factors, and air tables written as dicts."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from vaxalloc.net import AirFlowTable, FlowMatrix


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
