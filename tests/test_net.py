import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import vaxalloc
from vaxalloc import net
from vaxalloc.net import (AirFlowTable, AirportRecord, NodeRecord,
                          FlowMatrix, air_flows, assign_airports,
                          build_network, ground_neighborhoods,
                          radiation_flows, synth_world)

from vaxalloc.cli import main

from oracles import (air_factors_dict, air_flows_lists, assign_airports_one_ring,
                     close_pairs_both_ways, cross_distances, export_network_per_edge,
                     gravity_entries_loops, ground_neighborhoods_both_ways,
                     ground_neighborhoods_dense,
                     nearest_airport_blocks, nearest_airport_bruteforce,
                     radiation_flows_lists, rates_sparse_product, read_columns_csv,
                     write_air_flows_entries, write_table_csv)
from worlds import (air_table, airports_of, neighbour_csr, neighbour_lists, nodes_of,
                    random_airport_net)


def planar_node(i, x, y, pop, agent=0):
    return NodeRecord(id=i, lat=y, lon=x, population=pop, agent_id=agent)


def populations(nodes):
    return np.array([nd.population for nd in nodes], float)


def flow_matrix(ground, nodes):
    """A FlowMatrix with ground flows only."""
    return FlowMatrix(ground, np.zeros(len(nodes), int), np.zeros((1, 1)),
                      populations(nodes))


def explicit_air(nodes, airports, table, planar=True):
    """The explicit air flows of a network without ground flows."""
    return build_network(nodes, airports, table, D=1.0, alpha=0.0, planar=planar).air


class TestGroundNeighborhoods:
    def test_below_threshold_mutual(self):
        nodes = nodes_of([planar_node(0, 0, 0, 1000), planar_node(1, 50, 0, 1000)])
        nbrs = neighbour_lists(ground_neighborhoods(nodes, 100, planar=True))
        assert nbrs[0].tolist() == [1]
        assert nbrs[1].tolist() == [0]

    def test_above_threshold_empty(self):
        nodes = nodes_of([planar_node(0, 0, 0, 1000), planar_node(1, 150, 0, 1000)])
        nbrs = neighbour_lists(ground_neighborhoods(nodes, 100, planar=True))
        assert all(len(v) == 0 for v in nbrs)

    def test_collinear_triplet(self):
        nodes = nodes_of(planar_node(i, x, 0, 1000) for i, x in enumerate((0, 80, 160)))
        nbrs = neighbour_lists(ground_neighborhoods(nodes, 100, planar=True))
        assert nbrs[0].tolist() == [1]
        assert nbrs[1].tolist() == [0, 2]
        assert nbrs[2].tolist() == [1]

    def test_great_circle_metric(self):
        # ~111 km per degree of latitude at the equator
        nodes = nodes_of([NodeRecord(0, 0.0, 0.0, 1.0, 0), NodeRecord(1, 1.0, 0.0, 1.0, 0)])
        assert len(neighbour_lists(ground_neighborhoods(nodes, 100))[0]) == 0
        assert neighbour_lists(ground_neighborhoods(nodes, 120))[0].tolist() == [1]

    def test_empty_errors(self):
        with pytest.raises(ValueError, match="no nodes"):
            ground_neighborhoods(nodes_of([]), 100)


class TestRadiationFlows:
    def test_symmetric_pair(self):
        nodes = nodes_of([planar_node(0, 0, 0, 1000), planar_node(1, 50, 0, 1000)])
        nbrs = ground_neighborhoods(nodes, 100, planar=True)
        f = radiation_flows(nodes, nbrs, 0.11)
        assert f[0, 1] == pytest.approx(55.0)
        assert f[1, 0] == f[0, 1]  # identical nodes: exactly symmetric

    def test_zero_commute_fraction(self):
        nodes = nodes_of([planar_node(0, 0, 0, 1000), planar_node(1, 50, 0, 1000)])
        nbrs = ground_neighborhoods(nodes, 100, planar=True)
        assert radiation_flows(nodes, nbrs, 0.0).nnz == 0

    def test_asymmetric_pair(self):
        nodes = nodes_of([planar_node(0, 0, 0, 1000), planar_node(1, 50, 0, 4000)])
        nbrs = ground_neighborhoods(nodes, 100, planar=True)
        f = radiation_flows(nodes, nbrs, 0.11)
        assert f[0, 1] == pytest.approx(13.75)
        assert f[1, 0] == pytest.approx(880.0)

    def test_isolated_node_emits_nothing(self):
        nodes = nodes_of([planar_node(0, 0, 0, 1000), planar_node(1, 500, 0, 1000)])
        nbrs = ground_neighborhoods(nodes, 100, planar=True)
        f = radiation_flows(nodes, nbrs, 0.11)
        assert f.nnz == 0

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            radiation_flows(nodes_of([planar_node(0, 0, 0, 1.0)]),
                            neighbour_csr([np.array([], dtype=int)]), 1.5)


class TestAssignAirports:
    def test_single_airport(self):
        nodes = nodes_of([planar_node(0, 0, 0, 100), planar_node(1, 50, 0, 300)])
        nearest, pops = assign_airports(nodes, airports_of([AirportRecord(7, 0, 0)]),
                                        planar=True)
        assert nearest.tolist() == [0, 0]
        assert pops.tolist() == [400.0]

    def test_tie_goes_to_lowest_id(self):
        nodes = nodes_of([planar_node(0, 50, 0, 100)])
        airports = airports_of([AirportRecord(3, 0, 100), AirportRecord(1, 0, 0)])
        nearest, _ = assign_airports(nodes, airports, planar=True)
        assert nearest.tolist() == [0]  # airport 1, the first by id

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(3)
        nodes = nodes_of(planar_node(i, x, 0, 10)
                         for i, x in enumerate((0.0, 40.0, 90.0, 200.0)))
        airports = airports_of([AirportRecord(0, 0.0, 10.0), AirportRecord(1, 0.0, 150.0)])
        nearest, _ = assign_airports(nodes, airports, planar=True)
        for nd, got in zip(nodes, nearest):
            want = nearest_airport_bruteforce(
                (nd.lon, nd.lat), [a.id for a in airports],
                [(a.lon, a.lat) for a in airports])
            assert got == want

    def test_partition_population(self):
        nodes, airports, _ = synth_world(60, 2, seed=5)
        nearest, pops = assign_airports(nodes, airports, planar=True)
        assert len(nearest) == 60 and len(pops) == len(airports)
        total = sum(nd.population for nd in nodes)
        assert pops.sum() == pytest.approx(total)


def assert_same_sets(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


def squares_disagree(x):
    """Where the array square x * x and the scalar square pow(x, 2) differ."""
    x = np.asarray(x, dtype=float)
    return x * x != np.float_power(x, 2)


def random_planar_nodes(rng, n, side):
    xy = rng.uniform(0, side, (n, 2))
    # a few nodes on top of others: pairs at distance 0
    dup = rng.random(n) < 0.05
    xy[dup] = xy[rng.integers(0, n, int(dup.sum()))]
    return nodes_of(planar_node(i, float(x), float(y), float(rng.lognormal(9, 1)))
                    for i, (x, y) in enumerate(xy))


def random_sphere_nodes(rng, n, lat_span=90.0):
    return nodes_of(NodeRecord(i, float(rng.uniform(-lat_span, lat_span)),
                               float(rng.uniform(-200, 200)), float(rng.lognormal(9, 1)), 0)
                    for i in range(n))


class TestNeighborhoodsMatchDense:
    """The grid-cell neighbour sets against the n x n distance matrix."""

    def test_random_planar_worlds(self):
        rng = np.random.default_rng(71)
        for _ in range(40):
            n = int(rng.integers(1, 300))
            nodes = random_planar_nodes(rng, n, float(rng.choice([10.0, 1000.0, 1e6])))
            side = max(nodes.lat.max(), nodes.lon.max(), 1.0)
            D = float(side * rng.uniform(0.001, 0.5))
            assert_same_sets(neighbour_lists(ground_neighborhoods(nodes, D, planar=True)),
                             ground_neighborhoods_dense(nodes, D, planar=True))

    # node 0 of the 20-column grid lies at (0, 0); node k at distance
    # exactly D from it
    @pytest.mark.parametrize("D,k", [(100.0, 2), (150.0, 3), (math.hypot(50.0, 50.0), 21)])
    def test_grid_pairs_at_exactly_d(self, D, k):
        nodes, _, _ = synth_world(400, 3, seed=72)
        for d in (D, math.nextafter(D, 0.0)):
            got = neighbour_lists(ground_neighborhoods(nodes, d, planar=True))
            assert_same_sets(got, ground_neighborhoods_dense(nodes, d, planar=True))
            assert (k in got[0]) == (d == D)

    def test_random_great_circle_worlds(self):
        rng = np.random.default_rng(73)
        for trial in range(30):
            n = int(rng.integers(2, 250))
            nodes = random_sphere_nodes(rng, n, float(rng.choice([1.0, 30.0, 90.0])))
            D = float(rng.choice([1.0, 50.0, 500.0, 5000.0, 25000.0]))
            assert_same_sets(neighbour_lists(ground_neighborhoods(nodes, D)),
                             ground_neighborhoods_dense(nodes, D))

    @pytest.mark.parametrize("planar", [True, False])
    def test_d_at_a_pair_distance(self, planar):
        # D is the distance of one pair, or a float next to it: the search
        # must let the pair through and the exact distance decide it
        rng = np.random.default_rng(74)
        for trial in range(40):
            if planar:
                nodes = random_planar_nodes(rng, 60, float(rng.choice([1.0, 1000.0])))
            else:
                nodes = random_sphere_nodes(rng, 60, float(rng.choice([0.01, 1.0, 60.0])))
            lat, lon = nodes.lat, nodes.lon
            i, j = rng.choice(60, 2, replace=False)
            d = float(net.pair_distances(lat[i], lon[i], lat[j], lon[j], planar=planar))
            for D in (d, math.nextafter(d, 0.0), math.nextafter(d, math.inf)):
                if D <= 0:
                    continue
                got = neighbour_lists(ground_neighborhoods(nodes, D, planar=planar))
                assert_same_sets(got, ground_neighborhoods_dense(nodes, D, planar=planar))
                assert (j in got[i]) == (d <= D)

    def test_clustered_great_circle_nodes(self):
        # nodes within 1e-9 to 1e-5 degrees of a point: chords so short
        # that the rounding of the unit-sphere points is a large share of them
        rng = np.random.default_rng(75)
        for trial in range(100):
            c = rng.uniform(-80, 80, 2)
            span = 10.0 ** rng.uniform(-9, -5)
            nodes = nodes_of(NodeRecord(i, float(c[0] + rng.uniform(-span, span)),
                                        float(c[1] + rng.uniform(-span, span)), 1.0, 0)
                             for i in range(30))
            i, j = rng.choice(30, 2, replace=False)
            D = float(net.pair_distances(nodes.lat[i], nodes.lon[i],
                                         nodes.lat[j], nodes.lon[j]))
            if D > 0:
                assert_same_sets(neighbour_lists(ground_neighborhoods(nodes, D)),
                                 ground_neighborhoods_dense(nodes, D))

    def test_infinite_threshold_excludes_self(self):
        # the n x n matrix filled its diagonal with inf, which inf <= inf kept
        nodes = nodes_of(planar_node(i, 3.0 * i, 4.0 * i, 1.0) for i in range(3))
        nbrs = ground_neighborhoods(nodes, math.inf, planar=True)
        assert [v.tolist() for v in neighbour_lists(nbrs)] \
            == [[1, 2], [0, 2], [0, 1]]

    def test_threshold_must_be_positive(self):
        nodes = nodes_of([planar_node(0, 0, 0, 1.0)])
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="positive"):
                ground_neighborhoods(nodes, bad, planar=True)


def test_build_network_holds_no_n_by_n_array():
    # an n x n float64 matrix at n = 3000 alone is 72 MB
    nodes, airports, table = synth_world(3000, 5, seed=76)
    tracemalloc.start()
    try:
        netm = build_network(nodes, airports, table, D=100, alpha=0.11, planar=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert netm.ground.nnz > 30_000
    assert peak < 25e6


@pytest.mark.parametrize("n_nodes,air_fraction", [(150, 0.005), (500, 0.01),
                                                 (150, 0.0), (10, 0.005)])
def test_build_network_given_the_assignment(n_nodes, air_fraction):
    """The assignment synth_world returns is assign_airports', and a network
    built from it is bit-identical to one that assigns the airports itself.
    With no air flow, or one airport, synth_world computes none."""
    world = dict(n_nodes=n_nodes, n_agents=3, air_fraction=air_fraction, seed=5)
    nodes, airports, table, nearest = synth_world(**world, with_assignment=True)
    plain = synth_world(**world)
    assert len(plain) == 3
    assert list(plain[0]) == list(nodes) and list(plain[1]) == list(airports)
    assert np.array_equal(plain[2].g, table.g)
    if nearest is None:
        assert air_fraction == 0 or len(airports) == 1
    else:
        assert np.array_equal(nearest, assign_airports(nodes, airports, planar=True)[0])
    own, given = (build_network(nodes, airports, table, D=100, alpha=0.11, planar=True,
                                nearest=assignment) for assignment in (None, nearest))
    assert_same_csr(given.ground, own.ground)
    for name in ("cell", "g", "h", "populations", "outflow", "rate_row_sum"):
        a, b = getattr(given, name), getattr(own, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert given.rho == own.rho


@pytest.mark.parametrize("far_airport,order", [(False, "C"), (True, "C"), (False, "F")])
def test_build_network_gathers_the_air_table_only_for_empty_airports(far_airport, order):
    """build_network hands FlowMatrix the air table itself when every airport
    has nodes, and the rows and columns of the airports with nodes when one
    has none. Either way h, outflow, rho and rates_dot are bit-equal to those
    of a network over the gathered copy, which is in C order, also for a
    table given in Fortran order; and the table is left as it was."""
    nodes, airports, table = synth_world(400, 3, seed=8)
    table = AirFlowTable(table.ids, np.array(table.g, order=order))
    if far_airport:
        m = len(airports)
        airports = net.Airports(np.append(airports.ids, m), np.append(airports.lat, 1e6),
                                np.append(airports.lon, 1e6))
        g = np.zeros((m + 1, m + 1))
        g[:m, :m] = table.g
        g[m, :m] = g[:m, m] = 25.0
        table = AirFlowTable(np.arange(m + 1), g)
    before = table.g.copy()
    netm = build_network(nodes, airports, table, D=100, alpha=0.11, planar=True)
    slots = np.unique(assign_airports(nodes, airports, planar=True)[0])
    assert (slots.size < len(airports)) == far_airport
    assert (netm.g is table.g) != far_airport
    copy = FlowMatrix(netm.ground, netm.cell, table.g[np.ix_(slots, slots)],
                      netm.populations)
    v = np.random.default_rng(3).uniform(0, 1, (len(nodes), 3))
    for name, got, want in (("h", netm.h, copy.h), ("outflow", netm.outflow, copy.outflow),
                            ("rates_dot", netm.rates_dot(v), copy.rates_dot(v))):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert netm.rho == copy.rho
    assert table.g.tobytes() == before.tobytes()


class TestRadiationFlowsMatchLists:
    """The CSR-direct radiation flows against the list path, bit for bit."""

    @staticmethod
    def check(nodes, D, alpha=0.11, planar=True):
        nbrs = ground_neighborhoods_dense(nodes, D, planar=planar)
        got = radiation_flows(nodes, neighbour_csr(nbrs), alpha)
        assert_same_csr(got, radiation_flows_lists(nodes, nbrs, alpha))
        return got

    def test_populations_whose_squares_disagree(self):
        rng = np.random.default_rng(81)
        pool = rng.lognormal(9, 1.5, 200_000)
        odd = pool[squares_disagree(pool)]
        assert len(odd) > 50
        nodes, _, _ = synth_world(144, 2, seed=81)
        pops = rng.lognormal(9, 1.5, 144)
        pops[::2] = odd[:72]
        nodes = nodes_of(planar_node(nd.id, nd.lon, nd.lat, float(p))
                         for nd, p in zip(nodes, pops))
        # degrees from 0 to past 128, so every pairwise-sum block size shows
        for D in (40.0, 100.0, 150.0, 400.0, 700.0):
            self.check(nodes, D)

    def test_random_worlds(self):
        rng = np.random.default_rng(82)
        for _ in range(20):
            n = int(rng.integers(1, 200))
            nodes = random_planar_nodes(rng, n, 1000.0)
            self.check(nodes, float(rng.uniform(1, 400)), float(rng.uniform(0, 1)))

    def test_zero_alpha_and_no_neighbours(self):
        nodes, _, _ = synth_world(50, 2, seed=83)
        assert self.check(nodes, 100.0, alpha=0.0).nnz == 0
        assert self.check(nodes, 1.0).nnz == 0

    def test_great_circle_world(self):
        nodes = random_sphere_nodes(np.random.default_rng(84), 200, 20.0)
        self.check(nodes, 800.0, planar=False)


class TestAssignAirportsMatchesBruteforce:
    """Blocked nearest-airport search against exhaustive comparison, with
    exact ties on an integer grid."""

    def test_ties_and_blocks(self, monkeypatch):
        rng = np.random.default_rng(91)
        nodes = nodes_of(planar_node(i, float(x), float(y), float(rng.lognormal(5, 1)))
                         for i, (x, y) in enumerate(rng.integers(0, 20, (300, 2))))
        ids = rng.permutation(100)[:12]
        sites = rng.integers(0, 20, (12, 2))
        sites[5] = sites[2]  # two airports on one site: a tie everywhere
        airports = airports_of(AirportRecord(int(a), float(y), float(x))
                               for a, (x, y) in zip(ids, sites))
        want = [nearest_airport_bruteforce((nd.lon, nd.lat), ids.tolist(),
                                           [(a.lon, a.lat) for a in airports])
                for nd in nodes]
        expect_pop = {int(a): 0.0 for a in ids}
        for nd, aid in zip(nodes, want):
            expect_pop[aid] += nd.population
        by_id = np.sort(ids)
        for block in (1 << 18, 7, 12):
            monkeypatch.setattr(net, "_BLOCK", block)
            nearest, pops = assign_airports(nodes, airports, planar=True)
            assert by_id[nearest].tolist() == want
            assert pops.tolist() == [expect_pop[a] for a in by_id.tolist()]


def random_airports(rng, m, lat_range, lon_range):
    """m airports at uniform positions, with shuffled ids that leave gaps."""
    return airports_of(AirportRecord(int(a), float(rng.uniform(*lat_range)),
                                     float(rng.uniform(*lon_range)))
                       for a in rng.permutation(3 * m)[:m])


class TestAssignAirportsMatchesRowBlocks:
    """The grid query against the row-block scan of every distance, exactly:
    the same airport for every node, the lowest id among equally near ones,
    and the same polygon populations."""

    @staticmethod
    def check(nodes, airports, planar=True):
        got = assign_airports(nodes, airports, planar=planar)
        want = nearest_airport_blocks(nodes, airports, planar=planar)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        return got[0]

    @staticmethod
    def scanned_rows(monkeypatch, nodes, airports, planar=True):
        """How many nodes the grid leaves to the scan of every airport."""
        rows = []
        real = net.pair_distances

        def counting(lat1, *args, **kwargs):
            if np.ndim(lat1) == 2:  # a row block against every airport
                rows.append(len(lat1))
            return real(lat1, *args, **kwargs)
        monkeypatch.setattr(net, "pair_distances", counting)
        TestAssignAirportsMatchesRowBlocks.check(nodes, airports, planar)
        monkeypatch.undo()
        return sum(rows)

    def test_random_planar_worlds(self):
        rng = np.random.default_rng(92)
        for _ in range(40):
            side = float(rng.choice([1.0, 1000.0, 1e6]))
            nodes = random_planar_nodes(rng, int(rng.integers(1, 400)), side)
            self.check(nodes, random_airports(rng, int(rng.integers(1, 60)),
                                              (0, side), (0, side)))

    def test_random_great_circle_worlds(self):
        rng = np.random.default_rng(93)
        for _ in range(40):
            span = float(rng.choice([0.01, 1.0, 30.0, 90.0]))
            nodes = random_sphere_nodes(rng, int(rng.integers(1, 300)), span)
            self.check(nodes, random_airports(rng, int(rng.integers(1, 60)),
                                              (-span, span), (-200, 200)), planar=False)

    @pytest.mark.parametrize("n,density", [(400, 0.05), (3000, 0.05), (500, 0.3)])
    def test_synthetic_grid_ties(self, n, density):
        # nodes and airports on one grid: many nodes are exactly as far from
        # two airports
        nodes, airports, _ = synth_world(n, 3, seed=94, airport_density=density)
        dist = cross_distances(nodes.lat, nodes.lon, airports.lat, airports.lon, planar=True)
        assert np.sum(np.sum(dist == dist.min(axis=1)[:, None], axis=1) > 1) > n // 20
        self.check(nodes, airports)

    @pytest.mark.parametrize("planar", [True, False])
    def test_coincident_airports(self, monkeypatch, planar):
        rng = np.random.default_rng(95)
        nodes = random_sphere_nodes(rng, 600, 10.0)
        airports = list(random_airports(rng, 40, (-10, 10), (-200, 200)))
        # ids 40, 7 and 19 on one site
        site = airports[0]
        airports[:3] = [AirportRecord(aid, site.lat, site.lon) for aid in (40, 7, 19)]
        airports = airports_of(airports)
        # most nodes are decided on the grid, where the tie is broken
        assert self.scanned_rows(monkeypatch, nodes, airports, planar) < 120
        by_id = np.sort(airports.ids)
        got = set(by_id[self.check(nodes, airports, planar=planar)].tolist())
        assert 7 in got and not {19, 40} & got

    @pytest.mark.parametrize("planar", [True, False])
    def test_collinear_nodes(self, monkeypatch, planar):
        # every node on the line lat = 0: the coordinates span one axis only,
        # and the unit-sphere points none of z
        rng = np.random.default_rng(96)
        nodes = nodes_of(planar_node(i, float(x), 0.0, 1.0)
                         for i, x in enumerate(rng.uniform(-50, 50, 400)))
        for lats in ((0.0, 0.0), (-1.0, 1.0)):
            airports = random_airports(rng, 40, lats, (-50, 50))
            assert self.scanned_rows(monkeypatch, nodes, airports, planar) < 40

    @pytest.mark.parametrize("planar", [True, False])
    def test_single_airport(self, planar):
        rng = np.random.default_rng(97)
        nodes = random_sphere_nodes(rng, 100, 40.0)
        for site in ((0.0, 0.0), (80.0, 170.0)):
            airports = airports_of([AirportRecord(5, *site)])
            assert not self.check(nodes, airports, planar=planar).any()

    @pytest.mark.parametrize("planar", [True, False])
    def test_airports_far_from_every_node(self, monkeypatch, planar):
        rng = np.random.default_rng(98)
        nodes = nodes_of(planar_node(i, float(x), float(y), 1.0)
                         for i, (x, y) in enumerate(rng.uniform(0, 1, (400, 2))))
        far = (80.0, 89.0) if not planar else (1e6, 1e6 + 10)
        airports = random_airports(rng, 40, far, far)
        assert self.scanned_rows(monkeypatch, nodes, airports, planar) == 400

    def test_clustered_world_is_scanned(self, monkeypatch):
        # one airport far out stretches the grid over the whole cluster, so
        # the candidates would be all n x m pairs
        rng = np.random.default_rng(99)
        nodes = random_planar_nodes(rng, 400, 1.0)
        airports = airports_of([*random_airports(rng, 30, (0, 1), (0, 1)),
                                AirportRecord(1000, 1e5, 1e5)])
        assert self.scanned_rows(monkeypatch, nodes, airports) == 400

    def test_small_world_is_scanned(self, monkeypatch):
        # 200 x 10 distances are no more than the grid's 16 (n + m) candidates
        nodes, airports, _ = synth_world(200, 3, seed=100)
        assert self.scanned_rows(monkeypatch, nodes, airports) == 200

    def test_uniform_world_scans_few(self, monkeypatch):
        # about 1 node in 14 has no airport within the grid's side
        nodes, airports, _ = synth_world(3000, 3, seed=100)
        assert self.scanned_rows(monkeypatch, nodes, airports) < 300

    def test_all_points_on_one_site(self, monkeypatch):
        # no span at all: no grid
        nodes = nodes_of(planar_node(i, 3.0, 4.0, 1.0) for i in range(200))
        airports = airports_of(AirportRecord(a, 4.0, 3.0) for a in range(40, 20, -1))
        assert self.scanned_rows(monkeypatch, nodes, airports) == 200
        assert not self.check(nodes, airports).any()

    def test_overflowing_grid_spacing(self, monkeypatch):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nodes, airports, _ = synth_world(400, 2, seed=1, grid_spacing_km=1e160,
                                             air_fraction=0.0)
            assert self.scanned_rows(monkeypatch, nodes, airports) < 40


def assert_same_arrays(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


class TestSearchesMatchOneRingReferences:
    """The neighbour search that measures each pair once and the nearest-
    airport query with its second ring of cells, against the searches that
    measured each pair both ways round and scanned every node the first
    ring left unsure: the same CSR arrays, assignment and polygon
    populations, bit for bit and with the same dtypes."""

    @staticmethod
    def check(nodes, airports, D, planar):
        assert_same_arrays(ground_neighborhoods(nodes, D, planar=planar),
                           ground_neighborhoods_both_ways(nodes, D, planar=planar))
        assert_same_arrays(assign_airports(nodes, airports, planar=planar),
                           assign_airports_one_ring(nodes, airports, planar=planar))

    @staticmethod
    def rings(monkeypatch, nodes, airports, planar):
        """The rings of cells assign_airports searched, in order."""
        rings = []
        real = net._close_pairs

        def spying(points, others, side, max_pairs=math.inf, reach=1):
            rings.append(reach)
            return real(points, others, side, max_pairs, reach)
        monkeypatch.setattr(net, "_close_pairs", spying)
        assign_airports(nodes, airports, planar=planar)
        monkeypatch.undo()
        return rings

    def test_random_planar_worlds(self):
        # random_planar_nodes puts a few nodes on top of others
        rng = np.random.default_rng(111)
        for _ in range(40):
            side = float(rng.choice([1.0, 1000.0, 1e6]))
            nodes = random_planar_nodes(rng, int(rng.integers(1, 400)), side)
            airports = random_airports(rng, int(rng.integers(1, 60)), (0, side), (0, side))
            self.check(nodes, airports, side * float(rng.uniform(0.001, 0.5)), True)

    def test_random_great_circle_worlds(self):
        rng = np.random.default_rng(112)
        for _ in range(30):
            span = float(rng.choice([0.01, 1.0, 30.0, 90.0]))
            nodes = random_sphere_nodes(rng, int(rng.integers(1, 300)), span)
            airports = random_airports(rng, int(rng.integers(1, 60)), (-span, span),
                                       (-200, 200))
            self.check(nodes, airports, float(rng.choice([1.0, 50.0, 500.0, 5000.0])),
                       False)

    @pytest.mark.parametrize("planar", [True, False])
    def test_coincident_nodes(self, planar):
        # forty nodes on each of six sites, some two sites apart by about D:
        # pairs at distance 0 fill a cell, and no node may pair with itself
        rng = np.random.default_rng(113)
        sites = rng.uniform(0, 3, (6, 2))
        nodes = nodes_of(planar_node(i, *sites[i % 6], float(rng.lognormal(5, 1)))
                         for i in range(240))
        airports = airports_of(AirportRecord(a, *sites[a % 6][::-1]) for a in range(9))
        for D in (1e-9, 1.0, 100.0, 1e4):
            self.check(nodes, airports, D, planar)
        self.check(nodes, airports, math.inf, True)

    @pytest.mark.parametrize("D", [100.0, 150.0, math.hypot(50.0, 50.0)])
    def test_grid_pairs_at_exactly_d(self, D):
        nodes, airports, _ = synth_world(400, 3, seed=72)
        for d in (D, math.nextafter(D, 0.0), math.nextafter(D, math.inf)):
            self.check(nodes, airports, d, True)

    @pytest.mark.parametrize("planar", [True, False])
    def test_pairs_at_exactly_d_of_random_worlds(self, planar):
        rng = np.random.default_rng(114)
        for _ in range(30):
            if planar:
                nodes = random_planar_nodes(rng, 80, 1000.0)
            else:
                nodes = random_sphere_nodes(rng, 80, 5.0)
            airports = random_airports(rng, 8, (-5, 5), (-5, 5))
            i, j = rng.choice(80, 2, replace=False)
            d = float(net.pair_distances(nodes.lat[i], nodes.lon[i], nodes.lat[j],
                                         nodes.lon[j], planar=planar))
            for D in (d, math.nextafter(d, 0.0), math.nextafter(d, math.inf)):
                if D > 0:
                    self.check(nodes, airports, D, planar)

    def test_poles_and_antimeridian(self):
        # nodes at and around both poles, and on both sides of longitude 180
        # written as -180..-175 and as 175..185
        rng = np.random.default_rng(115)
        lat = np.concatenate((rng.uniform(88, 90, 150), rng.uniform(-90, -88, 150),
                              rng.uniform(-3, 3, 300), [90.0, 90.0, -90.0]))
        lon = np.concatenate((rng.uniform(-180, 180, 300), rng.uniform(175, 185, 150),
                              rng.uniform(-180, -175, 150), [0.0, 135.0, -45.0]))
        nodes = net.Nodes(lat, lon, rng.lognormal(5, 1, lat.size), np.zeros(lat.size, int))
        pick = rng.choice(lat.size, 40, replace=False)
        airports = net.Airports(rng.permutation(100)[:40], lat[pick] + 0.01,
                                lon[pick] - 0.01)
        for D in (1.0, 20.0, 300.0, 5000.0):
            self.check(nodes, airports, D, False)

    @pytest.mark.parametrize("planar", [True, False])
    def test_second_ring_on_a_large_world(self, monkeypatch, planar):
        # 12,000 nodes and 600 airports: the nodes the first ring leaves
        # unsure are too many to scan, so the 5 x 5 block runs
        nodes, airports, _ = synth_world(12_000, 5, seed=116)
        if not planar:  # the grid in degrees, over 60 degrees of latitude
            nodes = net.Nodes(nodes.lat / 100.0 - 30.0, nodes.lon / 100.0 + 150.0,
                              nodes.population, nodes.agent_id)
            airports = net.Airports(airports.ids, airports.lat / 100.0 - 30.0,
                                    airports.lon / 100.0 + 150.0)
        assert self.rings(monkeypatch, nodes, airports, planar) == [1, 2]
        self.check(nodes, airports, 100.0 if planar else 1.0, planar)
        assert TestAssignAirportsMatchesRowBlocks.scanned_rows(
            monkeypatch, nodes, airports, planar) < 120

    def test_second_ring_skipped_on_small_worlds(self, monkeypatch):
        # at n = 3000 the nodes the first ring leaves unsure cost less to scan
        nodes, airports, _ = synth_world(3000, 5, seed=116)
        assert self.rings(monkeypatch, nodes, airports, True) == [1]


def test_ground_search_measures_each_pair_once(monkeypatch):
    """At n = 3000 the neighbour search hands pair_distances no node paired
    with itself and each pair of nodes once: half of what the search
    measuring both ways round and self pairs handed it, less the self pairs."""
    nodes, _, _ = synth_world(3000, 5, seed=3)
    index = {xy: i for i, xy in enumerate(zip(nodes.lat.tolist(), nodes.lon.tolist()))}
    assert len(index) == 3000  # every node on a site of its own
    calls = []
    real = net.pair_distances

    def recording(lat1, lon1, lat2, lon2, planar=False):
        calls.append([np.array([index[xy] for xy in zip(la.tolist(), lo.tolist())])
                      for la, lo in ((lat1, lon1), (lat2, lon2))])
        return real(lat1, lon1, lat2, lon2, planar=planar)
    monkeypatch.setattr(net, "pair_distances", recording)
    indptr, indices = ground_neighborhoods(nodes, 100.0, planar=True)
    monkeypatch.undo()
    [(i, j)] = calls
    assert not np.any(i == j)
    assert np.unique(np.minimum(i, j) * 3000 + np.maximum(i, j)).size == i.size
    points = (nodes.lat, nodes.lon)
    rows, _ = close_pairs_both_ways(points, points, 100.0 * (1.0 + 1e-6))
    assert 2 * i.size + 3000 == rows.size
    assert indices.size == 34_906 and indices.size < i.size


@settings(max_examples=200, deadline=None)
@given(data=st.data(), planar=st.booleans())
def test_pair_distances_is_symmetric(data, planar):
    """Either way round, a pair's distance has the same bits."""
    n = data.draw(st.integers(1, 30))
    if planar:
        coords = [data.draw(hnp.arrays(np.float64, n, elements=st.floats(
            -1e150, 1e150, allow_nan=False))) for _ in range(4)]
    else:
        coords = [data.draw(hnp.arrays(np.float64, n, elements=st.floats(lo, hi)))
                  for lo, hi in ((-90, 90), (-540, 540)) * 2]
    lat1, lon1, lat2, lon2 = coords
    there = net.pair_distances(lat1, lon1, lat2, lon2, planar=planar)
    back = net.pair_distances(lat2, lon2, lat1, lon1, planar=planar)
    assert np.array_equal(there.view(np.uint64), back.view(np.uint64))


@pytest.mark.parametrize("planar", [True, False])
def test_pair_distances_is_symmetric_on_a_million_pairs(planar):
    rng = np.random.default_rng(117)
    span = (1e4, 1e4) if planar else (90.0, 180.0)
    lat1, lat2 = rng.uniform(-span[0], span[0], (2, 10 ** 6))
    lon1, lon2 = rng.uniform(-span[1], span[1], (2, 10 ** 6))
    there = net.pair_distances(lat1, lon1, lat2, lon2, planar=planar)
    back = net.pair_distances(lat2, lon2, lat1, lon1, planar=planar)
    assert np.array_equal(there.view(np.uint64), back.view(np.uint64))


class TestSynthWorldGravity:
    """The vectorized gravity table against the per-pair loop, entry by
    entry and in order."""

    @pytest.mark.parametrize("n,spacing,density,seed", [
        (200, 50.0, 0.05, 0), (500, 50.0, 0.1, 1), (1000, 50.0, 0.05, 2),
        (120, 10.0, 0.3, 3)])
    def test_matches_loops(self, n, spacing, density, seed):
        nodes, airports, table = synth_world(n, 3, seed=seed, grid_spacing_km=spacing,
                                             airport_density=density)
        want = gravity_entries_loops(nodes, airports, spacing, 0.005)
        assert list(table.entries.items()) == list(want.items())

    def test_world_where_squares_disagree(self):
        nodes, airports, table = synth_world(225, 3, seed=0, grid_spacing_km=96.3,
                                             airport_density=0.2)
        alat, alon = airports.lat, airports.lon
        d = np.maximum(cross_distances(alat, alon, alat, alon, planar=True), 96.3)
        assert np.any(squares_disagree(d))
        want = gravity_entries_loops(nodes, airports, 96.3, 0.005)
        assert list(table.entries.items()) == list(want.items())

    def test_no_air_lists_every_pair_as_zero(self):
        nodes, airports, table = synth_world(300, 3, seed=4, air_fraction=0.0)
        want = gravity_entries_loops(nodes, airports, 50.0, 0.0)
        assert len(want) == 15 * 14 and set(want.values()) == {0.0}
        assert list(table.entries.items()) == list(want.items())

    def test_peak_memory(self):
        # the m x m table at m = 500 is 2 MB; a dict of its 249,500 pairs
        # took the peak to 54 MB
        tracemalloc.start()
        try:
            synth_world(10_000, 5, seed=77)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 25e6


class TestAirFlows:
    def test_empty_table(self):
        nodes = nodes_of([planar_node(0, 0, 0, 100), planar_node(1, 500, 0, 100)])
        airports = airports_of([AirportRecord(0, 0, 0), AirportRecord(1, 0, 500)])
        f = explicit_air(nodes, airports, air_table(airports))
        assert f.nnz == 0

    def test_single_node_polygons(self):
        nodes = nodes_of([planar_node(0, 0, 0, 700), planar_node(1, 500, 0, 1300)])
        airports = airports_of([AirportRecord(0, 0, 0), AirportRecord(1, 0, 500)])
        f = explicit_air(nodes, airports, air_table(airports, {(0, 1): 1000.0}))
        assert f[0, 1] == pytest.approx(1000.0)
        assert f[1, 0] == 0.0

    def test_population_proportional_split(self):
        nodes = nodes_of([planar_node(0, 0, 0, 600), planar_node(1, 10, 0, 400),
                          planar_node(2, 500, 0, 2000)])
        airports = airports_of([AirportRecord(0, 0, 0), AirportRecord(1, 0, 500)])
        f = explicit_air(nodes, airports, air_table(airports, {(0, 1): 500.0}))
        assert f[0, 2] == pytest.approx(500 * 2600 / 3000)
        assert f[1, 2] == pytest.approx(500 * 2400 / 3000)


def assert_same_csr(got, want):
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


class TestAirFlowsMatchLists:
    """The slot flows build_network takes from the air table against the
    dict scatter of air_factors_dict, and the per-airport CSR build against
    the list-of-entries path, exactly."""

    @staticmethod
    def check(nodes, airports, table, planar=True):
        netm = build_network(nodes, airports, table, D=1.0, alpha=0.11, planar=planar)
        nearest, _ = assign_airports(nodes, airports, planar=planar)
        want_cell, want_g = air_factors_dict(np.sort(airports.ids)[nearest], table.entries)
        for got, want in ((netm.cell, want_cell), (netm.g, want_g)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        pop = populations(nodes)
        assert_same_csr(air_flows(netm.cell, netm.g, pop),
                        air_flows_lists(want_cell, want_g, pop))
        return netm.cell, netm.g

    def test_random_synthetic_worlds(self):
        rng = np.random.default_rng(41)
        for seed in range(25):
            n = int(rng.integers(2, 160))
            nodes, airports, table = synth_world(
                n, int(rng.integers(1, 6)), seed=seed,
                pop_sigma=float(rng.uniform(0.1, 1.5)),
                airport_density=float(rng.uniform(0.02, 0.3)))
            # drop some entries and zero others, so rows differ in pattern
            entries = {k: (0.0 if rng.random() < 0.2 else g)
                       for k, g in table.entries.items() if rng.random() < 0.8}
            self.check(nodes, airports, air_table(airports, entries))

    def test_entries_naming_airports_without_nodes(self):
        nodes = nodes_of(planar_node(i, 10.0 * i, 0, 100.0 + i) for i in range(6))
        # airport 2 lies far away and gets no nodes
        airports = airports_of([AirportRecord(0, 0, 0), AirportRecord(1, 0, 50),
                                AirportRecord(2, 5000, 5000)])
        table = air_table(airports, {(0, 1): 30.0, (1, 0): 20.0, (0, 2): 5.0,
                                     (2, 1): 7.0})
        cell, g = self.check(nodes, airports, table)
        assert cell.tolist() == [0, 0, 0, 1, 1, 1]
        assert g.tolist() == [[0.0, 30.0], [20.0, 0.0]]

    def test_single_airport_empty_table(self):
        nodes = nodes_of(planar_node(i, 30.0 * i, 0, 500.0) for i in range(4))
        airports = airports_of([AirportRecord(3, 0, 0)])
        self.check(nodes, airports, air_table(airports))

    def test_one_node_world(self):
        nodes, airports, table = synth_world(1, 1, seed=2)
        self.check(nodes, airports, table)

    def test_great_circle_coordinates(self):
        rng = np.random.default_rng(43)
        nodes = nodes_of(NodeRecord(i, float(rng.uniform(-60, 60)),
                                    float(rng.uniform(-180, 180)),
                                    float(rng.uniform(1e3, 1e5)), int(i % 3))
                         for i in range(120))
        airports = airports_of(AirportRecord(a, float(rng.uniform(-60, 60)),
                                             float(rng.uniform(-180, 180)))
                               for a in range(8))
        table = air_table(airports, {(a, b): float(rng.uniform(10, 1000))
                                     for a in range(8) for b in range(8)
                                     if a != b and rng.random() < 0.6})
        self.check(nodes, airports, table, planar=False)

    def test_shuffled_non_contiguous_ids(self):
        rng = np.random.default_rng(45)
        nodes = random_planar_nodes(rng, 150, 1000.0)
        ids = rng.choice(1000, 13, replace=False)
        # the airport of the middle id lies far away and gets no nodes
        far = int(np.sort(ids)[6])
        airports = airports_of(AirportRecord(int(a), 1e6, 1e6) if a == far else
                               AirportRecord(int(a), float(rng.uniform(0, 1000)),
                                             float(rng.uniform(0, 1000))) for a in ids)
        table = air_table(airports, {(int(a), int(b)): float(rng.uniform(10, 1000))
                                     for a in ids for b in ids
                                     if a != b and rng.random() < 0.7})
        cell, g = self.check(nodes, airports, table)
        assert g.shape == (12, 12) and len(np.unique(cell)) == 12

    @pytest.mark.parametrize("planar", [True, False])
    def test_build_net_export_matches_list_path(self, tmp_path, monkeypatch, planar):
        src = tmp_path / "src"
        assert main(["build-net", "--synthetic", "--n-nodes", "90", "--n-agents",
                     "3", "--seed", "5", "--out", str(src)]) == 0
        args = ["build-net", "--nodes", str(src / "nodes.csv"),
                "--airports", str(src / "airports.csv"),
                "--flights", str(src / "airflows.csv")]
        args += ["--planar"] if planar else ["--ground-range-km", "3000"]
        assert main(args + ["--out", str(tmp_path / "fast")]) == 0
        monkeypatch.setattr(net, "air_flows", air_flows_lists)
        assert main(args + ["--out", str(tmp_path / "ref")]) == 0
        for name in ("edges.csv", "rho.txt"):
            assert (tmp_path / "fast" / name).read_bytes() == \
                (tmp_path / "ref" / name).read_bytes()

    def test_peak_memory_within_three_times_result(self):
        nodes, airports, table = synth_world(1000, 5, seed=44)
        netm = build_network(nodes, airports, table, D=1.0, alpha=0.11, planar=True)
        pop = populations(nodes)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            mat = air_flows(netm.cell, netm.g, pop)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        result = mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
        assert mat.nnz > 500_000
        assert peak <= 3 * result


class TestAirFlowTable:
    """The table's checks, on a hand-made table and at the flights file."""

    def test_non_finite_table_entry_rejected(self):
        for bad in (float("nan"), float("inf"), -1.0):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                AirFlowTable([0, 1], [[0.0, bad], [0.0, 0.0]])

    def test_bad_shapes_and_loops_rejected(self):
        for ids, g in (([0, 1], np.zeros((2, 3))), ([1, 0], np.zeros((2, 2))),
                       ([0, 0], np.zeros((2, 2))), ([2, 4], [[0.0, 1.0], [0.0, 3.0]]),
                       ([2, 4], [[0.0, 1.0], [0.0, np.nan]])):
            with pytest.raises(ValueError, match="zero on the diagonal"):
                AirFlowTable(ids, g)

    def test_build_network_needs_the_airports_ids(self):
        nodes = nodes_of([planar_node(0, 0, 0, 100)])
        airports = airports_of([AirportRecord(0, 0, 0), AirportRecord(1, 0, 50)])
        with pytest.raises(ValueError, match="airports' ids"):
            build_network(nodes, airports, AirFlowTable([0, 2], np.zeros((2, 2))),
                          D=1.0, alpha=0.11, planar=True)

    @staticmethod
    def read(tmp_path, rows, ids=(0, 3, 7)):
        path = tmp_path / "flows.csv"
        path.write_text("origin,destination,flow\n" + "".join(r + "\n" for r in rows))
        return net.read_air_flows(path, airports_of(AirportRecord(a, 0.0, 0.0) for a in ids))

    def test_repeated_rows_add_in_file_order(self, tmp_path):
        table = self.read(tmp_path, ["7,0,0.1", "3,7,2.5", "7,0,0.2", "7,0,0.3",
                                     "0,3,-1.0", "0,3,4.0"])
        assert table.ids.tolist() == [0, 3, 7]
        assert table.g[2, 0] == (0.0 + 0.1 + 0.2) + 0.3
        assert table.entries == {(0, 3): 3.0, (0, 7): 0.0, (3, 0): 0.0,
                                 (3, 7): 2.5, (7, 0): (0.1 + 0.2) + 0.3, (7, 3): 0.0}

    @pytest.mark.parametrize("rows,match", [
        (["3,3,0.0"], "3->3 must join two different airports of the airport file"),
        (["1,3,5.0"], "1->3 must join two different airports of the airport file"),
        (["3,99,5.0"], "3->99 must join two different airports of the airport file"),
        (["0,3,nan"], "finite and nonnegative"),
        (["0,3,inf"], "finite and nonnegative"),
        (["0,3,2.0", "0,3,-3.0"], "finite and nonnegative"),
    ])
    def test_bad_flights_file_rejected(self, tmp_path, rows, match):
        with pytest.raises(ValueError, match=match) as exc:
            self.read(tmp_path, rows)
        if "airport file" in match:
            assert str(exc.value).startswith(str(tmp_path / "flows.csv"))


class TestFactoredProducts:
    """The factored products, row sums, column sums and rho against the
    explicit matrices they stand for. The two add in another order."""

    @staticmethod
    def check(netm, seed=0):
        rng = np.random.default_rng(seed)
        v = rng.uniform(0.1, 1.0, (netm.n, 3))
        u = rng.uniform(0.1, 1.0, (netm.n, 4))
        np.testing.assert_allclose(netm.rates_dot(v), netm.rates @ v, rtol=1e-13, atol=0)
        np.testing.assert_allclose(netm.rates_t_dot(u), netm.rates.T @ u,
                                   rtol=1e-13, atol=0)
        outflow = np.asarray(netm.flows.sum(axis=1)).ravel()
        assert np.array_equal(netm.rate_row_sum, (outflow > 0).astype(float))
        np.testing.assert_allclose(netm.outflow, outflow, rtol=1e-13, atol=0)
        np.testing.assert_allclose(netm.inflow(), np.asarray(netm.flows.sum(axis=0)).ravel(),
                                   rtol=1e-13, atol=0)
        assert netm.rho == pytest.approx(netm.flows.sum() / netm.populations.sum(),
                                         rel=1e-13, abs=0)

    def test_random_airport_worlds(self):
        rng = np.random.default_rng(61)
        for seed in range(30):
            n = int(rng.integers(1, 80))
            self.check(random_airport_net(rng, n, float(rng.uniform(0, 0.6))), seed)

    def test_synthetic_worlds(self):
        for seed, n in ((62, 200), (63, 1000)):
            self.check(build_synth_net(seed=seed, n=n, k=4), seed)

    def test_single_airport_no_air(self):
        nodes = nodes_of(planar_node(i, 30.0 * i, 0, 500.0 + i) for i in range(5))
        airports = airports_of([AirportRecord(3, 0, 0)])
        netm = build_network(nodes, airports, air_table(airports),
                             D=40, alpha=0.11, planar=True)
        assert netm.g.shape == (1, 1) and netm.air.nnz == 0
        self.check(netm)

    def test_airport_without_nodes(self):
        nodes = nodes_of(planar_node(i, 10.0 * i, 0, 100.0 + i) for i in range(6))
        airports = airports_of([AirportRecord(0, 0, 0), AirportRecord(1, 0, 50),
                                AirportRecord(2, 5000, 5000)])
        table = air_table(airports, {(0, 1): 30.0, (1, 0): 20.0, (0, 2): 5.0,
                                     (2, 1): 7.0})
        self.check(build_network(nodes, airports, table, D=15, alpha=0.11, planar=True))

    def test_nodes_with_zero_outflow(self):
        # no ground range; airport 1 sends nothing, so its nodes have no outflow
        nodes = nodes_of(planar_node(i, 100.0 * i, 0, 100.0 + i) for i in range(6))
        airports = airports_of([AirportRecord(0, 0, 0), AirportRecord(1, 0, 500)])
        netm = build_network(nodes, airports, air_table(airports, {(0, 1): 40.0}),
                             D=1, alpha=0.11, planar=True)
        assert netm.rate_row_sum.tolist() == [1, 1, 1, 0, 0, 0]
        self.check(netm)

    def test_one_node_world(self):
        nodes, airports, table = synth_world(1, 1, seed=2)
        self.check(build_network(nodes, airports, table, D=100, alpha=0.11,
                                 planar=True))

    def test_great_circle_coordinates(self):
        rng = np.random.default_rng(64)
        nodes = nodes_of(NodeRecord(i, float(rng.uniform(-60, 60)),
                                    float(rng.uniform(-180, 180)),
                                    float(rng.uniform(1e3, 1e5)), int(i % 3))
                         for i in range(150))
        airports = airports_of(AirportRecord(a, float(rng.uniform(-60, 60)),
                                             float(rng.uniform(-180, 180)))
                               for a in range(9))
        table = air_table(airports, {(a, b): float(rng.uniform(10, 1000))
                                     for a in range(9) for b in range(9)
                                     if a != b and rng.random() < 0.6})
        self.check(build_network(nodes, airports, table, D=1500, alpha=0.11))


class TestCombineAndRate:
    def two_node_net(self, f01=30.0, f10=10.0):
        nodes = [planar_node(0, 0, 0, 500), planar_node(1, 50, 0, 500)]
        import scipy.sparse as sp
        ground = sp.csr_matrix(np.array([[0.0, f01], [f10, 0.0]]))
        return flow_matrix(ground, nodes)

    def test_single_neighbor_rate_one(self):
        netm = self.two_node_net()
        assert netm.rates[0, 1] == 1.0

    def test_row_normalization(self):
        nodes = [planar_node(i, 50 * i, 0, 500) for i in range(3)]
        import scipy.sparse as sp
        ground = sp.csr_matrix(np.array([[0.0, 30.0, 10.0], [0, 0, 0], [0, 0, 0]]))
        netm = flow_matrix(ground, nodes)
        assert netm.rates[0, 1] == pytest.approx(0.75)
        assert netm.rates[0, 2] == pytest.approx(0.25)

    def test_rho(self):
        nodes = [planar_node(0, 0, 0, 500), planar_node(1, 50, 0, 500)]
        import scipy.sparse as sp
        ground = sp.csr_matrix(np.array([[0.0, 100.0], [10.0, 0.0]]))
        netm = flow_matrix(ground, nodes)
        assert netm.rho == pytest.approx(0.11)

    def test_zero_outflow_row_empty(self):
        netm = self.two_node_net(f01=30.0, f10=0.0)
        assert netm.rate_row_sum[1] == 0.0
        assert netm.rates[1].nnz == 0

    def test_zero_population_errors(self):
        import scipy.sparse as sp
        with pytest.raises(ValueError, match="population"):
            net.FlowMatrix(sp.csr_matrix((1, 1)), np.zeros(1, int),
                           np.zeros((1, 1)), np.array([0.0]))


class TestNetworkInvariants:
    def test_row_stochastic(self):
        inst = build_synth_net(seed=11)
        rowsums = np.asarray(inst.rates.sum(axis=1)).ravel()
        active = inst.rate_row_sum > 0
        assert np.all(np.abs(rowsums[active] - 1.0) <= 1e-12)

    def test_rate_positive_iff_flow_positive(self):
        inst = build_synth_net(seed=12)
        fl = inst.flows.tocoo()
        rt = inst.rates.tocsr()
        for i, j, v in zip(fl.row, fl.col, fl.data):
            assert (v > 0) == (rt[i, j] > 0)

    def test_outflow_population_correlation(self):
        # uniform grid, neighborhoods spanning it, ground mobility only
        nodes, airports, table = synth_world(144, 3, seed=21, pop_sigma=0.1,
                                             air_fraction=0.0)
        netm = build_network(nodes, airports, table, D=900, alpha=0.11, planar=True)
        pops = np.array([nd.population for nd in nodes])
        corr = np.corrcoef(netm.outflow, pops)[0, 1]
        assert corr > 0.99

    def test_flows_within_neighborhoods(self):
        nodes, airports, table = synth_world(100, 3, seed=13)
        nbrs = neighbour_lists(net.ground_neighborhoods(nodes, 100, planar=True))
        air = explicit_air(nodes, airports, table)
        netm = build_network(nodes, airports, table, D=100, alpha=0.11, planar=True)
        coo = netm.flows.tocoo()
        for i, j in zip(coo.row, coo.col):
            assert j in nbrs[i] or air[i, j] > 0
            assert i != j

    def test_neighborhoods_are_ground_air_union(self):
        nodes, airports, table = synth_world(80, 2, seed=14)
        nbrs = neighbour_lists(net.ground_neighborhoods(nodes, 100, planar=True))
        air = explicit_air(nodes, airports, table)
        netm = net.build_network(nodes, airports, table, D=100, alpha=0.11,
                                 planar=True)
        flows = netm.flows
        for i in range(len(nodes)):
            air_nbrs = set(air.indices[air.indptr[i]:air.indptr[i + 1]].tolist())
            expect = set(nbrs[i].tolist()) | air_nbrs
            row = flows.indices[flows.indptr[i]:flows.indptr[i + 1]]
            assert set(row.tolist()) == expect


def build_synth_net(seed=0, n=100, k=3):
    nodes, airports, table = synth_world(n, k, seed=seed)
    return build_network(nodes, airports, table, D=100, alpha=0.11, planar=True)


class TestSynthWorld:
    def test_deterministic(self):
        w1 = synth_world(50, 4, seed=9)
        w2 = synth_world(50, 4, seed=9)
        assert list(w1[0]) == list(w2[0])
        assert [(a.id, a.lat, a.lon) for a in w1[1]] == \
               [(a.id, a.lat, a.lon) for a in w2[1]]
        assert w1[2].entries == w2[2].entries

    def test_single_agent(self):
        nodes, _, _ = synth_world(30, 1, seed=2)
        assert {nd.agent_id for nd in nodes} == {0}

    def test_partition_sizes(self):
        nodes, _, _ = synth_world(200, 5, seed=7)
        counts = np.bincount([nd.agent_id for nd in nodes], minlength=5)
        assert counts.sum() == 200
        assert np.all(counts > 0)

    def test_too_many_airports(self):
        with pytest.raises(ValueError, match="airports"):
            synth_world(5, 1, airport_density=2.0, seed=0)

    @pytest.mark.parametrize("kwargs", [{"grid_spacing_km": 1e160},  # total 0.0
                                        {"pop_median": 1e300}])      # total inf
    def test_gravity_total_not_positive_and_finite_raises(self, kwargs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="gravity total") as exc:
                synth_world(100, 2, seed=1, **kwargs)
        assert "\n" not in str(exc.value)

    @pytest.mark.parametrize("air_fraction", [-0.01, math.nan])
    def test_negative_or_nan_air_fraction_raises(self, air_fraction):
        with pytest.raises(ValueError):
            synth_world(100, 2, seed=1, air_fraction=air_fraction)

    def test_no_air_fraction_with_overflowing_gravity_is_all_zero(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, airports, table = synth_world(100, 2, seed=1, grid_spacing_km=1e160,
                                             air_fraction=0.0)
        assert len(airports) == 5 and table.g.shape == (5, 5) and not table.g.any()


class TestFileRoundTrips:
    def test_nodes(self, tmp_path):
        nodes, airports, table = synth_world(20, 2, seed=3)
        net.write_nodes(nodes, tmp_path / "nodes.csv")
        back = net.read_nodes(tmp_path / "nodes.csv")
        assert list(back) == list(nodes)

    def test_airports_and_flows(self, tmp_path):
        _, airports, table = synth_world(40, 2, seed=3)
        net.write_airports(airports, tmp_path / "airports.csv")
        net.write_air_flows(table, tmp_path / "flows.csv")
        assert list(net.read_airports(tmp_path / "airports.csv")) == list(airports)
        back = net.read_air_flows(tmp_path / "flows.csv", airports)
        assert back.ids.tolist() == table.ids.tolist()
        assert back.g.tobytes() == table.g.tobytes()

    def test_network_export(self, tmp_path):
        netm = build_synth_net(seed=4, n=30, k=2)
        net.export_network(netm, tmp_path / "edges.csv", tmp_path / "rho.txt")
        rho = float((tmp_path / "rho.txt").read_text().strip())
        assert rho == netm.rho
        header = (tmp_path / "edges.csv").read_text().splitlines()[0]
        assert header == "i,j,f_ground,f_air,f_total,p"

    def test_network_export_signed_zeros_match_per_edge_writer(self, tmp_path):
        netm = build_synth_net(seed=4, n=30, k=2)
        netm.rates  # assembled from the true flows before they are edited
        flows = netm.flows.copy()
        # explicit zeros of both signs, each many times, in the f_total column
        flows.data[::3] = 0.0
        flows.data[1::3] = -0.0
        netm.flows = flows
        net.export_network(netm, tmp_path / "edges.csv", tmp_path / "rho.txt")
        export_network_per_edge(netm, tmp_path / "ref_edges.csv",
                                tmp_path / "ref_rho.txt")
        edges = (tmp_path / "edges.csv").read_bytes()
        assert edges == (tmp_path / "ref_edges.csv").read_bytes()
        f_total = [line.split(b",")[4] for line in edges.split(b"\r\n")[1:-1]]
        assert f_total.count(b"0.0") > 1 and f_total.count(b"-0.0") > 1

    @pytest.mark.parametrize("seed,n,air_fraction", [(4, 30, 0.005), (5, 120, 0.005),
                                                    (6, 1, 0.0)])
    def test_network_export_matches_per_edge_writer(self, tmp_path, seed, n,
                                                    air_fraction):
        nodes, airports, table = synth_world(n, 1, seed=seed,
                                             air_fraction=air_fraction)
        netm = build_network(nodes, airports, table, D=100, alpha=0.11, planar=True)
        net.export_network(netm, tmp_path / "edges.csv", tmp_path / "rho.txt")
        export_network_per_edge(netm, tmp_path / "ref_edges.csv",
                                tmp_path / "ref_rho.txt")
        assert (tmp_path / "edges.csv").read_bytes() == \
            (tmp_path / "ref_edges.csv").read_bytes()
        assert (tmp_path / "rho.txt").read_bytes() == \
            (tmp_path / "ref_rho.txt").read_bytes()


    @pytest.mark.parametrize("planar,commute,density", [(False, 0.11, 0.05),
                                                        (True, 1e-320, 0.004)])
    def test_network_export_on_great_circle_and_subnormal_worlds(self, tmp_path, planar,
                                                                   commute, density):
        # great-circle distances, with air flows; and one airport with ground
        # flows of about 1e-320, whose rows of rates are divided by a
        # subnormal outflow
        nodes, airports, table = synth_world(150, 2, seed=7, grid_spacing_km=0.5,
                                             airport_density=density)
        netm = build_network(nodes, airports, table, D=200, alpha=commute, planar=planar)
        with np.errstate(over="ignore"):
            subnormal = np.isinf(1.0 / netm.outflow[netm.outflow > 0]).any()
        assert netm.ground.nnz and (subnormal if commute < 1e-300 else netm.air.nnz)
        net.export_network(netm, tmp_path / "edges.csv", tmp_path / "rho.txt")
        export_network_per_edge(netm, tmp_path / "ref_edges.csv", tmp_path / "ref_rho.txt")
        assert (tmp_path / "edges.csv").read_bytes() == \
            (tmp_path / "ref_edges.csv").read_bytes()


def subnormal_world():
    """The 150-node planar world of one airport whose ground flows are about
    1e-320, so every row of rates is divided by a subnormal outflow."""
    nodes, airports, table = synth_world(150, 2, seed=7, grid_spacing_km=0.5,
                                         airport_density=0.004)
    return build_network(nodes, airports, table, D=200, alpha=1e-320, planar=True)


def underflow_world():
    """Four nodes whose row 0 has an outflow of 1e300 and a flow of 1e-30,
    whose rate 1e-330 underflows to 0, and whose row 1 has an outflow of 2
    and a flow of 5e-324, whose rate rounds to 0; node 3 has no outflow."""
    ground = sp.csr_matrix(np.array([[0.0, 1e300, 1e-30, 0.0], [2.0, 0.0, 0.0, 5e-324],
                                     [0.0, 3.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.0]]))
    return FlowMatrix(ground, np.zeros(4, int), np.zeros((1, 1)), np.full(4, 100.0))


def unsorted(mat):
    """A copy of a CSR matrix with each row's entries in reverse column order."""
    mat = mat.tocsr().sorted_indices()
    order = np.concatenate([np.arange(hi - 1, lo - 1, -1, dtype=int)
                            for lo, hi in zip(mat.indptr[:-1], mat.indptr[1:])])
    return sp.csr_matrix((mat.data[order], mat.indices[order], mat.indptr.copy()),
                         shape=mat.shape)


class TestRatesMatchSparseProduct:
    """FlowMatrix.rates, assembled on flows' own index arrays, against the
    sparse product diag(1 / outflow) @ flows it replaced
    (rates_sparse_product in tests/oracles.py): the same (i, j) entries with
    the same bits, each row compared in column order."""

    @staticmethod
    def check(netm):
        flows = netm.flows
        before = [a.copy() for a in (flows.data, flows.indices, flows.indptr)]
        got, ref = netm.rates.sorted_indices(), rates_sparse_product(netm).sorted_indices()
        assert np.array_equal(got.indptr, ref.indptr)
        assert np.array_equal(got.indices, ref.indices)
        assert got.data.view(np.uint64).tolist() == ref.data.view(np.uint64).tolist()
        for a, b in zip(before, (flows.data, flows.indices, flows.indptr)):
            assert a.tobytes() == b.tobytes()  # flows is not edited
        return netm.rates

    @pytest.mark.parametrize("planar", [True, False])
    def test_synthetic_worlds_share_the_index_arrays_of_flows(self, planar):
        nodes, airports, table = synth_world(300, 3, seed=31, grid_spacing_km=20.0)
        netm = build_network(nodes, airports, table, D=100 if planar else 300, alpha=0.11,
                             planar=planar)
        rates = self.check(netm)
        assert netm.ground.nnz and netm.air.nnz and rates.nnz == netm.flows.nnz
        assert np.shares_memory(rates.indices, netm.flows.indices)
        assert np.shares_memory(rates.indptr, netm.flows.indptr)
        assert rates.has_sorted_indices

    def test_subnormal_outflow_rows_are_divided(self):
        netm = subnormal_world()
        with np.errstate(over="ignore"):
            assert np.isinf(1.0 / netm.outflow[netm.outflow > 0]).all()
        rates = self.check(netm)
        assert np.isfinite(rates.data).all() and rates.nnz == netm.flows.nnz
        assert np.shares_memory(rates.indices, netm.flows.indices)

    def test_products_that_underflow_to_zero_are_dropped(self):
        netm = underflow_world()
        rates = self.check(netm)
        assert netm.flows.nnz == 6 and rates.nnz == 4
        assert rates[0, 2] == 0.0 and rates[1, 3] == 0.0
        assert not np.shares_memory(rates.indices, netm.flows.indices)
        assert not np.shares_memory(rates.indptr, netm.flows.indptr)

    def test_random_airport_worlds(self):
        rng = np.random.default_rng(65)
        for _ in range(20):
            self.check(random_airport_net(rng, int(rng.integers(1, 60)),
                                          float(rng.uniform(0, 0.6))))


class TestEdgeExportBlocks:
    """export_network, a block of whole source rows at a time, with blocks
    of 1, 7 and 2**20 entries, against the per-edge writer
    (export_network_per_edge in tests/oracles.py), byte for byte."""

    @staticmethod
    def zero_outflow_world():
        # airport 1 sends nothing, so its nodes 3..5, the last ones, have no
        # outflow; no ground range
        nodes = nodes_of(planar_node(i, 100.0 * i, 0, 100.0 + i) for i in range(6))
        airports = airports_of([AirportRecord(0, 0, 0), AirportRecord(1, 0, 500)])
        return build_network(nodes, airports, air_table(airports, {(0, 1): 40.0}),
                             D=1, alpha=0.11, planar=True)

    @staticmethod
    def unsorted_world():
        # the four matrices with each row in reverse column order
        netm = build_synth_net(seed=4, n=60, k=2)
        mats = [unsorted(m) for m in (netm.flows, netm.ground, netm.air, netm.rates)]
        assert not any(m.has_sorted_indices for m in mats)
        netm.flows, netm.ground, netm.air, netm.rates = mats
        return netm

    WORLDS = {
        "synthetic": lambda: build_synth_net(seed=5, n=60, k=3),
        "zero_outflow_rows_last": zero_outflow_world,
        "one_node": lambda: build_network(*synth_world(1, 1, seed=2), D=100, alpha=0.11,
                                          planar=True),
        "underflow": underflow_world,
        "unsorted_indices": unsorted_world,
    }

    @pytest.mark.parametrize("rows", [1, 7, 1 << 20])
    @pytest.mark.parametrize("world", sorted(WORLDS))
    def test_blocks_match_per_edge_writer(self, tmp_path, monkeypatch, rows, world):
        netm = self.WORLDS[world]()
        monkeypatch.setattr(net, "_EDGE_ROWS", rows)
        net.export_network(netm, tmp_path / "edges.csv", tmp_path / "rho.txt")
        export_network_per_edge(netm, tmp_path / "ref_edges.csv", tmp_path / "ref_rho.txt")
        assert (tmp_path / "edges.csv").read_bytes() == \
            (tmp_path / "ref_edges.csv").read_bytes()
        assert (tmp_path / "rho.txt").read_bytes() == (tmp_path / "ref_rho.txt").read_bytes()
        counts = np.diff(netm.flows.indptr)
        if world == "synthetic":  # rows longer than a block of 7, the last row not empty
            assert counts.max() > 7 and counts[-1] > 0
        if world == "zero_outflow_rows_last":
            assert counts.tolist() == [3, 3, 3, 0, 0, 0]


class TestExplicitMatrixMemory:
    """Peak traced memory of the explicit matrices once flows is assembled:
    rates holds one array of nnz floats and O(n) more, and the edge export
    no array of nnz entries."""

    @staticmethod
    def peak(fn):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    def test_rates_assembly_holds_one_float_array_of_flows(self):
        netm = build_synth_net(seed=44, n=1000, k=5)
        flows = netm.flows
        assert flows.nnz > 900_000
        assert self.peak(lambda: netm.rates) <= flows.data.nbytes + 64 * netm.n

    def test_edge_export_holds_no_array_of_flow_entries(self, tmp_path, monkeypatch):
        # ground flows only, about 95 a node, so that tracing the export is
        # quick; a block of 64 entries keeps one block's texts far below the
        # bound, which an int32 array of nnz entries alone exceeds
        nodes, airports, table = synth_world(1000, 5, seed=44, air_fraction=0.0)
        netm = build_network(nodes, airports, table, D=300, alpha=0.11, planar=True)
        flows, _, _ = netm.flows, netm.air, netm.rates
        nbytes = flows.data.nbytes + flows.indices.nbytes + flows.indptr.nbytes
        assert flows.nnz > 90_000
        monkeypatch.setattr(net, "_EDGE_ROWS", 64)
        peak = self.peak(lambda: net.export_network(netm, tmp_path / "edges.csv",
                                                    tmp_path / "rho.txt"))
        assert peak < nbytes / 4


class TestWriteTable:
    """net._write_table, and net._write_blocks over the same rows cut into
    blocks, against csv.writer (write_table_csv in tests/oracles.py):
    byte-equal files on random tables of float reprs, integers and blank
    fields, with and without rows."""

    FLOATS = [repr(v) for v in (0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16,
                                1e+16 + 2, 2.2250738585072009e-308, 0.1, -1.5, 1e300,
                                1.7976931348623157e308)]
    INTS = [str(v) for v in (0, -1, 7, -12345, 2 ** 53 + 1, 2 ** 63 - 1, -2 ** 63)]

    def column(self, rng, kind, rows):
        if kind == "float":
            drawn = rng.integers(0, 2 ** 64, rows, dtype=np.uint64).view(np.float64)
            texts = [repr(v) for v in drawn.tolist()]
            pool = self.FLOATS
        elif kind == "int":
            drawn = rng.integers(-2 ** 63, 2 ** 63 - 1, rows, dtype=np.int64, endpoint=True)
            texts, pool = list(map(str, drawn.tolist())), self.INTS
        else:
            texts, pool = [""] * rows, self.FLOATS
        # about half the fields from the pool of edge cases
        return [pool[int(rng.integers(len(pool)))] if rng.random() < 0.5 else t
                for t in texts]

    def test_random_tables(self, tmp_path):
        rng = np.random.default_rng(19)
        for case in range(120):
            width = int(rng.integers(2, 9))
            rows = int(rng.integers(1, 40)) if case % 4 else 0
            # blank fields only in rows of three or more columns
            kinds = rng.choice(["float", "int", "blank"] if width >= 3 else ["float", "int"],
                               width)
            columns = [self.column(rng, kind, rows) for kind in kinds]
            header = [f"c{c}" for c in range(width)]
            write_table_csv(tmp_path / "want.csv", header, zip(*columns))
            want = (tmp_path / "want.csv").read_bytes()
            net._write_table(tmp_path / "got.csv", header, columns)
            assert (tmp_path / "got.csv").read_bytes() == want
            cuts = [0, *sorted(rng.integers(0, rows + 1, 3).tolist()), rows]
            net._write_blocks(tmp_path / "blocks.csv", header,
                              ([c[lo:hi] for c in columns] for lo, hi in zip(cuts, cuts[1:])))
            assert (tmp_path / "blocks.csv").read_bytes() == want


class TestAirFlowsWriter:
    """write_air_flows, from the m x m array, against the writer of
    AirFlowTable.entries in tests/oracles.py: byte-equal files."""

    @staticmethod
    def check(table, tmp_path):
        net.write_air_flows(table, tmp_path / "flows.csv")
        write_air_flows_entries(table, tmp_path / "ref.csv")
        assert (tmp_path / "flows.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("n,seed", [(1, 0), (40, 3), (400, 8)])
    def test_synthetic_tables(self, tmp_path, n, seed):
        self.check(synth_world(n, 1, seed=seed)[2], tmp_path)

    def test_signed_zeros_subnormals_and_extremes(self, tmp_path):
        rng = np.random.default_rng(5)
        values = [0.0, -0.0, 5e-324, 2.2250738585072009e-308, 1e-300, 0.1,
                  1.7976931348623157e308, 3.0]
        g = rng.choice(values, size=(9, 9))
        np.fill_diagonal(g, 0.0)
        table = AirFlowTable([2, 3, 5, 7, 11, 13, 17, 19, 1000], g)
        self.check(table, tmp_path)
        text = (tmp_path / "flows.csv").read_bytes()
        assert b",-0.0\r\n" in text and b",5e-324\r\n" in text


# each build-net reader, its header, a good row, and a float and an int column
NET_READERS = {
    "nodes": (net.read_nodes, "id,lat,lon,population,agent_id", "0,1.5,2.5,100.0,0",
              "lat", "id"),
    "airports": (net.read_airports, "id,lat,lon", "0,1.5,2.5", "lat", "id"),
    "flights": (lambda path: net.read_air_flows(path, airports_of(
        [AirportRecord(0, 0.0, 0.0), AirportRecord(1, 5.0, 5.0)])),
        "origin,destination,flow", "0,1,5.0", "flow", "origin"),
}


def _with_field(header, row, column, value):
    """``row`` with the field of ``column`` set to ``value``."""
    fields = row.split(",")
    fields[header.split(",").index(column)] = value
    return ",".join(fields)


def _fault_cases(header, row, float_col, int_col):
    """(file bytes, expected text) of each fault, as in
    test_read_table_names_the_line_of_a_fault."""
    second = header.split(",")[1]
    first = row.split(",")[0]
    bad = _with_field(header, row, float_col, "x")
    huge = "9" * 30
    return {
        "short row": (f"{header}\n{row}\n{first}\n",
                      f"the row on line 3 has no field for column {second}"),
        "field unparsable": (f"{header}\r\n{row}\r\n{bad}\r\n",
                             f"'x' on line 3, column {float_col}, is not a number"),
        "short row after blank lines": (f"{header}\n\n{row}\n\n{first}\n",
                                        f"the row on line 5 has no field for column {second}"),
        "field unparsable after blank lines": (
            f"{header}\r\n\r\n{row}\r\n\r\n\r\n{_with_field(header, row, float_col, '?')}\r\n",
            f"'?' on line 6, column {float_col}, is not a number"),
        "\\r line endings": (f"{header}\r{row}\r{bad}\r", f"on line 3, column {float_col},"),
        "integer past int64": (f"{header}\n{row}\n{_with_field(header, row, int_col, huge)}\n",
                               f"'{huge}' on line 3, column {int_col}, is not a 64-bit "
                               "integer"),
        "not UTF-8 before the header": (b"\xff" + f"{header}\n{row}\n".encode(),
                                        "byte 0xff on line 1 is not UTF-8 text"),
        "not UTF-8 in a row": (f"{header}\r\n{row}\r\n{row}".encode() + b"\xff\r\n",
                               "byte 0xff on line 3 is not UTF-8 text"),
        "not UTF-8 past 8 KB": (f"{header}\n".encode() + f"{row}\n".encode() * 5000
                                + b"\xfe\n", "byte 0xfe on line 5002 is not UTF-8 text"),
    }


# each reader's fault in a row that parses, after blank lines
SEMANTIC_FAULTS = {
    "nodes": ("id,lat,lon,population,agent_id\n\n0,1.5,2.5,100.0,0\n\n2,1.5,2.5,100.0,0\n",
              "the row on line 5 has node id 2; ids must be 0..n-1 in row order"),
    "airports": ("id,lat,lon\r\n\r\n0,1.5,2.5\r\n1,3.0,4.0\r\n\r\n0,5.0,6.0\r\n",
                 "airport id 0 on line 6 appears on an earlier line too"),
    "flights": ("origin,destination,flow\n\n0,1,5.0\n\n\n1,1,5.0\n",
                "on line 6, air flow 1->1 must join two different airports"),
}


@pytest.mark.parametrize("case", sorted(_fault_cases("a,b", "0,2", "b", "a"))
                         + ["semantic fault after blank lines"])
@pytest.mark.parametrize("reader", sorted(NET_READERS))
def test_net_readers_name_the_line_of_a_fault(tmp_path, reader, case):
    """The cases of test_read_table_names_the_line_of_a_fault, and an id past
    int64, against the three build-net input readers: the message names the
    file, the line and the field or byte. A row that parses but that the
    reader refuses is named by its line too."""
    read, *layout = NET_READERS[reader]
    text, fault = {**_fault_cases(*layout),
                   "semantic fault after blank lines": SEMANTIC_FAULTS[reader]}[case]
    path = tmp_path / "t.csv"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    with pytest.raises(ValueError) as exc:
        read(path)
    assert str(exc.value).startswith(f"{path}: ") and fault in str(exc.value)


@pytest.mark.parametrize("text", [b"", b"\n\r\n", None])
@pytest.mark.parametrize("reader", sorted(NET_READERS))
def test_net_readers_warn_of_no_empty_file(tmp_path, reader, text):
    """An empty or blank file lacks the header's columns, and a header
    without rows reads as no rows; neither warns, so the CLI prints one line."""
    read, header, *_ = NET_READERS[reader]
    path = tmp_path / "t.csv"
    path.write_bytes(f"{header}\n".encode() if text is None else text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if text is None:
            read(path)
        else:
            with pytest.raises(ValueError, match="header lacks column"):
                read(path)


class TestReadersMatchCsvModule:
    """read_nodes, read_airports and read_air_flows against the same readers
    over the csv-module reader in tests/oracles.py: equal dtypes and bit-equal
    columns, on written worlds and on hand-formatted files."""

    @staticmethod
    def columns(obj):
        names = {net.Nodes: ("lat", "lon", "population", "agent_id"),
                 net.Airports: ("ids", "lat", "lon"), AirFlowTable: ("ids", "g")}
        return [getattr(obj, name) for name in names[type(obj)]]

    def check(self, monkeypatch, paths):
        nodes, airports, flights = paths
        new = [net.read_nodes(nodes), net.read_airports(airports)]
        new.append(net.read_air_flows(flights, new[1]))
        monkeypatch.setattr(net, "_read_columns", read_columns_csv)
        old = [net.read_nodes(nodes), net.read_airports(airports)]
        old.append(net.read_air_flows(flights, old[1]))
        for a, b in zip(new, old):
            for x, y in zip(self.columns(a), self.columns(b)):
                assert x.dtype == y.dtype and x.shape == y.shape
                assert x.tobytes() == y.tobytes()
                assert x.flags.c_contiguous

    @pytest.mark.parametrize("n,seed", [(1, 0), (60, 3), (500, 9)])
    def test_written_worlds(self, tmp_path, monkeypatch, n, seed):
        nodes, airports, table = synth_world(n, 1, seed=seed)
        paths = [tmp_path / name for name in ("nodes.csv", "airports.csv", "flows.csv")]
        net.write_nodes(nodes, paths[0])
        net.write_airports(airports, paths[1])
        net.write_air_flows(table, paths[2])
        self.check(monkeypatch, paths)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_hand_formatted_files(self, tmp_path, monkeypatch, newline):
        # quoted fields, blank lines, an extra column that holds a comma,
        # doubled quotes and a line break, and the columns in another order
        rng = np.random.default_rng(len(newline))
        n = 30
        extreme = [-0.0, 5e-324, 1e-300, 1.7976931348623157e308, -123.456, 0.1]
        columns = {
            "nodes.csv": {"id": [str(i) for i in range(n)],
                          "lat": [repr(v) for v in rng.choice(extreme, n).tolist()],
                          "lon": [repr(v) for v in rng.uniform(-180, 180, n).tolist()],
                          "population": [repr(v) for v in rng.choice(extreme[1:4], n).tolist()],
                          "agent_id": [str(i % 4) for i in range(n)]},
            "airports.csv": {"id": ["7", "3", "12"], "lat": ["-0.0", "1e-320", "45.5"],
                             "lon": ["0.1", "-0.0", "2.5"]},
            "flows.csv": {"origin": ["3", "12", "7", "3"], "destination": ["7", "3", "12", "7"],
                          "flow": ["1e-320", "-0.0", "2.5", "0.1"]},
        }
        paths = []
        for name, table in columns.items():
            names = ["note", *table][::-1]
            rows = len(next(iter(table.values())))
            table["note"] = ['x, "y"' + newline + "z"] * rows
            lines = [",".join(f'"{c}"' for c in names)]
            for k in range(rows):
                lines.append(",".join('"' + table[c][k].replace('"', '""') + '"'
                                      if k % 2 or c == "note" else table[c][k]
                                      for c in names))
                if k % 3 == 0:
                    lines.append("")
            path = tmp_path / name
            path.write_bytes((newline.join(lines) + newline).encode())
            paths.append(path)
        self.check(monkeypatch, paths)


def test_build_does_not_import_scipy_spatial():
    # scipy.spatial alone adds about 14 MiB to the resident set
    code = ("import sys, vaxalloc; "
            "vaxalloc.build_instance(vaxalloc.ScenarioConfig(n_nodes=300, n_agents=3)); "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.spatial')))")
    src = str(Path(vaxalloc.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout.strip() == "[]"


# bit patterns a value-keyed dedupe would merge or mishandle: both zeros,
# NaNs of both signs and other payloads, infinities, subnormals
SPECIAL_BITS = [0x0, 0x8000000000000000, 0x7FF8000000000000, 0xFFF8000000000000,
                0x7FF0000000000001, 0x7FF8000000000123, 0x7FF0000000000000,
                0xFFF0000000000000, 0x1, 0x8000000000000001, 0x000FFFFFFFFFFFFF,
                0x0010000000000000, 0x3FF0000000000000, 0x3FB999999999999A]


@settings(max_examples=300, deadline=None)
@given(bits=st.lists(st.sampled_from(SPECIAL_BITS) | st.integers(0, 2 ** 64 - 1),
                     max_size=60))
def test_reprs_is_repr_of_each_value(bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    assert net._reprs(values) == [repr(v) for v in values.tolist()]
    assert net._reprs(values[::-1].reshape(-1, 1)) == \
        [repr(v) for v in values[::-1].tolist()]
