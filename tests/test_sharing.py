from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as hst

from vaxalloc.epi import CompartmentState, EpiParams
from vaxalloc.net import FlowMatrix, build_network, synth_world
from vaxalloc.sharing import (AgentCoupling, infected_flow_matrix,
                              infection_split, plan_sharing, redistribute,
                              sharing_ratios)

from oracles import (agent_inflows_split, infected_flow_matrix_add_at,
                     infected_flow_matrix_scatter, infection_split_add_at,
                     own_inflow, per_agent)
from worlds import random_airport_net


def two_node_net(rho_target=0.11):
    """Two fully coupled nodes; flows scaled so rho comes out as requested."""
    pops = np.array([1000.0, 1000.0])
    flow = rho_target * pops.sum() / 2.0
    ground = sp.csr_matrix(np.array([[0.0, flow], [flow, 0.0]]))
    return FlowMatrix(ground, np.zeros(2, int), np.zeros((1, 1)), pops)


def make_state(i_vals, s_vals=None):
    i = np.asarray(i_vals, dtype=float)
    s = np.full_like(i, 0.7) if s_vals is None else np.asarray(s_vals, dtype=float)
    r = 1.0 - s - i
    return CompartmentState(s=s, i=i, r=r, d=np.zeros_like(i), t=0)


def make_params(n, beta=0.3, gamma=0.1):
    return EpiParams(beta=np.full(n, beta), gamma=np.full(n, gamma),
                     cfr=np.full(n, 0.01))


def split_of(state, params, net, agent_of, k):
    into = infected_flow_matrix(state, net, AgentCoupling(net, agent_of, k))
    return infection_split(state, params, agent_of, into)


def flows_of(state, net, agent_of, k):
    """The infected-flow matrix that plan_sharing hands to redistribute."""
    return plan_sharing(state, make_params(net.n), net, agent_of, np.ones(k),
                        np.ones(k), AgentCoupling(net, agent_of, k)).infected_flows


class TestInfectionSplit:
    def test_single_agent_no_external(self):
        net = two_node_net()
        internal, external = split_of(make_state([0.1, 0.2]), make_params(2), net,
                                      np.array([0, 0]), 1)
        assert np.all(external == 0.0)
        assert np.all(internal > 0.0)

    def test_no_mobility_local_terms_only(self):
        net = FlowMatrix(sp.csr_matrix((2, 2)), np.zeros(2, int), np.zeros((1, 1)),
                         np.array([1000.0, 1000.0]))
        st = make_state([0.1, 0.2])
        p = make_params(2)
        internal, external = split_of(st, p, net, np.array([0, 1]), 2)
        assert np.all(external == 0.0)
        expect = st.i + p.beta * st.s * st.i - p.gamma * st.i
        assert np.allclose(internal, expect, atol=1e-15)

    def test_cross_agent_hand_value(self):
        net = two_node_net(rho_target=0.11)
        assert net.rho == pytest.approx(0.11)
        internal, external = split_of(make_state([0.1, 0.2]), make_params(2), net,
                                      np.array([0, 1]), 2)
        assert external[0] == pytest.approx(0.11 * 0.2, abs=1e-12)
        assert external[1] == pytest.approx(0.11 * 0.1, abs=1e-12)


class TestSharingRatios:
    def test_zero_external(self):
        r = sharing_ratios([0.3], [0.0])
        assert r[0] == 0.0

    def test_ratio_arithmetic(self):
        r = sharing_ratios([0.08], [0.02])
        assert r[0] == pytest.approx(0.2)

    def test_all_external_boundary(self):
        r = sharing_ratios([0.0], [0.05])
        assert r[0] == 1.0

    def test_no_infections_defined_as_zero(self):
        r = sharing_ratios([0.0, 0.0], [0.0, 0.0])
        assert np.all(r == 0.0)


class TestInfectedFlowMatrix:
    def test_no_infections(self):
        net = two_node_net()
        mat = flows_of(make_state([0.0, 0.0]), net, np.array([0, 1]), 2)
        assert np.all(mat == 0.0)

    def test_single_cross_edge_hand_value(self):
        pops = np.array([1000.0, 1000.0])
        flow = 0.11 * pops.sum()  # one directed edge carrying all flow
        ground = sp.csr_matrix(np.array([[0.0, flow], [0.0, 0.0]]))
        net = FlowMatrix(ground, np.zeros(2, int), np.zeros((1, 1)), pops)
        assert net.rho == pytest.approx(0.11)
        mat = flows_of(make_state([0.0, 0.3]), net, np.array([0, 1]), 2)
        # node 0 (agent 0) sees agent 1's infections: M[1, 0]
        assert mat[1, 0] == pytest.approx(0.033, abs=1e-12)
        assert mat[0, 1] == 0.0

    def test_zero_diagonal(self):
        rng = np.random.default_rng(4)
        n = 12
        dense = rng.uniform(0, 100, (n, n))
        np.fill_diagonal(dense, 0.0)
        net = FlowMatrix(sp.csr_matrix(dense), np.zeros(n, int), np.zeros((1, 1)),
                         rng.uniform(500, 2000, n))
        mat = flows_of(make_state(rng.uniform(0, 0.2, n)), net,
                       rng.integers(0, 3, n), 3)
        assert np.all(np.diag(mat) == 0.0)


class TestRedistribute:
    def test_no_sharing_identity(self):
        b = np.array([5.0, 7.0, 3.0])
        out = redistribute(b, np.zeros(3), np.zeros((3, 3)), np.ones(3))
        assert np.array_equal(out, b)

    def test_single_receiver_hand_value(self):
        flows = np.zeros((2, 2))
        flows[1, 0] = 0.05  # agent 1's infections flow into agent 0
        out = redistribute(np.array([10.0, 10.0]), np.array([0.2, 0.0]),
                           flows, np.array([0.3, 0.3]))
        assert out[0] == pytest.approx(8.0)
        assert out[1] == pytest.approx(12.0)
        assert out.sum() == pytest.approx(20.0)

    def test_budget_balance_random(self):
        rng = np.random.default_rng(9)
        for _ in range(1000):
            k = int(rng.integers(2, 6))
            b = rng.uniform(0, 100, k)
            r = rng.uniform(0, 1, k)
            flows = rng.uniform(0, 1, (k, k)) * (rng.random((k, k)) < 0.5)
            np.fill_diagonal(flows, 0.0)
            caps = rng.uniform(0.01, 1, k)
            out = redistribute(b, r, flows, caps)
            assert out.sum() == pytest.approx(b.sum(), rel=1e-9)
            assert np.all(out >= -1e-12)

    @settings(max_examples=200, deadline=None)
    @given(hst.integers(1, 6).flatmap(lambda k: hst.tuples(
        hst.lists(hst.floats(0.0, 1e6), min_size=k, max_size=k),
        hst.lists(hst.floats(0.0, 1.0), min_size=k, max_size=k),
        hst.lists(hst.floats(0.0, 1.0), min_size=k * k, max_size=k * k),
        hst.lists(hst.floats(1e-3, 1.0), min_size=k, max_size=k))))
    def test_budget_balance_property(self, drawn):
        b, r, flows, caps = (np.array(v) for v in drawn)
        k = len(b)
        flows = flows.reshape(k, k)
        np.fill_diagonal(flows, 0.0)
        out = redistribute(b, r, flows, caps)
        assert out.sum() == pytest.approx(b.sum(), rel=1e-12, abs=0)
        assert np.all(out >= 0.0)

    def test_degenerate_offer_retained(self):
        # agent 0 offers but nobody's infections flow into it
        out = redistribute(np.array([10.0, 10.0]), np.array([0.5, 0.0]),
                           np.zeros((2, 2)), np.array([0.5, 0.5]))
        assert np.array_equal(out, [10.0, 10.0])

    def test_lower_capacity_receives_more(self):
        flows = np.zeros((3, 3))
        flows[1, 0] = 0.05
        flows[2, 0] = 0.05
        b = np.array([10.0, 0.0, 0.0])
        r = np.array([0.5, 0.0, 0.0])
        base = redistribute(b, r, flows, np.array([1.0, 0.4, 0.4]))
        poorer = redistribute(b, r, flows, np.array([1.0, 0.2, 0.4]))
        assert poorer[1] > base[1]
        assert poorer.sum() == pytest.approx(base.sum())

    def test_input_validation(self):
        with pytest.raises(ValueError):
            redistribute(np.array([1.0]), np.array([0.0]), np.zeros((1, 1)),
                         np.array([0.0]))
        with pytest.raises(ValueError):
            redistribute(np.array([-1.0]), np.array([0.0]), np.zeros((1, 1)),
                         np.array([0.5]))

    @pytest.mark.parametrize("budget,capacity,field", [(np.nan, 0.5, "budget"),
                                                       (1.0, np.nan, "capacit")])
    def test_nan_is_rejected(self, budget, capacity, field):
        with pytest.raises(ValueError, match=field):
            redistribute(np.array([budget]), np.array([0.0]), np.zeros((1, 1)),
                         np.array([capacity]))


def test_plan_sharing_end_to_end():
    net = two_node_net(rho_target=0.11)
    agent_of = np.array([0, 1])
    plan = plan_sharing(make_state([0.1, 0.2]), make_params(2), net,
                        agent_of, np.array([10.0, 10.0]),
                        np.array([0.3, 0.3]), AgentCoupling(net, agent_of, 2))
    assert plan.infected_flows[0, 0] == 0.0
    assert plan.budgets_out.sum() == pytest.approx(20.0, rel=1e-9)
    assert np.all(plan.ratios >= 0) and np.all(plan.ratios <= 1)


def test_infected_flow_matrix_sums_as_add_at():
    """The (agent of j, k) sums by bincount, bit for bit as np.add.at sums
    them, over couplings from 1e-300 to 1e300."""
    rng = np.random.default_rng(33)
    for _ in range(200):
        n = int(rng.integers(1, 3001))
        k = int(rng.integers(1, 8))
        agent_of = rng.integers(0, k, n)
        c = 10.0 ** rng.uniform(-300, 300, (n, k))
        # a stand-in network whose transposed product is the drawn coupling
        net = SimpleNamespace(rho=float(rng.uniform(0, 1)), rates_t_dot=lambda mask, c=c: c)
        coupling = AgentCoupling(net, agent_of, k)
        state = make_state(rng.uniform(0, 0.2, n))
        got = infected_flow_matrix(state, net, coupling)
        want = infected_flow_matrix_scatter(state, net, agent_of, c)
        assert got.tobytes() == want.tobytes()


def test_coupling_own_column_is_own_inflow():
    """The coupling's own-agent column, which the loss coefficients read,
    is the per-node own-agent inflow of one masked product, bit for bit."""
    for net, agent_of, k, _ in TestCouplingMatchesAddAt.cases():
        c = AgentCoupling(net, agent_of, k).c
        want = own_inflow(net, [np.flatnonzero(agent_of == a) for a in range(k)])
        assert c[np.arange(net.n), agent_of].tobytes() == want.tobytes()


class TestCouplingMatchesAddAt:
    """The per-agent split and infected-flow matrix from the static coupling
    against the per-period np.add.at path over the explicit rates, and
    against the 2K-column product it replaced, each summed per agent. They
    add in other orders, so they agree to a few ulps."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(31)
        for _ in range(25):
            n = int(rng.integers(2, 40))
            net = random_airport_net(rng, n, ground_density=0.6)
            k = int(rng.integers(1, 6))
            yield net, rng.integers(0, k, n), k, rng
        nodes, airports, table = synth_world(150, 4, seed=32)
        net = build_network(nodes, airports, table, D=100, alpha=0.11, planar=True)
        yield net, np.array([nd.agent_id for nd in nodes]), 4, rng

    @staticmethod
    def epidemic(net, rng):
        st = make_state(rng.uniform(0, 0.2, net.n), rng.uniform(0.5, 0.8, net.n))
        p = EpiParams(beta=rng.uniform(0.2, 0.5, net.n),
                      gamma=rng.uniform(0.1, 0.2, net.n), cfr=np.full(net.n, 0.01))
        return st, p

    def test_infection_split_bitwise(self):
        for net, agent_of, k, rng in self.cases():
            st, p = self.epidemic(net, rng)
            fast_in, fast_ex = split_of(st, p, net, agent_of, k)
            ref_in, ref_ex = infection_split_add_at(st, p, net, agent_of)
            old_in, old_ex, _ = agent_inflows_split(st, p, net, agent_of, k)
            for ref, old, fast in ((ref_in, old_in, fast_in), (ref_ex, old_ex, fast_ex)):
                np.testing.assert_allclose(fast, per_agent(ref, agent_of, k),
                                           rtol=1e-13, atol=0)
                np.testing.assert_allclose(fast, per_agent(old, agent_of, k),
                                           rtol=1e-13, atol=0)

    def test_infected_flow_matrix_close(self):
        for net, agent_of, k, rng in self.cases():
            st, p = self.epidemic(net, rng)
            mat = flows_of(st, net, agent_of, k)
            np.testing.assert_allclose(
                mat, infected_flow_matrix_add_at(st, net, agent_of, k),
                rtol=1e-13, atol=0)
            np.testing.assert_allclose(mat, agent_inflows_split(st, p, net, agent_of, k)[2],
                                       rtol=1e-13, atol=0)
            assert np.all(np.diag(mat) == 0.0)

    def test_faint_cross_agent_flow_keeps_its_digits(self):
        """Two agents joined by a flow about 1e-12 of each one's internal
        pressure: the external pressure is summed from the cross-agent
        entries, not taken as a total minus the own part, so it keeps the
        add_at path's digits."""
        rng = np.random.default_rng(36)
        n = 40
        agent_of = np.repeat([0, 1], n // 2)
        dense = rng.uniform(10, 100, (n, n))
        np.fill_diagonal(dense, 0.0)
        dense[agent_of[:, None] != agent_of] *= 1e-12
        net = FlowMatrix(sp.csr_matrix(dense), np.zeros(n, int), np.zeros((1, 1)),
                         rng.uniform(500, 2000, n))
        st, p = self.epidemic(net, rng)
        internal, external = split_of(st, p, net, agent_of, 2)
        ref_in, ref_ex = infection_split_add_at(st, p, net, agent_of)
        assert np.all(external < 1e-10 * internal)
        np.testing.assert_allclose(internal, per_agent(ref_in, agent_of, 2),
                                   rtol=1e-13, atol=0)
        np.testing.assert_allclose(external, per_agent(ref_ex, agent_of, 2),
                                   rtol=1e-13, atol=0)
        np.testing.assert_allclose(flows_of(st, net, agent_of, 2),
                                   infected_flow_matrix_add_at(st, net, agent_of, 2),
                                   rtol=1e-13, atol=0)
