import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as hst

from vaxalloc.epi import (CompartmentState, EpidemicInstabilityError, EpiParams,
                          step, step_vaccinated)
from vaxalloc.net import FlowMatrix, NodeRecord, build_network, synth_world

from oracles import step_vaccinated_three_products
from worlds import random_airport_net


def isolated_net(n=1):
    return FlowMatrix(sp.csr_matrix((n, n)), np.zeros(n, int), np.zeros((1, 1)),
                      np.full(n, 1000.0))


def two_node_net(f01=100.0, f10=100.0, pops=(1000.0, 1000.0)):
    ground = sp.csr_matrix(np.array([[0.0, f01], [f10, 0.0]]))
    return FlowMatrix(ground, np.zeros(2, int), np.zeros((1, 1)), np.asarray(pops))


def params(n, beta=0.5, gamma=0.1, cfr=0.01):
    return EpiParams(beta=np.full(n, beta), gamma=np.full(n, gamma),
                     cfr=np.full(n, cfr))


def state(s, i, r=None, d=None, t=0):
    s = np.atleast_1d(np.asarray(s, dtype=float))
    i = np.atleast_1d(np.asarray(i, dtype=float))
    r = np.zeros_like(s) if r is None else np.atleast_1d(np.asarray(r, dtype=float))
    d = 1.0 - s - i - r if d is None else np.atleast_1d(np.asarray(d, dtype=float))
    return CompartmentState(s=s, i=i, r=r, d=d, t=t)


class TestStep:
    def test_disease_free_equilibrium(self):
        st = state([1.0], [0.0])
        out = step(st, params(1), isolated_net())
        assert out.s[0] == 1.0 and out.i[0] == 0.0
        assert out.r[0] == 0.0 and out.d[0] == 0.0

    def test_isolated_node_hand_values(self):
        st = state([0.99], [0.01])
        out = step(st, params(1), isolated_net())
        assert out.s[0] == pytest.approx(0.98505, abs=1e-12)
        assert out.i[0] == pytest.approx(0.01395, abs=1e-12)
        assert out.r[0] == pytest.approx(0.00099, abs=1e-12)
        assert out.d[0] == pytest.approx(0.00001, abs=1e-12)
        assert out.t == 1

    def test_symmetric_nodes_match_isolated(self):
        st2 = state([0.99, 0.99], [0.01, 0.01])
        out2 = step(st2, params(2), two_node_net())
        st1 = state([0.99], [0.01])
        out1 = step(st1, params(1), isolated_net())
        assert out2.s[0] == pytest.approx(out1.s[0], abs=1e-15)
        assert out2.i[1] == pytest.approx(out1.i[0], abs=1e-15)

    def test_mobility_mixes_states(self):
        st = state([1.0, 0.9], [0.0, 0.1])
        netm = two_node_net()
        out = step(st, params(2, beta=0.0), netm)
        # node 0 starts infection-free, so it only imports: rho * p01 * I1
        assert out.i[0] == pytest.approx(netm.rho * 1.0 * 0.1, rel=1e-9)


class TestStepVaccinated:
    def test_zero_allocation_bitwise_reduction(self):
        nodes, airports, table = synth_world(60, 3, seed=8)
        netm = build_network(nodes, airports, table, D=100, alpha=0.11, planar=True)
        n = netm.n
        st = state(np.full(n, 0.95), np.full(n, 0.02), np.full(n, 0.03))
        a = step(st, params(n), netm)
        b = step_vaccinated(st, params(n), netm, np.zeros(n), np.zeros(n))
        assert np.array_equal(a.s, b.s) and np.array_equal(a.i, b.i)
        assert np.array_equal(a.r, b.r) and np.array_equal(a.d, b.d)

    def test_perfect_vaccination(self):
        st = state([0.99], [0.01])
        out = step_vaccinated(st, params(1, beta=0.0), isolated_net(),
                              np.array([1.0]), np.array([1.0]))
        assert out.s[0] == 0.0
        assert out.i[0] == pytest.approx(0.9 * 0.01)
        assert out.r[0] == pytest.approx(0.99 + 0.1 * 0.01 * 0.99)

    def test_partial_vaccination_hand_values(self):
        st = state([0.99], [0.01])
        out = step_vaccinated(st, params(1), isolated_net(),
                              np.array([1.0]), np.array([0.6]))
        assert out.s[0] == pytest.approx(0.39402, abs=1e-12)
        assert out.r[0] == pytest.approx(0.59499, abs=1e-12)

    def test_allocation_validation(self):
        st = state([0.99], [0.01])
        with pytest.raises(ValueError):
            step_vaccinated(st, params(1), isolated_net(),
                            np.array([1.5]), np.array([0.5]))
        with pytest.raises(ValueError):
            step_vaccinated(st, params(1), isolated_net(),
                            np.array([0.5]), np.array([np.nan]))


class TestFusedMobilityProducts:
    """The step's one factored product over the stacked (sv, i, rv) columns
    against one explicit sparse product per column. The two add in another
    order, so proportions agree to PROPORTION_TOL."""

    PROPORTION_TOL = 1e-15

    @staticmethod
    def cases():
        rng = np.random.default_rng(51)
        for _ in range(25):
            n = int(rng.integers(1, 120))
            yield random_airport_net(rng, n, rho=float(rng.uniform(0.05, 0.5))), rng
        nodes, airports, table = synth_world(150, 4, seed=52)
        yield build_network(nodes, airports, table, D=100, alpha=0.11,
                            planar=True), rng

    def test_matches_three_products(self):
        for netm, rng in self.cases():
            n = netm.n
            s = rng.uniform(0.5, 0.95, n)
            i = rng.uniform(0.0, 0.05, n)
            r = rng.uniform(0.0, 1.0 - s - i)
            st = CompartmentState(s=s, i=i, r=r, d=1.0 - s - i - r, t=3)
            p = EpiParams(beta=rng.uniform(0.2, 0.5, n), gamma=rng.uniform(0.1, 0.2, n),
                          cfr=np.full(n, 0.01))
            x = rng.uniform(0, 1, n) * (rng.random(n) < 0.5)
            theta = rng.uniform(0.5, 0.9, n)
            out = step_vaccinated(st, p, netm, x, theta)
            want = step_vaccinated_three_products(st, p, netm, x, theta)
            for got, ref in zip((out.s, out.i, out.r, out.d), want):
                np.testing.assert_allclose(got, ref, rtol=0,
                                           atol=self.PROPORTION_TOL)


class TestInvariants:
    def run_horizon(self, seed=0, periods=30, vaccinate=False):
        nodes, airports, table = synth_world(80, 3, seed=seed)
        netm = build_network(nodes, airports, table, D=100, alpha=0.11,
                             planar=True)
        n = netm.n
        p = params(n, beta=0.4, gamma=0.15)
        st = state(np.full(n, 0.999), np.full(n, 0.001))
        rng = np.random.default_rng(seed)
        out = [st]
        for _ in range(periods):
            if vaccinate:
                x = rng.uniform(0, 0.2, n)
                th = rng.uniform(0.4, 0.9, n)
                st = step_vaccinated(st, p, netm, x, th)
            else:
                st = step(st, p, netm)
            out.append(st)
        return out

    @settings(max_examples=100, deadline=None)
    @given(seed=hst.integers(0, 2**32 - 1), n=hst.integers(1, 60),
           rho=hst.floats(0.0, 0.5), beta=hst.floats(0.0, 0.5),
           gamma=hst.floats(0.0, 0.5))
    def test_closure_on_random_airport_worlds(self, seed, n, rho, beta, gamma):
        rng = np.random.default_rng(seed)
        netm = random_airport_net(rng, n, rho=rho)
        s, i, r, d = rng.dirichlet(np.ones(4), n).T
        x = rng.uniform(0, 1, n) * (rng.random(n) < 0.5)
        theta = rng.uniform(0, 1, n)
        out = step_vaccinated(state(s, i, r, d), params(n, beta, gamma), netm, x, theta)
        assert np.all(np.abs(out.s + out.i + out.r + out.d - 1.0) <= 1e-12)
        for arr in (out.s, out.i, out.r, out.d):
            assert np.all((arr >= 0.0) & (arr <= 1.0))

    def test_closure_every_period(self):
        for st in self.run_horizon(vaccinate=True):
            total = st.s + st.i + st.r + st.d
            assert np.all(np.abs(total - 1.0) <= 1e-12)

    def test_isolated_death_accrual(self):
        st = state([0.9], [0.08], [0.02])
        p = params(1, beta=0.3, gamma=0.2, cfr=0.05)
        out = step(st, p, isolated_net())
        assert out.d[0] - st.d[0] == pytest.approx(0.05 * 0.2 * 0.08, abs=1e-12)

    def test_monotone_deaths_without_mobility(self):
        n = 5
        netm = isolated_net(n)
        p = params(n, beta=0.6, gamma=0.2)
        st = state(np.full(n, 0.99), np.full(n, 0.01))
        for _ in range(50):
            nxt = step(st, p, netm)
            assert np.all(nxt.d >= st.d - 1e-15)
            st = nxt

    def test_global_susceptible_monotone_without_mobility(self):
        n = 4
        netm = isolated_net(n)
        pops = netm.populations
        p = params(n, beta=0.6, gamma=0.2)
        st = state(np.full(n, 0.99), np.full(n, 0.01))
        prev = float(pops @ st.s)
        for _ in range(50):
            st = step(st, p, netm)
            cur = float(pops @ st.s)
            assert cur <= prev + 1e-12
            prev = cur


class TestStabilityGuard:
    def test_extreme_beta_raises(self):
        st = state([0.5], [0.5])
        p = EpiParams(beta=np.array([10.0]), gamma=np.array([0.1]),
                      cfr=np.array([0.01]))
        with pytest.raises(EpidemicInstabilityError) as exc:
            step(st, p, isolated_net())
        assert exc.value.period == 1
        assert exc.value.node == 0

    def test_non_finite_compartment_raises(self):
        st = state([0.9, 0.9], [0.05, np.nan])
        with pytest.raises(EpidemicInstabilityError) as exc:
            step(st, params(2), isolated_net(2))
        assert exc.value.node == 1
        assert np.isnan(exc.value.value)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            EpiParams(beta=np.array([-0.1]), gamma=np.array([0.1]),
                      cfr=np.array([0.01]))
        with pytest.raises(ValueError):
            EpiParams(beta=np.array([0.1]), gamma=np.array([1.5]),
                      cfr=np.array([0.01]))

