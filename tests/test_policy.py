import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from vaxalloc.epi import CompartmentState, EpiParams
from vaxalloc.net import FlowMatrix
from vaxalloc.policy import (DUST, AllocationProblem,
                             PolicyState, gy_estimate, loss_coefficients,
                             ma_estimate, observe_and_update,
                             pb_allocate, solve_knapsack, ts_sample,
                             update_bounds, window_width)
from vaxalloc.sharing import AgentCoupling

from oracles import (direct_objective, grid_knapsack_optimum,
                     loss_coefficients_per_call, ma_estimate_lists, own_inflow)


def random_net(n, rng, density=0.4):
    dense = rng.uniform(0, 200, (n, n)) * (rng.random((n, n)) < density)
    np.fill_diagonal(dense, 0.0)
    pops = rng.uniform(500, 5000, n)
    return FlowMatrix(sp.csr_matrix(dense), np.zeros(n, int), np.zeros((1, 1)), pops)


def random_state(n, rng):
    s = rng.uniform(0.5, 0.95, n)
    i = rng.uniform(0.0, 0.05, n)
    r = 1.0 - s - i
    return CompartmentState(s=s, i=i, r=r, d=np.zeros(n), t=0)


class TestLossCoefficients:
    def test_zero_efficiency_zero_loss(self):
        rng = np.random.default_rng(0)
        net = random_net(4, rng)
        st = random_state(4, rng)
        p = EpiParams(beta=np.full(4, 0.3), gamma=np.full(4, 0.1),
                      cfr=np.full(4, 0.01))
        l = loss_coefficients(st, p, net, np.arange(4), np.zeros(4),
                              own_inflow(net, [np.arange(4)]))
        assert np.all(l == 0.0)

    def test_isolated_node_hand_value(self):
        net = FlowMatrix(sp.csr_matrix((1, 1)), np.zeros(1, int), np.zeros((1, 1)),
                         np.array([1000.0]))
        st = CompartmentState(s=np.array([0.9]), i=np.array([0.1]),
                              r=np.array([0.0]), d=np.array([0.0]), t=0)
        p = EpiParams(beta=np.array([0.5]), gamma=np.array([0.1]),
                      cfr=np.array([0.01]))
        l = loss_coefficients(st, p, net, np.array([0]), np.array([1.0]),
                              own_inflow(net, [np.array([0])]))
        assert l[0] == pytest.approx(-0.855, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_objective_equivalence(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(5, 21))
        net = random_net(n, rng)
        st = random_state(n, rng)
        p = EpiParams(beta=rng.uniform(0.2, 0.5, n), gamma=rng.uniform(0.1, 0.2, n),
                      cfr=np.full(n, 0.01))
        agent_of = rng.integers(0, 3, n)
        agent_nodes = np.flatnonzero(agent_of == 0)
        if agent_nodes.size == 0:
            agent_nodes = np.array([0])
        theta = rng.uniform(0.3, 0.9, n)
        l = loss_coefficients(st, p, net, agent_nodes, theta,
                              own_inflow(net, [agent_nodes]))
        p_dense = net.rates.toarray()
        x0 = np.zeros(n)
        const = direct_objective(st.s, st.i, p.beta, net.rho, p_dense,
                                 agent_nodes, theta, x0)
        for _ in range(20):
            x = np.zeros(n)
            x[agent_nodes] = rng.uniform(0, 1, agent_nodes.size)
            direct = direct_objective(st.s, st.i, p.beta, net.rho, p_dense,
                                      agent_nodes, theta, x)
            linear = float(l @ x[agent_nodes])
            assert direct - const == pytest.approx(linear, rel=1e-9, abs=1e-12)

    def test_own_inflow_matches_per_call_slice(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            n = int(rng.integers(2, 30))
            net = random_net(n, rng, density=float(rng.uniform(0.1, 0.9)))
            st = random_state(n, rng)
            p = EpiParams(beta=rng.uniform(0.2, 0.5, n),
                          gamma=rng.uniform(0.1, 0.2, n), cfr=np.full(n, 0.01))
            k = int(rng.integers(1, 5))
            agent_of = rng.integers(0, k, n)
            agent_nodes = [np.flatnonzero(agent_of == a) for a in range(k)]
            inflow = AgentCoupling(net, agent_of, k).c[np.arange(n), agent_of]
            theta = rng.uniform(0.0, 1.0, n)
            for idx in agent_nodes:
                got = loss_coefficients(st, p, net, idx, theta, inflow)
                want = loss_coefficients_per_call(st, p, net, idx, theta)
                assert np.array_equal(got, want)


class TestKnapsack:
    def test_ratio_tie_broken_by_index(self):
        prob = AllocationProblem(losses=[-10, -4, -2], costs=[5, 2, 4],
                                 budget=6.0, bounds=[1, 1, 1])
        out = solve_knapsack(prob)
        assert np.allclose(out, [1.0, 0.5, 0.0])
        assert float(prob.losses @ out) == pytest.approx(-12.0)

    def test_nonnegative_losses_get_nothing(self):
        prob = AllocationProblem(losses=[0.0, 2.0, 5.0], costs=[1, 1, 1],
                                 budget=100.0, bounds=[1, 1, 1])
        assert np.all(solve_knapsack(prob) == 0.0)

    def test_budget_slack_fills_bounds(self):
        bounds = np.array([0.8, 0.5, 1.0])
        prob = AllocationProblem(losses=[-3, -1, 2], costs=[10, 20, 5],
                                 budget=1000.0, bounds=bounds)
        out = solve_knapsack(prob)
        assert np.allclose(out, [0.8, 0.5, 0.0])

    def test_zero_budget(self):
        prob = AllocationProblem(losses=[-1.0], costs=[1.0], budget=0.0,
                                 bounds=[1.0])
        assert np.all(solve_knapsack(prob) == 0.0)

    @pytest.mark.parametrize("field,value", [("costs", [1.0, np.nan]),
                                             ("budget", np.nan),
                                             ("bounds", [0.5, np.nan])])
    def test_nan_is_rejected(self, field, value):
        kwargs = dict(losses=[-1.0, -2.0], costs=[1.0, 1.0], budget=1.0,
                      bounds=[1.0, 1.0])
        kwargs[field] = value
        with pytest.raises(ValueError, match=field.rstrip("s")):
            AllocationProblem(**kwargs)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_grid_oracle(self, seed):
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(2, 7))
        step = 0.01
        costs = rng.integers(1, 8, n).astype(float)
        bounds = rng.integers(0, 101, n) * step
        losses = rng.uniform(-5, 1, n)
        budget = float(rng.uniform(0.5, 0.8 * costs.sum()))
        prob = AllocationProblem(losses=losses, costs=costs, budget=budget,
                                 bounds=bounds)
        out = solve_knapsack(prob)
        obj = float(losses @ out)
        grid_opt = grid_knapsack_optimum(losses, costs, budget, bounds, step)
        slack = step * np.abs(losses).max()
        assert obj <= grid_opt + 1e-12
        assert grid_opt - obj <= slack + 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_feasibility(self, seed):
        rng = np.random.default_rng(400 + seed)
        n = int(rng.integers(2, 15))
        prob = AllocationProblem(losses=rng.uniform(-5, 1, n),
                                 costs=rng.uniform(1, 100, n),
                                 budget=float(rng.uniform(0, 200)),
                                 bounds=rng.uniform(0, 1, n))
        out = solve_knapsack(prob)
        assert np.all(out >= 0)
        assert np.all(out <= prob.bounds + 1e-12)
        assert float(out @ prob.costs) <= prob.budget * (1 + 1e-9)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.floats(-5.0, 1.0), st.integers(1, 7), st.integers(0, 100)),
                    min_size=2, max_size=6),
           st.floats(0.0, 1.0))
    def test_matches_grid_oracle_property(self, nodes, frac):
        """test_matches_grid_oracle's problems, drawn by hypothesis: integer
        costs, bounds on the 0.01 grid and a budget in [0.5, 0.8 sum(costs)],
        with the same objective and slack bounds."""
        losses, costs, steps = (np.array(col, dtype=float) for col in zip(*nodes))
        step = 0.01
        bounds = steps * step
        budget = 0.5 + frac * (0.8 * costs.sum() - 0.5)
        prob = AllocationProblem(losses=losses, costs=costs, budget=budget,
                                 bounds=bounds)
        obj = float(losses @ solve_knapsack(prob))
        grid_opt = grid_knapsack_optimum(losses, costs, budget, bounds, step)
        slack = step * np.abs(losses).max()
        assert obj <= grid_opt + 1e-12
        assert grid_opt - obj <= slack + 1e-12

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.floats(1.0, 1e5), st.floats(0.0, 1.0), st.booleans()),
                    min_size=2, max_size=10))
    def test_no_dust_when_budget_is_a_sum_of_costs(self, nodes):
        """The budget is the float sum of the spends on the flagged nodes,
        which the greedy funds first; the rounding left after paying them
        is not handed to the next node."""
        costs, bounds, first = (np.array(col) for col in zip(*nodes))
        budget = 0.0
        for c, u in zip(costs[first], bounds[first]):
            budget += c * u
        prob = AllocationProblem(losses=-costs * np.where(first, 2.0, 1.0),
                                 costs=costs, budget=budget, bounds=bounds)
        x = solve_knapsack(prob)
        assert not np.any((x > 0) & (x <= DUST))


class TestEstimators:
    def test_ts_uniform_prior_mean(self):
        rng = np.random.default_rng(5)
        draws = np.array([ts_sample(np.ones(1), np.ones(1), rng)[0]
                          for _ in range(100_000)])
        assert abs(draws.mean() - 0.5) < 0.01

    def test_ts_concentrated_prior(self):
        rng = np.random.default_rng(6)
        draws = ts_sample(np.full(10_000, 100), np.full(10_000, 1), rng)
        assert (draws > 0.9).mean() > 0.985

    def test_ts_deterministic_given_seed(self):
        a = np.array([2, 5, 1])
        b = np.array([3, 1, 4])
        s1 = ts_sample(a, b, np.random.default_rng(42))
        s2 = ts_sample(a, b, np.random.default_rng(42))
        assert np.array_equal(s1, s2)

    def test_gy_posterior_means(self):
        assert gy_estimate(np.array([1]), np.array([1]))[0] == 0.5
        assert gy_estimate(np.array([3]), np.array([1]))[0] == 0.75
        assert gy_estimate(np.array([8]), np.array([4]))[0] == pytest.approx(8 / 12)

    def test_ma_running_mean(self):
        est = ma_estimate(np.array([0.6 + 0.8, 0.0]), np.array([2, 0]))
        assert est[0] == pytest.approx(0.7)
        assert est[1] == 0.5

    def test_ma_running_sums_match_lists(self):
        rng = np.random.default_rng(8)
        n = 6
        pol = PolicyState(n=n, horizon=50, window=np.ones(n, dtype=int))
        hist = [[] for _ in range(n)]
        for _ in range(50):
            x = rng.uniform(0, 1, n) * (rng.random(n) < 0.5)
            theta = rng.uniform(0.3, 0.95, n)
            observe_and_update(pol, x, theta, rng)
            for node in np.flatnonzero(x > 0):
                hist[node].append(float(theta[node]))
            assert np.array_equal(ma_estimate(pol.obs_sum, pol.obs_count),
                                  ma_estimate_lists(hist))

    def test_ma_converges(self):
        rng = np.random.default_rng(7)
        hist = list(rng.uniform(0.5, 0.9, 50))
        assert abs(ma_estimate(np.array([sum(hist)]),
                               np.array([len(hist)]))[0] - 0.7) < 0.05


class TestPbAllocate:
    def test_full_coverage(self):
        costs = np.array([10.0, 30.0, 60.0])
        out = pb_allocate(costs, float(costs.sum()), np.ones(3))
        assert np.allclose(out, 1.0)

    def test_proportional_coverage(self):
        costs = np.array([10.0, 30.0, 60.0])
        out = pb_allocate(costs, 0.1 * float(costs.sum()), np.ones(3))
        assert np.allclose(out, 0.1)

    def test_residual_spill_with_caps(self):
        out = pb_allocate(np.array([100.0, 300.0]), 200.0,
                          np.array([1.0, 0.25]))
        assert np.allclose(out, [1.0, 0.25])

    def test_ignores_state_and_efficiency(self):
        # signature takes neither; just confirm determinism on repeat
        costs = np.array([50.0, 150.0, 200.0])
        a = pb_allocate(costs, 120.0, np.array([1.0, 0.6, 0.9]))
        b = pb_allocate(costs, 120.0, np.array([1.0, 0.6, 0.9]))
        assert np.array_equal(a, b)
        assert float(a @ costs) <= 120.0 * (1 + 1e-9)


class TestBounds:
    def test_fresh_node_full_bound(self):
        pol = PolicyState(n=3, horizon=10, window=np.full(3, 4))
        assert np.all(update_bounds(pol, 1) == 1.0)

    def test_window_sum(self):
        pol = PolicyState(n=1, horizon=10, window=np.array([4]))
        pol.record_allocation(1, np.array([0.3]))
        pol.record_allocation(2, np.array([0.4]))
        assert update_bounds(pol, 3)[0] == pytest.approx(0.3)

    def test_window_expiry(self):
        pol = PolicyState(n=1, horizon=10, window=np.array([2]))
        pol.record_allocation(1, np.array([1.0]))
        assert update_bounds(pol, 2)[0] == 0.0
        pol.record_allocation(2, np.array([0.0]))
        pol.record_allocation(3, np.array([0.0]))
        assert update_bounds(pol, 4)[0] == 1.0

    def test_clamped_at_zero(self):
        pol = PolicyState(n=1, horizon=10, window=np.array([5]))
        pol.record_allocation(1, np.array([0.8]))
        pol.record_allocation(2, np.array([0.8]))
        assert update_bounds(pol, 3)[0] == 0.0


class TestWindowWidth:
    def make_net(self, inflow0):
        flows = np.array([[0.0, 0.0], [inflow0, 0.0]])
        return FlowMatrix(sp.csr_matrix(flows), np.zeros(2, int), np.zeros((1, 1)),
                          np.array([1000.0, 1000.0]))

    def test_ceiling(self):
        m = window_width(np.array([1000.0, 1000.0]), self.make_net(250.0), 104)
        assert m[0] == 4

    def test_exact_ratio(self):
        m = window_width(np.array([1000.0, 1000.0]), self.make_net(1000.0), 104)
        assert m[0] == 1

    def test_zero_inflow_gets_horizon(self):
        m = window_width(np.array([1000.0, 1000.0]), self.make_net(250.0), 104)
        assert m[1] == 104


class TestObserveAndUpdate:
    def test_sure_success_and_failure(self):
        pol = PolicyState(n=2, horizon=5, window=np.ones(2, dtype=int))
        observe_and_update(pol, np.array([0.5, 0.5]), np.array([1.0, 0.0]),
                           np.random.default_rng(0))
        assert pol.a[0] == 2 and pol.b[0] == 1
        assert pol.a[1] == 1 and pol.b[1] == 2

    def test_unallocated_untouched(self):
        pol = PolicyState(n=2, horizon=5, window=np.ones(2, dtype=int))
        observe_and_update(pol, np.array([0.0, 0.3]), np.array([0.9, 0.9]),
                           np.random.default_rng(1))
        assert pol.a[0] == 1 and pol.b[0] == 1
        assert pol.obs_count[0] == 0 and pol.obs_sum[0] == 0.0
        assert pol.obs_count[1] == 1 and pol.obs_sum[1] == 0.9

    def test_success_frequency(self):
        pol = PolicyState(n=1, horizon=20_000, window=np.array([1]))
        rng = np.random.default_rng(2)
        trials = 10_000
        for _ in range(trials):
            observe_and_update(pol, np.array([1.0]), np.array([0.7]), rng)
        freq = (pol.a[0] - 1) / trials
        assert abs(freq - 0.7) < 0.02

    def test_counts_track_allocated_periods(self):
        pol = PolicyState(n=3, horizon=100, window=np.ones(3, dtype=int))
        rng = np.random.default_rng(3)
        active_periods = np.zeros(3, dtype=int)
        for _ in range(40):
            x = (rng.random(3) < 0.5).astype(float) * 0.2
            observe_and_update(pol, x, rng.uniform(0, 1, 3), rng)
            active_periods += x > 0
        assert np.array_equal(pol.a + pol.b - 2, active_periods)


def test_ts_learns_the_better_node():
    """Stationary two-node bandit: with true efficiencies (0.9, 0.5) and a
    budget that funds exactly one node, sampling should settle on node 0."""
    theta = np.array([0.9, 0.5])
    funded = []
    for seed in range(50):
        pol = PolicyState(n=2, horizon=500, window=np.ones(2, dtype=int))
        rng = np.random.default_rng(1000 + seed)
        hits = 0
        for t in range(1, 501):
            th = ts_sample(pol.a, pol.b, rng)
            prob = AllocationProblem(losses=-th, costs=[1.0, 1.0], budget=1.0,
                                     bounds=[1.0, 1.0])
            x = solve_knapsack(prob)
            observe_and_update(pol, x, theta, rng)
            if 400 <= t <= 500 and x[0] > 0.5:
                hits += 1
        funded.append(hits / 101)
    assert np.mean(funded) > 0.9


def test_policy_state_starts_at_uniform_prior():
    pol = PolicyState(n=3, horizon=2, window=np.ones(3, dtype=int))
    assert pol.a.dtype == pol.b.dtype == np.int64
    assert np.all(pol.a == 1) and np.all(pol.b == 1)


def test_problem_validation():
    with pytest.raises(ValueError):
        AllocationProblem(losses=[-1], costs=[0.0], budget=1.0, bounds=[1])
    with pytest.raises(ValueError):
        AllocationProblem(losses=[-1], costs=[1.0], budget=-1.0, bounds=[1])
    with pytest.raises(ValueError):
        AllocationProblem(losses=[-1], costs=[1.0], budget=1.0, bounds=[1.5])
