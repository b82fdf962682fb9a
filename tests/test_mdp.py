"""Average-reward control: state space, value iteration, exact policy
evaluation."""

import chain_oracle
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from manet1d import (
    Boundary,
    EnumerationLimitError,
    NetworkParams,
    PolicyEvaluator,
    ReducibleChainError,
    build_mdp,
    evaluate_policy,
    expected_raw_throughput,
    policy_stationary,
    route_break_policy,
    rule_threshold,
    solve_avg_reward,
    state_space,
    threshold_policy,
)
from manet1d.errors import ConvergenceError
from manet1d.mdp import PROPAGATION_MAX_ITER, MdpState
from manet1d.mobility import config_stationary_law
from manet1d.policies import always_discover, never_discover

P33 = NetworkParams(K=3, N=3, phi=0.3)


@pytest.fixture(scope="module")
def mdp33():
    return build_mdp(P33)


@pytest.fixture(scope="module")
def sol33(mdp33):
    return solve_avg_reward(mdp33)


def config_chain_stationary(mdp) -> np.ndarray:
    P = mdp.kernel.matrix
    n = P.shape[0]
    A = P.T - np.eye(n)
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    return np.linalg.solve(A, b)


class TestStateSpace:
    def test_state_count_k5_n9(self):
        space = state_space(NetworkParams(K=5, N=9))
        assert space.n_configs == 715
        assert space.n_routes == 14
        assert build_mdp(NetworkParams(K=5, N=9)).n_states == 10010

    def test_best_route_agrees_with_scheduler(self, mdp33):
        from manet1d import best_route

        space = mdp33.space
        for c, config in enumerate(space.configs):
            route, f = best_route(config, P33)
            assert space.routes[space.best_route_idx[c]] == route
            assert space.best_f[c] == pytest.approx(f, abs=1e-12)

    def test_cont_f_zero_where_unsupported(self, mdp33):
        from manet1d import route_supported

        space = mdp33.space
        for c, config in enumerate(space.configs):
            for r, route in enumerate(space.routes):
                if route_supported(route, config):
                    assert space.cont_f[c, r] == pytest.approx(
                        space.route_f[r], abs=1e-12
                    )
                else:
                    assert space.cont_f[c, r] == 0.0

    def test_state_round_trip(self, mdp33):
        for s in range(0, mdp33.n_states, 7):
            state = mdp33.state(s)
            assert isinstance(state, MdpState)
            assert mdp33.state_index(state) == s

    def test_state_limit_guard(self):
        with pytest.raises(EnumerationLimitError):
            build_mdp(NetworkParams(K=5, N=9), state_limit=100)


class TestRewards:
    def test_free_discovery_dominates(self):
        mdp = build_mdp(NetworkParams(K=3, N=2, phi=0.0))
        assert (mdp.reward_discover[:, None] >= mdp.reward_continue - 1e-12).all()

    def test_full_cost_discovery_earns_nothing(self):
        mdp = build_mdp(NetworkParams(K=3, N=2, phi=1.0))
        assert np.array_equal(mdp.reward_discover, np.zeros(mdp.space.n_configs))

    def test_reward_table_selects_by_action(self, mdp33):
        actions = always_discover(mdp33)
        assert np.array_equal(
            mdp33.rewards(actions),
            np.broadcast_to(
                mdp33.reward_discover[:, None], mdp33.reward_continue.shape
            ),
        )
        actions = never_discover(mdp33)
        assert np.array_equal(mdp33.rewards(actions), mdp33.reward_continue)

    def test_with_phi_shares_space_and_kernel(self, mdp33):
        other = mdp33.with_phi(0.9)
        assert other.space is mdp33.space
        assert other.kernel is mdp33.kernel
        assert other.params.phi == 0.9


class TestSolveAvgReward:
    def test_zero_cost_gain_is_expected_raw(self):
        params = NetworkParams(K=3, N=3, phi=0.0)
        sol = solve_avg_reward(build_mdp(params))
        assert sol.gain == pytest.approx(
            expected_raw_throughput(params), abs=1e-6
        )

    def test_gain_within_model_bounds(self, mdp33, sol33):
        assert 0.0 <= sol33.gain <= mdp33.space.best_f.max() + 1e-12

    def test_agrees_with_exact_evaluation(self, mdp33, sol33):
        assert evaluate_policy(mdp33, sol33.action) == pytest.approx(
            sol33.gain, abs=1e-6
        )

    def test_agrees_on_wrap_kernel(self):
        mdp = build_mdp(
            NetworkParams(K=4, N=3, p_l=0.3, p_r=0.2, boundary=Boundary.WRAP, phi=0.4)
        )
        sol = solve_avg_reward(mdp)
        assert evaluate_policy(mdp, sol.action) == pytest.approx(sol.gain, abs=1e-6)

    def test_periodic_wrap_kernel_converges(self):
        # p_t = 0 on a 2-cycle: the node alternates deterministically
        mdp = build_mdp(
            NetworkParams(K=2, N=1, p_l=0.5, p_r=0.5, boundary=Boundary.WRAP, phi=0.2)
        )
        sol = solve_avg_reward(mdp)
        assert evaluate_policy(mdp, sol.action) == pytest.approx(sol.gain, abs=1e-6)

    def test_rotation_kernel_converges(self):
        mdp = build_mdp(
            NetworkParams(K=3, N=1, p_l=0.0, p_r=1.0, boundary=Boundary.WRAP, phi=0.1)
        )
        sol = solve_avg_reward(mdp)
        assert evaluate_policy(mdp, sol.action) == pytest.approx(sol.gain, abs=1e-6)

    def test_reducible_parity_chain_rejected(self):
        # even cycle, p_t = 0, two nodes: position parity never mixes
        mdp = build_mdp(
            NetworkParams(K=4, N=2, p_l=0.5, p_r=0.5, boundary=Boundary.WRAP, phi=0.2)
        )
        with pytest.raises(ReducibleChainError) as exc:
            solve_avg_reward(mdp)
        assert len(exc.value.classes) == 2

    def test_frozen_nodes_rejected_for_k_above_one(self):
        mdp = build_mdp(NetworkParams(K=3, N=2, p_l=0.0, p_r=0.0, phi=0.1))
        with pytest.raises(ReducibleChainError):
            solve_avg_reward(mdp)

    def test_frozen_single_position_network(self):
        # K=1 has a single configuration, so the chain is trivially
        # irreducible: discover once, then continue on (S,D) forever
        sol = solve_avg_reward(build_mdp(NetworkParams(K=1, N=2, p_l=0.0, p_r=0.0, phi=0.3)))
        assert sol.gain == pytest.approx(0.5, abs=1e-8)

    def test_discovers_from_null_route(self, mdp33, sol33):
        space = mdp33.space
        null = space.null_route_idx
        has_route = space.best_f > 0
        assert sol33.action[has_route, null].all()

    def test_zero_cost_ties_break_to_continue(self):
        mdp = build_mdp(NetworkParams(K=3, N=2, phi=0.0))
        sol = solve_avg_reward(mdp)
        rows = np.arange(mdp.space.n_configs)
        # holding the best route already earns the discover reward, and
        # ties must not churn discovery
        assert not sol.action[rows, mdp.space.best_route_idx].any()

    def test_warm_start_reaches_same_gain(self, mdp33, sol33):
        warm = solve_avg_reward(mdp33, v0=sol33.bias)
        assert warm.gain == pytest.approx(sol33.gain, abs=1e-7)
        assert warm.iterations <= sol33.iterations

    def test_solution_fields(self, mdp33, sol33):
        C, R = mdp33.space.n_configs, mdp33.space.n_routes
        assert sol33.bias.shape == (C, R)
        assert sol33.action.shape == (C, R)
        assert sol33.action.dtype == bool
        assert sol33.span < 1e-8
        assert sol33.iterations >= 1


class TestEvaluatePolicy:
    def test_always_discover_at_zero_cost(self):
        params = NetworkParams(K=3, N=2, phi=0.0)
        mdp = build_mdp(params)
        gain = evaluate_policy(mdp, always_discover(mdp))
        assert gain == pytest.approx(expected_raw_throughput(params), abs=1e-10)

    def test_always_discover_scales_with_phi(self):
        # discover every slot: gain = (1 - phi) * E[raw], exactly
        params = NetworkParams(K=3, N=2, phi=0.37)
        mdp = build_mdp(params)
        gain = evaluate_policy(mdp, always_discover(mdp))
        want = (1 - 0.37) * expected_raw_throughput(params)
        assert gain == pytest.approx(want, abs=1e-10)

    def test_route_break_hand_value(self):
        # K=2, N=1: the held route matches the previous slot's side;
        # it breaks exactly when the node hops (prob 1/4), so
        # gain = [3/4 + 1/4 (1 - phi)] * 1/3
        params = NetworkParams(K=2, N=1, phi=0.5)
        mdp = build_mdp(params)
        gain = evaluate_policy(mdp, route_break_policy(mdp))
        assert gain == pytest.approx((0.75 + 0.25 * 0.5) / 3, abs=1e-12)

    def test_callable_policy_matches_table(self, mdp33):
        theta = rule_threshold(P33, 2.0)
        table = threshold_policy(mdp33, theta)

        from manet1d import route_supported, route_throughput

        def fn(state):
            if state.held.is_null or not route_supported(state.held, state.config):
                observed = 0.0
            else:
                observed, _ = route_throughput(state.held, P33)
            return observed < theta or observed == 0.0

        assert evaluate_policy(mdp33, fn) == pytest.approx(
            evaluate_policy(mdp33, table), abs=1e-12
        )

    def test_never_discover_is_reducible_by_design(self, mdp33):
        with pytest.raises(ReducibleChainError) as exc:
            evaluate_policy(mdp33, never_discover(mdp33))
        # one closed class per held route
        assert len(exc.value.classes) == mdp33.space.n_routes
        assert "closed classes" in str(exc.value)

    def test_never_discover_per_route_gains_below_optimal(self, mdp33, sol33):
        # each recurrent class keeps one held route; its gain is the
        # config-stationary average of that route's supported rate
        pi_config = config_chain_stationary(mdp33)
        per_route = pi_config @ mdp33.space.cont_f
        assert (per_route <= sol33.gain + 1e-9).all()

    def test_optimal_dominates_standard_policies(self, mdp33, sol33):
        evaluator = PolicyEvaluator(mdp33)
        for actions in (
            always_discover(mdp33),
            route_break_policy(mdp33),
            threshold_policy(mdp33, rule_threshold(P33, 2.0)),
        ):
            assert evaluator.gain(actions, phi=P33.phi) <= sol33.gain + 1e-8

    def test_optimal_dominates_random_policies(self, mdp33, sol33):
        rng = np.random.default_rng(7)
        C, R = mdp33.space.n_configs, mdp33.space.n_routes
        evaluated = 0
        attempts = 0
        while evaluated < 50 and attempts < 200:
            attempts += 1
            actions = rng.random((C, R)) < rng.uniform(0.05, 0.95)
            try:
                gain = evaluate_policy(mdp33, actions)
            except ReducibleChainError:
                continue
            evaluated += 1
            assert gain <= sol33.gain + 1e-8
        assert evaluated == 50

    def test_stationary_distribution_is_proper(self, mdp33, sol33):
        pi = policy_stationary(mdp33, sol33.action)
        assert pi.shape == (mdp33.space.n_configs, mdp33.space.n_routes)
        assert (pi >= 0).all()
        assert pi.sum() == pytest.approx(1.0, abs=1e-9)
        # the configuration marginal must match the mobility chain
        assert np.abs(pi.sum(axis=1) - config_chain_stationary(mdp33)).max() < 1e-9

    def test_policy_shape_is_checked(self, mdp33):
        with pytest.raises(ValueError):
            evaluate_policy(mdp33, np.ones((2, 2), dtype=bool))


class TestPolicyEvaluator:
    def test_caches_across_phi(self, mdp33):
        evaluator = PolicyEvaluator(mdp33)
        actions = always_discover(mdp33)
        e = expected_raw_throughput(P33)
        for phi in (0.0, 0.25, 0.5, 1.0):
            assert evaluator.gain(actions, phi=phi) == pytest.approx(
                (1 - phi) * e, abs=1e-10
            )
        assert len(evaluator._cache) == 1

    def test_discovery_frequency(self, mdp33):
        evaluator = PolicyEvaluator(mdp33)
        assert evaluator.discovery_frequency(always_discover(mdp33)) == pytest.approx(1.0)
        freq = evaluator.discovery_frequency(route_break_policy(mdp33))
        assert 0.0 < freq < 1.0

    def test_matches_solver_gain(self, mdp33, sol33):
        evaluator = PolicyEvaluator(mdp33)
        assert evaluator.gain(sol33.action, phi=P33.phi) == pytest.approx(
            sol33.gain, abs=1e-6
        )


@given(s=st.integers(min_value=0, max_value=59))
@settings(max_examples=60, deadline=None)
def test_state_indexing_round_trip(s):
    mdp = build_mdp(NetworkParams(K=3, N=3))
    assert mdp.state_index(mdp.state(s)) == s


def test_state_rendering():
    mdp = build_mdp(NetworkParams(K=2, N=1))
    text = str(mdp.state(0))
    assert "config=" in text and "held=" in text


@st.composite
def chain_cases(draw):
    """Small parameter sets over every mobility regime (stuck and wrap
    walks, p_t = 0, one-way walks, frozen nodes) with a table. Moving
    probabilities stay at least 0.1 away from 0 and p_t from 0 unless it
    is exactly 0: a walk that is nearly frozen or nearly periodic mixes
    so slowly that no method resolves pi to 1e-12."""
    K = draw(st.integers(min_value=1, max_value=4))
    N = draw(st.integers(min_value=1, max_value=4))
    boundary = draw(st.sampled_from([Boundary.STUCK, Boundary.WRAP]))
    regime = draw(st.sampled_from(["walk", "no_stay", "one_way", "frozen"]))
    prob = st.floats(min_value=0.1, max_value=0.45)
    if regime == "walk":
        p_l, p_r = draw(prob), draw(prob)
    elif regime == "no_stay":
        p_l = draw(st.floats(min_value=0.1, max_value=0.9))
        p_r = 1.0 - p_l  # p_t = 0 exactly
    elif regime == "one_way":
        p_l = 0.0
        p_r = draw(st.one_of(st.floats(min_value=0.1, max_value=0.9), st.just(1.0)))
    else:
        p_l = p_r = 0.0
    phi = draw(st.floats(min_value=0.0, max_value=1.0))
    params = NetworkParams(K=K, N=N, p_l=p_l, p_r=p_r, boundary=boundary, phi=phi)
    table = draw(st.sampled_from(["random", "always", "never", "route-break", "optimal"]))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return params, table, seed


def _table(mdp, kind, seed):
    if kind == "always":
        return always_discover(mdp)
    if kind == "never":
        return never_discover(mdp)
    if kind == "route-break":
        return route_break_policy(mdp)
    if kind == "optimal":
        try:
            return solve_avg_reward(mdp).action
        except ReducibleChainError:
            # no optimum without a single configuration class: use a table
            return route_break_policy(mdp)
    rng = np.random.default_rng(seed)
    C, R = mdp.space.n_configs, mdp.space.n_routes
    return rng.random((C, R)) < rng.uniform(0.05, 0.95)


@given(case=chain_cases())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_policy_stationary_matches_full_chain_oracle(case):
    params, kind, seed = case
    mdp = build_mdp(params)
    actions = _table(mdp, kind, seed)
    try:
        want = chain_oracle.policy_stationary(mdp, actions)
    except ReducibleChainError as e:
        want_classes = {tuple(cls.tolist()) for cls in e.classes}
        with pytest.raises(ReducibleChainError) as exc:
            policy_stationary(mdp, actions)
        got = [tuple(cls.tolist()) for cls in exc.value.classes]
        assert set(got) == want_classes
        assert got == sorted(got)  # ordered by smallest state index
        return
    # a table can still make the route split mix slowly; both methods
    # then carry errors of about 1e-15 over the spectral gap, or more
    gap = chain_oracle.lazy_spectral_gap(mdp, actions)
    tol = max(1e-12, 1e-14 / gap)
    try:
        pi = policy_stationary(mdp, actions)
    except ConvergenceError:
        # the step shrinks by about (1 - gap) per iteration, so only a
        # chain this slow can exhaust the iteration budget
        assert gap < 35 / PROPAGATION_MAX_ITER
        return
    assert np.abs(pi - want).max() <= tol
    assert (pi[want == 0] == 0).all()  # transient states carry no mass
    rewards = mdp.rewards(actions)
    assert abs(float((pi * rewards).sum()) - float((want * rewards).sum())) <= tol
    mu = config_stationary_law(mdp.space.counts, params)
    assert np.abs(pi.sum(axis=1) - mu).max() <= tol
