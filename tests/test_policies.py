"""Threshold rule, threshold policy tables, best-threshold search."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from manet1d import (
    NetworkParams,
    PolicyEvaluator,
    ThresholdRule,
    best_threshold_search,
    build_mdp,
    config_kernel,
    expected_raw_throughput,
    route_break_policy,
    rule_threshold,
    solve_avg_reward,
    state_space,
    threshold_candidates,
    threshold_policy,
)
from manet1d.policies import PolicyReport, achievable_rates, always_discover


class TestExpectedRawThroughput:
    def test_one_relay_two_positions(self):
        # both configurations support one single-relay route at f = 1/3
        assert expected_raw_throughput(NetworkParams(K=2, N=1)) == pytest.approx(
            1 / 3, abs=1e-12
        )

    def test_one_relay_one_position(self):
        # direct route (S,D) ties the relayed route at f = 1/2
        assert expected_raw_throughput(NetworkParams(K=1, N=1)) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_no_relays_no_throughput(self):
        assert expected_raw_throughput(NetworkParams(K=2, N=0)) == 0.0

    @given(
        K=st.integers(1, 4),
        N=st.integers(1, 4),
        p_l=st.sampled_from([0.0]) | st.floats(0.05, 0.45),
        p_r=st.floats(0.05, 0.45),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_config_kernel_stationary_law(self, K, N, p_l, p_r):
        # drifting stuck walks: the occupancy law is the multinomial with
        # the node's (geometric) stationary law, not the uniform one; at
        # p_l = 0 every node piles up at position K
        assume(abs(p_l - p_r) > 1e-3)
        params = NetworkParams(K=K, N=N, p_l=p_l, p_r=p_r)
        P = config_kernel(params).matrix.toarray()
        A = P.T - np.eye(len(P))
        A[-1, :] = 1.0
        b = np.zeros(len(P))
        b[-1] = 1.0
        want = float(np.linalg.solve(A, b) @ state_space(params).best_f)
        assert abs(expected_raw_throughput(params) - want) <= 1e-12

    def test_mobility_does_not_enter(self):
        # the steady state is uniform per node regardless of p_l, p_r
        a = expected_raw_throughput(NetworkParams(K=3, N=2, p_l=0.1, p_r=0.1))
        b = expected_raw_throughput(NetworkParams(K=3, N=2, p_l=0.4, p_r=0.4))
        assert a == b


class TestRuleThreshold:
    def test_zero_cost_keeps_full_threshold(self):
        params = NetworkParams(K=2, N=1, phi=0.0)
        assert rule_threshold(params) == pytest.approx(1 / 3, abs=1e-12)

    def test_full_cost_drops_to_zero(self):
        params = NetworkParams(K=2, N=1, phi=1.0)
        assert rule_threshold(params) == 0.0

    def test_half_cost_quadratic_exponent(self):
        params = NetworkParams(K=2, N=1, phi=0.5)
        assert rule_threshold(params, x=2.0) == pytest.approx(0.25, abs=1e-12)

    def test_rejects_non_positive_exponent(self):
        with pytest.raises(ValueError):
            rule_threshold(NetworkParams(K=2, N=1), x=0.0)

    def test_rule_fields(self):
        params = NetworkParams(K=2, N=1, phi=0.4)
        rule = ThresholdRule.for_params(params, x=2.0)
        assert rule.expected_raw == pytest.approx(1 / 3, abs=1e-12)
        assert rule.theta == pytest.approx((1 - 0.16) / 3, abs=1e-12)
        assert 0.0 <= rule.theta <= rule.expected_raw

    @given(
        phi_lo=st.floats(0.0, 1.0),
        phi_hi=st.floats(0.0, 1.0),
        x=st.floats(0.5, 4.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_non_increasing_in_phi(self, phi_lo, phi_hi, x):
        if phi_lo > phi_hi:
            phi_lo, phi_hi = phi_hi, phi_lo
        lo = rule_threshold(NetworkParams(K=2, N=1, phi=phi_lo), x=x)
        hi = rule_threshold(NetworkParams(K=2, N=1, phi=phi_hi), x=x)
        assert hi <= lo + 1e-12


@pytest.fixture(scope="module")
def space32():
    return state_space(NetworkParams(K=3, N=2))


@pytest.fixture(scope="module")
def space43():
    # K=4 has two distinct positive achievable rates (0.2 and 0.25),
    # and three relays are enough to support routes at either rate
    return state_space(NetworkParams(K=4, N=3))


@pytest.fixture(scope="module")
def mdp():
    return build_mdp(NetworkParams(K=3, N=3, phi=0.3))


class TestThresholdPolicy:
    def test_matches_definition_statewise(self, space32):
        theta = 0.3
        table = threshold_policy(space32, theta)
        for c in range(space32.n_configs):
            for r in range(space32.n_routes):
                observed = space32.cont_f[c, r]
                assert table[c, r] == (observed < theta or observed == 0.0)

    def test_zero_threshold_is_route_break(self, space32):
        assert np.array_equal(
            threshold_policy(space32, 0.0), route_break_policy(space32)
        )

    def test_zero_threshold_continues_on_working_route(self, space32):
        table = threshold_policy(space32, 0.0)
        working = space32.cont_f > 0
        assert not table[working].any()
        assert table[~working].all()

    def test_above_max_rate_discovers_everywhere(self, space32):
        theta = max(achievable_rates(space32)) + 0.5
        assert np.array_equal(
            threshold_policy(space32, theta), always_discover(space32)
        )

    def test_discover_set_grows_with_theta(self, space43):
        candidates = threshold_candidates(space43)
        tables = [threshold_policy(space43, t) for t in candidates]
        for lo, hi in zip(tables, tables[1:]):
            assert (hi | lo == hi).all()  # lo's discover set is a subset
        # the zero-observed clause makes the first midpoint behave like
        # theta = 0, so distinct behaviours = positive rates + 1
        positive = [r for r in achievable_rates(space43) if r > 0]
        distinct = {t.tobytes() for t in tables}
        assert len(distinct) == len(positive) + 1

    def test_thresholds_between_rates_are_equivalent(self, space43):
        rates = [r for r in achievable_rates(space43) if r > 0]
        a, b = rates[0], rates[1]
        t1 = threshold_policy(space43, a + 0.25 * (b - a))
        t2 = threshold_policy(space43, a + 0.75 * (b - a))
        assert np.array_equal(t1, t2)
        # crossing an achievable rate changes the policy
        t3 = threshold_policy(space43, b + 1e-9)
        assert not np.array_equal(t2, t3)

    def test_accepts_mdp_or_space(self, space32):
        mdp = build_mdp(NetworkParams(K=3, N=2))
        assert np.array_equal(
            threshold_policy(mdp, 0.2), threshold_policy(space32, 0.2)
        )


class TestThresholdCandidates:
    def test_structure(self):
        space = state_space(NetworkParams(K=3, N=2))
        rates = achievable_rates(space)
        candidates = threshold_candidates(space)
        assert candidates[0] == 0.0
        assert candidates[-1] > rates[-1]
        assert candidates == sorted(candidates)
        assert len(candidates) == len(rates) + 1
        for mid, (a, b) in zip(candidates[1:-1], zip(rates, rates[1:])):
            assert a < mid < b


class TestBestThresholdSearch:
    def test_beats_rule_threshold(self, mdp):
        theta_star, gain_star = best_threshold_search(mdp)
        evaluator = PolicyEvaluator(mdp)
        rule_gain = evaluator.gain(
            threshold_policy(mdp, rule_threshold(mdp.params, 2.0)),
            phi=mdp.params.phi,
        )
        assert gain_star >= rule_gain - 1e-12
        assert theta_star in threshold_candidates(mdp)

    def test_bounded_by_optimal(self, mdp):
        _, gain_star = best_threshold_search(mdp)
        sol = solve_avg_reward(mdp)
        assert gain_star <= sol.gain + 1e-8

    def test_zero_cost_recovers_expected_raw(self):
        params = NetworkParams(K=3, N=2, phi=0.0)
        _, gain_star = best_threshold_search(params)
        assert gain_star == pytest.approx(expected_raw_throughput(params), abs=1e-9)

    def test_accepts_shared_evaluator(self, mdp):
        evaluator = PolicyEvaluator(mdp)
        a = best_threshold_search(mdp, evaluator)
        b = best_threshold_search(mdp, evaluator)
        assert a == b


class TestPolicyReport:
    def test_consistency_requires_both_estimates(self):
        params = NetworkParams(K=2, N=1)
        report = PolicyReport(policy="always", params=params, exact_gain=0.3)
        assert report.consistent() is None

    def test_consistency_check(self):
        params = NetworkParams(K=2, N=1)
        near = PolicyReport(
            policy="always", params=params,
            exact_gain=0.30, mc_mean=0.301, mc_stderr=0.001,
        )
        far = PolicyReport(
            policy="always", params=params,
            exact_gain=0.30, mc_mean=0.310, mc_stderr=0.001,
        )
        assert near.consistent() is True
        assert far.consistent() is False
