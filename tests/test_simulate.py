"""Monte Carlo simulator: determinism, agreement with the exact
evaluator, and coverage of the reported error bars."""

import math
import warnings

import numpy as np
import pytest
import slot_oracle
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from manet1d import (
    Boundary,
    ConfigError,
    NetworkParams,
    PolicyEvaluator,
    SimConfig,
    build_mdp,
    enumerate_configurations,
    expected_raw_throughput,
    report_exact,
    rule_threshold,
    simulate,
    simulate_config_visits,
    state_space,
    sweep_phi,
    threshold_candidates,
)
from manet1d.mobility import config_stationary_prob
from manet1d.simulate import PolicySpec, _rng_for, parse_policy_spec, resolve_policy

P21 = NetworkParams(K=2, N=1)


def tv_distance(counts, probs):
    freq = counts / counts.sum()
    return 0.5 * float(np.abs(freq - probs).sum())


class TestSimConfig:
    def test_defaults(self):
        cfg = SimConfig(params=P21)
        assert cfg.slots == 10**6
        assert cfg.burn_in == 10**4
        assert cfg.seed == 0
        assert cfg.replications == 5
        assert cfg.policy == "route-break"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"slots": 0},
            {"slots": -5},
            {"slots": 10.5},
            {"burn_in": -1},
            {"slots": 100, "burn_in": 100},
            {"slots": 100, "burn_in": 200},
            {"replications": 0},
            {"seed": -1},
            {"seed": 1.5},
            {"seed": 2**64},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            SimConfig(params=P21, **kwargs)

    def test_accepts_largest_seed(self):
        assert SimConfig(params=P21, seed=2**64 - 1).seed == 2**64 - 1


class TestReplicationStreams:
    def test_streams_are_disjoint_over_a_seed_replication_grid(self):
        # the Philox key holds the seed in its low word and the
        # replication in its high word, so every (seed, replication)
        # pair has its own key; replication 0 is keyed by the seed alone
        heads = set()
        for seed in range(16):
            for rep in range(16):
                rng = _rng_for(seed, rep)
                key = rng.bit_generator.state["state"]["key"]
                assert key.tolist() == [seed, rep]
                heads.add(tuple(rng.integers(0, 2**63, size=4).tolist()))
        assert len(heads) == 16 * 16
        assert _rng_for(5, 0).random() == np.random.Generator(
            np.random.Philox(key=5)
        ).random()

    def test_nearby_seeds_do_not_share_replications(self):
        # keyed with seed XOR replication, seeds 0 and 1 with two
        # replications each drew the same two streams and the same mean,
        # 0.11272562814071563
        base = dict(
            params=NetworkParams(K=4, N=3, phi=0.2),
            slots=20_000,
            burn_in=100,
            replications=2,
            policy="always",
        )
        a = simulate(SimConfig(seed=0, **base))
        b = simulate(SimConfig(seed=1, **base))
        assert a.mc_mean != b.mc_mean


class TestPolicySpecs:
    @pytest.mark.parametrize(
        "text, kind, value",
        [
            ("optimal", "optimal", None),
            ("best-threshold", "best-threshold", None),
            ("route-break", "route-break", None),
            ("always", "always", None),
            ("never", "never", None),
            ("rule", "rule", 2.0),
            ("rule:2", "rule", 2.0),
            ("rule:1.5", "rule", 1.5),
            ("fixed:0.25", "fixed", 0.25),
            ("fixed:0", "fixed", 0.0),
            ("  Rule:2 ", "rule", 2.0),
        ],
    )
    def test_parse_good(self, text, kind, value):
        spec = parse_policy_spec(text)
        assert spec.kind == kind
        assert spec.value == value

    @pytest.mark.parametrize(
        "text",
        [
            "optimal:3",
            "always:1",
            "rule:zero",
            "rule:0",
            "rule:-1",
            "fixed:",
            "fixed:abc",
            "fixed:-0.1",
            "greedy",
            "",
        ],
    )
    def test_parse_bad(self, text):
        with pytest.raises(ConfigError):
            parse_policy_spec(text)

    def test_labels(self):
        assert PolicySpec("rule", 2.0).label() == "rule:2"
        assert PolicySpec("rule", 1.5).label() == "rule:1.5"
        assert PolicySpec("fixed", 0.25).label() == "fixed:0.25"
        assert PolicySpec("optimal").label() == "optimal"
        assert PolicySpec("route-break").label() == "route-break"

    def test_label_round_trips_through_parse(self):
        for text in ["optimal", "rule:2", "rule:1.5", "fixed:0.25", "never"]:
            spec = parse_policy_spec(text)
            assert parse_policy_spec(spec.label()) == spec


class TestResolvePolicy:
    def test_shapes_and_thresholds(self):
        params = NetworkParams(K=3, N=2, phi=0.3)
        space = state_space(params)
        for text, theta in [
            ("always", None),
            ("never", None),
            ("route-break", 0.0),
            ("fixed:0.2", 0.2),
            ("rule:2", rule_threshold(params, 2.0)),
        ]:
            table, got = resolve_policy(parse_policy_spec(text), params)
            assert table.shape == (space.n_configs, space.n_routes)
            assert table.dtype == bool
            if theta is None:
                assert got is None
            else:
                assert got == pytest.approx(theta, abs=1e-15)

    def test_always_and_never_tables(self):
        params = NetworkParams(K=2, N=1)
        t_always, _ = resolve_policy(parse_policy_spec("always"), params)
        t_never, _ = resolve_policy(parse_policy_spec("never"), params)
        assert t_always.all()
        assert not t_never.any()

    def test_optimal_and_best_threshold(self):
        params = NetworkParams(K=2, N=1, phi=0.3)
        mdp = build_mdp(params)
        t_opt, theta_opt = resolve_policy(parse_policy_spec("optimal"), params, mdp=mdp)
        assert theta_opt is None
        t_bt, theta_bt = resolve_policy(
            parse_policy_spec("best-threshold"), params, mdp=mdp
        )
        assert theta_bt in threshold_candidates(mdp)
        evaluator = PolicyEvaluator(mdp)
        assert evaluator.gain(t_opt, phi=0.3) >= evaluator.gain(t_bt, phi=0.3) - 1e-9


class TestSimulate:
    def test_never_earns_exactly_zero(self):
        cfg = SimConfig(
            params=NetworkParams(K=2, N=1, phi=0.3),
            slots=5000,
            burn_in=100,
            replications=2,
            policy="never",
        )
        report = simulate(cfg)
        assert report.mc_mean == 0.0
        assert report.mc_stderr == 0.0
        assert report.discovery_frequency == 0.0

    def test_same_seed_reproduces_report(self):
        cfg = SimConfig(
            params=NetworkParams(K=3, N=2, phi=0.25),
            slots=20_000,
            burn_in=500,
            seed=7,
            replications=3,
            policy="fixed:0.2",
        )
        assert simulate(cfg) == simulate(cfg)

    def test_route_break_is_fixed_zero(self):
        base = dict(
            params=NetworkParams(K=3, N=2, phi=0.25),
            slots=20_000,
            burn_in=500,
            seed=3,
            replications=2,
        )
        a = simulate(SimConfig(policy="route-break", **base))
        b = simulate(SimConfig(policy="fixed:0", **base))
        assert a.mc_mean == b.mc_mean
        assert a.mc_stderr == b.mc_stderr
        assert a.discovery_frequency == b.discovery_frequency
        assert a.threshold == b.threshold == 0.0

    @pytest.mark.parametrize("N", [0, 1])
    def test_single_position_network_is_deterministic(self, N):
        # K=1: the direct source-destination hop always works at rate
        # 1/2, so an always-discover run at phi=0 earns exactly 0.5
        cfg = SimConfig(
            params=NetworkParams(K=1, N=N, phi=0.0),
            slots=3000,
            burn_in=100,
            replications=2,
            policy="always",
        )
        report = simulate(cfg)
        assert report.mc_mean == 0.5
        assert report.mc_stderr == 0.0
        assert report.discovery_frequency == 1.0

    def test_always_matches_expected_raw_at_zero_cost(self):
        params = NetworkParams(K=3, N=2, phi=0.0)
        cfg = SimConfig(
            params=params,
            slots=200_000,
            burn_in=2_000,
            seed=11,
            replications=6,
            policy="always",
        )
        report = simulate(cfg)
        assert report.discovery_frequency == 1.0
        expected = expected_raw_throughput(params)
        assert abs(report.mc_mean - expected) <= 3.0 * report.mc_stderr

    @pytest.mark.parametrize(
        "params, policy",
        [
            (NetworkParams(K=3, N=2, phi=0.3), "fixed:0.2"),
            (NetworkParams(K=4, N=3, phi=0.2), "fixed:0.22"),
            (
                NetworkParams(K=3, N=2, p_l=0.1, p_r=0.3,
                              boundary=Boundary.WRAP, phi=0.25),
                "fixed:0.2",
            ),
        ],
    )
    def test_mc_matches_exact_gain(self, params, policy):
        cfg = SimConfig(
            params=params,
            slots=300_000,
            burn_in=5_000,
            seed=19,
            replications=8,
            policy=policy,
        )
        mc = simulate(cfg)
        exact = report_exact(cfg)
        assert mc.threshold == exact.threshold
        assert abs(mc.mc_mean - exact.exact_gain) <= 3.0 * mc.mc_stderr
        assert abs(mc.discovery_frequency - exact.discovery_frequency) <= 0.01

    def test_single_replication_has_no_stderr(self):
        cfg = SimConfig(
            params=P21, slots=2000, burn_in=100, replications=1, policy="always"
        )
        assert simulate(cfg).mc_stderr is None

    def test_report_records_run_description(self):
        cfg = SimConfig(
            params=NetworkParams(K=2, N=1, phi=0.4),
            slots=5000,
            burn_in=200,
            seed=42,
            replications=2,
            policy="rule:2",
        )
        report = simulate(cfg)
        assert report.policy == "rule:2"
        assert report.threshold == pytest.approx(
            rule_threshold(cfg.params, 2.0), abs=1e-15
        )
        assert report.slots == 5000
        assert report.burn_in == 200
        assert report.seed == 42
        assert report.replications == 2
        assert report.exact_gain is None


class TestObservePrev:
    def test_runs_and_labels(self):
        cfg = SimConfig(
            params=NetworkParams(K=3, N=2, phi=0.25),
            slots=20_000,
            burn_in=500,
            replications=2,
            policy="fixed:0.2",
        )
        report = simulate(cfg, observe="prev")
        assert report.policy == "fixed:0.2@prev"
        assert report.threshold == 0.2
        assert simulate(cfg, observe="prev") == report

    def test_degenerate_network_agrees_with_current(self):
        # on K=1 the held route never breaks, so probing the current
        # slot and reacting to the previous reward coincide
        cfg = SimConfig(
            params=NetworkParams(K=1, N=1, phi=0.3),
            slots=3000,
            burn_in=100,
            replications=2,
            policy="fixed:0.2",
        )
        assert simulate(cfg, observe="prev").mc_mean == simulate(cfg).mc_mean == 0.5

    @pytest.mark.parametrize("policy", ["optimal", "best-threshold", "always", "never"])
    def test_rejects_non_threshold_policies(self, policy):
        cfg = SimConfig(params=P21, slots=1000, burn_in=10, policy=policy)
        with pytest.raises(ConfigError):
            simulate(cfg, observe="prev")

    def test_rejects_unknown_mode(self):
        cfg = SimConfig(params=P21, slots=1000, burn_in=10)
        with pytest.raises(ConfigError):
            simulate(cfg, observe="future")


class TestConfigVisits:
    def test_counts_sum_to_slots_and_reproduce(self):
        visits = simulate_config_visits(P21, slots=5000, seed=5)
        assert visits.sum() == 5000
        assert np.array_equal(visits, simulate_config_visits(P21, slots=5000, seed=5))
        other = simulate_config_visits(P21, slots=5000, seed=5, replication=1)
        assert not np.array_equal(visits, other)

    @pytest.mark.parametrize(
        "params",
        [
            NetworkParams(K=5, N=1),
            NetworkParams(K=5, N=1, boundary=Boundary.WRAP),
            NetworkParams(K=5, N=1, p_l=0.1, p_r=0.3, boundary=Boundary.WRAP),
        ],
    )
    def test_single_node_position_frequencies_uniform(self, params):
        visits = simulate_config_visits(params, slots=10**6, seed=1)
        uniform = np.full(params.K, 1.0 / params.K)
        assert tv_distance(visits, uniform) < 0.01

    def test_single_node_drift_toward_reflecting_wall(self):
        # with p_r > p_l on a stuck line the node piles up on the right:
        # stationary odds 1 : 3 : 9
        params = NetworkParams(K=3, N=1, p_l=0.1, p_r=0.3)
        visits = simulate_config_visits(params, slots=10**6, seed=2)
        position_of = [
            int(np.argmax(c.counts)) for c in enumerate_configurations(params)
        ]
        expected = np.array([[1 / 13, 3 / 13, 9 / 13][k] for k in position_of])
        assert tv_distance(visits, expected) < 0.01

    @pytest.mark.parametrize(
        "params",
        [
            NetworkParams(K=3, N=3),
            NetworkParams(K=3, N=2, p_l=0.1, p_r=0.3, boundary=Boundary.WRAP),
        ],
    )
    def test_visits_match_stationary_law(self, params):
        visits = simulate_config_visits(params, slots=300_000, seed=3)
        probs = np.array(
            [config_stationary_prob(c, params) for c in enumerate_configurations(params)]
        )
        assert tv_distance(visits, probs) < 0.01


@st.composite
def oracle_cases(draw):
    """Small runs over every mobility regime (stuck and wrap walks,
    p_t = 0, one-way walks, frozen nodes, K = 1, N = 0) with a policy
    spec and an observation mode. Moving probabilities stay at least 0.1
    away from 0 unless they are exactly 0, so that the optimal and
    best-threshold specs solve in a few sweeps."""
    K = draw(st.integers(min_value=1, max_value=6))
    N = draw(st.integers(min_value=0, max_value=6))
    boundary = draw(st.sampled_from([Boundary.STUCK, Boundary.WRAP]))
    regime = draw(st.sampled_from(["walk", "no_stay", "one_way", "frozen"]))
    prob = st.floats(min_value=0.1, max_value=0.45)
    if regime == "walk":
        p_l, p_r = draw(prob), draw(prob)
    elif regime == "no_stay":
        p_l = draw(st.floats(min_value=0.1, max_value=0.9))
        p_r = 1.0 - p_l  # p_t = 0 exactly
    elif regime == "one_way":
        p_l, p_r = 0.0, draw(st.floats(min_value=0.1, max_value=1.0))
    else:
        p_l = p_r = 0.0
    m = draw(st.integers(min_value=1, max_value=3))
    rates = (1.0, 0.5, 0.25)[:m]
    phi = draw(st.floats(min_value=0.0, max_value=1.0))
    params = NetworkParams(
        K=K, N=N, m=m, rates=rates, p_l=p_l, p_r=p_r, boundary=boundary, phi=phi
    )
    observe = draw(st.sampled_from(["current", "prev"]))
    threshold_specs = ["route-break", "rule:2", "fixed:0.3", "fixed:0"]
    table_specs = ["always", "never", "optimal", "best-threshold"]
    policy = draw(
        st.sampled_from(threshold_specs + (table_specs if observe == "current" else []))
    )
    slots = draw(st.integers(min_value=1, max_value=10_000))  # up to 3 walk blocks
    cfg = SimConfig(
        params=params,
        slots=slots,
        burn_in=draw(st.integers(min_value=0, max_value=slots - 1)),
        seed=draw(st.integers(min_value=0, max_value=2**32 - 1)),
        replications=draw(st.integers(min_value=1, max_value=3)),
        policy=policy,
    )
    return cfg, observe


def assert_matches_slot_oracle(cfg, observe="current"):
    """simulate and simulate_config_visits equal the per-slot reference
    exactly: the same report, to the last bit, and the same visits."""
    try:
        want = slot_oracle.simulate(cfg, observe=observe)
    except Exception as e:  # no exact solution to act on: both must fail
        with pytest.raises(type(e)):
            simulate(cfg, observe=observe)
        return
    assert simulate(cfg, observe=observe) == want
    visits = simulate_config_visits(cfg.params, cfg.slots, cfg.seed, replication=1)
    want_visits = slot_oracle.simulate_config_visits(
        cfg.params, cfg.slots, cfg.seed, replication=1
    )
    assert visits.dtype == want_visits.dtype
    assert np.array_equal(visits, want_visits)


class TestSlotOracle:
    @given(case=oracle_cases())
    @settings(
        max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_matches_per_slot_reference(self, case):
        assert_matches_slot_oracle(*case)

    @pytest.mark.parametrize(
        "params, policy, observe",
        [
            (NetworkParams(K=3, N=2, p_l=0.1, p_r=0.4, phi=0.3), "optimal", "current"),
            (
                NetworkParams(K=4, N=3, p_l=0.3, p_r=0.2, boundary=Boundary.WRAP),
                "rule:2",
                "prev",
            ),
        ],
    )
    def test_runs_longer_than_a_chunk(self, params, policy, observe):
        # 70,000 slots span two chunks of uniforms, and the burn-in ends
        # inside the second one
        cfg = SimConfig(
            params=params, slots=70_000, burn_in=66_000, seed=9, replications=2,
            policy=policy,
        )
        assert_matches_slot_oracle(cfg, observe)

    def test_long_line_ranks_without_overflow(self):
        # the reference's binomial table overflows int64 here; the
        # entries it reads are still exact
        params = NetworkParams(K=300, N=2, m=1, rates=(1.0,), p_l=0.4, p_r=0.4)
        cfg = SimConfig(
            params=params, slots=3000, burn_in=10, seed=4, replications=2, policy="always"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = simulate(cfg)
            visits = simulate_config_visits(params, 3000, seed=4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert got == slot_oracle.simulate(cfg)
            assert np.array_equal(
                visits, slot_oracle.simulate_config_visits(params, 3000, seed=4)
            )


class TestErrorBarCoverage:
    @pytest.mark.slow
    def test_three_sigma_interval_covers_exact_gain(self):
        # 100 independent trials (disjoint Philox keys); with 8
        # replications the 3-sigma band misses about 2% of the time,
        # so at least 95 hits is a comfortable deterministic check
        params = NetworkParams(K=2, N=1, phi=0.4)
        exact = report_exact(SimConfig(params=params, policy="fixed:0.2")).exact_gain
        hits = 0
        for trial in range(100):
            cfg = SimConfig(
                params=params,
                slots=120_000,
                burn_in=2_000,
                seed=8 * trial,
                replications=8,
                policy="fixed:0.2",
            )
            report = simulate(cfg)
            if abs(report.mc_mean - exact) <= 3.0 * report.mc_stderr:
                hits += 1
        assert hits >= 95


@pytest.fixture(scope="module")
def sweep():
    base = SimConfig(params=P21, slots=1000, burn_in=10)
    phis = [0.0, 0.5, 1.0]
    policies = ["optimal", "rule:2", "route-break", "always"]
    return sweep_phi(base, phis, policies)


class TestSweepPhi:
    def test_row_grid(self, sweep):
        assert len(sweep.rows) == 12
        assert [r.phi for r in sweep.rows] == [0.0] * 4 + [0.5] * 4 + [1.0] * 4
        assert [r.policy for r in sweep.rows[:4]] == [
            "optimal",
            "rule:2",
            "route-break",
            "always",
        ]

    def test_rows_are_exact(self, sweep):
        for row in sweep.rows:
            assert row.method == "exact"
            assert row.stderr is None
            assert 0.0 <= row.discovery_frequency <= 1.0

    def test_thresholds(self, sweep):
        by = {(r.phi, r.policy): r for r in sweep.rows}
        assert by[(0.5, "optimal")].threshold is None
        assert by[(0.5, "route-break")].threshold == 0.0
        e = expected_raw_throughput(P21)
        assert by[(0.0, "rule:2")].threshold == pytest.approx(e, abs=1e-12)
        assert by[(0.5, "rule:2")].threshold == pytest.approx(0.75 * e, abs=1e-12)
        assert by[(1.0, "rule:2")].threshold == 0.0

    def test_hand_values(self, sweep):
        by = {(r.phi, r.policy): r for r in sweep.rows}
        e = 1.0 / 3.0
        assert by[(0.0, "always")].gain == pytest.approx(e, abs=1e-9)
        assert by[(0.5, "always")].gain == pytest.approx(e / 2, abs=1e-9)
        assert by[(0.0, "optimal")].gain == pytest.approx(e, abs=1e-6)
        assert by[(0.5, "route-break")].gain == pytest.approx(7 / 24, abs=1e-9)
        # the rule threshold (0.25) sits below the only achievable rate,
        # so the rule's table coincides with route-break
        assert by[(0.5, "rule:2")].gain == by[(0.5, "route-break")].gain
        assert by[(0.5, "always")].discovery_frequency == 1.0

    def test_optimal_dominates_each_row(self, sweep):
        by = {(r.phi, r.policy): r for r in sweep.rows}
        for phi in (0.0, 0.5, 1.0):
            best = by[(phi, "optimal")].gain
            for policy in ("rule:2", "route-break", "always"):
                assert best >= by[(phi, policy)].gain - 1e-8

    def test_matches_standalone_exact_report(self, sweep):
        by = {(r.phi, r.policy): r for r in sweep.rows}
        cfg = SimConfig(params=P21.with_phi(0.5), policy="route-break")
        report = report_exact(cfg)
        assert by[(0.5, "route-break")].gain == pytest.approx(
            report.exact_gain, abs=1e-12
        )

    def test_single_cell_sweep(self):
        base = SimConfig(params=NetworkParams(K=2, N=1), slots=1000, burn_in=10)
        result = sweep_phi(base, [0.3], ["rule:2"])
        assert len(result.rows) == 1
        assert result.rows[0].policy == "rule:2"


class TestReportExact:
    def test_route_break_hand_value(self):
        cfg = SimConfig(params=NetworkParams(K=2, N=1, phi=0.5), policy="route-break")
        report = report_exact(cfg)
        assert report.exact_gain == pytest.approx(7 / 24, abs=1e-12)
        assert report.threshold == 0.0
        assert report.mc_mean is None
        assert 0.0 < report.discovery_frequency < 1.0

    def test_always_discover_closed_form(self):
        params = NetworkParams(K=3, N=2, phi=0.3)
        report = report_exact(SimConfig(params=params, policy="always"))
        expected = (1.0 - params.phi) * expected_raw_throughput(params)
        assert report.exact_gain == pytest.approx(expected, abs=1e-12)
        assert report.discovery_frequency == pytest.approx(1.0, abs=1e-12)

    def test_optimal_dominates_route_break(self):
        params = NetworkParams(K=3, N=2, phi=0.3)
        opt = report_exact(SimConfig(params=params, policy="optimal"))
        rb = report_exact(SimConfig(params=params, policy="route-break"))
        assert opt.threshold is None
        assert opt.exact_gain >= rb.exact_gain - 1e-8
