"""Conflict graphs, independent sets, and route throughput against the
LP oracle and a brute-force grid oracle."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manet1d import (
    NULL_ROUTE,
    Configuration,
    ConflictGraph,
    EnumerationLimitError,
    Link,
    NetworkParams,
    Route,
    best_route,
    build_conflict_graph,
    enumerate_routes,
    maximal_independent_sets,
    route_throughput,
)
from manet1d.scheduling import _route_table, _route_throughput_exact

from lp_oracle import lp_route_throughput, solve_lp

P4 = NetworkParams(K=4, N=1)

# (m, rates) settings for the closed-form checks; 0.9, 0.35, 0.2 are not
# dyadic, so their Fractions have large odd numerators
RATE_SETTINGS = [
    (1, (1.0,)),
    (2, (1.0, 0.5)),
    (3, (1.0, 0.5, 0.25)),
    (3, (0.9, 0.35, 0.2)),
    (4, (1.0, 0.6, 0.3, 0.1)),
]


def dummy_graph(n: int, edges) -> ConflictGraph:
    links = tuple(Link(a=i, b=i + 1, rate=1.0) for i in range(n))
    return ConflictGraph(links=links, edges=frozenset(edges))


def brute_force_mis(n: int, edges: set) -> set[tuple[int, ...]]:
    """Maximal independent sets by scanning all 2^n subsets."""
    norm = {(min(a, b), max(a, b)) for a, b in edges}

    def independent(s):
        return not any((min(i, j), max(i, j)) in norm
                       for i, j in itertools.combinations(s, 2))

    indep = [frozenset(s)
             for r in range(n + 1)
             for s in itertools.combinations(range(n), r)
             if independent(s)]
    return {
        tuple(sorted(s))
        for s in indep
        if not any(s < t for t in indep)
    }


# ---------------------------------------------------------------------------
# independent throughput oracle: own conflict rule, own subset-based MIS,
# own grid search over time shares in units of 1/step


def oracle_throughput(route: Route, params: NetworkParams, step: int = 60) -> float:
    pos = route.positions
    ends = [(a, b) for a, b in zip(pos, pos[1:])]
    rates = [params.rates[b - a - 1] for a, b in ends]
    L = len(ends)
    conflict = {
        (i, j)
        for i in range(L)
        for j in range(i + 1, L)
        if min(abs(x - y) for x in ends[i] for y in ends[j]) <= params.m
    }
    sets = sorted(brute_force_mis(L, conflict))
    per_set = [[ell for ell in range(L) if ell in s] for s in sets]

    best = 0.0
    coverage = [0] * L  # grid units of active time per link

    def rec(set_idx: int, remaining: int):
        nonlocal best
        if set_idx == len(sets) - 1:
            for ell in per_set[set_idx]:
                coverage[ell] += remaining
            f = min(coverage[ell] * rates[ell] for ell in range(L)) / step
            if f > best:
                best = f
            for ell in per_set[set_idx]:
                coverage[ell] -= remaining
            return
        for units in range(remaining + 1):
            for ell in per_set[set_idx]:
                coverage[ell] += units
            rec(set_idx + 1, remaining - units)
            for ell in per_set[set_idx]:
                coverage[ell] -= units
    rec(0, step)
    return best


class TestSimplex:
    def test_small_maximum(self):
        F = Fraction
        value, x = solve_lp(
            [F(1), F(2)],
            [[F(1), F(1)], [F(0), F(1)]],
            [F(4), F(2)],
        )
        assert value == 6
        assert x == [F(2), F(2)]

    def test_unbounded(self):
        with pytest.raises(ValueError, match="unbounded"):
            solve_lp([Fraction(1)], [[Fraction(-1)]], [Fraction(1)])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve_lp([Fraction(1)], [[Fraction(1), Fraction(1)]], [Fraction(1)])

    def test_negative_rhs_rejected(self):
        with pytest.raises(ValueError):
            solve_lp([Fraction(1)], [[Fraction(1)]], [Fraction(-1)])

    def test_degenerate_ties_terminate(self):
        F = Fraction
        value, _ = solve_lp(
            [F(1), F(1)],
            [[F(1), F(0)], [F(1), F(0)], [F(0), F(1)]],
            [F(1), F(1), F(1)],
        )
        assert value == 2


class TestConflictGraph:
    def test_five_link_chain(self):
        g = build_conflict_graph(Route((0, 1, 2, 3, 4, 5)), P4)
        assert len(g.links) == 5
        # only the end links are far enough apart to coexist
        for i, j in itertools.combinations(range(5), 2):
            if (i, j) == (0, 4):
                assert not g.conflicts(i, j)
            else:
                assert g.conflicts(i, j)

    def test_shared_endpoint_conflicts(self):
        g = build_conflict_graph(Route((0, 1, 2)), NetworkParams(K=1, N=1))
        assert len(g.links) == 2
        assert g.conflicts(0, 1)

    def test_single_link(self):
        g = build_conflict_graph(Route((0, 2)), NetworkParams(K=1, N=1))
        assert len(g.links) == 1
        assert g.edges == frozenset()

    def test_null_route(self):
        g = build_conflict_graph(NULL_ROUTE, P4)
        assert g.links == ()

    def test_link_rates_follow_length(self):
        g = build_conflict_graph(Route((0, 2, 3, 5)), P4)
        assert [link.rate for link in g.links] == [0.5, 1.0, 0.5]
        assert [link.length for link in g.links] == [2, 1, 2]

    def test_no_self_conflict(self):
        g = build_conflict_graph(Route((0, 1, 2, 3, 4, 5)), P4)
        assert not any(g.conflicts(i, i) for i in range(5))


class TestMaximalIndependentSets:
    def test_five_link_chain(self):
        g = build_conflict_graph(Route((0, 1, 2, 3, 4, 5)), P4)
        assert maximal_independent_sets(g) == [(0, 4), (1,), (2,), (3,)]

    def test_edgeless(self):
        assert maximal_independent_sets(dummy_graph(3, [])) == [(0, 1, 2)]

    def test_complete(self):
        g = dummy_graph(3, [(0, 1), (0, 2), (1, 2)])
        assert maximal_independent_sets(g) == [(0,), (1,), (2,)]

    def test_empty_graph(self):
        assert maximal_independent_sets(dummy_graph(0, [])) == []

    def test_limit_guard(self):
        g = dummy_graph(3, [(0, 1), (0, 2), (1, 2)])
        with pytest.raises(EnumerationLimitError):
            maximal_independent_sets(g, limit=2)

    @given(
        n=st.integers(1, 7),
        edge_bits=st.integers(min_value=0, max_value=2**21 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, n, edge_bits):
        pairs = list(itertools.combinations(range(n), 2))
        edges = {p for k, p in enumerate(pairs) if edge_bits >> k & 1}
        g = dummy_graph(n, edges)
        got = maximal_independent_sets(g)
        assert set(got) == brute_force_mis(n, edges)
        assert got == sorted(got)


class TestRouteThroughput:
    def test_three_unit_links_share_the_slot(self):
        f, _ = route_throughput(Route((0, 1, 2, 3)), NetworkParams(K=2, N=1))
        assert f == pytest.approx(1 / 3, abs=1e-12)

    def test_full_route_k4(self):
        f, schedule = route_throughput(Route((0, 1, 2, 3, 4, 5)), P4)
        assert f == pytest.approx(0.25, abs=1e-12)
        assert schedule.throughput == pytest.approx(f)

    def test_long_hops_route_k4(self):
        f, _ = route_throughput(Route((0, 2, 4, 5)), P4)
        assert f == pytest.approx(0.2, abs=1e-12)

    def test_null_route(self):
        f, schedule = route_throughput(NULL_ROUTE, P4)
        assert f == 0.0
        assert schedule.sets == ()

    @pytest.mark.parametrize("K", [1, 2, 3, 4, 5])
    def test_schedule_is_feasible_and_achieves_f(self, K):
        params = NetworkParams(K=K, N=1)
        for route in enumerate_routes(params):
            if route.is_null:
                continue
            f, schedule = route_throughput(route, params)
            graph = build_conflict_graph(route, params)
            shares = [share for _, share in schedule.sets]
            assert sum(shares) <= 1.0 + 1e-12
            assert all(share > 0 for share in shares)
            for ell, link in enumerate(graph.links):
                coverage = sum(
                    share for links, share in schedule.sets if ell in links
                )
                assert coverage * link.rate >= f - 1e-12
            for links, _ in schedule.sets:
                assert not any(
                    graph.conflicts(i, j)
                    for i, j in itertools.combinations(links, 2)
                )

    @pytest.mark.parametrize("K", [1, 2, 3, 4, 5])
    def test_tdma_and_bottleneck_bounds(self, K):
        params = NetworkParams(K=K, N=1)
        for route in enumerate_routes(params):
            if route.is_null:
                continue
            f, _ = route_throughput(route, params)
            graph = build_conflict_graph(route, params)
            tdma = 1.0 / sum(1.0 / link.rate for link in graph.links)
            bottleneck = min(link.rate for link in graph.links)
            assert f > 0.0
            assert f >= tdma - 1e-12
            assert f <= bottleneck + 1e-12

    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_matches_grid_oracle(self, K):
        # light version; the full K <= 5 comparison runs in the
        # acceptance suite
        params = NetworkParams(K=K, N=1)
        for route in enumerate_routes(params):
            if route.is_null:
                continue
            f, _ = route_throughput(route, params)
            grid_best = oracle_throughput(route, params)
            assert f >= grid_best - 1e-12
            assert f - grid_best <= 1 / 60


class TestClosedFormAgainstLp:
    @pytest.mark.parametrize("m, rates", RATE_SETTINGS)
    def test_equals_lp_as_fractions(self, m, rates):
        for K in range(1, 9):
            routes, values, _ = _route_table(K, m, rates)
            params = NetworkParams(K=K, N=0, m=m, rates=rates)
            for route, value in zip(routes, values):
                lp = lp_route_throughput(route, params)
                assert value == lp, route
                assert route_throughput(route, params)[0] == float(lp)

    @pytest.mark.parametrize("m, rates", RATE_SETTINGS)
    def test_circle_schedule_is_optimal_and_maximal(self, m, rates):
        for K in range(1, 13):
            params = NetworkParams(K=K, N=0, m=m, rates=rates)
            for route in enumerate_routes(params):
                if route.is_null:
                    continue
                f, entries = _route_throughput_exact(route, params)
                graph = build_conflict_graph(route, params)
                L = len(graph.links)
                assert all(share > 0 for _, share in entries)
                assert sum(share for _, share in entries) == 1
                coverage = [Fraction(0)] * L
                for links, share in entries:
                    assert not any(
                        graph.conflicts(i, j)
                        for i, j in itertools.combinations(links, 2)
                    )
                    assert all(
                        any(graph.conflicts(k, i) for i in links)
                        for k in range(L)
                        if k not in links
                    )
                    for i in links:
                        coverage[i] += share
                for cov, link in zip(coverage, graph.links):
                    assert cov * Fraction(link.rate) >= f


class TestBestRoute:
    def test_fully_occupied_k4(self):
        # three routes tie at f = 0.25; fewest hops then lexicographic
        # order picks (S,1,2,4,D)
        route, f = best_route(Configuration((1, 1, 1, 1)), P4)
        assert f == pytest.approx(0.25, abs=1e-12)
        assert route.positions == (0, 1, 2, 4, 5)
        for tied in [(0, 1, 2, 3, 4, 5), (0, 1, 3, 4, 5)]:
            tf, _ = route_throughput(Route(tied), P4)
            assert tf == pytest.approx(f, abs=1e-12)

    def test_single_relay_k2(self):
        route, f = best_route(Configuration((1, 0)), NetworkParams(K=2, N=1))
        assert route.positions == (0, 1, 3)
        assert f == pytest.approx(1 / 3, abs=1e-12)

    def test_unreachable_config(self):
        route, f = best_route(
            Configuration((0, 0, 0, 1, 1)), NetworkParams(K=5, N=2)
        )
        assert route.is_null
        assert f == 0.0

    def test_empty_network(self):
        route, f = best_route(Configuration((0, 0, 0, 0)), P4)
        assert route.is_null and f == 0.0

    @given(
        counts=st.lists(st.integers(0, 2), min_size=4, max_size=4),
        extra=st.integers(0, 3),
        where=st.integers(0, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_stacking_nodes(self, counts, extra, where):
        cfg = Configuration(tuple(counts))
        route, f = best_route(cfg, P4)
        if counts[where] == 0:
            return  # only stack onto already-occupied positions
        stacked = list(counts)
        stacked[where] += extra
        route2, f2 = best_route(Configuration(tuple(stacked)), P4)
        assert route2 == route
        assert f2 == f
