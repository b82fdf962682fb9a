"""Grid model: parameters, configurations, route enumeration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manet1d import (
    NULL_ROUTE,
    Boundary,
    Configuration,
    EnumerationLimitError,
    NetworkParams,
    Route,
    configuration_count,
    enumerate_configurations,
    enumerate_routes,
    hop_rate,
    route_supported,
)
from manet1d.grid import rank_counts

# Route census for K=4, m=2, written out by hand (nearest-extension
# depth-first order), with the null route last.
K4_ROUTES = [
    (0, 1, 2, 3, 4, 5),
    (0, 1, 2, 3, 5),
    (0, 1, 2, 4, 5),
    (0, 1, 3, 4, 5),
    (0, 1, 3, 5),
    (0, 2, 3, 4, 5),
    (0, 2, 3, 5),
    (0, 2, 4, 5),
]


def pascal_comb(n: int, r: int) -> int:
    """Binomial coefficient by Pascal's rule; independent of math.comb."""
    if r < 0 or r > n:
        return 0
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[r]


def brute_force_routes(K: int, m: int) -> set[tuple[int, ...]]:
    """All valid relay paths by filtering every subset of {1..K}."""
    out = set()
    for mask in range(1 << K):
        interior = [p for p in range(1, K + 1) if mask >> (p - 1) & 1]
        path = [0] + interior + [K + 1]
        if all(b - a <= m for a, b in zip(path, path[1:])):
            out.add(tuple(path))
    return out


class TestNetworkParams:
    def test_defaults(self):
        p = NetworkParams(K=3, N=2)
        assert p.m == 2
        assert p.rates == (1.0, 0.5)
        assert p.boundary is Boundary.STUCK
        assert p.p_t == pytest.approx(0.5)
        assert p.source == 0
        assert p.dest == 4

    def test_with_phi_replaces_only_phi(self):
        p = NetworkParams(K=3, N=2, phi=0.1)
        q = p.with_phi(0.7)
        assert q.phi == 0.7
        assert (q.K, q.N, q.rates) == (p.K, p.N, p.rates)
        assert p.phi == 0.1

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(K=0, N=1),
            dict(K=3, N=-1),
            dict(K=3, N=1, m=0, rates=()),
            dict(K=3, N=1, rates=(1.0,)),  # length != m
            dict(K=3, N=1, rates=(0.5, 1.0)),  # increasing
            dict(K=3, N=1, rates=(1.0, 0.0)),  # zero rate
            dict(K=3, N=1, rates=(2.0, 1.0)),  # above 1
            dict(K=3, N=1, p_l=0.7, p_r=0.7),
            dict(K=3, N=1, p_l=-0.1),
            dict(K=3, N=1, phi=1.5),
            dict(K=3, N=1, boundary="wrap"),
        ],
    )
    def test_validation_rejects(self, kwargs):
        with pytest.raises(ValueError):
            NetworkParams(**kwargs)


class TestHopRate:
    def test_values(self):
        p = NetworkParams(K=4, N=1)
        assert hop_rate(1, p) == 1.0
        assert hop_rate(2, p) == 0.5
        assert hop_rate(3, p) == 0.0

    def test_rejects_zero_length(self):
        with pytest.raises(ValueError):
            hop_rate(0, NetworkParams(K=4, N=1))

    @given(d=st.integers(min_value=1, max_value=10))
    def test_non_increasing_and_zero_beyond_range(self, d):
        p = NetworkParams(K=4, N=1, m=3, rates=(1.0, 0.5, 0.25))
        assert hop_rate(d, p) >= hop_rate(d + 1, p)
        if d > p.m:
            assert hop_rate(d, p) == 0.0


class TestConfigurations:
    def test_small_census(self):
        p = NetworkParams(K=2, N=2)
        assert [c.counts for c in enumerate_configurations(p)] == [
            (0, 2),
            (1, 1),
            (2, 0),
        ]

    def test_single_position(self):
        p = NetworkParams(K=1, N=5)
        assert [c.counts for c in enumerate_configurations(p)] == [(5,)]

    def test_count_k5_n9(self):
        p = NetworkParams(K=5, N=9)
        configs = enumerate_configurations(p)
        assert len(configs) == pascal_comb(13, 4) == 715
        assert configuration_count(p) == 715

    def test_limit_guard(self):
        p = NetworkParams(K=5, N=9)
        with pytest.raises(EnumerationLimitError):
            enumerate_configurations(p, limit=100)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            Configuration((1, -1))

    def test_occupied(self):
        c = Configuration((2, 0, 1))
        assert c.occupied(1) and c.occupied(3)
        assert not c.occupied(2)
        assert str(c) == "[2 0 1]"

    @given(K=st.integers(1, 6), N=st.integers(0, 10))
    @settings(max_examples=40, deadline=None)
    def test_census_properties(self, K, N):
        p = NetworkParams(K=K, N=N)
        configs = enumerate_configurations(p)
        counts = [c.counts for c in configs]
        assert len(counts) == pascal_comb(N + K - 1, K - 1)
        assert len(set(counts)) == len(counts)
        assert counts == sorted(counts)  # ascending lexicographic
        assert all(sum(c) == N for c in counts)


class TestRoutes:
    def test_k4_census_in_order(self):
        routes = enumerate_routes(NetworkParams(K=4, N=1))
        assert [r.positions for r in routes[:-1]] == K4_ROUTES
        assert routes[-1] is NULL_ROUTE

    def test_k1_includes_direct_route(self):
        routes = enumerate_routes(NetworkParams(K=1, N=1))
        assert {r.positions for r in routes} == {(0, 1, 2), (0, 2), ()}
        assert len(routes) == 3

    def test_k5_count(self):
        routes = enumerate_routes(NetworkParams(K=5, N=1))
        assert len(routes) == 14  # 13 non-null + null

    def test_null_route(self):
        assert NULL_ROUTE.is_null
        assert NULL_ROUTE.hops == 0
        assert NULL_ROUTE.interior == ()
        assert str(NULL_ROUTE) == "(null)"

    def test_route_rendering(self):
        assert str(Route((0, 1, 3, 5))) == "(S,1,3,D)"
        assert str(Route((0, 2))) == "(S,D)"
        assert Route((0, 1, 3, 5)).hops == 3
        assert Route((0, 1, 3, 5)).interior == (1, 3)

    @given(K=st.integers(1, 6), m=st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_census_matches_brute_force(self, K, m):
        rates = (1.0, 0.5, 0.25)[:m]
        params = NetworkParams(K=K, N=1, m=m, rates=rates)
        routes = enumerate_routes(params)
        non_null = [r.positions for r in routes if not r.is_null]
        assert set(non_null) == brute_force_routes(K, m)
        assert len(set(non_null)) == len(non_null)
        assert routes[-1].is_null
        for pos in non_null:
            assert pos[0] == 0 and pos[-1] == K + 1
            assert all(b - a >= 1 for a, b in zip(pos, pos[1:]))
            assert all(b - a <= m for a, b in zip(pos, pos[1:]))


class TestRouteSupported:
    def test_examples(self):
        cfg = Configuration((1, 0, 1, 0))
        assert route_supported(Route((0, 1, 3, 5)), cfg)
        assert not route_supported(Route((0, 1, 2, 3, 5)), cfg)
        assert not route_supported(NULL_ROUTE, cfg)

    def test_multiple_nodes_still_support(self):
        cfg = Configuration((3, 0, 2, 0))
        assert route_supported(Route((0, 1, 3, 5)), cfg)

    def test_relayless_route_always_supported(self):
        assert route_supported(Route((0, 2)), Configuration((0,)))


def test_rank_counts_is_the_enumeration_index():
    for K in range(1, 9):
        for N in range(11):
            configs = enumerate_configurations(NetworkParams(K=K, N=N))
            counts = np.array([c.counts for c in configs])
            assert rank_counts(counts, N).tolist() == list(range(len(configs)))


@pytest.mark.parametrize("row", [(1, 0, 0), (2, 1, 0), (3, -1, 0)])
def test_rank_counts_rejects_rows_of_another_node_count(row):
    with pytest.raises(ValueError):
        rank_counts([row], 2)
