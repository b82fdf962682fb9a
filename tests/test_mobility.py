"""Mobility kernels and stationary laws."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

from manet1d import (
    Boundary,
    Configuration,
    EnumerationLimitError,
    NetworkParams,
    ReducibleChainError,
    config_kernel,
    config_stationary_prob,
    enumerate_configurations,
    node_kernel,
    stationary_node_distribution,
)
from manet1d.grid import rank_counts
from manet1d.mobility import move_targets


def product_kernel(params: NetworkParams) -> np.ndarray:
    """Configuration kernel built the slow independent way: take the
    per-node kernel, enumerate the joint moves of all N (labelled)
    nodes, and project onto occupancy counts."""
    nk = node_kernel(params).matrix
    configs = enumerate_configurations(params)
    index = {c.counts: i for i, c in enumerate(configs)}
    P = np.zeros((len(configs), len(configs)))
    for i, cfg in enumerate(configs):
        pos = [k for k, n in enumerate(cfg.counts) for _ in range(n)]
        for dests in itertools.product(range(params.K), repeat=len(pos)):
            prob = 1.0
            for p, d in zip(pos, dests):
                prob *= nk[p, d]
            if prob == 0.0:
                continue
            counts = [0] * params.K
            for d in dests:
                counts[d] += 1
            P[i, index[tuple(counts)]] += prob
    return P


def stationary_of(P: np.ndarray) -> np.ndarray:
    n = P.shape[0]
    A = P.T - np.eye(n)
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    return np.linalg.solve(A, b)


class TestNodeKernel:
    def test_stuck_symmetric_rows(self):
        P = node_kernel(NetworkParams(K=3, N=1, p_l=0.25, p_r=0.25)).matrix
        assert np.allclose(P[0], [0.75, 0.25, 0.0])
        assert np.allclose(P[1], [0.25, 0.5, 0.25])
        assert np.allclose(P[2], [0.0, 0.25, 0.75])

    def test_wrap_asymmetric_rows(self):
        P = node_kernel(
            NetworkParams(K=3, N=1, p_l=0.1, p_r=0.3, boundary=Boundary.WRAP)
        ).matrix
        assert np.allclose(P[0], [0.6, 0.3, 0.1])
        assert np.allclose(P[2], [0.3, 0.1, 0.6])

    def test_immobile_is_identity(self):
        P = node_kernel(NetworkParams(K=4, N=1, p_l=0.0, p_r=0.0)).matrix
        assert np.array_equal(P, np.eye(4))

    def test_k1_collapses_to_single_state(self):
        P = node_kernel(NetworkParams(K=1, N=1, p_l=0.3, p_r=0.3)).matrix
        assert np.allclose(P, [[1.0]])

    @given(
        K=st.integers(1, 8),
        p_l=st.floats(0.0, 0.5),
        p_r=st.floats(0.0, 0.5),
        wrap=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_rows_sum_to_one(self, K, p_l, p_r, wrap):
        boundary = Boundary.WRAP if wrap else Boundary.STUCK
        P = node_kernel(
            NetworkParams(K=K, N=1, p_l=p_l, p_r=p_r, boundary=boundary)
        ).matrix
        assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)
        assert (P >= 0).all()

    @given(K=st.integers(1, 8), p_l=st.floats(0.0, 0.5), p_r=st.floats(0.0, 0.5))
    @settings(max_examples=60, deadline=None)
    def test_wrap_always_doubly_stochastic(self, K, p_l, p_r):
        P = node_kernel(
            NetworkParams(K=K, N=1, p_l=p_l, p_r=p_r, boundary=Boundary.WRAP)
        ).matrix
        assert np.allclose(P.sum(axis=0), 1.0, atol=1e-12)

    @given(K=st.integers(1, 8), p=st.floats(0.0, 0.5))
    @settings(max_examples=60, deadline=None)
    def test_stuck_symmetric_doubly_stochastic(self, K, p):
        P = node_kernel(NetworkParams(K=K, N=1, p_l=p, p_r=p)).matrix
        assert np.allclose(P.sum(axis=0), 1.0, atol=1e-12)

    def test_stuck_asymmetric_is_not_doubly_stochastic(self):
        # the boundary fold feeds extra mass to the drift side
        P = node_kernel(NetworkParams(K=3, N=1, p_l=0.1, p_r=0.3)).matrix
        assert abs(P.sum(axis=0) - 1.0).max() > 0.1


class TestStationaryNodeDistribution:
    def test_stuck_symmetric_uniform(self):
        pi = stationary_node_distribution(
            node_kernel(NetworkParams(K=4, N=1, p_l=0.2, p_r=0.2))
        )
        assert np.allclose(pi, 0.25, atol=1e-12)

    def test_wrap_asymmetric_uniform(self):
        pi = stationary_node_distribution(
            node_kernel(
                NetworkParams(K=3, N=1, p_l=0.1, p_r=0.3, boundary=Boundary.WRAP)
            )
        )
        assert np.allclose(pi, 1 / 3, atol=1e-12)

    def test_single_position(self):
        pi = stationary_node_distribution(
            node_kernel(NetworkParams(K=1, N=1, p_l=0.4, p_r=0.2))
        )
        assert np.array_equal(pi, [1.0])

    def test_stuck_asymmetric_is_geometric(self):
        # birth-death detailed balance: pi[k+1]/pi[k] = p_r/p_l
        pi = stationary_node_distribution(
            node_kernel(NetworkParams(K=3, N=1, p_l=0.1, p_r=0.3))
        )
        assert np.allclose(pi, np.array([1.0, 3.0, 9.0]) / 13.0, atol=1e-12)

    def test_one_way_stuck_walk_piles_up(self):
        # one closed class, {K}: the law is unique though not irreducible
        pi = stationary_node_distribution(
            node_kernel(NetworkParams(K=3, N=1, p_l=0.0, p_r=0.3))
        )
        assert np.array_equal(pi, [0.0, 0.0, 1.0])

    def test_immobile_raises(self):
        with pytest.raises(ReducibleChainError) as exc:
            stationary_node_distribution(
                node_kernel(NetworkParams(K=3, N=1, p_l=0.0, p_r=0.0))
            )
        assert len(exc.value.classes) == 3

    @given(
        K=st.integers(2, 8),
        p_l=st.floats(0.01, 0.5),
        p_r=st.floats(0.01, 0.5),
        wrap=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_doubly_stochastic_kernels_are_uniform(self, K, p_l, p_r, wrap):
        if wrap:
            params = NetworkParams(K=K, N=1, p_l=p_l, p_r=p_r, boundary=Boundary.WRAP)
        else:
            params = NetworkParams(K=K, N=1, p_l=p_l, p_r=p_l)  # symmetric stuck
        pi = stationary_node_distribution(node_kernel(params))
        assert np.allclose(pi, 1.0 / K, atol=1e-9)


class TestMoveTargets:
    def test_stuck_folds_ends(self):
        t = move_targets(NetworkParams(K=3, N=1))
        assert t[0].tolist() == [0, 0, 1]
        assert t[1].tolist() == [0, 1, 2]
        assert t[2].tolist() == [1, 2, 2]

    def test_wrap_connects_ends(self):
        t = move_targets(NetworkParams(K=3, N=1, boundary=Boundary.WRAP))
        assert t[0].tolist() == [2, 0, 1]
        assert t[2].tolist() == [1, 2, 0]


class TestConfigStationaryProb:
    def test_two_nodes_two_positions(self):
        p = NetworkParams(K=2, N=2)
        assert config_stationary_prob(Configuration((1, 1)), p) == pytest.approx(0.5)

    def test_all_nodes_on_one_position(self):
        p = NetworkParams(K=3, N=4)
        assert config_stationary_prob(Configuration((4, 0, 0)), p) == pytest.approx(
            (1 / 3) ** 4
        )

    def test_spread_three_nodes(self):
        p = NetworkParams(K=3, N=3)
        assert config_stationary_prob(Configuration((1, 1, 1)), p) == pytest.approx(
            6 / 27
        )

    def test_rejects_mismatched_shape(self):
        p = NetworkParams(K=3, N=2)
        with pytest.raises(ValueError):
            config_stationary_prob(Configuration((1, 1)), p)
        with pytest.raises(ValueError):
            config_stationary_prob(Configuration((1, 1, 1)), p)

    @given(K=st.integers(1, 5), N=st.integers(0, 6))
    @settings(max_examples=30, deadline=None)
    def test_sums_to_one(self, K, N):
        params = NetworkParams(K=K, N=N)
        total = sum(
            config_stationary_prob(c, params)
            for c in enumerate_configurations(params)
        )
        assert total == pytest.approx(1.0, abs=1e-10)


class TestConfigKernel:
    def test_single_node_two_positions(self):
        params = NetworkParams(K=2, N=1, p_l=0.5, p_r=0.5)
        kernel = config_kernel(params)
        i, j = rank_counts([(1, 0), (0, 1)], 1)
        assert kernel.matrix[i, i] == pytest.approx(0.5)  # left move folds back
        assert kernel.matrix[i, j] == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "params",
        [
            NetworkParams(K=3, N=2),
            NetworkParams(K=2, N=3, p_l=0.4, p_r=0.1),
            NetworkParams(K=3, N=2, p_l=0.1, p_r=0.3, boundary=Boundary.WRAP),
            NetworkParams(K=4, N=2, p_l=0.3, p_r=0.2, boundary=Boundary.WRAP),
        ],
    )
    def test_matches_labelled_product_kernel(self, params):
        got = config_kernel(params).matrix
        want = product_kernel(params)
        assert np.abs(got - want).max() < 1e-12

    @pytest.mark.parametrize(
        "params",
        [
            NetworkParams(K=3, N=3),
            NetworkParams(K=4, N=2, p_l=0.1, p_r=0.2, boundary=Boundary.WRAP),
        ],
    )
    def test_rows_sum_to_one(self, params):
        P = config_kernel(params).matrix
        assert np.abs(P.sum(axis=1) - 1.0).max() < 1e-10

    def test_monte_carlo_row(self):
        # empirical one-step frequencies out of [1,1,0] for two walkers
        params = NetworkParams(K=3, N=2, p_l=0.25, p_r=0.25)
        kernel = config_kernel(params)
        row = kernel.matrix.toarray()[rank_counts([(1, 1, 0)], 2)[0]]

        rng = np.random.default_rng(42)
        trials = 10**6
        start = np.array([0, 1])
        u = rng.random((trials, 2))
        moves = np.where(u < 0.25, -1, np.where(u < 0.75, 0, 1))
        pos = np.clip(start + moves, 0, 2)
        counts = np.zeros((trials, 3), dtype=np.int64)
        for node in range(2):
            np.add.at(counts, (np.arange(trials), pos[:, node]), 1)
        ids = rank_counts(counts, 2)
        empirical = np.bincount(ids, minlength=len(row)) / trials
        assert np.abs(empirical - row).max() < 0.005

    @pytest.mark.parametrize(
        "params",
        [NetworkParams(K=K, N=N) for K in (2, 3, 4) for N in (1, 2, 3, 4)]
        + [
            NetworkParams(K=3, N=3, p_l=0.1, p_r=0.3, boundary=Boundary.WRAP),
            NetworkParams(K=4, N=4, p_l=0.2, p_r=0.4, boundary=Boundary.WRAP),
        ],
    )
    def test_stationary_matches_multinomial(self, params):
        kernel = config_kernel(params)
        pi = stationary_of(kernel.matrix)
        want = np.array(
            [config_stationary_prob(c, params) for c in enumerate_configurations(params)]
        )
        assert np.abs(pi - want).max() < 1e-8

    def test_config_limit_guard(self):
        with pytest.raises(EnumerationLimitError):
            config_kernel(NetworkParams(K=3, N=2), config_limit=2)

    def test_split_limit_guard(self):
        with pytest.raises(EnumerationLimitError):
            config_kernel(NetworkParams(K=4, N=8), split_limit=10)
        with pytest.raises(
            EnumerationLimitError,
            match=re.escape(
                "per-position split cross-product exceeds 5 "
                "for configuration [0 0 3]"
            ),
        ):
            config_kernel(NetworkParams(K=3, N=3), split_limit=5)

    def test_stored_as_csr_with_exactly_the_nonzero_entries(self):
        # with p_l = p_r = 1e-200 some products across positions underflow
        # to 0.0; the kernel stores none of them, in column order per row
        params = NetworkParams(K=4, N=3, p_l=1e-200, p_r=1e-200)
        P = config_kernel(params).matrix
        assert isinstance(P, csr_matrix)
        assert np.all(P.data != 0.0)
        dense = P.toarray()
        assert P.nnz == np.count_nonzero(dense)
        for i in range(P.shape[0]):
            cols = P.indices[P.indptr[i] : P.indptr[i + 1]]
            assert np.all(np.diff(cols) > 0)
            assert np.array_equal(cols, np.flatnonzero(dense[i]))
        for arr in (P.data, P.indices, P.indptr):
            assert not arr.flags.writeable

    def test_matrices_are_read_only(self):
        kernel = config_kernel(NetworkParams(K=2, N=1))
        with pytest.raises(ValueError):
            kernel.matrix[0, 0] = 0.0
        nk = node_kernel(NetworkParams(K=2, N=1))
        with pytest.raises(ValueError):
            nk.matrix[0, 0] = 0.0
