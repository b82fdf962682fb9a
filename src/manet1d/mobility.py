"""Node and configuration mobility kernels.

Each node independently moves one step left with probability p_l, one
step right with probability p_r, or stays with probability
p_t = 1 - p_l - p_r, at the start of every slot. At the ends of the
line a node either waits in place (STUCK) or re-enters from the other
end (WRAP). The occupancy-count process of N such walkers is itself a
Markov chain; its kernel is built here exactly by enumerating, per
position, the ways its occupants can split into left/stay/right movers.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.sparse import csgraph, csr_matrix

from .errors import EnumerationLimitError, ReducibleChainError
from .grid import (
    Boundary,
    Configuration,
    NetworkParams,
    configuration_rows,
    format_counts,
)

DEFAULT_SPLIT_LIMIT = 10**6
DEFAULT_KERNEL_CONFIG_LIMIT = 4000


@dataclass(frozen=True)
class NodeKernel:
    """Single-node transition matrix over positions 1..K (row-stochastic;
    also column-stochastic for WRAP, and for STUCK when p_l == p_r)."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix.setflags(write=False)

    @property
    def K(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class ConfigKernel:
    """Transition matrix of the occupancy-count chain in CSR form, with
    sorted column indices and exactly its nonzero entries stored; rows
    and columns follow the configuration_rows order (grid.rank_counts
    gives the index of an occupancy vector). Its `.T` view serves
    products with the transpose."""

    matrix: csr_matrix

    def __post_init__(self):
        for arr in (self.matrix.data, self.matrix.indices, self.matrix.indptr):
            arr.setflags(write=False)

    @cached_property
    def classes(self) -> list[np.ndarray]:
        """Closed classes of the configuration chain (see closed_classes)."""
        return closed_classes(self.matrix)


def move_targets(params: NetworkParams) -> np.ndarray:
    """(K, 3) table: where a node at each position lands when it moves
    left / stays / moves right, 0-based. Boundary handling folds the
    blocked move back onto the position (STUCK) or wraps it (WRAP)."""
    K = params.K
    t = np.empty((K, 3), dtype=np.int64)
    for p in range(K):
        t[p, 1] = p
        if p > 0:
            t[p, 0] = p - 1
        else:
            t[p, 0] = K - 1 if params.boundary is Boundary.WRAP else 0
        if p < K - 1:
            t[p, 2] = p + 1
        else:
            t[p, 2] = 0 if params.boundary is Boundary.WRAP else K - 1
    return t


def node_kernel(params: NetworkParams) -> NodeKernel:
    """Exact single-node kernel for the given mobility parameters."""
    K = params.K
    targets = move_targets(params)
    probs = (params.p_l, params.p_t, params.p_r)
    P = np.zeros((K, K))
    for p in range(K):
        for which in range(3):
            P[p, targets[p, which]] += probs[which]
    return NodeKernel(matrix=P)


def closed_classes(G: csr_matrix) -> list[np.ndarray]:
    """Closed classes of a Markov chain: its strongly connected
    components with no edge leaving them. The stored entries of the
    CSR matrix G are the edges. Each class is a sorted array of state
    indices, and the classes come ordered by their smallest state.
    Used for the node and configuration kernels; the closed classes of
    a policy's induced chain are found without building that chain
    (mdp._policy_classes)."""
    n_comp, labels = csgraph.connected_components(
        G, directed=True, connection="strong"
    )
    src = np.repeat(labels, np.diff(G.indptr))
    dst = labels[G.indices]
    is_open = np.zeros(n_comp, dtype=bool)
    is_open[src[src != dst]] = True
    # states grouped by label, ascending within each group
    order = np.argsort(labels, kind="stable")
    groups = np.split(order, np.cumsum(np.bincount(labels, minlength=n_comp))[:-1])
    closed = [groups[lab] for lab in np.flatnonzero(~is_open)]
    closed.sort(key=lambda cls: int(cls[0]))
    return closed


def _stationary_dense(P: np.ndarray) -> np.ndarray:
    """Stationary vector of an irreducible row-stochastic matrix via a
    direct solve of pi (P - I) = 0 with the normalisation replacing one
    equation."""
    n = P.shape[0]
    A = P.T - np.eye(n)
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    pi = np.linalg.solve(A, b)
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def stationary_node_distribution(kernel: NodeKernel) -> np.ndarray:
    """Unique stationary distribution of the node kernel, zero off its
    single closed class (a one-way stuck walk piles up at one end).
    Raises ReducibleChainError when there are several closed classes
    (for example p_l = p_r = 0), so that no law is unique."""
    P = kernel.matrix
    if P.shape[0] == 1:
        return np.array([1.0])
    closed = closed_classes(csr_matrix(P))
    if len(closed) != 1:
        raise ReducibleChainError(
            f"node kernel has {len(closed)} closed classes", classes=closed
        )
    pi = np.zeros(P.shape[0])
    pi[closed[0]] = _stationary_dense(P[np.ix_(closed[0], closed[0])])
    return pi


def config_stationary_law(counts: np.ndarray, params: NetworkParams) -> np.ndarray:
    """Steady-state probability of each occupancy vector (one per row of
    `counts`). Nodes move independently, so the occupancy law is the
    multinomial with the node's stationary law pi:
    N! / (n_1! ... n_K!) * pi_1^n_1 ... pi_K^n_K.
    Raises ReducibleChainError when the node law is not unique."""
    pi = stationary_node_distribution(node_kernel(params))
    counts = np.asarray(counts)
    log_fact = np.array([math.lgamma(n + 1) for n in range(params.N + 1)])
    on = pi > 0  # the node kernel's closed class
    log_p = (
        log_fact[params.N]
        - log_fact[counts].sum(axis=1)
        + counts[:, on] @ np.log(pi[on])
    )
    return np.where(counts[:, ~on].any(axis=1), 0.0, np.exp(log_p))


def config_stationary_prob(config: Configuration, params: NetworkParams) -> float:
    """Steady-state probability of one occupancy vector; see
    config_stationary_law."""
    counts = config.counts
    if len(counts) != params.K:
        raise ValueError(f"configuration has {len(counts)} positions, K={params.K}")
    if sum(counts) != params.N:
        raise ValueError(f"configuration holds {sum(counts)} nodes, N={params.N}")
    return float(config_stationary_law(np.array([counts]), params)[0])


@lru_cache(maxsize=8)
def _config_kernel_cached(
    K: int,
    N: int,
    p_l: float,
    p_r: float,
    boundary: Boundary,
    split_limit: int,
    config_limit: int,
) -> ConfigKernel:
    params = NetworkParams(K=K, N=N, p_l=p_l, p_r=p_r, boundary=boundary)
    rows = configuration_rows(params).tolist()
    C = len(rows)
    if C > config_limit:
        raise EnumerationLimitError(
            f"{C} configurations exceed the kernel size limit {config_limit}"
        )
    index = {tuple(row): i for i, row in enumerate(rows)}
    targets = move_targets(params)
    probs = (params.p_l, params.p_t, params.p_r)

    # Splits of n occupants into (left, stay, right) movers, with their
    # multinomial weights; weights depend only on n, not the position.
    splits_for = []
    for n in range(N + 1):
        splits = []
        for a in range(n + 1):
            for b in range(n - a + 1):
                c = n - a - b
                w = (
                    math.comb(n, a)
                    * math.comb(n - a, b)
                    * probs[0] ** a
                    * probs[1] ** b
                    * probs[2] ** c
                )
                if w > 0.0:
                    splits.append((a, b, c, w))
        splits_for.append(splits)

    # typed buffers hold 8 bytes an entry, where lists hold a pointer
    # and a boxed number
    indptr = array("q", [0])
    indices = array("q")
    data = array("d")
    for row in rows:
        cross = 1
        for n in row:
            cross *= len(splits_for[n])
            if cross > split_limit:
                raise EnumerationLimitError(
                    f"per-position split cross-product exceeds {split_limit} "
                    f"for configuration {format_counts(row)}"
                )
        partial: dict[tuple[int, ...], float] = {(0,) * K: 1.0}
        for p, n in enumerate(row):
            if n == 0:
                continue
            nxt: dict[tuple[int, ...], float] = {}
            dl, ds, dr = targets[p]
            for vec, pr in partial.items():
                base = list(vec)
                for a, b, c, w in splits_for[n]:
                    dest = base.copy()
                    dest[dl] += a
                    dest[ds] += b
                    dest[dr] += c
                    key = tuple(dest)
                    nxt[key] = nxt.get(key, 0.0) + pr * w
            partial = nxt
        # fromlist takes a list faster than extend takes an iterator
        indices.fromlist(list(map(index.__getitem__, partial)))
        data.fromlist(list(partial.values()))
        indptr.append(len(indices))
    P = csr_matrix(
        (np.frombuffer(data), np.frombuffer(indices, dtype=np.int64),
         np.frombuffer(indptr, dtype=np.int64)),
        shape=(C, C),
    )
    # each row's destinations are distinct; order them by column and
    # drop products that underflowed to zero
    P.sort_indices()
    P.eliminate_zeros()
    return ConfigKernel(matrix=P)


def config_kernel(
    params: NetworkParams,
    split_limit: int = DEFAULT_SPLIT_LIMIT,
    config_limit: int = DEFAULT_KERNEL_CONFIG_LIMIT,
) -> ConfigKernel:
    """Exact transition kernel of the configuration chain.

    The kernel is built row by row and stored sparse (see ConfigKernel).
    Guards: raises EnumerationLimitError when a row would need more than
    `split_limit` split combinations or when the configuration count
    exceeds `config_limit` (the per-row Python build bounds the size).
    """
    return _config_kernel_cached(
        params.K,
        params.N,
        params.p_l,
        params.p_r,
        params.boundary,
        split_limit,
        config_limit,
    )
