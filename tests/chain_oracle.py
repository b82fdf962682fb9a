"""Full-width reference for exact policy evaluation.

Builds the whole induced chain over all C * R (configuration, held
route) states, finds its closed classes by a strongly-connected-component
pass over that chain, and solves for the stationary vector on the single
closed class by a direct dense solve. This is what the library did
before it switched to the held-route columns and matrix-free
propagation; it is kept here, for small chains only, to check that
implementation against.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csgraph, csr_matrix

from manet1d import ReducibleChainError


def induced_chain(mdp, actions: np.ndarray) -> csr_matrix:
    """Sparse transition matrix of the chain a policy induces. From
    (config c, route r) the chain moves to (c', next(c, r)) with the
    config-kernel probability of c -> c', where next is the best route
    on discovery and r otherwise."""
    space = mdp.space
    R = space.n_routes
    Pc = csr_matrix(mdp.kernel.matrix)
    next_route = np.where(actions, space.best_route_idx[:, None], np.arange(R)[None, :])

    indptr = [0]
    indices = []
    data = []
    nnz = 0
    for c in range(space.n_configs):
        seg = slice(Pc.indptr[c], Pc.indptr[c + 1])
        cols = Pc.indices[seg].astype(np.int64) * R
        vals = Pc.data[seg]
        for r in range(R):
            indices.append(cols + next_route[c, r])
            data.append(vals)
            nnz += len(vals)
            indptr.append(nnz)
    n = mdp.n_states
    return csr_matrix(
        (np.concatenate(data), np.concatenate(indices), np.array(indptr)),
        shape=(n, n),
    )


def closed_classes_sparse(P: csr_matrix) -> list[np.ndarray]:
    n_comp, labels = csgraph.connected_components(
        P, directed=True, connection="strong"
    )
    rows, cols = P.nonzero()
    cross = labels[rows] != labels[cols]
    open_labels = set(labels[rows[cross]].tolist())
    return [
        np.flatnonzero(labels == lab)
        for lab in range(n_comp)
        if lab not in open_labels
    ]


def stationary_on_class(P: csr_matrix) -> np.ndarray:
    """Stationary vector of an irreducible row-stochastic matrix by a
    direct solve of pi (P - I) = 0, the normalisation replacing one
    equation."""
    n = P.shape[0]
    A = P.toarray().T - np.eye(n)
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    pi = np.linalg.solve(A, b)
    return np.clip(pi, 0.0, None) / np.clip(pi, 0.0, None).sum()


def policy_classes(mdp, actions: np.ndarray) -> list[np.ndarray]:
    """Closed classes of the full induced chain, as flat state indices."""
    return closed_classes_sparse(induced_chain(mdp, np.asarray(actions, dtype=bool)))


def policy_stationary(mdp, actions: np.ndarray) -> np.ndarray:
    """(C, R) stationary distribution of the induced chain; raises
    ReducibleChainError when it has several closed classes."""
    actions = np.asarray(actions, dtype=bool)
    P = induced_chain(mdp, actions)
    closed = closed_classes_sparse(P)
    if len(closed) != 1:
        raise ReducibleChainError(
            f"policy induces {len(closed)} closed classes", classes=closed
        )
    cls = closed[0]
    pi = np.zeros(mdp.n_states)
    pi[cls] = stationary_on_class(P[cls][:, cls])
    return pi.reshape(mdp.space.n_configs, mdp.space.n_routes)


def lazy_spectral_gap(mdp, actions: np.ndarray) -> float:
    """1 - |lambda_2| of the half-lazy chain (I + P) / 2 on the single
    closed class of the induced chain: the rate at which any iteration
    toward pi converges, and what bounds the accuracy of any solve."""
    P = induced_chain(mdp, np.asarray(actions, dtype=bool))
    (cls,) = closed_classes_sparse(P)
    lam = np.linalg.eigvals(0.5 * (np.eye(len(cls)) + P[cls][:, cls].toarray()))
    return 1.0 - np.sort(np.abs(lam))[-2] if len(cls) > 1 else 1.0
