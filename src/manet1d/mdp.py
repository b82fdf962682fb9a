"""Average-reward control of route discovery.

State: (configuration, held route), indexed s = c * R + r with c the
configuration's row in configuration_rows order and r the route's index
(null route last); there are no per-state objects, only (C, R) arrays.
Action: discover a fresh route (earning (1 - phi) times the best
currently supported throughput and replacing the held route with that
best route) or continue on the held route (earning its throughput if its
relay positions are all occupied, else nothing). The configuration
component moves by the exact occupancy kernel regardless of the action,
so a transition matrix never has to be materialised for the optimiser:
one sparse (CSR) config-kernel product per sweep suffices.

The held route only ever changes to the configuration's best route, so
the distinct best routes (the held-route columns) are closed under every
policy. Relative value iteration can therefore run on those columns and
the null route a run starts on (held_only), which is what the sweep,
evaluation and simulation paths do; a full-width solve gives every
state's action and bias. Exact policy evaluation uses the same
structure: the closed-class verdict is a reachability search on the
held-route columns, and the stationary law is propagated there; both
work on (configs, held routes) blocks through products with the
configuration kernel and its transpose, so the induced chain is never
built.

Policies are boolean arrays of shape (configs, routes), True = discover.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.sparse import csr_matrix

from .errors import ConvergenceError, EnumerationLimitError, ReducibleChainError
from .grid import (
    Boundary,
    NetworkParams,
    Route,
    configuration_count,
    configuration_rows,
    format_counts,
)
from .mobility import (
    ConfigKernel,
    config_kernel,
    config_stationary_law,
)
from .scheduling import _route_table

DEFAULT_STATE_LIMIT = 200_000
# StateSpace holds a (C, R) bool and a (C, R) float64 array: 9 bytes a
# state, so 5e7 states is about 430 MiB.
STATE_SPACE_LIMIT = 5 * 10**7
DEFAULT_EPSILON = 1e-8
DEFAULT_MAX_ITER = 10**5


class StateSpace:
    """Configuration/route product space with per-route throughputs.

    Everything here is independent of phi and of the mobility
    probabilities, so one instance serves a whole parameter sweep.
    Raises EnumerationLimitError, before enumerating or allocating
    anything, when C * R exceeds STATE_SPACE_LIMIT.
    """

    def __init__(self, params: NetworkParams):
        routes, values, order = _route_table(params.K, params.m, params.rates)
        C, R = configuration_count(params), len(routes)
        if C * R > STATE_SPACE_LIMIT:
            raise EnumerationLimitError(
                f"{C} configurations x {R} routes = {C * R} states exceed "
                f"the state-space size limit {STATE_SPACE_LIMIT}"
            )
        self.counts = configuration_rows(params)
        self.routes: tuple[Route, ...] = routes
        self.route_f = np.array([float(v) for v in values])

        # the null route, last, is never supported
        occupied = self.counts > 0
        supported = np.zeros((C, R), dtype=bool)
        for j, route in enumerate(routes[:-1]):
            supported[:, j] = occupied[:, [p - 1 for p in route.interior]].all(axis=1)
        # Throughput earned by continuing on each route in each config.
        self.cont_f = np.where(supported, self.route_f[None, :], 0.0)
        self.cont_f.setflags(write=False)

        # Best supported route per config: first supported in best-first order.
        self.best_route_idx = np.full(C, len(routes) - 1, dtype=np.int64)
        self.best_f = np.zeros(C)
        remaining = np.ones(C, dtype=bool)
        for j in order:
            hit = remaining & supported[:, j]
            self.best_route_idx[hit] = j
            self.best_f[hit] = self.route_f[j]
            remaining &= ~hit
        self.best_route_idx.setflags(write=False)
        self.best_f.setflags(write=False)

        self.n_configs = C
        self.n_routes = R
        self.null_route_idx = R - 1


@lru_cache(maxsize=8)
def _state_space_cached(K, N, m, rates) -> StateSpace:
    return StateSpace(NetworkParams(K=K, N=N, m=m, rates=rates))


def state_space(params: NetworkParams) -> StateSpace:
    return _state_space_cached(params.K, params.N, params.m, params.rates)


class Mdp:
    """State space plus mobility kernel plus phi. States are indexed
    s = c * R + r (configuration row c, route r), and every per-state
    quantity is a (C, R) array in that layout."""

    def __init__(self, space: StateSpace, kernel: ConfigKernel, params: NetworkParams):
        self.space = space
        self.kernel = kernel
        self.params = params

    @property
    def n_states(self) -> int:
        return self.space.n_configs * self.space.n_routes

    @property
    def reward_discover(self) -> np.ndarray:
        """(C,) array: reward of discovering in each configuration."""
        return (1.0 - self.params.phi) * self.space.best_f

    @property
    def reward_continue(self) -> np.ndarray:
        """(C, R) array: reward of continuing on each held route."""
        return self.space.cont_f

    def rewards(self, actions: np.ndarray) -> np.ndarray:
        """(C, R) per-state reward under the given action table."""
        return np.where(actions, self.reward_discover[:, None], self.reward_continue)

    def with_phi(self, phi: float) -> "Mdp":
        return Mdp(self.space, self.kernel, self.params.with_phi(phi))

    def materialize_policy(self, policy) -> np.ndarray:
        """Check that a policy is a (C, R) table and return it as booleans."""
        C, R = self.space.n_configs, self.space.n_routes
        table = np.asarray(policy)
        if table.shape != (C, R):
            raise ValueError(f"policy table must have shape {(C, R)}, got {table.shape}")
        return table.astype(bool)


def build_mdp(
    params: NetworkParams, state_limit: int = DEFAULT_STATE_LIMIT
) -> Mdp:
    """Assemble the decision process for the given parameters. Raises
    EnumerationLimitError when |configs| x |routes| exceeds state_limit,
    before the state space is built."""
    C = configuration_count(params)
    R = len(_route_table(params.K, params.m, params.rates)[0])
    if C * R > state_limit:
        raise EnumerationLimitError(
            f"{C} configurations x {R} routes "
            f"= {C * R} states exceed the state limit {state_limit}"
        )
    return Mdp(space=state_space(params), kernel=config_kernel(params), params=params)


@dataclass(frozen=True)
class MdpSolution:
    """Result of relative value iteration.

    bias holds the relative values of the iterated columns only: routes
    gives their route indices, so bias[:, j] is the column of route
    routes[j]. A full-width solve iterates every route; a held-only
    solve iterates the holdable routes, and its action table is True
    (discover) on every other column.
    """

    gain: float
    bias: np.ndarray  # (C, len(routes)) relative values
    routes: np.ndarray  # route index of each bias column
    action: np.ndarray  # (C, R) bool, True = discover
    iterations: int
    span: float


def _may_be_periodic(params: NetworkParams) -> bool:
    """Whether the configuration kernel can be periodic: WRAP with
    p_t = 0, where every node moves every slot."""
    return params.boundary is Boundary.WRAP and params.p_t <= 1e-15


def _holdable_routes(space: StateSpace) -> np.ndarray:
    """The routes a run can hold: the null route it starts on and the
    distinct best routes (R'), sorted."""
    return np.union1d(space.best_route_idx, [space.null_route_idx])


def _rvi(P, r_cont, r_disc, best, tau, epsilon, max_iter, V):
    """Relative value iteration on a block of held-route columns that is
    closed under discovery: r_cont is the (C, W) continue reward of the
    columns, best each configuration's best route as a column of the
    block and V the (C, W) start. Returns (gain, bias, action on the
    block, iterations, span)."""
    rows = np.arange(P.shape[0])
    eps = epsilon * tau
    for it in range(1, max_iter + 1):
        M = P @ V
        q_cont = r_cont + M
        q_disc = r_disc + M[rows, best]
        T0V = np.maximum(q_cont, q_disc[:, None])
        TV = T0V if tau == 1.0 else (1.0 - tau) * V + tau * T0V
        delta = TV - V
        lo = float(delta.min())
        hi = float(delta.max())
        if hi - lo < eps:
            gain = 0.5 * (lo + hi) / tau
            action = q_disc[:, None] > q_cont
            return gain, TV - TV[0, 0], action, it, (hi - lo) / tau
        V = TV - TV[0, 0]
    raise ConvergenceError(
        f"value iteration did not reach span {epsilon} within {max_iter} sweeps "
        f"(span {hi - lo:.3e})"
    )


def solve_avg_reward(
    mdp: Mdp,
    epsilon: float = DEFAULT_EPSILON,
    max_iter: int = DEFAULT_MAX_ITER,
    v0: np.ndarray | None = None,
    held_only: bool = False,
) -> MdpSolution:
    """Relative value iteration.

    Each sweep applies the Bellman operator, recentres on the first
    state, and stops when the span of the value increment falls below
    epsilon; the gain estimate is the midpoint of the increment bounds
    (error at most epsilon / 2). Ties between actions go to continue.

    With held_only, the iteration runs on the holdable columns only: the
    null route and the distinct best routes. Continue keeps a column and
    discover moves to the configuration's best route, so those columns
    are closed under the Bellman operator and their values and actions
    are those of the full problem; a run that starts on the null route
    never holds any other. Every other column of the action table is
    True (discover), which leaves the induced chain's stationary law,
    and so the exact gain, unchanged. bias and v0 then have one column
    per entry of MdpSolution.routes. The default iterates every route,
    for callers that read every state's action and bias.

    A half-lazy aperiodicity transform is applied when the mobility
    kernel can be periodic (WRAP with p_t = 0); it preserves the optimal
    policy and the stationary laws, and the gain is rescaled exactly.

    The configuration chain must have a single closed class, or no
    single long-run average exists (e.g. frozen nodes with K > 1, or a
    symmetric walk with p_t = 0 on an even cycle, where position parity
    never mixes); such kernels raise ReducibleChainError immediately.
    """
    space = mdp.space

    if space.n_configs > 1:
        closed = mdp.kernel.classes
        if len(closed) != 1:
            parts = []
            for cls in closed:
                example = format_counts(space.counts[int(cls[0])])
                parts.append(f"{len(cls)} configs incl. {example}")
            raise ReducibleChainError(
                "configuration chain is reducible; the long-run average "
                f"depends on the initial state ({len(closed)} closed classes: "
                + "; ".join(parts) + ")",
                classes=closed,
            )

    C, R = space.n_configs, space.n_routes
    routes = _holdable_routes(space) if held_only else np.arange(R)
    if v0 is None:
        V = np.zeros((C, routes.size))
    else:
        V = np.array(v0, dtype=float)
        if V.shape != (C, routes.size):
            raise ValueError(f"v0 must have shape {(C, routes.size)}, got {V.shape}")

    # Half-lazy transform TV = (1 - tau) V + tau T0(V): same optimal
    # actions, gain scaled by tau, and the iteration cannot cycle on a
    # periodic kernel (WRAP with p_t = 0 is periodic or a rotation).
    tau = 0.5 if _may_be_periodic(mdp.params) else 1.0

    gain, bias, block, iterations, span = _rvi(
        mdp.kernel.matrix,
        mdp.reward_continue[:, routes],
        mdp.reward_discover,
        np.searchsorted(routes, space.best_route_idx),
        tau, epsilon, max_iter, V,
    )
    action = np.ones((C, R), dtype=bool)
    action[:, routes] = block
    return MdpSolution(
        gain=gain, bias=bias, routes=routes, action=action,
        iterations=iterations, span=span,
    )


PROPAGATION_TOL = 1e-15
PROPAGATION_STALL = 1_000
PROPAGATION_MAX_ITER = 100_000


def _held_routes(space: StateSpace) -> tuple[np.ndarray, np.ndarray]:
    """The routes a discovery can pick (the distinct best routes, R'),
    and each configuration's best route as an index into them."""
    held = np.unique(space.best_route_idx)
    return held, np.searchsorted(held, space.best_route_idx)


def _held_closed_classes(
    P: csr_matrix, disc: np.ndarray, best: np.ndarray, config_classes
) -> list[np.ndarray]:
    """Closed classes of the induced chain on the held-route columns,
    numbered j * C + c, each sorted and ordered by its smallest state.

    disc is the (C, R') discover table on those columns and best each
    configuration's best route as a column, so state (c, j) moves to
    (c', nxt[c, j]) for every successor c' of c, with nxt[c, j] = best[c]
    where the table discovers and j elsewhere. Reachability is searched
    on (C, R') 0/1 blocks with the kernel itself: a forward step moves
    each state to its next column and takes P.T @ block > 0; a backward
    step takes P @ block > 0 and gathers it at [c, nxt[c, j]]. P's
    stored entries are positive, so these are exact tests on its
    pattern, and no chain of nnz(P) * R' edges is ever built.

    A closed class projects onto a closed class of the configuration
    chain, so the search runs on those configurations only, one start
    state for each of their classes at a time. From start v, with
    F = fwd(v): if every state of F reaches v, F is a closed class;
    otherwise v is transient and the next start is a state of F that
    does not reach v. Either way every state of bwd(v) is out of all
    other closed classes and is dropped; what is left stays
    forward-closed.
    """
    C, n_held = disc.shape
    rows = np.arange(C)[:, None]
    nxt = np.where(disc, best[:, None], np.arange(n_held)[None, :])
    PT = P.T

    def fwd(front):
        moved = np.zeros((C, n_held))
        cs, js = np.nonzero(front)
        moved[cs, nxt[cs, js]] = 1.0
        used = np.flatnonzero(moved.any(axis=0))
        out = np.zeros((C, n_held), dtype=bool)
        out[:, used] = PT @ moved[:, used] > 0
        return out

    def bwd(front):
        used = np.flatnonzero(front.any(axis=0))
        hit = np.zeros((C, n_held), dtype=bool)
        hit[:, used] = P @ front[:, used].astype(float) > 0
        return hit[rows, nxt]

    def closure(step, seen, within):
        front = seen
        while front.any():
            front = step(front) & within & ~seen
            seen = seen | front
        return seen

    label = np.full(C, -1)
    for i, K in enumerate(config_classes):
        label[K] = i
    # Every closed class on a configuration class visits each of its
    # configurations. Where configuration c sends every column to one
    # column b, each such class holds (c', b) for every successor c' of
    # c, so there is only one, and those states are sure starts.
    collapsing = np.zeros((C, n_held), dtype=bool)
    collapsing[(nxt == nxt[:, :1]).all(axis=1) & (label >= 0), 0] = True
    unsure = ~fwd(collapsing)

    def pick(candidates):
        # one candidate per configuration class, sure starts first
        cs, js = np.nonzero(candidates)
        order = np.lexsort((unsure[cs, js], label[cs]))
        first = order[np.diff(label[cs[order]], prepend=-1) != 0]
        start = np.zeros((C, n_held), dtype=bool)
        start[cs[first], js[first]] = True
        return start

    remaining = np.repeat(label[:, None] >= 0, n_held, axis=1)
    classes = []
    start = pick(remaining)
    while start.any():
        F = closure(fwd, start, remaining)
        B = closure(bwd, start, remaining)
        remaining &= ~B
        escaped = F & ~B
        transient = np.zeros(len(config_classes), dtype=bool)
        transient[label[np.nonzero(escaped)[0]]] = True
        found = F & ~transient[label][:, None]
        states = np.flatnonzero(found.T)
        lab = label[states % C]
        order = np.argsort(lab, kind="stable")
        cuts = np.flatnonzero(np.diff(lab[order])) + 1
        classes += np.split(states[order], cuts) if states.size else []
        start = pick(escaped | (remaining & ~transient[label][:, None]))
    classes.sort(key=lambda cls: int(cls[0]))
    return classes


def _policy_classes(mdp: Mdp, actions: np.ndarray, held: np.ndarray, best: np.ndarray):
    """Closed classes of the chain the policy induces, as sorted arrays
    of flat states c * R + r ordered by their smallest state; and the
    classes that lie in the held-route columns, numbered j * C + c.

    The held route only ever changes to best_route_idx[c], so the
    held-route columns form a closed set, and its closed classes are
    those of the induced chain restricted to it, found by reachability
    on the (C, R') block (_held_closed_classes). Any other route r is
    only ever held from the start; a class there is K x {r} for a closed
    class K of the configuration chain on which the table never
    discovers.
    """
    space = mdp.space
    C, R = space.n_configs, space.n_routes
    held_classes = _held_closed_classes(
        mdp.kernel.matrix, actions[:, held], best, mdp.kernel.classes
    )
    classes = [np.sort(cls % C * R + held[cls // C]) for cls in held_classes]
    others = np.setdiff1d(np.arange(R), held)
    for K in mdp.kernel.classes:
        for r in others[~actions[K][:, others].any(axis=0)]:
            classes.append(K * R + r)
    classes.sort(key=lambda cls: int(cls[0]))
    return classes, held_classes


def policy_stationary(mdp: Mdp, actions: np.ndarray) -> np.ndarray:
    """(C, R) stationary distribution of the chain the policy induces.

    Requires a single closed class; otherwise raises ReducibleChainError
    naming the classes, ordered by their smallest state index (see
    _policy_classes: a reachability search on the held-route columns,
    which needs no induced chain). Transient states carry exactly zero
    mass.

    The class lies in the held-route columns, and the configuration
    marginal of its stationary law is the occupancy law mu
    (config_stationary_law) whatever the table. So pi is found by
    propagation on the class, matrix-free: start from mu(c) on
    (c, best[c]), or on another state of configuration c where that one
    is not in the class; each step moves the discover mass of every
    state to its configuration's best route, then applies the
    configuration kernel's transpose. The marginal stays mu; only the
    route split converges. When the kernel can be periodic (WRAP with
    p_t = 0), and after PROPAGATION_STALL steps in any case (a nearly
    periodic kernel, such as WRAP with a tiny p_t), the step is
    half-lazy, (x + xA) / 2, which has the same fixed point.
    Propagation stops when the L1 step falls below PROPAGATION_TOL, so
    the error is about that step over the chain's spectral gap, and
    raises ConvergenceError after PROPAGATION_MAX_ITER steps.
    """
    actions = mdp.materialize_policy(actions)
    space = mdp.space
    C, R = space.n_configs, space.n_routes
    held, best = _held_routes(space)
    classes, held_classes = _policy_classes(mdp, actions, held, best)
    if len(classes) != 1:
        parts = []
        for cls in classes:
            c, r = divmod(int(cls[0]), R)
            config = format_counts(space.counts[c])
            parts.append(
                f"{len(cls)} states incl. (config={config}, held={space.routes[r]})"
            )
        raise ReducibleChainError(
            f"policy induces {len(classes)} closed classes: " + "; ".join(parts),
            classes=classes,
        )

    (cls,) = held_classes
    on_class = np.zeros((held.size, C), dtype=bool)
    on_class.flat[cls] = True
    on_class = on_class.T
    rows = np.arange(C)
    start = np.where(on_class[rows, best], best, on_class.argmax(axis=1))
    x = np.zeros((C, held.size))
    x[rows, start] = config_stationary_law(space.counts, mdp.params)
    # mass starts on the class only (mu is 0 off it); the class is
    # closed, so every other state stays exactly 0
    x[~on_class] = 0.0

    disc = actions[:, held]
    PT = mdp.kernel.matrix.T
    lazy = _may_be_periodic(mdp.params)
    for it in range(1, PROPAGATION_MAX_ITER + 1):
        moved = np.where(disc, 0.0, x)
        moved[rows, best] += np.where(disc, x, 0.0).sum(axis=1)
        nxt = PT @ moved
        if lazy or it > PROPAGATION_STALL:
            nxt = 0.5 * (x + nxt)
        step = float(np.abs(nxt - x).sum())
        x = nxt
        if step < PROPAGATION_TOL:
            break
    else:
        raise ConvergenceError(
            f"stationary propagation did not reach step {PROPAGATION_TOL} "
            f"within {PROPAGATION_MAX_ITER} iterations (step {step:.3e})"
        )
    pi = np.zeros((C, R))
    pi[:, held] = x
    return pi


def evaluate_policy(mdp: Mdp, policy) -> float:
    """Exact long-run average reward of a stationary policy."""
    return PolicyEvaluator(mdp).gain(policy)


class PolicyEvaluator:
    """Caches stationary distributions by action table.

    The induced chain depends only on the action table, never on phi,
    so one policy_stationary propagation serves every phi in a sweep;
    the gain is a reweighted dot product per phi. The cached laws are
    read-only, so no caller can change a later gain.
    """

    def __init__(self, mdp: Mdp):
        self.mdp = mdp
        self._cache: dict[bytes, np.ndarray] = {}

    def stationary(self, actions: np.ndarray) -> np.ndarray:
        actions = self.mdp.materialize_policy(actions)
        key = actions.tobytes()
        if key not in self._cache:
            pi = policy_stationary(self.mdp, actions)
            pi.setflags(write=False)
            self._cache[key] = pi
        return self._cache[key]

    def gain(self, actions: np.ndarray, phi: float | None = None) -> float:
        mdp = self.mdp if phi is None else self.mdp.with_phi(phi)
        actions = mdp.materialize_policy(actions)
        pi = self.stationary(actions)
        return float((pi * mdp.rewards(actions)).sum())

    def discovery_frequency(self, actions: np.ndarray) -> float:
        actions = self.mdp.materialize_policy(actions)
        pi = self.stationary(actions)
        # a sum over the whole array, so that tables which differ only
        # on states without mass sum the same terms in the same order
        return float(np.where(actions, pi, 0.0).sum())
