"""Core model of the linear network: parameters, configurations, routes.

The network is a line of K movement positions 1..K. The source sits at
position 0 and the destination at position K+1; both are fixed. N relay
nodes occupy the interior positions and move between slots. A hop of
length d carries rate rates[d-1] when d <= m and cannot be used at all
otherwise.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import EnumerationLimitError

DEFAULT_ENUMERATION_LIMIT = 10**6


class Boundary(enum.Enum):
    """What a node does when it tries to step off the line."""

    STUCK = "stuck"
    WRAP = "wrap"


@dataclass(frozen=True)
class NetworkParams:
    """Immutable parameter bundle; validated on construction.

    K     -- number of interior movement positions (>= 1)
    N     -- number of relay nodes (>= 0)
    m     -- maximum usable hop length
    rates -- rates[d-1] is the rate of a hop of length d; positive,
             non-increasing, each in (0, 1]
    p_l, p_r -- per-slot probabilities of moving one step left / right;
             p_t = 1 - p_l - p_r is the probability of staying put
    boundary -- behaviour at the ends of the line
    phi   -- fraction of a discovery slot consumed by route discovery
    """

    K: int
    N: int
    m: int = 2
    rates: tuple[float, ...] = (1.0, 0.5)
    p_l: float = 0.25
    p_r: float = 0.25
    boundary: Boundary = Boundary.STUCK
    phi: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "rates", tuple(float(r) for r in self.rates))
        if not (isinstance(self.K, int) and self.K >= 1):
            raise ValueError(f"K must be a positive integer, got {self.K!r}")
        if not (isinstance(self.N, int) and self.N >= 0):
            raise ValueError(f"N must be a non-negative integer, got {self.N!r}")
        if not (isinstance(self.m, int) and self.m >= 1):
            raise ValueError(f"m must be a positive integer, got {self.m!r}")
        if len(self.rates) != self.m:
            raise ValueError(
                f"rates must have length m={self.m}, got {len(self.rates)}"
            )
        for a, b in zip(self.rates, self.rates[1:]):
            if b > a:
                raise ValueError(f"rates must be non-increasing, got {self.rates}")
        if not all(0.0 < r <= 1.0 for r in self.rates):
            raise ValueError(f"rates must lie in (0, 1], got {self.rates}")
        for name in ("p_l", "p_r", "phi"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if self.p_l + self.p_r > 1.0 + 1e-12:
            raise ValueError(f"p_l + p_r must not exceed 1, got {self.p_l + self.p_r}")
        if not isinstance(self.boundary, Boundary):
            raise ValueError(f"boundary must be a Boundary, got {self.boundary!r}")

    @property
    def p_t(self) -> float:
        return 1.0 - self.p_l - self.p_r

    @property
    def source(self) -> int:
        return 0

    @property
    def dest(self) -> int:
        return self.K + 1

    def with_phi(self, phi: float) -> "NetworkParams":
        return replace(self, phi=phi)


@dataclass(frozen=True)
class Configuration:
    """Occupancy counts over the interior positions; counts[k] is the
    number of nodes at position k+1."""

    counts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))
        if any(c < 0 for c in self.counts):
            raise ValueError(f"counts must be non-negative, got {self.counts}")

    def occupied(self, position: int) -> bool:
        return self.counts[position - 1] > 0

    def __str__(self):
        return "[" + " ".join(str(c) for c in self.counts) + "]"


@dataclass(frozen=True)
class Route:
    """A source-to-destination relay path, or the null route.

    positions holds the full path including the endpoints 0 and K+1, with
    strictly increasing interior positions and every gap at most m. The
    null route (no path held) has an empty positions tuple.
    """

    positions: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "positions", tuple(int(p) for p in self.positions))

    @property
    def is_null(self) -> bool:
        return not self.positions

    @property
    def interior(self) -> tuple[int, ...]:
        return self.positions[1:-1]

    @property
    def hops(self) -> int:
        return max(len(self.positions) - 1, 0)

    def __str__(self):
        if self.is_null:
            return "(null)"
        inner = ",".join(str(p) for p in self.interior)
        return f"(S,{inner},D)" if inner else "(S,D)"


NULL_ROUTE = Route()


def hop_rate(d: int, params: NetworkParams) -> float:
    """Rate of a hop spanning d positions; 0 when the hop is too long."""
    if d < 1:
        raise ValueError(f"hop length must be >= 1, got {d}")
    return params.rates[d - 1] if d <= params.m else 0.0


def configuration_count(params: NetworkParams) -> int:
    return math.comb(params.N + params.K - 1, params.K - 1)


@lru_cache(maxsize=64)
def _enumerate_counts(K: int, N: int) -> tuple[tuple[int, ...], ...]:
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], remaining: int, slots: int):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for v in range(remaining + 1):
            rec(prefix + (v,), remaining - v, slots - 1)

    rec((), N, K)
    return tuple(out)


def enumerate_configurations(
    params: NetworkParams, limit: int = DEFAULT_ENUMERATION_LIMIT
) -> list[Configuration]:
    """All occupancy vectors of N nodes over K positions, ascending
    lexicographic. Raises EnumerationLimitError if the count (a binomial
    coefficient) exceeds `limit`."""
    total = configuration_count(params)
    if total > limit:
        raise EnumerationLimitError(
            f"{total} configurations for K={params.K}, N={params.N} "
            f"exceed the enumeration limit {limit}"
        )
    return [Configuration(c) for c in _enumerate_counts(params.K, params.N)]


def rank_counts(counts, N: int) -> np.ndarray:
    """Index in enumerate_configurations order of each row of `counts`
    (shape (rows, K), every row an occupancy vector of N nodes).

    A row is preceded by the configurations that agree with it before
    position k and hold fewer than n_k nodes at k. With rem_k nodes left
    for the p_k + 1 = K - k positions from k on, there are
    C(rem_k + p_k, p_k) - C(rem_k - n_k + p_k, p_k) of those (summing
    over the smaller counts by the hockey-stick identity); the term is 0
    at the last position, where p_k = 0.
    """
    counts = np.asarray(counts)
    if (counts < 0).any() or (counts.sum(axis=1) != N).any():
        raise ValueError(f"every row must be an occupancy vector of {N} nodes")
    K = counts.shape[1]
    # table[r, p] = C(r + p, p), the ways to place r nodes on p + 1 positions
    table = np.array([[math.comb(r + p, p) for p in range(K)] for r in range(N + 1)])
    rem = N - np.cumsum(counts, axis=1) + counts
    p = np.arange(K - 1, -1, -1)
    return (table[rem, p] - table[rem - counts, p]).sum(axis=1)


@lru_cache(maxsize=64)
def _enumerate_route_positions(K: int, m: int) -> tuple[tuple[int, ...], ...]:
    dest = K + 1
    out: list[tuple[int, ...]] = []

    def extend(path: tuple[int, ...]):
        here = path[-1]
        for nxt in range(here + 1, min(here + m, dest) + 1):
            if nxt == dest:
                out.append(path + (dest,))
            else:
                extend(path + (nxt,))

    extend((0,))
    return tuple(out)


def enumerate_routes(params: NetworkParams) -> list[Route]:
    """Every relay path from source to destination with all hops of
    length <= m, plus the null route (last). Paths are emitted in
    depth-first order, always extending to the nearest position first."""
    routes = [Route(p) for p in _enumerate_route_positions(params.K, params.m)]
    routes.append(NULL_ROUTE)
    return routes


def route_supported(route: Route, config: Configuration) -> bool:
    """True iff the route is non-null and every interior position it
    uses currently holds at least one node."""
    if route.is_null:
        return False
    return all(config.counts[p - 1] > 0 for p in route.interior)
