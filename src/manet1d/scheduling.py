"""Link scheduling: conflict graphs, independent sets, and the optimal
throughput of a single route with a schedule that achieves it.

Two links conflict when any endpoint of one lies within distance m of
any endpoint of the other (carrier sensing reaches strictly beyond the
longest usable hop but not a full position further). A schedule time-
shares maximal sets of mutually non-conflicting links; the end-to-end
throughput of a route is the best min-link flow over such schedules,
i.e. the inverse of the weighted fractional chromatic number of the
conflict graph with link weights 1/rate.

A route's links [a, b] are consecutive, so two of them conflict iff the
closed intervals [a - m/2, b + m/2] meet: the conflict graph is a proper
interval graph, hence perfect, and its weighted fractional chromatic
number equals its heaviest weighted clique (Lovasz 1972; Grotschel,
Lovasz and Schrijver 1988). The cliques are windows of links i..j with
a_j - b_i <= m, so

    f = 1 / max_i sum_{j >= i, a_j - b_i <= m} 1 / rate_j.

An optimal schedule is built on a circle of circumference 1: lay link
j's block of length f / rate_j right after block j-1's. The blocks from
link i up to any link j that conflicts with it form a clique of total
length at most 1, so the blocks of two conflicting links never overlap.
Cutting the circle at every block boundary leaves slices whose covering
links are independent; each slice's set is extended greedily to a
maximal independent set, and each link is active for at least its own
block, which carries f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import EnumerationLimitError
from .grid import (
    NULL_ROUTE,
    Configuration,
    NetworkParams,
    Route,
    enumerate_routes,
    hop_rate,
    route_supported,
)

DEFAULT_SET_LIMIT = 10**4


@dataclass(frozen=True)
class Link:
    """A directed hop of a route, from grid position a to position b > a."""

    a: int
    b: int
    rate: float

    @property
    def length(self) -> int:
        return self.b - self.a

    def __str__(self):
        return f"{self.a}-{self.b}"


@dataclass(frozen=True)
class ConflictGraph:
    links: tuple[Link, ...]
    edges: frozenset[tuple[int, int]]  # (i, j) with i < j

    def conflicts(self, i: int, j: int) -> bool:
        if i == j:
            return False
        if i > j:
            i, j = j, i
        return (i, j) in self.edges


@dataclass(frozen=True)
class Schedule:
    """Time shares over maximal independent sets, plus the throughput
    they achieve. Each entry pairs a tuple of link indices with the
    fraction of time that set is active; the shares are positive and
    sum to 1."""

    sets: tuple[tuple[tuple[int, ...], float], ...]
    throughput: float


def build_conflict_graph(route: Route, params: NetworkParams) -> ConflictGraph:
    """Conflict graph over the consecutive links of a route."""
    if route.is_null:
        return ConflictGraph(links=(), edges=frozenset())
    pos = route.positions
    links = tuple(
        Link(a, b, hop_rate(b - a, params)) for a, b in zip(pos, pos[1:])
    )
    edges = set()
    for i in range(len(links)):
        for j in range(i + 1, len(links)):
            d = min(
                abs(x - y)
                for x in (links[i].a, links[i].b)
                for y in (links[j].a, links[j].b)
            )
            if d <= params.m:
                edges.add((i, j))
    return ConflictGraph(links=links, edges=frozenset(edges))


def maximal_independent_sets(
    graph: ConflictGraph, limit: int = DEFAULT_SET_LIMIT
) -> list[tuple[int, ...]]:
    """All maximal independent sets of the conflict graph, as sorted
    tuples of link indices, in lexicographic order.

    Bron-Kerbosch with pivoting on the complement graph (independent
    sets are cliques of the complement). Raises EnumerationLimitError
    when more than `limit` sets are produced.
    """
    n = len(graph.links)
    if n == 0:
        return []
    comp = [set() for _ in range(n)]  # complement adjacency
    for i in range(n):
        for j in range(n):
            if i != j and not graph.conflicts(i, j):
                comp[i].add(j)

    out: list[tuple[int, ...]] = []

    def expand(r: set[int], p: set[int], x: set[int]):
        if not p and not x:
            out.append(tuple(sorted(r)))
            if len(out) > limit:
                raise EnumerationLimitError(
                    f"more than {limit} maximal independent sets"
                )
            return
        pivot = max(p | x, key=lambda v: len(comp[v] & p))
        for v in sorted(p - comp[pivot]):
            expand(r | {v}, p & comp[v], x & comp[v])
            p = p - {v}
            x = x | {v}

    expand(set(), set(range(n)), set())
    return sorted(out)


@lru_cache(maxsize=32)
def _hop_weights(rates: tuple[float, ...]) -> tuple[int, tuple[int, ...]]:
    """Common denominator D and integer airtimes: a hop of length d needs
    weights[d-1] / D of the slot per unit of flow (D / rate, exactly)."""
    inverse = [1 / Fraction(r) for r in rates]
    D = math.lcm(*(q.denominator for q in inverse))
    return D, tuple(int(q * D) for q in inverse)


def _clique_load(route: Route, params: NetworkParams) -> tuple[int, list[int], int]:
    """(D, w, W): link j needs w[j] / D of the slot per unit of flow, and
    W / D is the airtime of the heaviest clique, so f = D / W.

    Links i < j conflict iff a_j - b_i <= m, so the links conflicting
    with link i to its right form a window i..last(i), and last(i) never
    decreases with i. One two-pointer walk visits every window.
    """
    D, weights = _hop_weights(params.rates)
    a, b = route.positions[:-1], route.positions[1:]
    w = [weights[y - x - 1] for x, y in zip(a, b)]
    L = len(w)
    best = load = 0
    end = 0  # one past the last link conflicting with link i
    for i in range(L):
        while end < L and a[end] - b[i] <= params.m:
            load += w[end]
            end += 1
        best = max(best, load)
        load -= w[i]
    return D, w, best


def _throughput_value(route: Route, params: NetworkParams) -> Fraction:
    """Exact optimal throughput of a route (0 for the null route)."""
    if route.is_null:
        return Fraction(0)
    D, _, W = _clique_load(route, params)
    return Fraction(D, W)


def _route_throughput_exact(
    route: Route, params: NetworkParams
) -> tuple[Fraction, list[tuple[tuple[int, ...], Fraction]]]:
    """Exact throughput and a circle schedule with rational shares, as
    (maximal independent set, share) pairs in lexicographic set order."""
    if route.is_null:
        return Fraction(0), []
    D, w, M = _clique_load(route, params)
    pos, m, L = route.positions, params.m, len(w)
    # Integer circle of circumference M: link j's block has length w[j]
    # (its airtime f / rate_j, scaled by M) and starts where block j-1
    # ends.
    starts = [0] * L
    for j in range(1, L):
        starts[j] = (starts[j - 1] + w[j - 1]) % M
    cuts = sorted(set(starts) | {(s + x) % M for s, x in zip(starts, w)})
    shares: dict[tuple[int, ...], int] = {}
    for k, c in enumerate(cuts):
        length = (cuts[(k + 1) % len(cuts)] - c) % M or M
        members = [j for j in range(L) if (c - starts[j]) % M < w[j]]
        # extend greedily to a maximal independent set; links i < j
        # conflict iff a_j - b_i <= m
        for j in range(L):
            if j not in members and all(
                pos[max(i, j)] - pos[min(i, j) + 1] > m for i in members
            ):
                members.append(j)
        key = tuple(sorted(members))
        shares[key] = shares.get(key, 0) + length
    return Fraction(D, M), [(s, Fraction(x, M)) for s, x in sorted(shares.items())]


def route_throughput(route: Route, params: NetworkParams) -> tuple[float, Schedule]:
    """Optimal end-to-end throughput of a route and a schedule achieving
    it. The null route yields (0.0, empty schedule)."""
    value, entries = _route_throughput_exact(route, params)
    sets = tuple((links, float(share)) for links, share in entries)
    return float(value), Schedule(sets=sets, throughput=float(value))


@lru_cache(maxsize=32)
def _route_table(
    K: int, m: int, rates: tuple[float, ...]
) -> tuple[tuple[Route, ...], tuple[Fraction, ...], tuple[int, ...]]:
    """Per-parameter route facts: the route list (null last), each
    route's exact throughput, and route indices sorted best-first
    (higher throughput, then fewer hops, then lexicographic positions).
    """
    params = NetworkParams(K=K, N=0, m=m, rates=rates)
    routes = tuple(enumerate_routes(params))
    values = tuple(_throughput_value(r, params) for r in routes)
    order = tuple(
        sorted(
            range(len(routes)),
            key=lambda i: (-values[i], routes[i].hops, routes[i].positions),
        )
    )
    return routes, values, order


def best_route(config: Configuration, params: NetworkParams) -> tuple[Route, float]:
    """The supported route with the highest optimal throughput.

    Ties go to the route with the fewest hops, then to the
    lexicographically smallest position sequence. When no route is
    supported, returns (null route, 0.0).
    """
    routes, values, order = _route_table(params.K, params.m, params.rates)
    for i in order:
        if route_supported(routes[i], config):
            return routes[i], float(values[i])
    return NULL_ROUTE, 0.0
