"""Second route-throughput oracle for the tests: the exact linear program
over every maximal independent set of a route's conflict graph.

The library computes throughput with the interval-graph clique formula;
this module keeps the general LP it replaced so that the tests can
compare the two as Fractions.

`solve_lp` solves  max c.x  subject to  A x <= b,  x >= 0  with b >= 0,
so the all-slack basis is feasible and a single primal phase suffices.
Bland's rule keeps pivoting deterministic and cycle-free. Problem sizes
are a handful of variables and constraints, so exact Fraction
arithmetic is cheap and removes every tolerance question from
tie-breaking.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from manet1d import NetworkParams, Route, build_conflict_graph, maximal_independent_sets

ZERO = Fraction(0)
ONE = Fraction(1)


def solve_lp(
    c: Sequence[Fraction], A: Sequence[Sequence[Fraction]], b: Sequence[Fraction]
) -> tuple[Fraction, list[Fraction]]:
    """Return (optimal value, optimal x). Raises ValueError on malformed
    input or an unbounded objective."""
    m = len(A)
    n = len(c)
    if len(b) != m or any(len(row) != n for row in A):
        raise ValueError("inconsistent LP dimensions")
    if any(bi < 0 for bi in b):
        raise ValueError("requires b >= 0")

    # Tableau rows: [A | I | b]; last row is the objective [-c | 0 | 0].
    width = n + m + 1
    tab = [
        [Fraction(A[i][j]) for j in range(n)]
        + [ONE if k == i else ZERO for k in range(m)]
        + [Fraction(b[i])]
        for i in range(m)
    ]
    tab.append([-Fraction(cj) for cj in c] + [ZERO] * (m + 1))
    basis = list(range(n, n + m))

    while True:
        obj = tab[m]
        enter = -1
        for j in range(width - 1):  # Bland: lowest eligible index
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                ratio = tab[i][width - 1] / a
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            raise ValueError("LP is unbounded")
        _pivot(tab, leave, enter)
        basis[leave] = enter

    x = [ZERO] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = tab[i][width - 1]
    return tab[m][width - 1], x


def _pivot(tab: list[list[Fraction]], row: int, col: int) -> None:
    piv = tab[row][col]
    tab[row] = [v / piv for v in tab[row]]
    for i, r in enumerate(tab):
        if i != row and r[col] != 0:
            f = r[col]
            tab[i] = [v - f * w for v, w in zip(r, tab[row])]


def lp_route_throughput(route: Route, params: NetworkParams) -> Fraction:
    """Exact LP: maximise f subject to sum(shares) <= 1 and, per link,
    coverage >= f / rate, over shares of every maximal independent set.
    Variables are (f, share_0, ..., share_{q-1})."""
    if route.is_null:
        return ZERO
    graph = build_conflict_graph(route, params)
    sets = maximal_independent_sets(graph)
    q = len(sets)
    c = [ONE] + [ZERO] * q
    A = [[ZERO] + [ONE] * q]  # total time budget
    b = [ONE]
    for ell, link in enumerate(graph.links):
        # f / rate - coverage <= 0
        A.append([ONE / Fraction(link.rate)] + [-ONE if ell in s else ZERO for s in sets])
        b.append(ZERO)
    value, _ = solve_lp(c, A, b)
    return value
