"""Output checks for the benchmark workloads.

The oracles here are written from the model's definitions, not from the
library: the route census and route list come from counting hop
sequences, a route's throughput from the interval-graph closed form
f = 1 / max_i sum_{j >= i, a_j - b_i <= m} 1/rate_j, and expected raw
throughput from the multinomial occupancy law. The only library value
they take is the node's stationary law pi.

Every check is counted as attempted; a check that does not hold is
recorded with a one-line reason. Values parsed from CLI output are
rendered with 10 significant digits, so comparisons against them allow
half a unit in the last printed digit on top of the stated tolerance.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def slack(x: float, rendered: bool) -> float:
    """Largest error a 10-significant-digit rendering of x can carry."""
    return 5e-10 * abs(x) if rendered else 0.0


def close(value: float, ref: float, tol: float, rendered: bool) -> bool:
    return abs(value - ref) <= tol + slack(ref, rendered)


# ---------------------------------------------------------------------------
# independent oracles


def route_positions(K: int, m: int):
    """Every position sequence 0 < ... < K+1 whose hops are at most m."""

    def extend(path):
        last = path[-1]
        if last == K + 1:
            yield path
            return
        for step in range(1, m + 1):
            if last + step <= K + 1:
                yield from extend(path + (last + step,))

    yield from extend((0,))


def route_census(K: int, m: int) -> int:
    """Number of hop sequences from 0 to K+1 with hops of 1..m."""
    ways = [1] + [0] * (K + 1)
    for i in range(1, K + 2):
        ways[i] = sum(ways[i - d] for d in range(1, m + 1) if i - d >= 0)
    return ways[K + 1]


def closed_form_throughput(positions, m: int, rates) -> Fraction:
    """Weighted clique bound of the route's proper-interval conflict graph."""
    links = list(zip(positions, positions[1:]))
    weight = [1 / Fraction(rates[b - a - 1]) for a, b in links]
    worst = Fraction(0)
    for i, (_, b_i) in enumerate(links):
        load = Fraction(0)
        for j in range(i, len(links)):
            if links[j][0] - b_i > m:
                break
            load += weight[j]
        worst = max(worst, load)
    return 1 / worst


def schedule_feasible(positions, m: int, rates, f: float, sets, tol: float) -> bool:
    """Shares sum to at most 1, no set holds two conflicting links, and
    every link is active long enough to carry f."""
    links = list(zip(positions, positions[1:]))
    if f <= 0 or sum(share for _, share in sets) > 1 + tol:
        return False
    coverage = [0.0] * len(links)
    for members, share in sets:
        for i, j in combinations(sorted(members), 2):
            if links[j][0] - links[i][1] <= m:
                return False
        for i in members:
            coverage[i] += share
    return all(
        cov * rates[b - a - 1] >= f - tol for cov, (a, b) in zip(coverage, links)
    )


def _occupancies(N: int, K: int):
    if K == 1:
        yield (N,)
        return
    for first in range(N, -1, -1):
        for rest in _occupancies(N - first, K - 1):
            yield (first,) + rest


def expected_best_throughput(K: int, N: int, m: int, rates, pi) -> float:
    """Sum over occupancies c of multinomial(c; pi) times the best
    closed-form throughput among routes whose relays are all occupied."""
    usable = []
    for pos in route_positions(K, m):
        interior = pos[1:-1]
        if len(interior) <= N:
            mask = sum(1 << (p - 1) for p in interior)
            usable.append((float(closed_form_throughput(pos, m, rates)), mask))
    usable.sort(reverse=True)
    total = 0.0
    for counts in _occupancies(N, K):
        occupied = sum(1 << k for k, n in enumerate(counts) if n)
        best = next((f for f, mask in usable if mask & ~occupied == 0), 0.0)
        if best == 0.0:
            continue
        prob = float(math.factorial(N))
        for n, p in zip(counts, pi):
            prob *= p**n / math.factorial(n)
        total += prob * best
    return float(total)


# ---------------------------------------------------------------------------
# per-workload checks


def check_sweep(ch: Checks, rows, reference, exact_best0: float, rendered: bool):
    """rows: (phi, policy, gain, threshold) in output order."""
    ch.check(
        [(r[0], r[1]) for r in rows] == [(r[0], r[1]) for r in reference],
        "sweep rows differ from the reference (phi, policy) grid",
    )
    got = {(r[0], r[1]): r for r in rows}
    for phi, policy, gain, threshold in reference:
        row = got.get((phi, policy))
        if row is None:
            continue
        tol = 1e-8 if policy == "optimal" else 1e-12
        ch.check(
            close(row[2], gain, tol, rendered),
            f"{policy} gain at phi={phi}: {row[2]!r} vs recorded {gain!r}",
        )
        if threshold is not None:
            ch.check(
                row[3] is not None and close(row[3], threshold, 1e-12, rendered),
                f"{policy} threshold at phi={phi}: {row[3]!r} vs recorded {threshold!r}",
            )

    phis = sorted({r[0] for r in rows})
    gain = {(r[0], r[1]): r[2] for r in rows}
    for phi in phis:
        opt, bt = gain[phi, "optimal"], gain[phi, "best-threshold"]
        rule = max(gain[phi, "rule:2"], gain[phi, "route-break"])
        ch.check(opt >= bt - 1e-8, f"optimal < best-threshold at phi={phi}")
        ch.check(bt >= rule - 1e-8, f"best-threshold < max(rule:2, route-break) at phi={phi}")
    for lo, hi in zip(phis, phis[1:]):
        ch.check(
            gain[hi, "optimal"] <= gain[lo, "optimal"] + 1e-8,
            f"optimal gain increases from phi={lo} to phi={hi}",
        )
    # route-break never depends on phi, so its gain is A - phi * B
    g0, g1 = gain[phis[0], "route-break"], gain[phis[-1], "route-break"]
    for phi in phis:
        line = g0 + (phi - phis[0]) / (phis[-1] - phis[0]) * (g1 - g0)
        ch.check(
            abs(gain[phi, "route-break"] - line) <= 1e-9,
            f"route-break gain not affine in phi at phi={phi}",
        )
    # free discovery: the optimum earns the best supported route every slot
    ch.check(
        close(gain[0.0, "optimal"], exact_best0, 1e-8, rendered),
        f"optimal gain at phi=0 {gain[0.0, 'optimal']!r} vs multinomial {exact_best0!r}",
    )


def mc_within(report, exact: float, rendered: bool) -> bool:
    mean, stderr = report["mean"], report["stderr"]
    return abs(mean - exact) <= 4.0 * stderr + 1e-9 + slack(mean, rendered) + slack(
        4.0 * stderr, rendered
    )


def check_routes(ch: Checks, out, K: int, N: int, m: int, rates, pi, rendered: bool):
    """out: dict with n_routes, routes [(positions, f, sets)], configs, e_raw."""
    census = route_census(K, m)
    ch.check(out["n_routes"] == census, f"route count {out['n_routes']} vs census {census}")
    ch.check(
        sorted(pos for pos, _, _ in out["routes"]) == sorted(route_positions(K, m)),
        "listed routes differ from the hop-sequence enumeration",
    )
    tol = 1e-9 if rendered else 1e-12
    for pos, f, sets in out["routes"]:
        cf = float(closed_form_throughput(pos, m, rates))
        ch.check(close(f, cf, 1e-12, rendered), f"route {pos}: f={f!r} vs closed form {cf!r}")
        ch.check(
            schedule_feasible(pos, m, rates, f, sets, tol),
            f"route {pos}: schedule does not carry f={f!r}",
        )
    ch.check(
        out["configs"] == math.comb(N + K - 1, K - 1),
        f"configuration count {out['configs']}",
    )
    e = expected_best_throughput(K, N, m, rates, pi)
    ch.check(close(out["e_raw"], e, 1e-12, rendered), f"E[raw] {out['e_raw']!r} vs {e!r}")
