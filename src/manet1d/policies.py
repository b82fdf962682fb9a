"""Discovery policies: the closed-form threshold rule, threshold policy
tables, and the exhaustive best-threshold search.

A threshold policy probes the held route each slot: it continues when
the route currently supports a rate of at least theta, and triggers a
discovery when the observed rate falls below theta or the route is
broken (rate zero). theta = 0 therefore reduces exactly to the
route-break policy (rediscover only when the route stops working).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grid import NetworkParams
from .mdp import Mdp, PolicyEvaluator, build_mdp, state_space
from .mobility import config_stationary_law


def expected_raw_throughput(params: NetworkParams) -> float:
    """Steady-state mean of the best supported throughput: each
    configuration's multinomial probability times its best route's
    rate. This is what a discover-every-slot controller would earn
    before discovery overhead."""
    space = state_space(params)
    return float(config_stationary_law(space.counts, params) @ space.best_f)


@dataclass(frozen=True)
class ThresholdRule:
    """The closed-form threshold (1 - phi^x) * E[raw throughput]."""

    x: float
    expected_raw: float
    theta: float

    @classmethod
    def for_params(cls, params: NetworkParams, x: float = 2.0) -> "ThresholdRule":
        if x <= 0:
            raise ValueError(f"x must be positive, got {x}")
        e = expected_raw_throughput(params)
        return cls(x=x, expected_raw=e, theta=(1.0 - params.phi**x) * e)


def rule_threshold(params: NetworkParams, x: float = 2.0) -> float:
    return ThresholdRule.for_params(params, x).theta


def _space(obj):
    # policy tables only need the state space; accept an Mdp for convenience
    return obj.space if isinstance(obj, Mdp) else obj


def threshold_policy(mdp, theta: float) -> np.ndarray:
    """Action table of the threshold policy: discover where the held
    route's current rate is below theta or exactly zero."""
    observed = _space(mdp).cont_f
    return (observed < theta) | (observed == 0.0)


def route_break_policy(mdp) -> np.ndarray:
    """Rediscover only when the held route is broken in the current
    configuration (identical to threshold_policy at theta = 0)."""
    return threshold_policy(mdp, 0.0)


def always_discover(mdp) -> np.ndarray:
    space = _space(mdp)
    return np.ones((space.n_configs, space.n_routes), dtype=bool)


def never_discover(mdp) -> np.ndarray:
    space = _space(mdp)
    return np.zeros((space.n_configs, space.n_routes), dtype=bool)


def achievable_rates(mdp) -> list[float]:
    """Sorted distinct optimal throughputs over all routes (the null
    route contributes 0)."""
    return sorted(set(float(v) for v in _space(mdp).route_f))


def threshold_candidates(mdp) -> list[float]:
    """One representative threshold per distinct threshold-policy
    behaviour: 0, the midpoints between consecutive achievable rates,
    and one value above the maximum."""
    rates = achievable_rates(mdp)
    candidates = [0.0]
    candidates += [0.5 * (a + b) for a, b in zip(rates, rates[1:])]
    candidates.append(rates[-1] + 1.0)
    return candidates


def best_threshold_search(
    mdp_or_params: Mdp | NetworkParams,
    evaluator: Optional[PolicyEvaluator] = None,
) -> tuple[float, float]:
    """Exhaustive exact search over threshold behaviours.

    Returns (theta*, gain*), breaking gain ties toward the smallest
    threshold. An existing PolicyEvaluator can be passed to reuse its
    stationary-distribution cache.
    """
    mdp = (
        mdp_or_params
        if isinstance(mdp_or_params, Mdp)
        else build_mdp(mdp_or_params)
    )
    if evaluator is None:
        evaluator = PolicyEvaluator(mdp)
    best_theta, best_gain = 0.0, -np.inf
    for theta in threshold_candidates(mdp):
        gain = evaluator.gain(threshold_policy(mdp, theta), phi=mdp.params.phi)
        if gain > best_gain + 1e-12:
            best_theta, best_gain = theta, gain
    return best_theta, best_gain


@dataclass(frozen=True)
class PolicyReport:
    """What a policy earned, with full reproducibility context."""

    policy: str
    params: NetworkParams
    exact_gain: float | None = None
    mc_mean: float | None = None
    mc_stderr: float | None = None
    threshold: float | None = None
    discovery_frequency: float | None = None
    slots: int | None = None
    burn_in: int | None = None
    seed: int | None = None
    replications: int | None = None

    def consistent(self, n_sigma: float = 3.0) -> bool | None:
        """When both an exact gain and a Monte Carlo estimate are
        present: do they agree within n_sigma standard errors?"""
        if self.exact_gain is None or self.mc_mean is None or self.mc_stderr is None:
            return None
        return abs(self.exact_gain - self.mc_mean) <= n_sigma * self.mc_stderr


__all__ = [
    "expected_raw_throughput",
    "ThresholdRule",
    "rule_threshold",
    "threshold_policy",
    "route_break_policy",
    "always_discover",
    "never_discover",
    "achievable_rates",
    "threshold_candidates",
    "best_threshold_search",
    "PolicyReport",
]
