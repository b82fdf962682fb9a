"""Slot-level Monte Carlo simulation and phi sweeps.

The simulator tracks the N individual node positions (the physical
process) over a chunk of slots at once with an exact time-parallel walk
(_walk), ranks each slot's occupancy configuration, then applies the
policy slot by slot and accrues net reward. Replication r draws from a
counter-based Philox stream keyed with seed XOR r, so every run is
reproducible and replications are independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .grid import NetworkParams, rank_counts
from .mdp import Mdp, PolicyEvaluator, build_mdp, solve_avg_reward, state_space
from .mobility import move_targets
from .policies import (
    PolicyReport,
    ThresholdRule,
    always_discover,
    best_threshold_search,
    never_discover,
    threshold_policy,
)

try:  # the policy pass is plain Python; numba just makes it fast
    from numba import njit as _njit
except ImportError:  # pragma: no cover
    def _njit(*args, **kwargs):
        if len(args) == 1 and callable(args[0]):
            return args[0]
        return lambda f: f

_CHUNK = 1 << 16


@dataclass(frozen=True)
class SimConfig:
    """A full simulation run description."""

    params: NetworkParams
    slots: int = 10**6
    burn_in: int = 10**4
    seed: int = 0
    replications: int = 5
    policy: str = "route-break"

    def __post_init__(self):
        if not (isinstance(self.slots, int) and self.slots > 0):
            raise ConfigError(f"slots must be a positive integer, got {self.slots!r}")
        if not (isinstance(self.burn_in, int) and self.burn_in >= 0):
            raise ConfigError(f"burn_in must be a non-negative integer, got {self.burn_in!r}")
        if self.slots <= self.burn_in:
            raise ConfigError(
                f"slots ({self.slots}) must exceed burn_in ({self.burn_in})"
            )
        if not (isinstance(self.replications, int) and self.replications >= 1):
            raise ConfigError(
                f"replications must be a positive integer, got {self.replications!r}"
            )
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")


@dataclass(frozen=True)
class PolicySpec:
    kind: str
    value: float | None = None

    def label(self) -> str:
        if self.kind == "rule":
            x = self.value
            return f"rule:{int(x) if float(x).is_integer() else x}"
        if self.kind == "fixed":
            return f"fixed:{self.value}"
        return self.kind


def parse_policy_spec(spec: str) -> PolicySpec:
    """Parse one of: optimal | rule:x | best-threshold | route-break |
    fixed:theta | always | never."""
    s = spec.strip()
    name, _, arg = s.partition(":")
    name = name.strip().lower()
    if name in ("optimal", "best-threshold", "route-break", "always", "never"):
        if arg:
            raise ConfigError(f"policy {name!r} takes no argument, got {spec!r}")
        return PolicySpec(kind=name)
    if name == "rule":
        try:
            x = float(arg) if arg else 2.0
        except ValueError:
            raise ConfigError(f"bad rule exponent in policy spec {spec!r}") from None
        if x <= 0:
            raise ConfigError(f"rule exponent must be positive, got {spec!r}")
        return PolicySpec(kind="rule", value=x)
    if name == "fixed":
        try:
            theta = float(arg)
        except ValueError:
            raise ConfigError(f"bad threshold in policy spec {spec!r}") from None
        if theta < 0:
            raise ConfigError(f"fixed threshold must be >= 0, got {spec!r}")
        return PolicySpec(kind="fixed", value=theta)
    raise ConfigError(f"unknown policy spec {spec!r}")


def resolve_policy(
    spec: PolicySpec,
    params: NetworkParams,
    mdp: Mdp | None = None,
    evaluator: PolicyEvaluator | None = None,
) -> tuple[np.ndarray, float | None]:
    """Action table and (if the policy is threshold-shaped) the
    threshold it uses. Builds the decision process only for the specs
    that need it (optimal, best-threshold)."""
    space = mdp.space if mdp is not None else state_space(params)
    if spec.kind == "always":
        return always_discover(space), None
    if spec.kind == "never":
        return never_discover(space), None
    if spec.kind == "route-break":
        return threshold_policy(space, 0.0), 0.0
    if spec.kind == "fixed":
        return threshold_policy(space, spec.value), spec.value
    if spec.kind == "rule":
        theta = ThresholdRule.for_params(params, x=spec.value).theta
        return threshold_policy(space, theta), theta
    if spec.kind == "optimal":
        if mdp is None:
            mdp = build_mdp(params)
        solution = solve_avg_reward(mdp.with_phi(params.phi))
        return solution.action, None
    if spec.kind == "best-threshold":
        if mdp is None:
            mdp = build_mdp(params)
        theta, _ = best_threshold_search(mdp.with_phi(params.phi), evaluator)
        return threshold_policy(space, theta), theta
    raise ConfigError(f"unknown policy kind {spec.kind!r}")


# ---------------------------------------------------------------------------
# trajectories

_BLOCK = 1 << 12  # slots walked and ranked at once; bounds the temporaries


def _walk(u, pos, targets, c0, c1):
    """Node positions (T, N) after each slot of uniforms u (T, N), from
    `pos`, which is advanced to the last slot's positions. A node moves
    left when its uniform is below c0, stays when it is below c1 and
    moves right otherwise (no node stays when p_l + p_r rounds above 1
    and c1 < c0).

    Time-parallel and exact: the slots are cut into segments of about
    sqrt(T); each segment's end position is found from every start
    position at once, the segments are chained through those maps, and
    then all segments are replayed together from their known starts.
    """
    T, N = u.shape
    K = targets.shape[0]
    flat = targets.ravel()
    L = math.isqrt(T - 1) + 1
    S = -(-T // L)
    moves = np.ones((S, L, N), dtype=np.int64)  # padded with "stay"
    moves.reshape(S * L, N)[:T] = (u >= c0) * (1 + (u >= c1))
    ends = np.broadcast_to(np.arange(K), (S, N, K))
    for j in range(L):
        ends = flat[3 * ends + moves[:, j, :, None]]
    starts = np.empty((S, N), dtype=np.int64)
    for s in range(S):
        starts[s] = pos
        pos[:] = ends[s, np.arange(N), pos]
    for j in range(L):  # each slot's positions overwrite its moves
        moves[:, j] = starts = flat[3 * starts + moves[:, j]]
    return moves.reshape(S * L, N)[:T]


def _config_path(u, pos, params):
    """Configuration index (enumeration order) of each slot of a chunk of
    uniforms u (T, N); see _walk."""
    targets = move_targets(params)
    c0, c1 = params.p_l, params.p_l + params.p_t
    idx = np.empty(len(u), dtype=np.int64)
    for a in range(0, len(u), _BLOCK):
        at = _walk(u[a : a + _BLOCK], pos, targets, c0, c1)
        counts = (at[:, :, None] == np.arange(params.K)).sum(axis=1)
        idx[a : a + len(at)] = rank_counts(counts, params.N)
    return idx


@_njit(cache=False)
def _slot_loop(
    cfgs,
    held,
    actions,
    best_idx,
    best_f,
    cont_f,
    one_minus_phi,
    mode,
    theta,
    prev_obs,
    t0,
    burn_in,
):
    reward_sum = 0.0
    discoveries = 0
    counted = 0
    for t in range(cfgs.shape[0]):
        cfg = cfgs[t]
        if mode == 0:
            discover = actions[cfg, held] != 0
        else:  # threshold applied to the previous slot's realised reward
            discover = (prev_obs < theta) or (prev_obs == 0.0)
        if discover:
            rew = one_minus_phi * best_f[cfg]
            held = best_idx[cfg]
        else:
            rew = cont_f[cfg, held]
        prev_obs = rew
        if t0 + t >= burn_in:
            reward_sum += rew
            counted += 1
            if discover:
                discoveries += 1
    return held, reward_sum, discoveries, counted, prev_obs


def _rng_for(seed: int, replication: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed ^ replication))


def simulate_config_visits(
    params: NetworkParams, slots: int, seed: int, replication: int = 0
) -> np.ndarray:
    """Visit counts over configurations (enumeration order) for one
    simulated trajectory; used to cross-check stationary laws."""
    space = state_space(params)
    rng = _rng_for(seed, replication)
    pos = rng.integers(0, params.K, size=params.N).astype(np.int64)
    visits = np.zeros(space.n_configs, dtype=np.int64)
    for done in range(0, slots, _CHUNK):
        u = rng.random((min(_CHUNK, slots - done), params.N))
        visits += np.bincount(_config_path(u, pos, params), minlength=space.n_configs)
    return visits


def simulate(cfg: SimConfig, observe: str = "current") -> PolicyReport:
    """Monte Carlo estimate of a policy's long-run average reward.

    observe="prev" switches threshold-shaped policies to comparing the
    previous slot's realised reward against the threshold instead of
    probing the held route in the current slot (sensitivity variant;
    has no exact counterpart).
    """
    params = cfg.params
    spec = parse_policy_spec(cfg.policy)
    space = state_space(params)

    if observe not in ("current", "prev"):
        raise ConfigError(f"observe must be 'current' or 'prev', got {observe!r}")
    mode = 0
    theta: float | None
    if observe == "prev":
        if spec.kind not in ("rule", "fixed", "route-break"):
            raise ConfigError(
                "observe='prev' applies only to threshold policies "
                "(rule:x, fixed:theta, route-break)"
            )
        mode = 1
        if spec.kind == "route-break":
            theta = 0.0
        elif spec.kind == "fixed":
            theta = spec.value
        else:
            theta = ThresholdRule.for_params(params, x=spec.value).theta
        actions = np.zeros((space.n_configs, space.n_routes), dtype=np.uint8)
    else:
        table, theta = resolve_policy(spec, params)
        actions = table.astype(np.uint8)

    best_idx = space.best_route_idx
    best_f = space.best_f
    cont_f = space.cont_f
    one_minus_phi = 1.0 - params.phi

    rep_means = np.zeros(cfg.replications)
    rep_disc = np.zeros(cfg.replications)
    for rep in range(cfg.replications):
        rng = _rng_for(cfg.seed, rep)
        pos = rng.integers(0, params.K, size=params.N).astype(np.int64)
        held = space.null_route_idx
        prev_obs = 0.0
        total = 0.0
        discoveries = 0
        counted = 0
        for done in range(0, cfg.slots, _CHUNK):
            u = rng.random((min(_CHUNK, cfg.slots - done), params.N))
            held, rew, disc, cnt, prev_obs = _slot_loop(
                _config_path(u, pos, params), held, actions,
                best_idx, best_f, cont_f, one_minus_phi, mode,
                0.0 if theta is None else theta,
                prev_obs, done, cfg.burn_in,
            )
            total += rew
            discoveries += disc
            counted += cnt
        rep_means[rep] = total / counted
        rep_disc[rep] = discoveries / counted

    mean = float(rep_means.mean())
    stderr = (
        float(rep_means.std(ddof=1) / math.sqrt(cfg.replications))
        if cfg.replications > 1
        else None
    )
    return PolicyReport(
        policy=spec.label() if observe == "current" else f"{spec.label()}@prev",
        params=params,
        mc_mean=mean,
        mc_stderr=stderr,
        threshold=theta,
        discovery_frequency=float(rep_disc.mean()),
        slots=cfg.slots,
        burn_in=cfg.burn_in,
        seed=cfg.seed,
        replications=cfg.replications,
    )


# ---------------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class SweepRow:
    phi: float
    policy: str
    gain: float
    stderr: float | None
    threshold: float | None
    discovery_frequency: float
    method: str


@dataclass(frozen=True)
class SweepResult:
    base: SimConfig
    rows: tuple[SweepRow, ...]


def sweep_phi(base: SimConfig, phis, policies) -> SweepResult:
    """Exact gain of each policy spec at each phi.

    All listed policy specs are state-expressible, so every row is an
    exact evaluation; stationary distributions are cached across phi
    (a threshold policy's induced chain does not depend on phi).
    """
    specs = [parse_policy_spec(p) if isinstance(p, str) else p for p in policies]
    mdp = build_mdp(base.params)
    evaluator = PolicyEvaluator(mdp)
    rows: list[SweepRow] = []
    warm: dict[str, np.ndarray] = {}
    for phi in phis:
        params = base.params.with_phi(float(phi))
        mdp_phi = mdp.with_phi(float(phi))
        for spec in specs:
            if spec.kind == "optimal":
                solution = solve_avg_reward(mdp_phi, v0=warm.get("optimal"))
                warm["optimal"] = solution.bias
                actions, theta = solution.action, None
            else:
                actions, theta = resolve_policy(
                    spec, params, mdp=mdp_phi, evaluator=evaluator
                )
            gain = evaluator.gain(actions, phi=float(phi))
            freq = evaluator.discovery_frequency(actions)
            rows.append(
                SweepRow(
                    phi=float(phi),
                    policy=spec.label(),
                    gain=gain,
                    stderr=None,
                    threshold=theta,
                    discovery_frequency=freq,
                    method="exact",
                )
            )
    return SweepResult(base=base, rows=tuple(rows))


def report_exact(cfg: SimConfig) -> PolicyReport:
    """Exact gain of the configured policy (the `eval` entry point)."""
    spec = parse_policy_spec(cfg.policy)
    mdp = build_mdp(cfg.params)
    evaluator = PolicyEvaluator(mdp)
    actions, theta = resolve_policy(spec, cfg.params, mdp=mdp, evaluator=evaluator)
    gain = evaluator.gain(actions, phi=cfg.params.phi)
    freq = evaluator.discovery_frequency(actions)
    return PolicyReport(
        policy=spec.label(),
        params=cfg.params,
        exact_gain=gain,
        threshold=theta,
        discovery_frequency=freq,
        seed=cfg.seed,
    )
