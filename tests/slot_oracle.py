"""Per-slot reference for the Monte Carlo simulator.

Moves every node, counts the nodes per position, ranks the configuration
and applies the policy one slot at a time, in plain Python. This is what
the library did before it switched to a time-parallel walk with
vectorised ranking; it is kept here, for short runs only, to check that
implementation against. The results must agree exactly: the same
uniforms drive the same trajectories, and the rewards are summed in the
same order.
"""

from __future__ import annotations

import math

import numpy as np

from manet1d import ConfigError, NetworkParams, SimConfig, state_space
from manet1d.mobility import move_targets
from manet1d.policies import PolicyReport, ThresholdRule
from manet1d.simulate import _CHUNK, _rng_for, parse_policy_spec, resolve_policy


def _binom_table(N: int, K: int) -> np.ndarray:
    size = N + K + 1
    comb = np.zeros((size, K + 1), dtype=np.int64)
    comb[:, 0] = 1
    for n in range(1, size):
        for r in range(1, K + 1):
            comb[n, r] = comb[n - 1, r - 1] + comb[n - 1, r]
    return comb


def _config_rank(counts, N, K, comb):
    rank = 0
    rem = N
    for k in range(K - 1):
        parts = K - 1 - k
        nk = counts[k]
        for v in range(nk):
            rank += comb[rem - v + parts - 1, parts - 1]
        rem -= nk
    return rank


def _slot_loop(
    pos,
    held,
    u,
    targets,
    c0,
    c1,
    comb,
    counts,
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
    T, N = u.shape
    K = targets.shape[0]
    reward_sum = 0.0
    discoveries = 0
    counted = 0
    for t in range(T):
        for i in range(N):
            p = pos[i]
            ui = u[t, i]
            if ui < c0:
                pos[i] = targets[p, 0]
            elif ui < c1:
                pos[i] = targets[p, 1]
            else:
                pos[i] = targets[p, 2]
        for k in range(K):
            counts[k] = 0
        for i in range(N):
            counts[pos[i]] += 1
        cfg = _config_rank(counts, N, K, comb)
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


def _visit_loop(pos, u, targets, c0, c1, comb, counts, visits):
    T, N = u.shape
    K = targets.shape[0]
    for t in range(T):
        for i in range(N):
            p = pos[i]
            ui = u[t, i]
            if ui < c0:
                pos[i] = targets[p, 0]
            elif ui < c1:
                pos[i] = targets[p, 1]
            else:
                pos[i] = targets[p, 2]
        for k in range(K):
            counts[k] = 0
        for i in range(N):
            counts[pos[i]] += 1
        visits[_config_rank(counts, N, K, comb)] += 1


def simulate_config_visits(
    params: NetworkParams, slots: int, seed: int, replication: int = 0
) -> np.ndarray:
    """Visit counts over configurations (enumeration order) for one
    simulated trajectory; used to cross-check stationary laws."""
    space = state_space(params)
    rng = _rng_for(seed, replication)
    pos = rng.integers(0, params.K, size=params.N).astype(np.int64)
    targets = move_targets(params)
    c0, c1 = params.p_l, params.p_l + params.p_t
    comb = _binom_table(params.N, params.K)
    counts = np.zeros(params.K, dtype=np.int64)
    visits = np.zeros(space.n_configs, dtype=np.int64)
    done = 0
    while done < slots:
        step = min(_CHUNK, slots - done)
        u = rng.random((step, params.N))
        _visit_loop(pos, u, targets, c0, c1, comb, counts, visits)
        done += step
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

    targets = move_targets(params)
    c0, c1 = params.p_l, params.p_l + params.p_t
    comb = _binom_table(params.N, params.K)
    best_idx = space.best_route_idx
    best_f = space.best_f
    cont_f = space.cont_f
    one_minus_phi = 1.0 - params.phi

    rep_means = np.zeros(cfg.replications)
    rep_disc = np.zeros(cfg.replications)
    counts = np.zeros(params.K, dtype=np.int64)
    for rep in range(cfg.replications):
        rng = _rng_for(cfg.seed, rep)
        pos = rng.integers(0, params.K, size=params.N).astype(np.int64)
        held = space.null_route_idx
        prev_obs = 0.0
        total = 0.0
        discoveries = 0
        counted = 0
        done = 0
        while done < cfg.slots:
            step = min(_CHUNK, cfg.slots - done)
            u = rng.random((step, params.N))
            held, rew, disc, cnt, prev_obs = _slot_loop(
                pos, held, u, targets, c0, c1, comb, counts, actions,
                best_idx, best_f, cont_f, one_minus_phi, mode,
                0.0 if theta is None else theta,
                prev_obs, done, cfg.burn_in,
            )
            total += rew
            discoveries += disc
            counted += cnt
            done += step
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


