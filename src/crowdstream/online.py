"""Real-time download decision policies.

Three schedulers over an identical decision interface: a drift-plus-penalty
policy that balances buffer equalization against immediate payoff, and two
baselines (buffer-mapped bitrate and capacity-prediction bitrate) paired
with a threshold owner-selection rule for multi-user cooperation.

A drift-plus-penalty decision reads the potential once (``_potential``),
then scores each ready owner's whole ladder in one pass (``_score_ladder``);
``lyapunov_drift`` and ``decision_payoff`` are one-level views of that pass.
"""
from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, NamedTuple

from .model import UserProfile, ordered_sum, quality_value

DEFAULT_EPOCH = 1.0  # re-poll interval when no download is possible (s)
RESERVOIR_FRAC = 0.25  # buffer-based: share of the cap mapped to the lowest level
PREDICTION_WINDOW = 5  # prediction-based: throughput samples in the harmonic mean
DEFAULT_LAM = 100.0  # Lyapunov: weight of the payoff against the drift
DEFAULT_DELTA_TH = 0.5  # threshold rule: own-buffer share of the cap before helping
DEFAULT_GAP_TH = 10.0  # threshold rule: buffer lead over the neighbour (s)


@dataclass(frozen=True)
class Download:
    owner: int
    level: int
    seg_index: int


@dataclass(frozen=True)
class Wait:
    duration: float


Decision = Download | Wait


class SchedulerState(NamedTuple):
    """Snapshot visible to one deciding downloader at one instant.

    An immutable ``NamedTuple``: a scheduler reads it by field name, and
    the field order, which positional construction and unpacking follow,
    is part of the interface. The simulator builds one per decision from
    state it updates only when that state changes.

    ``capacity`` is the decider's cellular rate at ``now``; the simulator
    holds it from one capacity-trace breakpoint to the next.
    The broadcast ``buffers`` and ``next_seg`` are keyed by the video users,
    the only segment owners; ``last_rates`` holds those with a delivery.
    ``next_seg`` is the smallest segment index neither delivered nor in
    flight, or None. The simulator shares these three mappings between
    the decisions made on one unchanged state, so a scheduler must treat
    them as read-only.
    ``throughput_samples`` holds the decider's last ``PREDICTION_WINDOW``
    samples, oldest first; the simulator replaces the tuple when a transfer
    of the decider completes. ``neighbors`` holds the decider plus the
    owners it can download from now, in ascending id order, without
    duplicates; an encountered helper owns nothing to download and is left
    out.
    """

    user: int
    now: float
    capacity: float  # current cellular rate of the decider, Mbps
    neighbors: tuple[int, ...]  # the decider plus the owners in range, by id
    buffers: Mapping[int, float]
    last_rates: Mapping[int, float | None]
    next_seg: Mapping[int, int | None]
    throughput_samples: tuple[float, ...] = ()


def _potential(
    state: SchedulerState, profiles: Mapping[int, UserProfile]
) -> list[tuple[int, float, float, float]]:
    """The terms of the potential J, read once per decision: each broadcast
    owner's id, level, cap and squared deficit ``(cap - level) ** 2``, in
    the order of ``state.buffers``."""
    terms = []
    for m, q in state.buffers.items():
        cap = profiles[m].buffer_cap
        terms.append((m, q, cap, (cap - q) ** 2))
    return terms


def _score_ladder(
    state: SchedulerState, profiles: Mapping[int, UserProfile], u: int,
    levels: Iterable[int], potential: list[tuple[int, float, float, float]],
) -> list[tuple[float, float]]:
    """The drift and the payoff of owner u's next segment at each of
    ``levels``, in one pass: one transfer time per level (the segment's
    volume over the decider's current capacity), each profile read once.
    ``potential`` is ``_potential(state, profiles)``, or empty when only the
    payoffs are wanted (each drift is then 0.0). Raises ValueError when the
    decider currently has no capacity.

    Drift: the change in the potential J = half the sum over the broadcast
    owners of (cap - level)^2 over the transfer. The receiver's buffer is
    projected as drained-then-refilled (clamped at its cap), every other
    owner's as drained only.

    Payoff: the immediate welfare estimate. Receiver utility (value minus
    projected degradation and stall losses) plus projected stall losses of
    the other playing video users, minus the decider's download energy and
    the receiver's playback energy. Without the loss terms this is
    ``model.segment_gain`` over the estimated transfer time. It is written
    out here so its float order, and with it every simulator report, stays
    as it is; a test ties the two together.
    """
    owner = profiles[u]
    dl = profiles[state.user]
    beta, ladder, phi_qdeg, phi_rebuf = (
        owner.beta, owner.ladder, owner.phi_qdeg, owner.phi_rebuf)
    eps_time, eps_rate = owner.eps_time, owner.eps_rate
    c_time, c_data, w_data = dl.c_time, dl.c_data, dl.w_data
    q_u = state.buffers[u]
    last = state.last_rates.get(u)
    cross = u != state.user
    # playback not started: startup waiting is not a stall
    playing = [(profiles[m].phi_rebuf, state.buffers[m]) for m in state.neighbors
               if m != u and state.last_rates.get(m) is not None]
    capacity = state.capacity
    if capacity <= 0:
        raise ValueError("cannot evaluate a download with zero capacity")
    scores = []
    for z in levels:
        gamma = ladder[z] * beta / capacity
        drift = 0.0
        for m, q, cap, before in potential:
            # max(0.0, q - gamma), then min(cap, . + beta) for the receiver,
            # each spelled out as the comparison it makes (NaN included)
            q_next = q - gamma
            if not q_next > 0.0:
                q_next = 0.0
            if m == u:
                q_next += beta
                if not q_next < cap:
                    q_next = cap
            drift += 0.5 * ((cap - q_next) ** 2 - before)
        rate = ladder[z]
        vol = rate * beta
        util = quality_value(owner, rate) * beta
        if last is not None:
            util -= phi_qdeg * max(0.0, last - rate)
        util -= phi_rebuf * max(0.0, gamma - q_u)
        for phi, q in playing:
            util -= phi * max(0.0, gamma - q)
        cost = c_time * gamma + c_data * vol
        if cross:
            cost += w_data * vol
        cost += eps_time * beta + eps_rate * vol
        scores.append((drift, util - cost))
    return scores


def decision_payoff(
    state: SchedulerState, profiles: Mapping[int, UserProfile], u: int, z: int
) -> float:
    """Immediate welfare estimate of downloading owner u's segment at level
    z (``_score_ladder``). Raises ValueError when the decider currently has
    no capacity."""
    return _score_ladder(state, profiles, u, (z,), [])[0][1]


def lyapunov_drift(
    state: SchedulerState, profiles: Mapping[int, UserProfile], u: int, z: int
) -> float:
    """Change in the squared buffer-deficit potential over the transfer of
    owner u's segment at level z (``_score_ladder``). Raises ValueError when
    the decider currently has no capacity."""
    return _score_ladder(state, profiles, u, (z,), _potential(state, profiles))[0][0]


# the one wait of a decider with no capacity or no neighbour segment left;
# a Wait is frozen, so every decision can hand out the same one
_EPOCH_WAIT = Wait(DEFAULT_EPOCH)


def _ready_or_wait(
    state: SchedulerState, profiles: Mapping[int, UserProfile]
) -> list[int] | Wait:
    """Owners the decider can serve now, in id order, or the Wait when there
    are none.

    Only neighbours with a next segment are candidates. When every candidate
    is over-full, waits until the least over-full has room for a segment;
    with no candidate, or no capacity, re-polls after ``DEFAULT_EPOCH``.
    """
    if state.capacity <= 0:
        return _EPOCH_WAIT
    ready: list[int] = []
    least = math.inf  # the least overflow, kept as ``min`` would keep it
    next_seg_of, buffers = state.next_seg.get, state.buffers
    for u in state.neighbors:
        if next_seg_of(u) is None:
            continue
        prof = profiles[u]
        # same test as ``level + beta <= cap``: for finite doubles, s <= c iff
        # s - c <= 0, as an IEEE difference of unequal doubles is never zero
        # or of the wrong sign
        over = buffers[u] + prof.beta - prof.buffer_cap
        if over <= 0:
            ready.append(u)
        elif over < least:
            least = over
    if ready:
        return ready
    if least < math.inf:
        return Wait(least)
    return _EPOCH_WAIT


def lyapunov_decide(
    state: SchedulerState, profiles: Mapping[int, UserProfile], lam: float = DEFAULT_LAM
) -> Decision:
    """Pick the (owner, level) minimizing drift minus lam * payoff.

    Ties break toward the lowest owner id, then the lowest level.
    """
    ready = _ready_or_wait(state, profiles)
    if isinstance(ready, Wait):
        return ready
    potential = _potential(state, profiles)
    best: tuple[float, int, int] | None = None
    for u in ready:
        levels = range(len(profiles[u].ladder))
        scores = _score_ladder(state, profiles, u, levels, potential)
        for z, (drift, payoff) in zip(levels, scores):
            key = (drift - lam * payoff, u, z)
            if best is None or key < best:
                best = key
    _, u, z = best
    return Download(owner=u, level=z, seg_index=state.next_seg[u])


def predict_capacity(samples: tuple[float, ...] | list[float], fallback: float) -> float:
    """Harmonic mean of the last ``PREDICTION_WINDOW`` throughput samples (Mbps)."""
    if not samples:
        return fallback
    recent = list(samples[-PREDICTION_WINDOW:])
    if min(recent) <= 0:
        return 0.0
    return len(recent) / ordered_sum(1.0 / s for s in recent)


def select_owner(
    state: SchedulerState,
    profiles: Mapping[int, UserProfile],
    ready: list[int],
    delta_th: float = DEFAULT_DELTA_TH,
    gap_th: float = DEFAULT_GAP_TH,
) -> int:
    """Threshold rule choosing, among the non-empty ``ready`` owners of
    ``_ready_or_wait``, whose segment to download next.

    A video-user decider helps the minimum-buffer neighbor only when its own
    buffer is at least ``delta_th`` of its cap and exceeds the neighbor's by
    ``gap_th`` seconds; an idle decider (or one whose video is finished)
    always helps the minimum-buffer neighbor. Falls back to self, or to
    ``ready[0]`` when the decider itself is not ready.
    """
    n = state.user
    others = [u for u in ready if u != n]
    if not others:
        return n
    u_min = min(others, key=lambda u: (state.buffers[u], u))
    if state.next_seg.get(n) is None:
        return u_min
    q_n = state.buffers[n]
    if q_n >= delta_th * profiles[n].buffer_cap and q_n - state.buffers[u_min] >= gap_th:
        return u_min
    return n if n in ready else ready[0]


def _baseline_decide(
    state: SchedulerState,
    profiles: Mapping[int, UserProfile],
    pick_level: Callable[[int], int],
    delta_th: float,
    gap_th: float,
) -> Decision:
    ready = _ready_or_wait(state, profiles)
    if isinstance(ready, Wait):
        return ready
    u = select_owner(state, profiles, ready, delta_th, gap_th)
    return Download(owner=u, level=pick_level(u), seg_index=state.next_seg[u])


def buffer_based_decide(
    state: SchedulerState,
    profiles: Mapping[int, UserProfile],
    delta_th: float = DEFAULT_DELTA_TH,
    gap_th: float = DEFAULT_GAP_TH,
) -> Decision:
    """Linear buffer-to-bitrate mapping on the owner's buffer level."""

    def pick_level(u: int) -> int:
        prof = profiles[u]
        reservoir = RESERVOIR_FRAC * prof.buffer_cap
        span = prof.buffer_cap - reservoir
        top = len(prof.ladder) - 1
        frac = (state.buffers[u] - reservoir) / span
        frac = min(1.0, max(0.0, frac))
        return min(top, int(frac * top))

    return _baseline_decide(state, profiles, pick_level, delta_th, gap_th)


def prediction_based_decide(
    state: SchedulerState,
    profiles: Mapping[int, UserProfile],
    delta_th: float = DEFAULT_DELTA_TH,
    gap_th: float = DEFAULT_GAP_TH,
) -> Decision:
    """Highest bitrate supported by the predicted channel capacity."""
    predicted = predict_capacity(state.throughput_samples, state.capacity)

    def pick_level(u: int) -> int:
        ladder = profiles[u].ladder
        level = 0
        for z, rate in enumerate(ladder):
            if rate <= predicted:
                level = z
        return level

    return _baseline_decide(state, profiles, pick_level, delta_th, gap_th)


SCHEDULERS = {
    "lyapunov": lyapunov_decide,
    "buffer": buffer_based_decide,
    "prediction": prediction_based_decide,
}


def make_scheduler(name: str, **params) -> Callable[[SchedulerState, Mapping[int, UserProfile]], Decision]:
    """Scheduler factory: a decide function with ``params`` bound.

    Accepted parameters, with the defaults their decide function declares:
    "lyapunov" takes ``lam`` (``DEFAULT_LAM``); "buffer" and "prediction"
    take ``delta_th`` (``DEFAULT_DELTA_TH``) and ``gap_th``
    (``DEFAULT_GAP_TH``). Raises ValueError for an unknown name or parameter.
    The parameters are bound by position in a closure, as a keyword merge on
    every call would cost more than the call itself.
    """
    decide = SCHEDULERS.get(name)
    if decide is None:
        raise ValueError(f"unknown scheduler {name!r}")
    extra = list(inspect.signature(decide).parameters.values())[2:]
    unknown = set(params) - {p.name for p in extra}
    if unknown:
        raise ValueError(f"unknown {name} params: {sorted(unknown)}")
    args = [params.get(p.name, p.default) for p in extra]
    # each decide function takes one or two parameters; a call with a fixed
    # number of arguments is cheaper than one that unpacks them
    if len(args) == 1:
        (a,) = args
        return lambda state, profiles: decide(state, profiles, a)
    a, b = args
    return lambda state, profiles: decide(state, profiles, a, b)
