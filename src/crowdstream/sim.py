"""Deterministic discrete-event simulator of asynchronous segmented streaming.

Each user alternates between decision epochs and transfers. Decisions come
from a pure scheduler function over a snapshot of broadcast state; transfer
completion times are inverted from the piecewise-constant capacity trace.
Buffers drain continuously at unit rate, segments arriving into a full
buffer are dropped (energy still charged), and transfers that lose their
encounter mid-flight are aborted with pro-rata energy under the default
abort policy.

Segment owners are the video users, fixed at setup. A user's neighbours are
itself plus the owners it can download from now; encounters with helpers,
which own nothing, are not tracked. A scheduler's Download is refused, with
a violation and a re-poll one ``DEFAULT_EPOCH`` later, when its owner, level
or segment is not an int (a bool is not one), or when it names a user that
is not a neighbour (an encountered helper included), the decider without
video, a level off the owner's ladder, a segment outside the owner's video,
or a segment that is delivered or in flight. A Wait whose duration is NaN or
no real number, and a return that is neither a Download nor a Wait, are
refused the same way. A re-poll at or past the horizon, after a Wait, a
refusal or a transfer's end, is never queued.

Scheduler state is kept incrementally rather than rescanned per decision.
Each owner's smallest free segment moves only when a transfer to it starts
or ends undelivered, and only owners' buffers are drained, checked and
broadcast. The owner broadcast is built on the first decision after a state
change (a time advance, an accepted transfer or a finished one) and shared,
read-only, by every decision until the next change; most decisions are
same-instant wake-ups that see an unchanged state. A user's neighbour set
is tested again only for the owner partners with an encounter window
starting or ending since the user's previous test, by
``EncounterTrace.next_break``, the rule the abort policy also asks. A
user's capacity rate is held with the time its trace piece ends and asked
of ``CapacityTrace.piece_at`` again only once a decision reaches that time,
and its throughput samples are a tuple replaced when one of its transfers
completes, so a snapshot copies neither. One snapshot serves both the
decision and its welfare estimate; ``online`` scores a Lyapunov decision
with the potential read once and one pass per ladder. Buffers drain only
when an event's time differs from the one before it.
"""
from __future__ import annotations

import bisect
import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

from . import model, offline, online
from .model import TOL, SegmentRecord, UserProfile
from .traces import CapacityTrace, EncounterTrace


ABORT_POLICIES = ("abort", "complete")

SchedulerFn = Callable[[online.SchedulerState, Mapping[int, UserProfile]], online.Decision]


@dataclass(frozen=True)
class SimConfig:
    horizon: float
    profiles: tuple[UserProfile, ...]
    capacity: CapacityTrace
    encounters: EncounterTrace
    scheduler: str | SchedulerFn = "lyapunov"
    scheduler_params: Mapping[str, float] = field(default_factory=dict)
    seed: str = "0"
    abort_policy: str = "abort"  # one of ABORT_POLICIES

    def __post_init__(self) -> None:
        if self.horizon < 0:
            raise ValueError("horizon must be nonnegative")
        if self.horizon > self.capacity.horizon + TOL:
            raise ValueError("horizon exceeds capacity trace horizon")
        for p in self.profiles:
            if p.id not in self.capacity.users:
                raise ValueError(f"capacity trace has no user {p.id}")
        # a lone user never asks the encounter trace anything
        if len(self.profiles) > 1 and self.horizon > self.encounters.horizon:
            raise ValueError("horizon exceeds encounter trace horizon")
        if self.abort_policy not in ABORT_POLICIES:
            raise ValueError(f"unknown abort policy {self.abort_policy!r}")


@dataclass
class ExperimentReport:
    config: dict
    welfare: float
    sw_estimated: float
    avg_bitrate_mbps: float
    rebuffer_s: float
    deliveries: int
    drops: int
    aborts: int
    per_user: dict[int, dict]
    downloads: dict[int, list[SegmentRecord]]
    violations: list[str]
    gap: float | None = None

    def to_dict(self) -> dict:
        return {
            **vars(self),
            "per_user": {str(k): v for k, v in sorted(self.per_user.items())},
            "downloads": {
                str(n): [dict(vars(r)) for r in recs]
                for n, recs in sorted(self.downloads.items())
            },
        }


def run_simulation(config: SimConfig) -> ExperimentReport:
    profiles = model.profile_map(config.profiles)
    ids = sorted(profiles)
    horizon = config.horizon
    if callable(config.scheduler):
        scheduler = config.scheduler
        sched_name = getattr(config.scheduler, "__name__", "custom")
    else:
        scheduler = online.make_scheduler(config.scheduler, **dict(config.scheduler_params))
        sched_name = config.scheduler

    # playable buffer = contiguous prefix of delivered content (seconds);
    # out-of-order deliveries are parked and flushed once the gap closes
    buffers = {n: 0.0 for n in ids}
    parked: dict[int, set[int]] = {n: set() for n in ids}
    play_next = {n: 0 for n in ids}  # first index not yet in the playable prefix
    last_rates: dict[int, float] = {}  # owners with a delivery: their last rate
    # segment indices of the transfers in flight to each owner; segment k
    # of owner u is delivered iff k < play_next[u] or k in parked[u]
    reserved: dict[int, set[int]] = {n: set() for n in ids}
    # each user's last PREDICTION_WINDOW throughput samples, oldest first;
    # a completion replaces the tuple, so a snapshot can hand it out as is
    samples: dict[int, tuple[float, ...]] = {n: () for n in ids}
    # each user's capacity piece: its rate and the time the rate holds
    # until; the trace is asked again only once a decision reaches that time
    capacity = config.capacity
    pieces = {n: (0.0, -math.inf) for n in ids}
    downloads: dict[int, list[SegmentRecord]] = {n: [] for n in ids}
    violations: list[str] = []
    counters = {"drops": 0, "aborts": 0}
    sw_estimated = 0.0
    last_t = 0.0

    events: list[tuple[float, int, str, object]] = []
    seq = itertools.count()  # ties in time pop in push order
    heappush = heapq.heappush

    def push(time: float, kind: str, payload: object) -> None:
        heappush(events, (time, next(seq), kind, payload))

    # Owners, the only users with a nonzero buffer or a nonempty parked or
    # reserved set, are the video users; only they are broadcast. Their
    # ``profiles`` order fixes the drift's summation order.
    owners = tuple(n for n, p in profiles.items() if p.is_video_user)
    owner_betas = tuple((n, profiles[n].beta) for n in owners)

    # The owner broadcast (``buffers``, ``last_rates``, ``next_seg``), shared
    # by every snapshot until the state next changes; None marks it stale. A
    # rebuild must make new dicts, so that a snapshot handed out earlier
    # keeps what it saw.
    broadcast: tuple[dict, dict, dict] | None = None

    def advance(now: float) -> None:
        nonlocal last_t, broadcast
        dt = now - last_t
        if dt < -TOL:
            raise RuntimeError("event time went backwards")
        if dt > 0:
            for n in owners:
                buffers[n] = max(0.0, buffers[n] - dt)
            broadcast = None
        last_t = now

    def committed(n: int) -> float:
        """Buffer content including parked out-of-order segments (checked
        against the cap at arrival and after every delivery)."""
        return buffers[n] + profiles[n].beta * len(parked[n])

    def check_level(n: int, now: float) -> None:
        level = committed(n)
        if buffers[n] < -TOL or model.exceeds_cap(level, profiles[n]):
            violations.append(f"t={now}: buffer of user {n} out of range: {level}")

    def taken(u: int, k: int) -> bool:
        """Segment k of owner u is delivered or reserved by a transfer."""
        return k < play_next[u] or k in parked[u] or k in reserved[u]

    # Each video user's smallest segment index that is neither delivered
    # nor reserved (None once there is none), so several downloaders can
    # serve one owner. It moves forward when a transfer reserves it and
    # back when a transfer ends undelivered.
    next_segs = {n: 0 for n in owners}

    # A user is always its own neighbour. Another user m is a usable
    # neighbour of n at ``now`` when m is an owner and
    # ``encounters.next_break(n, m, now)`` is None or more than TOL after
    # ``now``: right at a break the pair is still "encountered" but no
    # positive-duration transfer fits, so it is excluded to keep every
    # started transfer strictly progressing. A helper partner owns nothing
    # to download, so its windows are never marked. The answer for m can
    # differ from the one at n's last test only if a start or end of one of
    # the pair's windows lies in [last test, now + TOL], so only those
    # partners are tested again, and with no mark left no one is. SimConfig
    # has checked that the encounter trace spans the run.
    encounters = config.encounters
    marks: dict[int, list[tuple[float, int]]] = {n: [] for n in ids}
    for (a, b), ivs in encounters.intervals.items():
        if a in marks and b in marks:
            for n, m in ((a, b), (b, a)):
                if profiles[m].is_video_user:
                    marks[n].extend((t, m) for iv in ivs for t in iv)
    for pts in marks.values():
        pts.sort()
    last_test = {n: -math.inf for n in ids}
    next_mark = {n: -math.inf for n in ids}  # first mark >= last_test, or inf
    usable: dict[int, set[int]] = {n: set() for n in ids}  # at last_test
    found = {n: (n,) for n in ids}

    def neighbors_of(n: int, now: float) -> tuple[int, ...]:
        """Tests n's marked partners again; ``snapshot`` returns ``found[n]``
        as it is while ``now + TOL`` is before ``next_mark[n]``."""
        pts = marks[n]
        since = bisect.bisect_left(pts, (last_test[n],))
        until = bisect.bisect_right(pts, (now + TOL, math.inf))
        if since < until:
            use = usable[n]
            for m in {m for _, m in pts[since:until]}:
                brk = encounters.next_break(n, m, now)
                if brk is None or brk > now + TOL:
                    use.add(m)
                else:
                    use.discard(m)
            found[n] = tuple(sorted((n, *use)))
        last_test[n] = now
        i = bisect.bisect_left(pts, (now,))
        next_mark[n] = pts[i][0] if i < len(pts) else math.inf
        return found[n]

    def snapshot(n: int, now: float) -> online.SchedulerState:
        nonlocal broadcast
        neighbors = found[n] if now + TOL < next_mark[n] else neighbors_of(n, now)
        if broadcast is None:
            broadcast = (
                # broadcast level: committed content (``committed``) plus
                # in-flight reservations, so concurrent downloaders do not
                # over-fill one owner's buffer
                {m: buffers[m] + beta * len(parked[m]) + beta * len(reserved[m])
                 for m, beta in owner_betas},
                dict(last_rates),
                dict(next_segs),
            )
        levels, rates, nexts = broadcast
        rate, until = pieces[n]
        if now >= until:
            pieces[n] = rate, until = capacity.piece_at(n, now)
        return online.SchedulerState(
            n, now, rate, neighbors, levels, rates, nexts, samples[n]
        )

    def poll(n: int, at: float) -> None:
        """User n decides again at ``at`` if that is before the horizon."""
        if at < horizon:
            push(at, "epoch", n)

    def refuse(n: int, now: float, why: str) -> None:
        """A decision the simulator cannot carry out: a violation, and user
        n decides again one ``DEFAULT_EPOCH`` later."""
        violations.append(f"t={now}: {why}")
        poll(n, now + online.DEFAULT_EPOCH)

    def start_download(
        n: int, now: float, decision: online.Download, state: online.SchedulerState
    ) -> None:
        """Start the chosen transfer; ``state`` is the snapshot the decision
        was made on, reused for the welfare estimate."""
        nonlocal sw_estimated, broadcast
        u, z, k = decision.owner, decision.level, decision.seg_index
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in (u, z, k)):
            refusal = f"non-integer owner, level or segment ({u!r}, {z!r}, {k!r}) by {n}"
        elif u not in state.neighbors:
            refusal = f"owner {u} is not a neighbour of {n}"
        elif not profiles[u].is_video_user:
            refusal = f"owner {u} has no video"
        elif not 0 <= z < len(profiles[u].ladder):
            refusal = f"level {z} is off the ladder of owner {u}"
        elif not 0 <= k < profiles[u].video_segments:
            refusal = f"segment {k} is outside the video of owner {u}"
        elif taken(u, k):
            refusal = f"stale segment choice ({u},{k}) by {n}"
        else:
            refusal = None
        if refusal is not None:
            refuse(n, now, refusal)
            return
        prof_u = profiles[u]
        rate = prof_u.ladder[z]
        vol = rate * prof_u.beta
        end = capacity.invert(n, now, vol)
        completed = True
        if end is None or end > horizon:
            end = horizon
            completed = False
        if completed and u != n and config.abort_policy == "abort":
            brk = config.encounters.next_break(n, u, now)
            if brk is not None and brk < end - TOL:
                end = brk
                completed = False
                counters["aborts"] += 1
        mbit = vol if completed else capacity.integrate(n, now, end)
        try:
            sw_estimated += online.decision_payoff(state, profiles, u, z)
        except ValueError:
            pass  # zero instantaneous capacity: no payoff estimate
        reserved[u].add(k)
        broadcast = None
        if next_segs[u] == k:
            j, segs = k + 1, prof_u.video_segments
            while j < segs and taken(u, j):
                j += 1
            next_segs[u] = j if j < segs else None
        push(end, "complete", (n, u, z, k, now, completed, mbit))

    def finish_download(now: float, n: int, u: int, z: int, k: int, t_start: float,
                        completed: bool, mbit: float) -> None:
        """End the transfer that ``start_download`` pushed; its one record,
        with the final ``delivered``, is made here."""
        nonlocal broadcast
        broadcast = None
        reserved[u].discard(k)
        prof_u = profiles[u]
        rate = prof_u.ladder[z]
        delivered = False
        if completed:
            # drop rule: a segment that would overfill the committed level
            if model.exceeds_cap(committed(u) + prof_u.beta, prof_u):
                counters["drops"] += 1
            else:
                delivered = True
                last_rates[u] = rate
                parked[u].add(k)
                while play_next[u] in parked[u]:
                    parked[u].discard(play_next[u])
                    buffers[u] += prof_u.beta
                    play_next[u] += 1
                check_level(u, now)
            if now > t_start:
                samples[n] = (*samples[n], mbit / (now - t_start))[-online.PREDICTION_WINDOW:]
        cur = next_segs[u]
        if not delivered and (cur is None or k < cur):
            next_segs[u] = k  # k is free again
        downloads[n].append(SegmentRecord(
            downloader=n, owner=u, level=z, rate=rate, seg_index=k, t_start=t_start,
            t_end=now, delivered=delivered, completed=completed, mbit=mbit,
        ))
        poll(n, now)

    for n in ids:
        poll(n, 0.0)

    heappop, Download, Wait = heapq.heappop, online.Download, online.Wait
    while events:
        time, _, kind, payload = heappop(events)
        if time != last_t:  # most events share the time of the one before
            advance(time)
        if kind == "epoch":
            n = payload
            state = snapshot(n, time)
            decision = scheduler(state, profiles)
            if isinstance(decision, Wait):
                duration = decision.duration
                try:  # time + max(duration, 1e-6)
                    at = time + (1e-6 if 1e-6 > duration else duration)
                except TypeError:  # a duration that is no real number
                    at = math.nan
                if at != at:
                    refuse(n, time, f"wait of {duration!r} from user {n}")
                elif at < horizon:  # ``poll``, inlined on the busiest path
                    heappush(events, (at, next(seq), "epoch", n))
            elif isinstance(decision, Download):
                start_download(n, time, decision, state)
            else:
                refuse(n, time, f"decision {decision!r} from user {n} is neither "
                                "a Download nor a Wait")
        elif kind == "complete":
            finish_download(time, *payload)

    advance(horizon)
    for n in sorted(owners):
        check_level(n, horizon)

    # A duplicate delivery would make eval_social_welfare raise below.
    for n in ids:
        for r in downloads[n]:
            if r.delivered:
                got = capacity.integrate(n, r.t_start, r.t_end)
                if r.rate * profiles[r.owner].beta > got + TOL:
                    violations.append(
                        f"capacity shortfall for segment {(r.owner, r.seg_index)} by user {n}"
                    )

    welfare, breakdowns = model.eval_social_welfare(profiles, downloads)
    delivered_records = [
        r for recs in downloads.values() for r in recs if r.delivered
    ]
    avg_rate = (
        model.ordered_sum(r.rate for r in delivered_records) / len(delivered_records)
        if delivered_records else 0.0
    )
    rebuffer_s = model.ordered_sum(b.rebuffer_s for b in breakdowns.values())
    per_user = {
        n: {
            **breakdowns[n].to_dict(),
            "delivered_segments": play_next[n] + len(parked[n]),
            "video_segments": profiles[n].video_segments,
        }
        for n in ids
    }
    config_echo = {
        "horizon": horizon,
        "scheduler": sched_name,
        "scheduler_params": dict(config.scheduler_params),
        "seed": config.seed,
        "abort_policy": config.abort_policy,
        "profiles": [profiles[n].to_dict() for n in ids],
    }
    return ExperimentReport(
        config=config_echo,
        welfare=welfare,
        sw_estimated=sw_estimated,
        avg_bitrate_mbps=avg_rate,
        rebuffer_s=rebuffer_s,
        deliveries=len(delivered_records),
        drops=counters["drops"],
        aborts=counters["aborts"],
        per_user=per_user,
        downloads=downloads,
        violations=violations,
    )


def gap_vs_upper_bound(report: ExperimentReport, instance: offline.SlottedInstance) -> float:
    """Relative gap between the fluid upper bound and the accumulated
    per-decision welfare estimate of a run."""
    return relative_gap(offline.solve_slotted_relaxed(instance), report.sw_estimated)


def relative_gap(upper: float, sw_estimated: float) -> float:
    """``(upper - sw_estimated) / max(|upper|, TOL)``: the one gap formula,
    for callers that solved the fluid bound themselves."""
    return (upper - sw_estimated) / max(abs(upper), TOL)
