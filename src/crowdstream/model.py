"""Domain types and payoff arithmetic for cooperative segment downloading.

All welfare accounting lives here: per-user quality value, quality-degradation
and rebuffering losses, cellular/WiFi/playback energy, and the social welfare
aggregation used by both the offline bound machinery and the simulator.
A user's payoff terms come from two walks: ``receiving_walk`` over the
segments it received, along its one buffer trajectory, and
``transfer_energy`` over its transfers.

Units: seconds for time and buffer levels, Mbps for bitrates, Mbit for data
volumes. Utility is dimensionless. All functions are pure and operate on
immutable inputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from typing import Iterable, Mapping, Sequence

TOL = 1e-9  # absolute slack of every feasibility and ordering comparison


class IntegrityError(ValueError):
    """Delivered segments collide on the same (owner, seg_index)."""


@dataclass(frozen=True)
class UserProfile:
    """Per-user video, QoE, energy, and buffer parameters.

    ``ladder`` is the strictly increasing set of available bitrates (Mbps);
    ``video_segments`` is the number of segments in the user's video (0 for
    an idle helper that plays nothing).
    """

    id: int
    beta: float
    buffer_cap: float
    ladder: tuple[float, ...]
    theta: float = 1.0
    phi_qdeg: float = 0.0
    phi_rebuf: float = 0.0
    c_time: float = 0.0
    c_data: float = 0.0
    w_time: float = 0.0
    w_data: float = 0.0
    eps_time: float = 0.0
    eps_rate: float = 0.0
    video_segments: int = 0

    def __post_init__(self) -> None:
        weights = ("phi_qdeg", "phi_rebuf", "c_time", "c_data",
                   "w_time", "w_data", "eps_time", "eps_rate")
        for name in ("beta", "buffer_cap", "theta", *weights):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.beta <= 0:
            raise ValueError(f"segment length must be positive, got {self.beta}")
        if self.buffer_cap < self.beta:
            raise ValueError(
                f"buffer must fit at least one segment: cap {self.buffer_cap} < beta {self.beta}"
            )
        if not self.ladder:
            raise ValueError("bitrate ladder must be non-empty")
        if not all(math.isfinite(r) and r > 0 for r in self.ladder):
            raise ValueError(f"bitrate ladder rates must be finite and positive: {self.ladder}")
        if any(b <= a for a, b in zip(self.ladder, self.ladder[1:])):
            raise ValueError(f"bitrate ladder must be strictly increasing: {self.ladder}")
        if self.theta <= 0:
            raise ValueError(f"quality factor must be positive, got {self.theta}")
        for name in weights:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if isinstance(self.video_segments, bool) or not isinstance(self.video_segments, Integral):
            raise TypeError(f"video_segments must be an integer, got {self.video_segments!r}")
        if self.video_segments < 0:
            raise ValueError("video_segments must be nonnegative")

    @property
    def is_video_user(self) -> bool:
        return self.video_segments > 0

    def to_dict(self) -> dict:
        return {**vars(self), "ladder": list(self.ladder)}

    @classmethod
    def from_dict(cls, d: Mapping) -> "UserProfile":
        kw = dict(d)
        kw["ladder"] = tuple(kw["ladder"])
        return cls(**kw)


@dataclass(frozen=True)
class SegmentRecord:
    """One segment transfer: who downloaded it, for whom, at which bitrate.

    ``delivered`` is False for aborted transfers and for segments dropped at
    arrival because the owner's buffer was full. ``completed`` is False only
    when the transfer itself was cut short (encounter loss or horizon), in
    which case ``mbit`` carries the actually transferred volume.
    """

    downloader: int
    owner: int
    level: int
    rate: float
    seg_index: int
    t_start: float
    t_end: float
    delivered: bool = True
    completed: bool = True
    mbit: float | None = None

    def __post_init__(self) -> None:
        if not 0 < self.rate < math.inf:  # also refuses NaN
            raise ValueError(f"segment rate must be positive and finite, got {self.rate}")
        if self.t_end < self.t_start:
            raise ValueError("segment must end no earlier than it starts")
        if self.mbit is not None and self.mbit < 0:
            raise ValueError("transferred volume must be nonnegative")


@dataclass(frozen=True)
class WelfareBreakdown:
    value: float
    qdeg_loss: float
    rebuf_loss: float
    cell_energy: float
    wifi_energy: float
    play_energy: float
    rebuffer_s: float = 0.0

    @property
    def payoff(self) -> float:
        return payoff_of(self.value, self.qdeg_loss, self.rebuf_loss, self.play_energy,
                         self.cell_energy, self.wifi_energy)

    def to_dict(self) -> dict:
        return {**vars(self), "payoff": self.payoff}


@dataclass(frozen=True)
class Violation:
    kind: str  # "timing" | "capacity" | "encounter" | "segment" | "buffer" | "duplicate"
    user: int
    detail: str


def ordered_sum(terms: Iterable[float]) -> float:
    """Left-to-right sum from int 0, as ``sum`` did before Python 3.12.

    From 3.12 on, ``sum`` compensates float rounding, so its result depends
    on the interpreter. Float totals that reach a report or a bound value
    are summed here instead, so outputs are byte-identical on every
    supported Python. An empty sum is int 0.
    """
    total = 0
    for term in terms:
        total += term
    return total


def profile_map(profiles: Iterable[UserProfile]) -> dict[int, UserProfile]:
    out: dict[int, UserProfile] = {}
    for p in profiles:
        if p.id in out:
            raise ValueError(f"duplicate user id {p.id}")
        out[p.id] = p
    return out


def segment_volume(record: SegmentRecord, profiles: Mapping[int, UserProfile]) -> float:
    """Transferred data volume (Mbit): actual for truncated transfers."""
    if record.mbit is not None:
        return record.mbit
    return record.rate * profiles[record.owner].beta


def quality_value(profile: UserProfile, rate: float) -> float:
    """Per-second value of playing at ``rate`` Mbps: ln(1 + theta * rate)."""
    if rate < 0:
        raise ValueError(f"rate must be nonnegative, got {rate}")
    return math.log1p(profile.theta * rate)


def segment_gain(
    owner: UserProfile, downloader: UserProfile, rate: float, seconds: float,
    cross: bool,
) -> float:
    """Value minus cellular, WiFi and playback energy of one whole segment.

    ``owner``'s segment at ``rate`` takes ``seconds`` of ``downloader``'s
    link; ``cross`` means the two differ, so the segment also crosses WiFi.
    Quality-degradation and rebuffering losses depend on the whole receiving
    sequence and are not included. The offline solvers' bound values depend
    bit for bit on the order in which the terms are subtracted.
    """
    vol = rate * owner.beta
    return (
        quality_value(owner, rate) * owner.beta
        - downloader.c_time * seconds
        - downloader.c_data * vol
        - (downloader.w_data * vol if cross else 0.0)
        - (owner.eps_time * owner.beta + owner.eps_rate * rate * owner.beta)
    )


def exceeds_cap(level: float, profile: UserProfile) -> bool:
    """The buffer-cap rule: ``level`` seconds overfill ``profile``'s buffer."""
    return level > profile.buffer_cap + TOL


def receiving_sequences(
    profiles: Mapping[int, UserProfile],
    all_downloads: Mapping[int, Sequence[SegmentRecord]],
) -> dict[int, list[SegmentRecord]]:
    """Group delivered records by owner, sorted into playback order."""
    received: dict[int, list[SegmentRecord]] = {uid: [] for uid in profiles}
    for downloads in all_downloads.values():
        for rec in downloads:
            if rec.delivered:
                received[rec.owner].append(rec)
    for uid, recs in received.items():
        recs.sort(key=lambda r: r.seg_index)
        for a, b in zip(recs, recs[1:]):
            if a.seg_index == b.seg_index:
                raise IntegrityError(
                    f"user {uid} received segment {a.seg_index} more than once"
                )
    return received


def payoff_of(value: float, qdeg_loss: float, rebuf_loss: float, play_energy: float,
              cell_energy: float, wifi_energy: float) -> float:
    """A user's payoff from ``receiving_walk``'s and ``transfer_energy``'s terms."""
    return value - qdeg_loss - rebuf_loss - cell_energy - wifi_energy - play_energy


def receiving_walk(profile: UserProfile, received: Sequence[SegmentRecord]) -> tuple:
    """One walk over delivered segments in playback order, from an empty
    buffer: value, downswitch loss, rebuffering loss, playback energy,
    stalled seconds and peak buffer level (0.0 for none). Charges begin with
    the second reception (no startup).

    Playback is in order, so segment k becomes usable only once every
    earlier segment has arrived: its effective reception time is the prefix
    maximum of arrival times. Out-of-order arrivals (possible under
    cooperation) therefore yield a zero gap. Each reception drains the gap
    since the one before, down to at most empty, then adds one segment.
    """
    beta = profile.beta
    value, qdeg, stall, play, peak = 0, 0.0, 0.0, 0.0, 0.0
    q, avail = 0.0, received[0].t_end if received else 0.0
    for k, rec in enumerate(received):
        t = max(avail, rec.t_end)
        gap, avail = t - avail, t
        value += quality_value(profile, rec.rate) * beta
        if k:  # the gap runs from the reception before, which left q
            qdeg += profile.phi_qdeg * max(0.0, prev.rate - rec.rate)
            stall += max(0.0, gap - q)
        q = max(0.0, q - gap) + beta
        play += profile.eps_time * beta
        play += profile.eps_rate * rec.rate * beta
        prev, peak = rec, q if q > peak else peak
    rebuf = profile.phi_rebuf * stall if received else 0.0  # even if phi is -0.0
    return value, qdeg, rebuf, play, stall, peak


def transfer_energy(profile: UserProfile, downloads: Sequence[SegmentRecord],
                    profiles: Mapping[int, UserProfile]) -> tuple[float, float]:
    """Cellular energy of each transfer, truncated ones pro rata, and WiFi
    energy of completed transfers of others' segments (aborted ones never
    cross WiFi), by volume only: its time term is negligible and taken as zero."""
    cell = wifi = 0.0
    for rec in downloads:
        volume = segment_volume(rec, profiles)
        cell += profile.c_time * (rec.t_end - rec.t_start)
        cell += profile.c_data * volume
        if rec.owner != rec.downloader and rec.completed:
            wifi += profile.w_data * volume
    return cell, wifi


def eval_social_welfare(
    profiles: Mapping[int, UserProfile],
    all_downloads: Mapping[int, Sequence[SegmentRecord]],
) -> tuple[float, dict[int, WelfareBreakdown]]:
    """Aggregate payoff of all users plus the per-user breakdowns."""
    received = receiving_sequences(profiles, all_downloads)
    breakdowns = {}
    for uid in sorted(profiles):
        prof = profiles[uid]
        value, qdeg, rebuf, play, stall, _ = receiving_walk(prof, received[uid])
        cell, wifi = transfer_energy(prof, all_downloads.get(uid, ()), profiles)
        breakdowns[uid] = WelfareBreakdown(value, qdeg, rebuf, cell, wifi, play, stall)
    welfare = ordered_sum(b.payoff for b in breakdowns.values())
    return welfare, breakdowns


def validate_sequences(
    profiles: Mapping[int, UserProfile],
    capacity,
    encounters,
    all_downloads: Mapping[int, Sequence[SegmentRecord]],
) -> list[Violation]:
    """Check a joint schedule against the feasibility constraints.

    Per downloader: non-overlapping ordered transfers, cellular capacity,
    encounter coverage for cross-user transfers (up to ``TOL`` before each
    transfer's end), and every delivered segment inside its owner's video
    (an owner without video has none).
    Per owner: the peak of ``receiving_walk``'s buffer trajectory stays
    within the cap; one ``buffer`` violation names an owner whose buffer
    overfills at some reception. Violations are returned as data; an empty
    list means the schedule is feasible.
    """
    violations: list[Violation] = []
    for uid, downloads in all_downloads.items():
        ordered = sorted(downloads, key=lambda r: r.t_start)
        for a, b in zip(ordered, ordered[1:]):
            if a.t_end > b.t_start + TOL:
                violations.append(Violation(
                    "timing", uid,
                    f"transfer ending at {a.t_end} overlaps next start {b.t_start}",
                ))
        for rec in ordered:
            volume = segment_volume(rec, profiles)
            available = capacity.integrate(uid, rec.t_start, rec.t_end)
            if volume > available + TOL:
                violations.append(Violation(
                    "capacity", uid,
                    f"segment needs {volume} Mbit but only {available} Mbit available "
                    f"in [{rec.t_start}, {rec.t_end}]",
                ))
            # a transfer may outlast its window by TOL, as the simulator's
            # abort rule lets it
            if rec.owner != uid and not encounters.holds(
                    uid, rec.owner, rec.t_start, max(rec.t_start, rec.t_end - TOL)):
                violations.append(Violation(
                    "encounter", uid,
                    f"users {uid} and {rec.owner} not encountered throughout "
                    f"[{rec.t_start}, {rec.t_end}]",
                ))
            segs = profiles[rec.owner].video_segments
            if rec.delivered and not 0 <= rec.seg_index < segs:
                violations.append(Violation(
                    "segment", uid,
                    f"delivered segment {rec.seg_index} of user {rec.owner}, "
                    f"whose video has {segs} segments",
                ))
    try:
        received = receiving_sequences(profiles, all_downloads)
    except IntegrityError as exc:
        return violations + [Violation("duplicate", -1, str(exc))]
    for uid, recs in received.items():
        prof = profiles[uid]
        peak = receiving_walk(prof, recs)[5]
        if exceeds_cap(peak, prof):  # monotone: the peak overfills iff some level does
            violations.append(Violation(
                "buffer", uid, f"buffer {peak} exceeds cap {prof.buffer_cap}"))
    return violations
