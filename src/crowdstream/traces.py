"""Network traces: per-user cellular capacity and pairwise encounter windows.

Capacity is piecewise constant, which keeps the feasibility integral exact
and makes download-completion inversion closed form. Encounters are stored
as disjoint closed intervals per unordered user pair; a user always
"encounters" itself, so self-download is always feasible.

Also provides CSV ingestion for hotspot session logs and video viewing logs,
plus seeded synthetic generators standing in for real datasets.

Times, rates and log values must be finite: NaN or infinity raises TraceError.
"""
from __future__ import annotations

import bisect
import csv
import math
import random
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Sequence

from .model import ordered_sum


class TraceError(ValueError):
    pass


def _check_finite(what: str, values: Iterable[float]) -> None:
    if not all(map(math.isfinite, values)):
        raise TraceError(f"{what} must be finite")


def _check_time(t: float, horizon: float) -> None:
    if not 0 <= t <= horizon:
        raise TraceError(f"time {t} outside horizon [0, {horizon}]")


@dataclass(frozen=True)
class PiecewiseConstant:
    """A right-open piecewise-constant function on [0, horizon]."""

    times: tuple[float, ...]   # piece start times; first must be 0
    values: tuple[float, ...]
    horizon: float

    def __post_init__(self) -> None:
        _check_finite("breakpoints, rates and horizon", (*self.times, *self.values, self.horizon))
        if not self.times or self.times[0] != 0.0:
            raise TraceError("breakpoints must start at 0")
        if len(self.times) != len(self.values):
            raise TraceError("breakpoints and values must have equal length")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise TraceError("breakpoints must be strictly increasing")
        if self.times[-1] > self.horizon:
            raise TraceError("breakpoints must lie within the horizon")
        if any(v < 0 for v in self.values):
            raise TraceError("rates must be nonnegative")
        object.__setattr__(self, "_ends", (*self.times[1:], self.horizon))

    def piece_at(self, t: float) -> tuple[float, float]:
        """``(rate, until)`` of the piece holding ``t``: the last piece
        starting at or before ``t``, so a breakpoint belongs to the piece
        it starts. The rate holds on [t, until), where ``until`` is the next
        breakpoint, or the horizon for the last piece."""
        _check_time(t, self.horizon)
        i = bisect.bisect_right(self.times, t) - 1
        return self.values[i], self._ends[i]

    def integrate(self, t1: float, t2: float) -> float:
        _check_time(t1, self.horizon)
        _check_time(t2, self.horizon)
        if t2 < t1:
            raise TraceError(f"empty interval reversed: [{t1}, {t2}]")
        total = 0.0
        i = bisect.bisect_right(self.times, t1) - 1
        t = t1
        while t < t2:
            seg_end = min(self._ends[i], t2)
            total += self.values[i] * (seg_end - t)
            t = seg_end
            i += 1
        return total

    def invert(self, start: float, volume: float) -> float | None:
        """Earliest t with integral over [start, t] equal to ``volume``.

        Returns None when the remaining capacity before the horizon is
        insufficient.
        """
        _check_time(start, self.horizon)
        if volume < 0:
            raise TraceError("volume must be nonnegative")
        if volume == 0:
            return start
        remaining = volume
        i = bisect.bisect_right(self.times, start) - 1
        t = start
        while t < self.horizon:
            rate = self.values[i]
            chunk = rate * (self._ends[i] - t)
            if rate > 0 and chunk >= remaining - 1e-12:
                return min(self.horizon, t + remaining / rate)
            remaining -= chunk
            t = self._ends[i]
            i += 1
        return None


@dataclass(frozen=True)
class CapacityTrace:
    """Cellular link capacity h_n(t) for every user over [0, horizon]."""

    users: Mapping[int, PiecewiseConstant]
    horizon: float

    def rate_at(self, n: int, t: float) -> float:
        return self.users[n].piece_at(t)[0]

    def piece_at(self, n: int, t: float) -> tuple[float, float]:
        """User n's rate at ``t`` and the time it holds until, as
        ``PiecewiseConstant.piece_at``."""
        return self.users[n].piece_at(t)

    def integrate(self, n: int, t1: float, t2: float) -> float:
        return self.users[n].integrate(t1, t2)

    def invert(self, n: int, start: float, volume: float) -> float | None:
        return self.users[n].invert(start, volume)

    def breakpoints(self) -> list[float]:
        pts = {0.0, self.horizon}
        for pw in self.users.values():
            pts.update(pw.times)
        return sorted(pts)

    @classmethod
    def constant(cls, user_ids: Iterable[int], rate: float, horizon: float) -> "CapacityTrace":
        return cls(
            users={n: PiecewiseConstant((0.0,), (rate,), horizon) for n in user_ids},
            horizon=horizon,
        )

    def to_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "users": {
                str(n): {"times": list(pw.times), "rates": list(pw.values)}
                for n, pw in sorted(self.users.items())
            },
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "CapacityTrace":
        """Refuses two keys that name one user, such as ``"0"`` and ``"00"``."""
        horizon = float(d["horizon"])
        users = {}
        for key, spec in d["users"].items():
            if (n := int(key)) in users:
                raise TraceError(f"capacity user {n} is listed twice")
            users[n] = PiecewiseConstant(tuple(spec["times"]), tuple(spec["rates"]), horizon)
        return cls(users=users, horizon=horizon)


def _merge_intervals(intervals: Iterable[tuple[float, float]]) -> tuple[tuple[float, float], ...]:
    merged: list[list[float]] = []
    for a, b in sorted(intervals):
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return tuple((a, b) for a, b in merged)


_START, _END = itemgetter(0), itemgetter(1)  # bisect keys of an encounter window


@dataclass(frozen=True)
class EncounterTrace:
    """Pairwise encounter windows: symmetric closed intervals per pair, in
    start order and disjoint except that one may end where the next starts."""

    intervals: Mapping[tuple[int, int], tuple[tuple[float, float], ...]]
    horizon: float

    def __post_init__(self) -> None:
        _check_finite("encounter horizon", (self.horizon,))
        for (n, m), ivs in self.intervals.items():
            if n >= m:
                raise TraceError(f"pair keys must be ordered (n < m), got ({n}, {m})")
            for a, b in ivs:
                if not 0 <= a <= b <= self.horizon:
                    raise TraceError(f"bad encounter interval [{a}, {b}] for pair ({n}, {m})")
            for (_, b), (a, _) in zip(ivs, ivs[1:]):
                if b > a:  # touching intervals (b == a) are allowed
                    raise TraceError(
                        f"encounter intervals of pair ({n}, {m}) must be in start "
                        f"order and disjoint: [.., {b}] then [{a}, ..]"
                    )

    def encountered(self, n: int, m: int, t: float) -> bool:
        """``holds`` on [t, t]: windows are in start order and may only touch,
        so the last window starting by ``t``, the one ``holds`` tests,
        contains ``t`` whenever any window does."""
        return self.holds(n, m, t, t)

    def holds(self, n: int, m: int, t1: float, t2: float) -> bool:
        """True iff the pair is encountered throughout [t1, t2]: the last
        window starting by ``t1``, found by bisecting the pair's windows by
        start, reaches furthest among those, so it decides."""
        _check_time(t1, self.horizon)
        _check_time(t2, self.horizon)
        if n == m:
            return True
        ivs = self.intervals.get((n, m) if n < m else (m, n), ())
        i = bisect.bisect_right(ivs, t1, key=_START) - 1
        return i >= 0 and t2 <= ivs[i][1]

    def next_break(self, n: int, m: int, t: float) -> float | None:
        """End of the first encounter window containing ``t``; None if
        unbounded or self, ``t`` itself if the pair is not encountered.

        Where two windows touch at ``t``, this is the one ending there, so
        ``t`` itself: the simulator's neighbour rule (usable iff the break
        is None or more than TOL after ``t``) relies on this to exclude a
        partner at a touch point, where no positive-duration transfer fits
        in the window that ends. Ends are nondecreasing, so the first
        window ending at or after ``t``, found by bisecting the pair's
        windows by end, is that window if it starts by ``t``."""
        if n == m:
            return None
        ivs = self.intervals.get((n, m) if n < m else (m, n), ())
        i = bisect.bisect_left(ivs, t, key=_END)
        if i == len(ivs) or ivs[i][0] > t:
            return t
        end = ivs[i][1]
        return None if end >= self.horizon else end

    def breakpoints(self) -> list[float]:
        pts = {0.0, self.horizon}
        for ivs in self.intervals.values():
            for a, b in ivs:
                pts.update((a, b))
        return sorted(pts)

    @classmethod
    def full(cls, user_ids: Sequence[int], horizon: float) -> "EncounterTrace":
        ids = sorted(user_ids)
        always = ((0.0, horizon),)  # one tuple shared by every pair
        pairs = {(a, b): always for i, a in enumerate(ids) for b in ids[i + 1:]}
        return cls(intervals=pairs, horizon=horizon)

    @classmethod
    def none(cls, horizon: float) -> "EncounterTrace":
        return cls(intervals={}, horizon=horizon)

    def to_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "pairs": [
                {"users": [n, m], "intervals": [list(iv) for iv in ivs]}
                for (n, m), ivs in sorted(self.intervals.items())
            ],
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "EncounterTrace":
        """Refuses a pair listed twice, which would otherwise keep only its
        last listing's windows."""
        pairs = {}
        for p in d["pairs"]:
            if (pair := (int(p["users"][0]), int(p["users"][1]))) in pairs:
                raise TraceError(f"encounter pair {pair} is listed twice")
            pairs[pair] = tuple((float(a), float(b)) for a, b in p["intervals"])
        return cls(intervals=pairs, horizon=float(d["horizon"]))


# ---------------------------------------------------------------------------
# Log ingestion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SessionLogRecord:
    user_id: int
    hotspot_id: str
    login_time: float
    logout_time: float
    in_bytes: int = 0
    out_bytes: int = 0

    def __post_init__(self) -> None:
        _check_finite("session times", (self.login_time, self.logout_time))
        if self.logout_time < self.login_time:
            raise TraceError("session logout precedes login")


@dataclass(frozen=True)
class ViewingLogRecord:
    user_id: int
    video_id: str
    seg_index: int
    seg_length: float
    bitrate: float
    download_time: float

    def __post_init__(self) -> None:
        _check_finite("viewing values", (self.seg_length, self.bitrate, self.download_time))
        if self.seg_length <= 0 or self.bitrate <= 0:
            raise TraceError("segment length and bitrate must be positive")
        if self.download_time <= 0:
            raise TraceError("download time must be positive")

    @property
    def throughput(self) -> float:
        return self.bitrate * self.seg_length / self.download_time


def _read_csv(path, kind: str, parse: Callable[[dict], object]) -> list:
    records = []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.DictReader(fh), start=2):
            try:
                records.append(parse(row))
            except (KeyError, ValueError) as exc:  # TraceError is a ValueError
                raise TraceError(f"{path}:{lineno}: bad {kind} record: {exc}") from exc
    return records


def read_sessions_csv(path) -> list[SessionLogRecord]:
    return _read_csv(path, "session", lambda row: SessionLogRecord(
        user_id=int(row["user_id"]),
        hotspot_id=row["hotspot_id"],
        login_time=float(row["login_s"]),
        logout_time=float(row["logout_s"]),
        in_bytes=int(row.get("in_bytes") or 0),
        out_bytes=int(row.get("out_bytes") or 0),
    ))


def read_viewing_csv(path) -> list[ViewingLogRecord]:
    return _read_csv(path, "viewing", lambda row: ViewingLogRecord(
        user_id=int(row["user_id"]),
        video_id=row["video_id"],
        seg_index=int(row["seg_index"]),
        seg_length=float(row["seg_len_s"]),
        bitrate=float(row["bitrate_mbps"]),
        download_time=float(row["download_s"]),
    ))


def encounters_from_sessions(
    records: Sequence[SessionLogRecord], horizon: float | None = None
) -> EncounterTrace:
    """Two users are encountered while their sessions overlap at one hotspot:
    both ends of each overlap are clipped to [0, horizon], and an overlap
    left with no length is dropped. The horizon, by default the last
    logout, must be positive."""
    if horizon is None:
        horizon = max((r.logout_time for r in records), default=0.0)
        if not horizon > 0:
            raise TraceError("the session log has no logout after time 0, so it "
                             "gives no horizon; set one with --horizon")
    elif not horizon > 0:
        raise TraceError(f"horizon must be positive, got {horizon}")
    by_hotspot: dict[str, list[SessionLogRecord]] = {}
    for rec in records:
        by_hotspot.setdefault(rec.hotspot_id, []).append(rec)
    raw: dict[tuple[int, int], list[tuple[float, float]]] = {}
    for sessions in by_hotspot.values():
        for i, a in enumerate(sessions):
            for b in sessions[i + 1:]:
                if a.user_id == b.user_id:
                    continue
                lo = max(a.login_time, b.login_time, 0.0)
                hi = min(a.logout_time, b.logout_time, horizon)
                if lo < hi:
                    key = (min(a.user_id, b.user_id), max(a.user_id, b.user_id))
                    raw.setdefault(key, []).append((lo, hi))
    pairs = {key: _merge_intervals(ivs) for key, ivs in raw.items()}
    return EncounterTrace(intervals=pairs, horizon=horizon)


def capacity_from_viewing_log(
    records: Sequence[ViewingLogRecord], horizon: float | None = None
) -> CapacityTrace:
    """Per-user capacity from measured per-segment throughputs, laid end to end."""
    if not records:
        raise TraceError("no samples in viewing log")
    by_user: dict[int, list[ViewingLogRecord]] = {}
    for rec in records:
        by_user.setdefault(rec.user_id, []).append(rec)
    if horizon is None:
        horizon = max(ordered_sum(r.download_time for r in recs) for recs in by_user.values())
    users = {}
    for uid, recs in by_user.items():
        times, rates = [], []
        t = 0.0
        for rec in recs:
            if t >= horizon:
                break
            times.append(t)
            rates.append(rec.throughput)
            t += rec.download_time
        users[uid] = PiecewiseConstant(tuple(times), tuple(rates), horizon)
    return CapacityTrace(users=users, horizon=horizon)


# ---------------------------------------------------------------------------
# Synthetic generators (seed-deterministic)
# ---------------------------------------------------------------------------

CAPACITY_HOLD_MEAN = 30.0  # mean seconds a synthetic capacity rate holds
CAPACITY_JITTER = 0.5  # each held rate is the user's mean times U(1 -/+ this)
ENCOUNTER_MEAN_ON = 60.0  # mean seconds of a synthetic encounter window
ENCOUNTER_MEAN_OFF = 60.0  # mean seconds between two windows of a pair
# "full": every pair always encountered; "none": no pair ever; "trace": random
ENCOUNTER_MODES = ("full", "none", "trace")


def synth_capacity(
    user_ids: Sequence[int],
    horizon: float,
    mean_range: tuple[float, float],
    seed: int,
) -> CapacityTrace:
    """Markov-modulated piecewise-constant capacity per user.

    Each user draws a mean rate uniformly from ``mean_range`` and holds
    rates jittered around it for exponentially distributed durations, so the
    per-user time-average stays near the drawn mean.
    """
    _check_finite("horizon", (horizon,))  # the hold loop runs until it
    lo, hi = mean_range
    if lo < 0 or hi < lo:
        raise TraceError(f"bad mean capacity range [{lo}, {hi}]")
    rng = random.Random(f"capacity/{seed}")
    users = {}
    for n in sorted(user_ids):
        mean = rng.uniform(lo, hi)
        times, rates = [], []
        t = 0.0
        while t < horizon:
            times.append(t)
            rates.append(mean * rng.uniform(1.0 - CAPACITY_JITTER, 1.0 + CAPACITY_JITTER))
            t += rng.expovariate(1.0 / CAPACITY_HOLD_MEAN)
        users[n] = PiecewiseConstant(tuple(times), tuple(rates), horizon)
    return CapacityTrace(users=users, horizon=horizon)


def synth_encounters(
    user_ids: Sequence[int],
    horizon: float,
    seed: int,
    mode: str = "trace",
) -> EncounterTrace:
    """Alternating exponential ON/OFF encounter process per user pair.

    ``mode`` is one of ``ENCOUNTER_MODES``.
    """
    _check_finite("horizon", (horizon,))  # the ON/OFF loop runs until it
    if mode not in ENCOUNTER_MODES:
        raise TraceError(f"unknown encounter mode {mode!r}")
    if mode == "full":
        return EncounterTrace.full(list(user_ids), horizon)
    if mode == "none":
        return EncounterTrace.none(horizon)
    mean_on, mean_off = ENCOUNTER_MEAN_ON, ENCOUNTER_MEAN_OFF
    rng = random.Random(f"encounters/{seed}")
    ids = sorted(user_ids)
    pairs: dict[tuple[int, int], tuple[tuple[float, float], ...]] = {}
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            ivs = []
            on = rng.random() < mean_on / (mean_on + mean_off)
            t = 0.0
            while t < horizon:
                dur = rng.expovariate(1.0 / (mean_on if on else mean_off))
                if on:
                    ivs.append((t, min(t + dur, horizon)))
                t += dur
                on = not on
            if ivs:
                pairs[(a, b)] = tuple(ivs)
    return EncounterTrace(intervals=pairs, horizon=horizon)


def traces_to_dict(capacity: CapacityTrace, encounters: EncounterTrace) -> dict:
    return {"capacity": capacity.to_dict(), "encounters": encounters.to_dict()}


def traces_from_dict(d: Mapping) -> tuple[CapacityTrace, EncounterTrace]:
    return CapacityTrace.from_dict(d["capacity"]), EncounterTrace.from_dict(d["encounters"])
