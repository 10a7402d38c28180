"""Tiny slotted instances for the bound workloads.

``tiny_instance`` is a copy of the acceptance suite's ``tiny/{seed}``
generator (criteria 1 and 2); a benchmark test checks that both yield the
same instances. It stays a copy so the benchmark never imports test code.
Given a ``shape``, it fixes the instance size and draws only the values.
"""
from __future__ import annotations

import dataclasses
import random

from crowdstream.model import UserProfile
from crowdstream.traces import CapacityTrace, EncounterTrace, PiecewiseConstant

SLOT = 4.0


def _slots_to_intervals(slots, slot_len):
    out = []
    for t in sorted(slots):
        if out and out[-1][1] == t * slot_len:
            out[-1] = [out[-1][0], (t + 1) * slot_len]
        else:
            out.append([t * slot_len, (t + 1) * slot_len])
    return tuple(tuple(iv) for iv in out)


def tiny_instance(seed, shape=None):
    """N<=2 users, <=3 slots of 4 s, <=2 ladder levels, <=3 segments/user.

    ``shape`` = (users, slots, ladder levels, segments per user) overrides
    the drawn size; capacities, encounters and losses are drawn as before.
    """
    rng = random.Random(f"tiny/{seed}")
    n_users = rng.choice([1, 2])
    n_slots = rng.choice([1, 2, 3])
    z = rng.choice([1, 2])
    if shape is not None:
        n_users, n_slots, z, seg_counts = shape
    horizon = n_slots * SLOT
    ladder = tuple(sorted(rng.sample([0.2, 0.4, 0.7, 1.3], z)))
    profiles = []
    for n in range(n_users):
        segs = rng.choice([1, 2, 3]) if n == 0 else rng.choice([0, 1, 2])
        if shape is not None:
            segs = seg_counts[n]
        profiles.append(UserProfile(
            id=n, beta=2.0, buffer_cap=max(2.0, 2.0 * segs), ladder=ladder,
            theta=1.0, phi_qdeg=rng.choice([0.0, 0.5]),
            phi_rebuf=0.0,
            c_time=0.05, c_data=0.02, w_data=0.01, video_segments=segs,
        ))
    capacity = CapacityTrace(users={
        n: PiecewiseConstant(
            tuple(t * SLOT for t in range(n_slots)),
            tuple(rng.choice([0.0, 0.5, 1.0, 2.0]) for _ in range(n_slots)),
            horizon,
        )
        for n in range(n_users)
    }, horizon=horizon)
    if n_users == 2:
        slots = [t for t in range(n_slots) if rng.random() < 0.7]
        intervals = _slots_to_intervals(slots, SLOT)
        enc = EncounterTrace(
            intervals={(0, 1): intervals} if intervals else {}, horizon=horizon)
    else:
        enc = EncounterTrace.none(horizon)
    return tuple(profiles), capacity, enc, horizon


def split_profiles(profiles, k):
    return tuple(
        dataclasses.replace(p, beta=p.beta / k, video_segments=p.video_segments * k)
        for p in profiles
    )

