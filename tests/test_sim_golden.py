"""Golden reports: the simulator's output, pinned byte for byte.

Each config's report, as ``json.dumps(report.to_dict(), sort_keys=True,
indent=2)``, is hashed with SHA-256. The configs together exercise aborts at
encounter breaks, transfers truncated at the horizon, out-of-order arrivals
parked until the gap closes, and the reservations those transfers release. A digest change means the simulator's
behaviour changed, not just its speed.

A seeded family of short runs whose times are all whole seconds is pinned by
one digest of all its reports: there a completion can share its instant
with an earlier decision, which the float-timed configs almost never do.
"""
import hashlib
import json
import random

import pytest

from crowdstream import cli, model, online, traces
from crowdstream.sim import SimConfig, run_simulation

HORIZON = 200.0


BASELINE_PARAMS = {"delta_th": 0.5, "gap_th": 10.0}


def coop_config(abort_policy: str, scheduler: str = "lyapunov",
                seed: int = 0, n_users: int = 10,
                video_fraction: float = 0.5) -> SimConfig:
    """``n_users`` users, ``video_fraction`` of them video users, random
    encounters."""
    spec = cli.ExperimentSpec(n_users=n_users, video_fraction=video_fraction,
                              capacity_range=(0.0, 0.7), cooperation="trace",
                              horizon=HORIZON)
    profiles = cli.build_profiles(spec)
    ids = [p.id for p in profiles]
    params = {"lam": 100.0} if scheduler == "lyapunov" else BASELINE_PARAMS
    return SimConfig(
        horizon=HORIZON, profiles=profiles,
        capacity=traces.synth_capacity(ids, HORIZON, spec.capacity_range, seed),
        encounters=traces.synth_encounters(ids, HORIZON, seed, mode="trace"),
        scheduler=scheduler, scheduler_params=params, seed=str(seed),
        abort_policy=abort_policy,
    )


def single_config(scheduler: str) -> SimConfig:
    spec = cli.ExperimentSpec(scenario="single", capacity_range=(0.5, 3.0),
                              horizon=HORIZON)
    return SimConfig(
        horizon=HORIZON, profiles=cli.build_profiles(spec),
        capacity=traces.synth_capacity([0], HORIZON, spec.capacity_range, 3),
        encounters=traces.EncounterTrace.none(HORIZON), scheduler=scheduler,
        scheduler_params=BASELINE_PARAMS, seed="3",
    )


GOLDEN = {
    "coop-abort": (
        lambda: coop_config("abort"),
        "a35d18142c9f9272eed23c751fdb507d297b4bddc4cef5d3b033fdc81339dfca",
    ),
    "coop-complete": (
        lambda: coop_config("complete"),
        "c6b48f780bf93c46a9fdf651386cf56e598a4c9b15ea35dd7b99a82a85fab695",
    ),
    # seed 2: the seed-0 buffer report stays the same when a decider whose
    # own buffer is full downloads for itself instead of for the first
    # ready owner, so it would not pin that fall-back
    "coop-buffer": (
        lambda: coop_config("abort", "buffer", seed=2),
        "aa79ed0f1a986aad27ed8cee05f585ddd86f41cbd088e43568813bf99b544f45",
    ),
    "coop-prediction": (
        lambda: coop_config("abort", "prediction", seed=2),
        "7af6557cafd059287767a7d4fe5d05efd66dfad788145b07b861ef9ec9689ccd",
    ),
    # helpers are the majority: 4 video users among 20, so most encountered
    # users own nothing a decision can use
    "coop-helpers": (
        lambda: coop_config("abort", n_users=20, video_fraction=0.2),
        "f24801011030a7450b7b4e1012a891dc4a5ebf6e3b94e6e3f54b4ca8c61bf0c5",
    ),
    "single-buffer": (
        lambda: single_config("buffer"),
        "77817c177edef0a691275e6d3a13b869dca0e2bc3077701429ee94a128c42c30",
    ),
    "single-prediction": (
        lambda: single_config("prediction"),
        "462233d2002e05c968c09f711172c0d4adc2f3c02893a0a238cd015d812120a4",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_digest(name):
    build, digest = GOLDEN[name]
    report = run_simulation(build())
    text = json.dumps(report.to_dict(), sort_keys=True, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def whole_second_config(seed: int) -> SimConfig:
    """2-4 users over 20 s, user 0 a video user: capacities of 0, 1 or
    2 Mbps between whole-second breakpoints, up to three encounter windows
    per pair between whole seconds, ladder (0.5, 1.0), beta 1 and caps of
    1-3 s. The seed cycles through the schedulers and abort policies."""
    rng = random.Random(f"whole-second/{seed}")
    horizon = 20.0
    n_users = rng.randint(2, 4)
    profiles = tuple(model.UserProfile(
        id=n, beta=1.0, buffer_cap=float(rng.randint(1, 3)), ladder=(0.5, 1.0),
        phi_qdeg=0.5, phi_rebuf=1.0, c_time=0.05, c_data=0.02, w_data=0.01,
        video_segments=rng.choice([0, 10, 20]) if n else 20) for n in range(n_users))
    rates = {}
    for n in range(n_users):
        times = (0, *sorted(rng.sample(range(1, 20), rng.randint(0, 6))))
        rates[n] = traces.PiecewiseConstant(
            tuple(map(float, times)), tuple(float(rng.choice([0, 1, 2])) for _ in times),
            horizon)
    windows = {}
    for n in range(n_users):
        for m in range(n + 1, n_users):
            ends = sorted(rng.sample(range(21), 2 * rng.randint(0, 3)))
            windows[(n, m)] = tuple((float(a), float(b)) for a, b in zip(ends[::2], ends[1::2]))
    scheduler = sorted(online.SCHEDULERS)[seed % 3]
    return SimConfig(
        horizon=horizon, profiles=profiles,
        capacity=traces.CapacityTrace(users=rates, horizon=horizon),
        encounters=traces.EncounterTrace(intervals=windows, horizon=horizon),
        scheduler=scheduler,
        scheduler_params={"lam": 10.0} if scheduler == "lyapunov" else BASELINE_PARAMS,
        seed=str(seed), abort_policy=("abort", "complete")[seed // 3 % 2],
    )


def test_whole_second_family_digest():
    """Seeds 0-499 of ``whole_second_config``, each report's bytes hashed
    in seed order. With ``broadcast = None`` deleted from
    ``sim.finish_download``, a decision at a completion's instant reads a
    stale owner broadcast, and 19 of the 500 reports change."""
    digest = hashlib.sha256()
    for seed in range(500):
        report = run_simulation(whole_second_config(seed))
        digest.update(json.dumps(report.to_dict(), sort_keys=True, indent=2).encode())
    assert digest.hexdigest() == (
        "7ce433ddaa1c3f66c86e0f493a0d328209519b032d83a656cc6943b1db0899f7")


def test_coop_fixture_covers_released_reservations_and_parking():
    report = run_simulation(coop_config("abort"))
    records = [r for recs in report.downloads.values() for r in recs]
    assert report.aborts > 0
    assert any(not r.completed and r.t_end == HORIZON for r in records)
    out_of_order = 0
    for owner in {r.owner for r in records}:
        arrivals = sorted((r.t_end, r.seg_index) for r in records
                          if r.owner == owner and r.delivered)
        out_of_order += sum(b[1] < a[1] for a, b in zip(arrivals, arrivals[1:]))
    assert out_of_order > 0


@pytest.mark.xfail(strict=True, reason=(
    "known defect: a cross-user transfer truncated at the horizon "
    "(completed=False) skips the abort-policy encounter-break check, so its "
    "record can outlast the encounter window (users 2 and 4, "
    "[198.08, 200.0]); fixing it changes reports"))
def test_truncated_cross_user_transfer_stays_inside_encounter():
    config = coop_config("abort")
    report = run_simulation(config)
    found = model.validate_sequences(
        model.profile_map(config.profiles), config.capacity,
        config.encounters, report.downloads)
    assert [v for v in found if v.kind == "encounter"] == []
