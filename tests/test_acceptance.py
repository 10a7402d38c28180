"""End-to-end acceptance checks.

Each test covers one release criterion and prints a single PASS/FAIL line
with its headline numbers. The tiny-instance generators keep three
conditions that make the fluid relaxation a certified upper bound: capacity
constant within each slot, encounters aligned to whole slots, and a
non-binding buffer cap.
"""
import dataclasses
import json
import random
import statistics
import time

from crowdstream import cli, model, offline, online, sim, traces
from crowdstream.model import UserProfile
from crowdstream.offline import SlottedInstance, eval_slotted_welfare
from crowdstream.traces import CapacityTrace, EncounterTrace, PiecewiseConstant

LADDER = (0.2, 0.4, 0.7, 1.3, 2.3)
SLOT = 4.0


def report_line(num, name, ok, detail):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def video_profile(n=0, segments=250, **kw):
    base = dict(id=n, beta=2.0, buffer_cap=40.0, ladder=LADDER, theta=1.0,
                phi_qdeg=0.5, phi_rebuf=1.0, c_time=0.05, c_data=0.02,
                w_data=0.01, video_segments=segments)
    base.update(kw)
    return UserProfile(**base)


# ---------------------------------------------------------------------------
# Tiny slotted instances for the bound-chain criteria
# ---------------------------------------------------------------------------

def _slots_to_intervals(slots, slot_len):
    out = []
    for t in sorted(slots):
        if out and out[-1][1] == t * slot_len:
            out[-1] = [out[-1][0], (t + 1) * slot_len]
        else:
            out.append([t * slot_len, (t + 1) * slot_len])
    return tuple(tuple(iv) for iv in out)


def tiny_instance(seed):
    """N<=2 users, <=3 slots of 4 s, <=2 ladder levels, <=3 segments/user.

    Stall factors are zero: the virtual slotted scheme charges stalls per
    slot while the segmented evaluation charges realized reception gaps, so
    the bound chain and the split monotonicity are exact only on the
    stall-free subfamily (finer segments can introduce within-slot stalls
    that the slotted accounting cannot see).
    """
    rng = random.Random(f"tiny/{seed}")
    n_users = rng.choice([1, 2])
    n_slots = rng.choice([1, 2, 3])
    horizon = n_slots * SLOT
    z = rng.choice([1, 2])
    ladder = tuple(sorted(rng.sample([0.2, 0.4, 0.7, 1.3], z)))
    profiles = []
    for n in range(n_users):
        segs = rng.choice([1, 2, 3]) if n == 0 else rng.choice([0, 1, 2])
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


N_TINY = 20
_TINY_BOUNDS_CACHE = {}


def tiny_bounds(seed):
    """Lower (slotted exact), middle (segmented brute force), upper (fluid)
    plus the beta/2 variants, computed once per seed."""
    if seed not in _TINY_BOUNDS_CACHE:
        profiles, capacity, enc, horizon = tiny_instance(seed)
        inst = SlottedInstance.from_traces(profiles, capacity, enc, SLOT)
        _TINY_BOUNDS_CACHE[seed] = {
            "lower": offline.solve_slotted_exact(inst).welfare,
            "lower_half": offline.solve_slotted_exact(inst.with_split(2)).welfare,
            "middle": offline.brute_force_segmented(
                profiles, capacity, enc, horizon).welfare,
            "middle_half": offline.brute_force_segmented(
                split_profiles(profiles, 2), capacity, enc, horizon).welfare,
            "upper": offline.solve_slotted_relaxed(inst),
        }
    return _TINY_BOUNDS_CACHE[seed]


def test_criterion_1_bound_sandwich():
    t0 = time.monotonic()
    bad = []
    for seed in range(N_TINY):
        b = tiny_bounds(seed)
        if not (b["lower"] <= b["middle"] + 1e-9 and b["middle"] <= b["upper"] + 1e-9):
            bad.append((seed, b["lower"], b["middle"], b["upper"]))
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 120.0
    report_line(1, "bound sandwich", ok,
                f"{N_TINY} instances, {len(bad)} chain failures, {elapsed:.1f}s")


def test_criterion_2_segment_split_monotonicity():
    bad = []
    for seed in range(N_TINY):
        b = tiny_bounds(seed)
        if b["lower"] > b["lower_half"] + 1e-9 or b["middle"] > b["middle_half"] + 1e-9:
            bad.append(seed)
    report_line(2, "split monotonicity", not bad,
                f"{N_TINY} instances, {len(bad)} failures")


def split_trend_instance(seed):
    """Gentle single-user instances that stay exactly solvable at beta/4."""
    rng = random.Random(f"split/{seed}")
    n_slots = rng.choice([2, 3])
    horizon = n_slots * SLOT
    ladder = tuple(sorted(rng.sample([0.2, 0.4, 0.7, 1.3], rng.choice([1, 2]))))
    segs = rng.choice([1, 2])
    prof = UserProfile(
        id=0, beta=2.0, buffer_cap=max(2.0, 2.0 * segs), ladder=ladder,
        theta=1.0, phi_qdeg=rng.choice([0.0, 0.5]),
        phi_rebuf=rng.choice([0.0, 0.5]),
        c_time=0.05, c_data=0.02, video_segments=segs,
    )
    capacity = CapacityTrace(users={0: PiecewiseConstant(
        tuple(t * SLOT for t in range(n_slots)),
        tuple(rng.choice([0.0, 0.5, 1.0, 2.0]) for _ in range(n_slots)),
        horizon)}, horizon=horizon)
    return SlottedInstance.from_traces(
        (prof,), capacity, EncounterTrace.none(horizon), SLOT)


def test_criterion_3_refinement_trend():
    bad = []
    for seed in range(10):
        inst = split_trend_instance(seed)
        upper = offline.solve_slotted_relaxed(inst)
        lowers = [offline.solve_slotted_exact(inst.with_split(2 ** k)).welfare
                  for k in range(3)]
        gaps = [upper - lo for lo in lowers]
        if any(a > b + 1e-9 for a, b in zip(lowers, lowers[1:])):
            bad.append(seed)
        elif any(a < b - 1e-9 for a, b in zip(gaps, gaps[1:])):
            bad.append(seed)
    report_line(3, "refinement trend", not bad, f"10 instances, {len(bad)} failures")


# ---------------------------------------------------------------------------
# Online scheduler criteria (shared run machinery)
# ---------------------------------------------------------------------------

ALL_RUNS = []  # (config, report) pairs checked again by the invariant suite


def run_config(config):
    report = sim.run_simulation(config)
    ALL_RUNS.append((config, report))
    return report


def single_user_config(seed, cap_range, scheduler, params):
    return sim.SimConfig(
        horizon=500.0,
        profiles=(video_profile(),),
        capacity=traces.synth_capacity([0], 500.0, cap_range, seed),
        encounters=EncounterTrace.none(500.0),
        scheduler=scheduler,
        scheduler_params=params,
        seed=str(seed),
    )


def test_criterion_4_drift_policy_near_optimal():
    t0 = time.monotonic()
    gaps = []
    for seed in range(50):
        config = single_user_config(seed, (2.5, 5.0), "lyapunov", {"lam": 100.0})
        report = run_config(config)
        instance = SlottedInstance.from_traces(
            config.profiles, config.capacity, config.encounters, 5.0)
        gaps.append(sim.gap_vs_upper_bound(report, instance))
    elapsed = time.monotonic() - t0
    mean_gap = statistics.mean(gaps)
    ok = mean_gap <= 0.10 and elapsed < 60.0
    report_line(4, "drift policy near-optimality", ok,
                f"mean gap {mean_gap:.2%} over 50 seeds, {elapsed:.1f}s")


def test_criterion_5_scheduler_ordering():
    details = []
    ok = True
    for cap_range in ((0.0, 0.7), (1.3, 2.5)):
        means = {}
        for lam in (1.0, 10.0, 100.0):
            means[f"lyapunov@{lam:g}"] = statistics.mean(
                run_config(single_user_config(s, cap_range, "lyapunov",
                                              {"lam": lam})).welfare
                for s in range(100))
        for name in ("buffer", "prediction"):
            means[name] = statistics.mean(
                run_config(single_user_config(s, cap_range, name, {})).welfare
                for s in range(100))
        best_lyap = max(v for k, v in means.items() if k.startswith("lyapunov"))
        ok = ok and best_lyap >= means["buffer"] and best_lyap >= means["prediction"]
        details.append(
            f"range {cap_range}: lyapunov/buffer {best_lyap / means['buffer']:.2f}, "
            f"lyapunov/prediction {best_lyap / means['prediction']:.2f}")
    report_line(5, "scheduler ordering", ok, "; ".join(details))


def cooperation_config(seed, mode):
    spec = cli.ExperimentSpec(n_users=10, video_fraction=0.2,
                              capacity_range=(0.0, 0.7))
    profiles = cli.build_profiles(spec)
    ids = [p.id for p in profiles]
    return sim.SimConfig(
        horizon=500.0, profiles=profiles,
        capacity=traces.synth_capacity(ids, 500.0, (0.0, 0.7), seed),
        encounters=traces.synth_encounters(ids, 500.0, seed, mode=mode),
        scheduler="lyapunov", scheduler_params={"lam": 100.0}, seed=str(seed),
    )


def test_criterion_6_cooperation_gain():
    bitrate_gains = []
    welfare_gains = []
    for seed in range(50):
        full = run_config(cooperation_config(seed, "full"))
        alone = run_config(cooperation_config(seed, "none"))
        assert alone.avg_bitrate_mbps > 0
        bitrate_gains.append(
            (full.avg_bitrate_mbps - alone.avg_bitrate_mbps) / alone.avg_bitrate_mbps)
        welfare_gains.append(full.welfare - alone.welfare)
    mean_bitrate = statistics.mean(bitrate_gains)
    mean_welfare = statistics.mean(welfare_gains)
    ok = mean_bitrate >= 0.25 and mean_welfare > 0
    report_line(6, "cooperation gain", ok,
                f"mean bitrate gain {mean_bitrate:.0%}, "
                f"mean welfare gain {mean_welfare:+.2f} over 50 seeds")


def test_criterion_7_penalty_weight_direction():
    high = statistics.mean(
        run_config(single_user_config(s, (2.5, 5.0), "lyapunov",
                                      {"lam": 100.0})).welfare
        for s in range(100))
    low = statistics.mean(
        run_config(single_user_config(s, (2.5, 5.0), "lyapunov",
                                      {"lam": 0.01})).welfare
        for s in range(100))
    ok = high >= low - 1e-6
    report_line(7, "penalty weight direction", ok,
                f"mean welfare {high:.2f} at lam=100 vs {low:.2f} at lam=0.01")


def test_criterion_8_invariant_suite():
    if not ALL_RUNS:  # criteria 4-7 filtered out: build a small reference set
        for seed in range(5):
            run_config(single_user_config(seed, (0.5, 3.0), "lyapunov",
                                          {"lam": 100.0}))
    violations = 0
    identity_bad = 0
    for config, report in ALL_RUNS:
        violations += len(report.violations)
        if abs(sum(u["payoff"] for u in report.per_user.values())
               - report.welfare) > 1e-9:
            identity_bad += 1
    replay_bad = 0
    step = max(1, len(ALL_RUNS) // 3)
    for config, report in ALL_RUNS[::step][:3]:
        if (json.dumps(sim.run_simulation(config).to_dict(), sort_keys=True)
                != json.dumps(report.to_dict(), sort_keys=True)):
            replay_bad += 1
    ok = violations == 0 and identity_bad == 0 and replay_bad == 0
    report_line(8, "invariant suite", ok,
                f"{len(ALL_RUNS)} runs: {violations} violations, "
                f"{identity_bad} welfare identity errors, {replay_bad} replay mismatches")


# ---------------------------------------------------------------------------
# Criterion 9: the simulator replays the exact slotted optimum
# ---------------------------------------------------------------------------

def replay_instance(seed):
    """Slot-aligned instances whose slotted and segmented accountings agree:
    no stall factor (the two stall models differ by construction), no
    fluctuation factor when downloads may interleave across users, and a
    buffer cap large enough never to bind mid-slot."""
    rng = random.Random(f"replay/{seed}")
    n_users = rng.choice([1, 2])
    n_slots = rng.choice([2, 3])
    horizon = n_slots * SLOT
    ladder = tuple(sorted(rng.sample([0.2, 0.4, 0.7, 1.3], rng.choice([1, 2]))))
    profiles = []
    for n in range(n_users):
        segs = rng.choice([1, 2, 3]) if n == 0 else rng.choice([0, 1, 2])
        profiles.append(UserProfile(
            id=n, beta=2.0, buffer_cap=max(2.0, 2.0 * segs), ladder=ladder,
            theta=1.0,
            phi_qdeg=rng.choice([0.0, 0.5]) if n_users == 1 else 0.0,
            phi_rebuf=0.0,
            c_time=0.05, c_data=0.02, w_data=0.01, video_segments=segs,
        ))
    capacity = CapacityTrace(users={
        n: PiecewiseConstant(
            tuple(t * SLOT for t in range(n_slots)),
            tuple(rng.choice([0.0, 0.5, 1.0, 2.0]) for _ in range(n_slots)),
            horizon)
        for n in range(n_users)
    }, horizon=horizon)
    if n_users == 2:
        slots = [t for t in range(n_slots) if rng.random() < 0.8]
        intervals = _slots_to_intervals(slots, SLOT)
        enc = EncounterTrace(
            intervals={(0, 1): intervals} if intervals else {}, horizon=horizon)
    else:
        enc = EncounterTrace.none(horizon)
    return tuple(profiles), capacity, enc, horizon


def make_replay_script(instance, schedule):
    """Scheduler that replays a slotted schedule: per downloader, the planned
    (slot, owner, level) items in ascending-bitrate order within each slot,
    started back to back from each slot boundary."""
    plans = {n: [] for n in range(instance.n_users)}
    for (t, n, m, z), c in sorted(schedule.items()):
        plans[n].extend([(t, m, z)] * c)
    for n in plans:
        plans[n].sort(key=lambda it: (it[0], instance.profiles[it[1]].ladder[it[2]]))
    progress = {n: 0 for n in plans}

    def script(state, profiles):
        n = state.user
        if progress[n] >= len(plans[n]):
            return online.Wait(1e9)
        t, m, z = plans[n][progress[n]]
        start = t * instance.slot_len
        if state.now + 1e-12 < start:
            return online.Wait(start - state.now)
        progress[n] += 1
        return online.Download(owner=m, level=z, seg_index=state.next_seg[m])

    return script


def test_criterion_9_slotted_optimum_replay():
    bad = []
    checked = 0
    for seed in range(10):
        profiles, capacity, enc, horizon = replay_instance(seed)
        instance = SlottedInstance.from_traces(profiles, capacity, enc, SLOT)
        exact = offline.solve_slotted_exact(instance)
        expected, _ = eval_slotted_welfare(instance, exact.schedule)
        config = sim.SimConfig(
            horizon=horizon, profiles=profiles, capacity=capacity,
            encounters=enc,
            scheduler=make_replay_script(instance, exact.schedule),
            seed=str(seed),
        )
        report = sim.run_simulation(config)
        checked += 1
        if report.violations or abs(report.welfare - expected) > 1e-6:
            bad.append((seed, expected, report.welfare, report.violations))
    report_line(9, "slotted optimum replay", not bad,
                f"{checked} instances, {len(bad)} mismatches")
