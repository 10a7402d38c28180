"""Simulator invariants on random capacity and encounter traces."""
import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from crowdstream import model, online
from crowdstream.model import UserProfile
from crowdstream.sim import TOL, SimConfig, run_simulation
from crowdstream.traces import CapacityTrace, EncounterTrace, PiecewiseConstant

LADDER = (0.2, 0.4, 0.7, 1.3, 2.3)


@st.composite
def sim_configs(draw):
    n_users = draw(st.integers(1, 4))
    horizon = draw(st.sampled_from([10.0, 30.0, 60.0]))
    ids = list(range(n_users))
    cut = st.floats(0.0, horizon, allow_nan=False)
    rate = st.floats(0.0, 3.0, allow_nan=False)
    users = {}
    for n in ids:
        times = sorted({0.0, *draw(st.lists(cut, max_size=4))})
        users[n] = PiecewiseConstant(tuple(times), tuple(draw(rate) for _ in times), horizon)
    intervals = {}
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            pts = sorted(draw(st.lists(cut, max_size=6, unique=True)))
            if len(pts) >= 2:
                intervals[(a, b)] = tuple(zip(pts[::2], pts[1::2]))
    profiles = tuple(
        UserProfile(
            id=n, beta=2.0, buffer_cap=draw(st.sampled_from([2.0, 6.0, 40.0])),
            ladder=LADDER, phi_qdeg=0.5, phi_rebuf=1.0, c_time=0.05,
            c_data=0.02, w_data=0.01,
            video_segments=draw(st.integers(0, 12)) if n else draw(st.integers(1, 12)),
        )
        for n in ids
    )
    return SimConfig(
        horizon=horizon, profiles=profiles,
        capacity=CapacityTrace(users=users, horizon=horizon),
        encounters=EncounterTrace(intervals=intervals, horizon=horizon),
        scheduler=draw(st.sampled_from(["lyapunov", "buffer", "prediction"])),
        abort_policy=draw(st.sampled_from(["abort", "complete"])),
    )


@settings(max_examples=60, deadline=None)
@given(sim_configs())
def test_run_invariants(config):
    report = run_simulation(config)
    assert report.violations == []
    again = run_simulation(config)
    assert json.dumps(again.to_dict(), sort_keys=True) == json.dumps(report.to_dict(), sort_keys=True)
    assert sum(u["payoff"] for u in report.per_user.values()) == report.welfare

    betas = {p.id: p.beta for p in config.profiles}
    delivered = set()
    for n, recs in report.downloads.items():
        for r in recs:
            if r.delivered:
                assert (r.owner, r.seg_index) not in delivered
                delivered.add((r.owner, r.seg_index))
                got = config.capacity.integrate(n, r.t_start, r.t_end)
                assert r.rate * betas[r.owner] <= got + 1e-9
            if config.abort_policy == "abort" and r.completed and r.owner != n:
                assert config.encounters.holds(n, r.owner, r.t_start, r.t_end)


@settings(max_examples=40, deadline=None)
@given(sim_configs(), st.randoms(use_true_random=False))
def test_random_choices_stay_inside_videos(config, rnd):
    """A scheduler naming random owners, levels and segments, in range or
    not, never makes the simulator raise and never gets a segment outside
    an owner's video delivered."""
    ids = [p.id for p in config.profiles]

    def random_choice(state, profiles):
        return online.Download(owner=rnd.choice(ids), level=rnd.randint(-1, len(LADDER)),
                               seg_index=rnd.randint(-1, 13))

    report = run_simulation(dataclasses.replace(config, scheduler=random_choice))
    profiles = model.profile_map(config.profiles)
    for recs in report.downloads.values():
        for r in recs:
            assert 0 <= r.seg_index < profiles[r.owner].video_segments
            assert 0 <= r.level < len(LADDER)
    found = model.validate_sequences(profiles, config.capacity, config.encounters,
                                     report.downloads)
    assert [v for v in found if v.kind in ("segment", "duplicate")] == []


def usable_by_scan(enc, n, m, now):
    """The neighbour rule, afresh by a linear scan of the pair's
    windows: usable when the first window containing ``now`` (at a touch,
    the one ending there) reaches the trace horizon or ends more than TOL
    later."""
    if m == n:
        return True
    for a, b in enc.intervals.get((min(n, m), max(n, m)), ()):
        if a <= now <= b:
            return b >= enc.horizon or b > now + TOL
    return False


def idle(state, profiles):
    """Only waits 0.5 s, so every user decides at every multiple of 0.5 s."""
    return online.Wait(0.5)


def check_neighbors(config, decide=None):
    """Run ``config`` with a scheduler that records every snapshot whose
    neighbour tuple differs from a fresh scan (the decider plus the owners
    usable now), and then decides as ``decide`` (by default, as
    ``config.scheduler``)."""
    ids = sorted(p.id for p in config.profiles)
    owners = {p.id for p in config.profiles if p.is_video_user}
    enc = config.encounters
    decide = decide or online.make_scheduler(config.scheduler)
    mismatches = []

    def checking(state, profiles):
        want = tuple(
            m for m in ids
            if (m == state.user or m in owners) and usable_by_scan(enc, state.user, m, state.now)
        )
        if state.neighbors != want:
            mismatches.append((state.user, state.now, state.neighbors, want))
        return decide(state, profiles)

    run_simulation(dataclasses.replace(config, scheduler=checking))
    return mismatches


@settings(max_examples=40, deadline=None)
@given(sim_configs())
def test_snapshot_neighbors_match_encounter_trace(config):
    """The reused neighbour tuples equal a fresh scan of the trace."""
    assert check_neighbors(config) == []


@st.composite
def grid_encounters(draw, ids, horizon):
    """Windows with ends on the 0.5 s grid, so idle users decide exactly at
    them. Windows may touch or have zero length, and an end may be moved
    5e-10 s later, so that the grid point before it lies less than TOL
    before the break."""
    grid = st.integers(0, int(2 * horizon)).map(lambda k: k / 2)
    intervals = {}
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            pts = sorted(draw(st.lists(grid, max_size=6)))
            raw = list(zip(pts[::2], pts[1::2]))
            ivs = []
            for k, (lo, hi) in enumerate(raw):
                if ivs and draw(st.booleans()):
                    lo = ivs[-1][1]  # touch the previous window
                limit = raw[k + 1][0] if k + 1 < len(raw) else horizon
                if draw(st.booleans()) and hi + 5e-10 <= limit:
                    hi += 5e-10
                ivs.append((lo, hi))
            if ivs:
                intervals[(a, b)] = tuple(ivs)
    return EncounterTrace(intervals=intervals, horizon=horizon)


@settings(max_examples=40, deadline=None)
@given(sim_configs(), st.data())
def test_snapshot_neighbors_at_breakpoints(config, data):
    """Queries exactly at window ends and starts, less than TOL before an
    end, and at points where two windows touch."""
    ids = sorted(p.id for p in config.profiles)
    enc = data.draw(grid_encounters(ids, config.horizon))
    config = dataclasses.replace(config, encounters=enc)
    assert check_neighbors(config, idle) == []
    assert check_neighbors(config) == []


@st.composite
def grid_capacity(draw, ids, horizon):
    """Capacity traces with whole-second breakpoints, so that 1 s re-polls
    from t=0 land exactly on them; one may lie at the horizon, leaving an
    empty last piece."""
    rate = st.floats(0.0, 3.0, allow_nan=False)
    users = {}
    for n in ids:
        cuts = draw(st.lists(st.integers(1, int(horizon)), max_size=6))
        times = sorted({0.0, *map(float, cuts)})
        users[n] = PiecewiseConstant(tuple(times), tuple(draw(rate) for _ in times), horizon)
    return CapacityTrace(users=users, horizon=horizon)


def repoll(state, profiles):
    """Only waits one re-poll epoch, so every user decides at every whole
    second, on each breakpoint and all through the last piece."""
    return online.Wait(online.DEFAULT_EPOCH)


@settings(max_examples=40, deadline=None)
@given(sim_configs(), st.data())
def test_snapshot_capacity_matches_trace(config, data):
    """The capacity rate a snapshot holds until the next breakpoint equals
    a fresh trace lookup at every decision; the samples are a tuple no
    longer than the prediction window, and a snapshot is immutable."""
    ids = sorted(p.id for p in config.profiles)
    capacity = data.draw(grid_capacity(ids, config.horizon))
    config = dataclasses.replace(config, capacity=capacity)
    for decide in (repoll, online.make_scheduler(config.scheduler)):
        def checking(state, profiles):
            assert state.capacity == capacity.rate_at(state.user, state.now)
            assert isinstance(state.throughput_samples, tuple)
            assert len(state.throughput_samples) <= online.PREDICTION_WINDOW
            with pytest.raises(AttributeError):
                state.capacity = 0.0
            return decide(state, profiles)

        run_simulation(dataclasses.replace(config, scheduler=checking))


@pytest.mark.parametrize("ids", [(0,), (0, 1)], ids=["one-user", "two-users"])
def test_query_past_encounter_horizon_raises(ids):
    """A simulation longer than its encounter trace would query the trace
    past its end, so with two users its config is refused when built,
    before any decision, also when the pair's last window ends early; a
    lone user has no partner to ask about and runs to the end."""
    profiles = tuple(
        UserProfile(id=n, beta=2.0, buffer_cap=6.0, ladder=LADDER, video_segments=3)
        for n in ids
    )

    def build():
        return SimConfig(
            horizon=10.0, profiles=profiles,
            capacity=CapacityTrace.constant(list(ids), 0.0, 10.0),
            encounters=EncounterTrace(intervals={(0, 1): ((1.0, 4.0),)}, horizon=5.0),
        )

    if len(ids) == 1:
        assert run_simulation(build()).violations == []
        return
    with pytest.raises(ValueError, match="encounter trace horizon"):
        build()


@st.composite
def breakpoint_traces(draw):
    """Three to five users, each pair with one to four windows on a 0.25 s
    grid. A window may touch the one before it, may end less than TOL after
    a grid point (where idle users poll), and the last may reach the
    horizon."""
    horizon = 10.0
    ids = list(range(draw(st.integers(3, 5))))
    grid = st.integers(0, int(4 * horizon)).map(lambda k: k / 4)
    intervals = {}
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            pts = sorted(draw(st.lists(grid, min_size=2, max_size=8)))
            raw = list(zip(pts[::2], pts[1::2]))
            ivs = []
            for k, (lo, hi) in enumerate(raw):
                if ivs and draw(st.booleans()):
                    lo = ivs[-1][1]  # touch the previous window
                limit = raw[k + 1][0] if k + 1 < len(raw) else horizon
                late = draw(st.sampled_from([0.0, 0.0, 5e-10, TOL]))
                if k + 1 == len(raw) and draw(st.booleans()):
                    hi = horizon
                elif hi + late <= limit:
                    hi += late
                ivs.append((lo, hi))
            intervals[(a, b)] = tuple(ivs)
    return ids, EncounterTrace(intervals=intervals, horizon=horizon)


@settings(max_examples=80, deadline=None)
@given(breakpoint_traces(), st.randoms(use_true_random=False))
def test_neighbors_follow_rule_at_every_decision(trace, rnd):
    """Every decision's neighbour tuple equals the rule evaluated afresh,
    while users poll on the grid at random intervals and sometimes
    download, so that queries fall on window ends and starts, where two
    windows touch, less than TOL before an end, and between breakpoints.
    Every user has at least two partners."""
    ids, enc = trace
    profiles = tuple(
        UserProfile(id=n, beta=2.0, buffer_cap=40.0, ladder=LADDER,
                    video_segments=8 if n % 2 == 0 else 0)
        for n in ids
    )

    def poll_or_download(state, profs):
        if rnd.random() < 0.2:
            return online.lyapunov_decide(state, profs)
        return online.Wait(rnd.choice([0.25, 0.5, 1.25]))

    config = SimConfig(
        horizon=enc.horizon, profiles=profiles,
        capacity=CapacityTrace.constant(ids, 0.5, enc.horizon), encounters=enc,
    )
    assert check_neighbors(config, poll_or_download) == []
