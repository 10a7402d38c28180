"""Simulator invariants on random capacity and encounter traces."""
from hypothesis import given, settings, strategies as st

from crowdstream import online
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
    assert run_simulation(config).to_json() == report.to_json()
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
@given(sim_configs())
def test_snapshot_neighbors_match_encounter_trace(config):
    """The reused neighbour tuples equal a fresh query of the trace."""
    ids = sorted(p.id for p in config.profiles)
    enc = config.encounters
    decide = online.make_scheduler(config.scheduler)
    mismatches = []

    def usable(n, m, now):
        if m == n:
            return True
        brk = enc.next_break(n, m, now)
        return enc.encountered(n, m, now) and (brk is None or brk > now + TOL)

    def checking(state, profiles):
        want = tuple(m for m in ids if usable(state.user, m, state.now))
        if state.neighbors != want:
            mismatches.append((state.user, state.now, state.neighbors, want))
        return decide(state, profiles)

    run_simulation(SimConfig(
        horizon=config.horizon, profiles=config.profiles,
        capacity=config.capacity, encounters=enc, scheduler=checking,
        abort_policy=config.abort_policy,
    ))
    assert mismatches == []
