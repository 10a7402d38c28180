"""Bound certificates on random tiny instances, full and under node budgets.

Instances follow the acceptance suite's tiny generator: at most 2 users,
3 slots of 4 s, 2 ladder levels and 3 segments per user, with stall
factors at zero so the sandwich is exact.
"""
from hypothesis import given, settings, strategies as st

from crowdstream.model import UserProfile
from crowdstream.offline import SlottedInstance, bound_certificate
from crowdstream.traces import CapacityTrace, EncounterTrace, PiecewiseConstant

SLOT = 4.0


@st.composite
def tiny_instances(draw):
    n_users = draw(st.integers(1, 2))
    n_slots = draw(st.integers(1, 3))
    horizon = n_slots * SLOT
    ladder = tuple(sorted(draw(st.lists(
        st.sampled_from([0.2, 0.4, 0.7, 1.3]), min_size=1, max_size=2, unique=True))))
    profiles = []
    for n in range(n_users):
        segs = draw(st.integers(1, 3) if n == 0 else st.integers(0, 2))
        profiles.append(UserProfile(
            id=n, beta=2.0, buffer_cap=max(2.0, 2.0 * segs), ladder=ladder,
            phi_qdeg=draw(st.sampled_from([0.0, 0.5])), phi_rebuf=0.0,
            c_time=0.05, c_data=0.02, w_data=0.01, video_segments=segs,
        ))
    rate = st.sampled_from([0.0, 0.5, 1.0, 2.0])
    capacity = CapacityTrace(users={
        n: PiecewiseConstant(tuple(t * SLOT for t in range(n_slots)),
                             tuple(draw(rate) for _ in range(n_slots)), horizon)
        for n in range(n_users)
    }, horizon=horizon)
    slots = draw(st.sets(st.integers(0, n_slots - 1))) if n_users == 2 else set()
    intervals = tuple((t * SLOT, (t + 1) * SLOT) for t in sorted(slots))
    enc = EncounterTrace(intervals={(0, 1): intervals} if intervals else {},
                         horizon=horizon)
    instance = SlottedInstance.from_traces(profiles, capacity, enc, SLOT)
    return instance, capacity, enc


@settings(max_examples=40, deadline=None)
@given(tiny_instances(), st.booleans(), st.integers(1, 2000), st.integers(1, 2000))
def test_sandwich_and_partial_certificates(inst, include_middle, exact_budget,
                                           brute_budget):
    instance, capacity, enc = inst
    full = bound_certificate(instance, capacity, enc, include_middle=include_middle)
    assert not full.partial and full.chain_ok and full.prop1_ok
    middle = full.lower if full.middle is None else full.middle
    assert full.lower <= middle + 1e-9 and middle <= full.upper + 1e-9

    part = bound_certificate(instance, capacity, enc, include_middle=include_middle,
                             exact_budget=exact_budget, brute_budget=brute_budget)
    assert part.upper == full.upper
    failed = part.solver_stats.get("failed_solver")
    assert part.partial == (failed is not None)
    if not part.partial:
        assert part == full
        return
    assert not part.chain_ok and not part.prop1_ok
    for key, nodes in part.solver_stats.items():
        if key.endswith("_nodes"):
            assert nodes == full.solver_stats[key]
    # a finished value is the full run's; an incumbent never exceeds it
    if failed == "exact":
        assert part.lower is None or part.lower <= full.lower
    else:
        assert part.lower == full.lower
    if failed == "brute":
        assert part.middle <= full.middle
    elif "brute_nodes" in part.solver_stats:
        assert part.middle == full.middle
    else:
        assert part.middle is None

