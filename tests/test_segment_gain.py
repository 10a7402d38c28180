"""``model.segment_gain`` is the one per-segment gain.

The exact slotted solver and the brute-force oracle call it. The fluid LP
objective and the online payoff estimate keep their own float order, so
these property tests tie each of them to the helper instead.
"""
import pytest
from hypothesis import assume, given, settings, strategies as st

from crowdstream import model
from crowdstream.model import UserProfile
from crowdstream.offline import SlottedInstance, solve_slotted_relaxed
from crowdstream.online import SchedulerState, decision_payoff

SLOT = 4.0
coef = st.floats(min_value=1e-3, max_value=0.1)


@st.composite
def profiles(draw, one_level=False):
    """A video user (id 0) and an idle helper (id 1), every energy
    coefficient nonzero."""
    if one_level:
        ladder = [draw(st.floats(0.1, 3.0))]
    else:
        ladder = draw(st.lists(st.floats(0.1, 5.0), min_size=1, max_size=4,
                               unique=True))
    out = []
    for uid in (0, 1):
        out.append(UserProfile(
            id=uid, beta=draw(st.sampled_from([0.5, 1.0, 2.0, 4.0])),
            buffer_cap=1e6, ladder=tuple(sorted(ladder)),
            theta=draw(st.floats(0.2, 2.0)),
            phi_qdeg=draw(coef), phi_rebuf=draw(coef),
            c_time=draw(coef), c_data=draw(coef), w_data=draw(coef),
            eps_time=draw(coef), eps_rate=draw(coef),
            video_segments=10**6 if uid == 0 else 0,
        ))
    return out


@settings(max_examples=60, deadline=None)
@given(profs=profiles(), cross=st.booleans(), capacity=st.floats(0.1, 10.0),
       data=st.data())
def test_decision_payoff_is_segment_gain_without_losses(profs, cross, capacity, data):
    owner, helper = profs
    user = helper.id if cross else owner.id
    pmap = {p.id: p for p in profs}
    z = data.draw(st.integers(0, len(owner.ladder) - 1))
    gamma = owner.ladder[z] * owner.beta / capacity
    # no loss terms: no previous rate, a buffer that outlasts the transfer,
    # and no other neighbour playing
    state = SchedulerState(
        user=user, now=0.0, capacity=capacity, neighbors=(0, 1),
        buffers={0: gamma + 1.0, 1: 0.0}, last_rates={0: None, 1: None},
        next_seg={0: 0, 1: None},
    )
    got = decision_payoff(state, pmap, owner.id, z)
    want = model.segment_gain(owner, pmap[user], owner.ladder[z], gamma, cross)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(profs=profiles(one_level=True), cross=st.booleans(),
       capacity=st.floats(1.0, 20.0))
def test_lp_bound_is_segment_gain_density(profs, cross, capacity):
    """One slot, one level, capacity binding: the fluid bound fills the
    downloader's link at the segment gain per Mbit."""
    owner, helper = profs
    dl = helper if cross else owner
    rate = owner.ladder[0]
    vol = rate * owner.beta
    gain = model.segment_gain(owner, dl, rate, vol / capacity * SLOT, cross)
    assume(gain > 0)
    caps = [(0.0,), (capacity,)] if cross else [(capacity,), (0.0,)]
    inst = SlottedInstance(
        profiles=(owner, helper), slot_len=SLOT, n_slots=1,
        capacity=tuple(caps), encounter=frozenset({(0, 1, 0)}) if cross else frozenset(),
    )
    assert solve_slotted_relaxed(inst) == pytest.approx(capacity / vol * gain, abs=1e-9)
