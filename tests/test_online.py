import math

import pytest
from hypothesis import given, settings, strategies as st

from crowdstream import online
from crowdstream.model import UserProfile
from crowdstream.online import (
    Download, SchedulerState, Wait, buffer_based_decide, decision_payoff,
    lyapunov_decide, lyapunov_drift, make_scheduler, predict_capacity,
    prediction_based_decide, select_owner,
)

LADDER = (0.2, 0.4, 0.7, 1.3, 2.3)


def make_profile(n=0, **kw):
    base = dict(id=n, beta=2.0, buffer_cap=40.0, ladder=(0.2, 0.7), theta=1.0,
                phi_qdeg=0.5, phi_rebuf=1.0, c_time=0.05, c_data=0.02,
                w_data=0.01, video_segments=10)
    base.update(kw)
    return UserProfile(**base)


def make_state(profs, user=0, capacity=1.4, neighbors=(0,), buffers=None,
               last_rates=None, next_seg=None, samples=()):
    """A snapshot whose broadcast is keyed by the video users of ``profs``,
    as the simulator's is."""
    owners = [n for n, p in profs.items() if p.is_video_user]
    return SchedulerState(
        user=user, now=0.0, capacity=capacity, neighbors=tuple(neighbors),
        buffers=buffers if buffers is not None else {n: 5.0 for n in owners},
        last_rates=last_rates if last_rates is not None else {n: None for n in owners},
        next_seg=next_seg if next_seg is not None else {n: 0 for n in owners},
        throughput_samples=tuple(samples),
    )


class TestTransferTime:
    """The transfer time a decision prices: the segment's volume over the
    decider's current capacity, read here through the cellular time cost
    of a profile whose only weight is ``c_time`` = 1."""

    def test_volume_over_capacity(self):
        profs = {0: make_profile(phi_qdeg=0.0, phi_rebuf=0.0, c_time=1.0, c_data=0.0,
                                 w_data=0.0)}
        for capacity, z, seconds in ((1.4, 1, 1.0), (4.0, 0, 0.1)):
            state = make_state(profs, capacity=capacity)
            value = 2 * math.log1p(profs[0].ladder[z])
            assert value - decision_payoff(state, profs, 0, z) == pytest.approx(seconds)

    def test_zero_capacity_rejected(self):
        profs = {0: make_profile()}
        state = make_state(profs, capacity=0.0)
        for score in (decision_payoff, lyapunov_drift):
            with pytest.raises(ValueError, match="^cannot evaluate a download with zero capacity$"):
                score(state, profs, 0, 1)


class TestDecisionPayoff:
    def test_fresh_self_download(self):
        profs = {0: make_profile()}
        state = make_state(profs, capacity=1.4, buffers={0: 5.0})
        got = decision_payoff(state, profs, 0, 1)
        # value 2*ln(1.7); no degradation (no previous rate); no projected
        # stall (buffer 5 s > 1 s transfer); cell energy 0.05*1 + 0.02*1.4
        assert got == pytest.approx(2 * math.log(1.7) - 0.078)

    def test_downswitch_and_stall_charges(self):
        profs = {0: make_profile()}
        state = make_state(profs, capacity=0.4, buffers={0: 0.3}, last_rates={0: 0.7})
        got = decision_payoff(state, profs, 0, 0)  # gamma = 0.4/0.4 = 1 s
        expect = (2 * math.log(1.2) - 0.5 * 0.5 - 1.0 * (1.0 - 0.3)
                  - (0.05 * 1.0 + 0.02 * 0.4))
        assert got == pytest.approx(expect)

    def test_cross_user_adds_wifi_energy(self):
        profs = {0: make_profile(0), 1: make_profile(1)}
        buffers = {0: 5.0, 1: 5.0}
        self_state = make_state(profs, user=1, capacity=1.4, neighbors=(0, 1),
                                buffers=buffers)
        cross = decision_payoff(self_state, profs, 0, 1)
        own = decision_payoff(self_state, profs, 1, 1)
        assert own - cross == pytest.approx(0.01 * 1.4)  # w_data * volume

    def test_third_user_stall_projected(self):
        profs = {n: make_profile(n) for n in range(3)}
        buffers = {0: 5.0, 1: 5.0, 2: 0.25}
        playing = make_state(profs, capacity=1.4, neighbors=(0, 1, 2), buffers=buffers,
                             last_rates={0: None, 1: None, 2: 0.2})
        idle = make_state(profs, capacity=1.4, neighbors=(0, 1, 2), buffers=buffers,
                          last_rates={0: None, 1: None, 2: None})
        # downloading for user 0 takes 1 s while user 2 has 0.25 s buffered
        delta = decision_payoff(idle, profs, 0, 1) - decision_payoff(playing, profs, 0, 1)
        assert delta == pytest.approx(1.0 * (1.0 - 0.25))

    def test_zero_capacity_rejected(self):
        profs = {0: make_profile()}
        with pytest.raises(ValueError):
            decision_payoff(make_state(profs, capacity=0.0), profs, 0, 0)


class TestLyapunovDrift:
    def test_receiver_refill(self):
        profs = {0: make_profile()}
        state = make_state(profs, capacity=1.4, buffers={0: 5.0})
        # gamma = 1 s: buffer 5 -> 6, deficit 35 -> 34
        assert lyapunov_drift(state, profs, 0, 1) == pytest.approx(
            0.5 * (34.0 ** 2 - 35.0 ** 2))

    def test_bystander_drain(self):
        profs = {0: make_profile(0), 1: make_profile(1)}
        state = make_state(profs, capacity=1.4, neighbors=(0, 1),
                           buffers={0: 5.0, 1: 10.0})
        got = lyapunov_drift(state, profs, 0, 1)
        receiver = 0.5 * (34.0 ** 2 - 35.0 ** 2)
        bystander = 0.5 * (31.0 ** 2 - 30.0 ** 2)
        assert got == pytest.approx(receiver + bystander)

    def test_sums_every_broadcast_owner(self):
        """The potential covers each video user in the broadcast, neighbour
        or not; an idle neighbour has no buffer and adds nothing."""
        profs = {0: make_profile(0), 1: make_profile(1, video_segments=0),
                 2: make_profile(2)}
        state = make_state(profs, capacity=1.4, neighbors=(0, 1),
                           buffers={0: 5.0, 2: 10.0})
        assert set(state.buffers) == {0, 2}
        receiver = 0.5 * (34.0 ** 2 - 35.0 ** 2)
        bystander = 0.5 * (31.0 ** 2 - 30.0 ** 2)
        assert lyapunov_drift(state, profs, 0, 1) == receiver + bystander

    def test_refill_clamped_at_cap(self):
        profs = {0: make_profile()}
        state = make_state(profs, capacity=1.4, buffers={0: 39.5})
        # 39.5 - 1 + 2 = 40.5 clamps to the 40 s cap
        assert lyapunov_drift(state, profs, 0, 1) == pytest.approx(
            0.5 * (0.0 - 0.5 ** 2))


class TestLyapunovDecide:
    def test_zero_capacity_waits_default_epoch(self):
        profs = {0: make_profile()}
        got = lyapunov_decide(make_state(profs, capacity=0.0), profs, lam=100.0)
        assert got == Wait(1.0)

    def test_full_buffer_waits_for_headroom(self):
        profs = {0: make_profile()}
        state = make_state(profs, buffers={0: 39.5})
        got = lyapunov_decide(state, profs, lam=100.0)
        assert got == Wait(pytest.approx(1.5))  # 39.5 + 2 - 40

    def test_finished_video_waits(self):
        profs = {0: make_profile()}
        state = make_state(profs, next_seg={0: None})
        assert lyapunov_decide(state, profs, lam=100.0) == Wait(1.0)

    def test_large_lambda_maximizes_payoff(self):
        profs = {0: make_profile()}
        state = make_state(profs, capacity=10.0, buffers={0: 5.0})
        got = lyapunov_decide(state, profs, lam=1e9)
        assert got == Download(owner=0, level=1, seg_index=0)

    def test_zero_lambda_maximizes_refill(self):
        profs = {0: make_profile()}
        state = make_state(profs, capacity=1.4, buffers={0: 5.0})
        # pure drift: the faster low level refills the deficit hardest
        got = lyapunov_decide(state, profs, lam=0.0)
        assert got == Download(owner=0, level=0, seg_index=0)

    def test_helps_most_starved_neighbor(self):
        profs = {0: make_profile(0), 1: make_profile(1)}
        state = make_state(profs, user=0, capacity=1.4, neighbors=(0, 1),
                           buffers={0: 30.0, 1: 2.0}, next_seg={0: 7, 1: 4})
        got = lyapunov_decide(state, profs, lam=0.0)
        assert got.owner == 1
        assert got.seg_index == 4

    def test_tie_breaks_toward_lower_owner_id(self):
        profs = {0: make_profile(0), 1: make_profile(1)}
        state = make_state(profs, user=0, capacity=1.4, neighbors=(0, 1),
                           buffers={0: 5.0, 1: 5.0})
        got = lyapunov_decide(state, profs, lam=100.0)
        assert got.owner == 0

    def test_deterministic(self):
        profs = {0: make_profile()}
        state = make_state(profs)
        assert (lyapunov_decide(state, profs, 100.0)
                == lyapunov_decide(state, profs, 100.0))


class TestPredictCapacity:
    def test_constant_samples(self):
        assert predict_capacity((2.0, 2.0, 2.0), fallback=9.0) == pytest.approx(2.0)

    def test_harmonic_mean_punishes_dips(self):
        assert predict_capacity((1.0, 4.0), fallback=9.0) == pytest.approx(1.6)

    def test_empty_falls_back(self):
        assert predict_capacity((), fallback=3.0) == 3.0

    def test_window_keeps_recent_samples(self):
        assert predict_capacity((9.0, 9.0, 1.0, 1.0, 1.0, 1.0, 1.0),
                                fallback=0.0) == pytest.approx(1.0)

    def test_zero_sample_gives_zero(self):
        assert predict_capacity((2.0, 0.0), fallback=1.0) == 0.0


def pick(state, profs):
    """``select_owner`` among the ready owners the baselines hand it."""
    return select_owner(state, profs, online._ready_or_wait(state, profs))


class TestSelectOwner:
    def test_comfortable_decider_helps_starved_neighbor(self):
        profs = {0: make_profile(0), 1: make_profile(1)}
        state = make_state(profs, user=0, neighbors=(0, 1), buffers={0: 30.0, 1: 5.0})
        assert pick(state, profs) == 1

    def test_low_own_buffer_serves_self(self):
        profs = {0: make_profile(0), 1: make_profile(1)}
        state = make_state(profs, user=0, neighbors=(0, 1), buffers={0: 10.0, 1: 5.0})
        assert pick(state, profs) == 0

    def test_small_gap_serves_self(self):
        profs = {0: make_profile(0), 1: make_profile(1)}
        state = make_state(profs, user=0, neighbors=(0, 1), buffers={0: 30.0, 1: 25.0})
        assert pick(state, profs) == 0

    def test_idle_decider_always_helps(self):
        profs = {0: make_profile(0, video_segments=0), 1: make_profile(1)}
        state = make_state(profs, user=0, neighbors=(0, 1), buffers={1: 39.0 - 1.0})
        assert 0 not in state.next_seg
        assert pick(state, profs) == 1

    def test_finished_decider_always_helps(self):
        profs = {0: make_profile(0), 1: make_profile(1)}
        state = make_state(profs, user=0, neighbors=(0, 1), buffers={0: 1.0, 1: 5.0},
                           next_seg={0: None, 1: 2})
        assert pick(state, profs) == 1

    def test_no_neighbors_serves_self(self):
        profs = {0: make_profile(0)}
        state = make_state(profs, user=0, neighbors=(0,))
        assert pick(state, profs) == 0

    def test_full_decider_falls_back_to_first_ready_owner(self):
        profs = {n: make_profile(n) for n in range(3)}
        # the decider's 39.5 s cannot take a 2 s segment under its 40 s cap,
        # and its 9.5 s lead over user 2 is below the 10 s gap threshold
        state = make_state(profs, user=0, neighbors=(0, 1, 2),
                           buffers={0: 39.5, 1: 35.0, 2: 30.0})
        assert pick(state, profs) == 1


class TestBufferBased:
    def level_for(self, q):
        profs = {0: make_profile(ladder=LADDER)}
        state = make_state(profs, capacity=5.0, buffers={0: q})
        got = buffer_based_decide(state, profs)
        assert isinstance(got, Download)
        return got.level

    def test_reservoir_maps_to_lowest_level(self):
        assert self.level_for(10.0) == 0  # reservoir = 0.25 * 40

    def test_midpoint_maps_to_middle_level(self):
        assert self.level_for(25.0) == 2  # frac 0.5 of 4 -> level 2

    def test_near_full_maps_high(self):
        assert self.level_for(37.0) == 3

    @given(st.floats(0.0, 38.0), st.floats(0.0, 38.0))
    def test_level_monotone_in_buffer(self, a, b):
        lo, hi = sorted((a, b))
        assert self.level_for(lo) <= self.level_for(hi)

    def test_waits_without_capacity(self):
        profs = {0: make_profile(ladder=LADDER)}
        got = buffer_based_decide(make_state(profs, capacity=0.0), profs)
        assert got == Wait(1.0)


class TestPredictionBased:
    def test_picks_highest_sustainable_rate(self):
        profs = {0: make_profile(ladder=LADDER)}
        state = make_state(profs, capacity=5.0, samples=(1.0, 1.0))
        got = prediction_based_decide(state, profs)
        assert got == Download(owner=0, level=2, seg_index=0)  # 0.7 <= 1.0 < 1.3

    def test_poor_prediction_floors_at_lowest(self):
        profs = {0: make_profile(ladder=LADDER)}
        state = make_state(profs, capacity=5.0, samples=(0.1,))
        got = prediction_based_decide(state, profs)
        assert got.level == 0

    def test_no_samples_uses_current_capacity(self):
        profs = {0: make_profile(ladder=LADDER)}
        state = make_state(profs, capacity=2.3, samples=())
        got = prediction_based_decide(state, profs)
        assert got.level == 4


class TestMakeScheduler:
    def test_known_names(self):
        profs = {0: make_profile()}
        state = make_state(profs)
        for name in ("lyapunov", "buffer", "prediction"):
            decision = make_scheduler(name)(state, profs)
            assert isinstance(decision, (Download, Wait))

    def test_lyapunov_lambda_forwarded(self):
        profs = {0: make_profile()}
        state = make_state(profs, capacity=10.0, buffers={0: 5.0})
        assert make_scheduler("lyapunov", lam=1e9)(state, profs).level == 1
        assert make_scheduler("lyapunov", lam=0.0)(state, profs).level == 0

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            make_scheduler("greedy")

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            make_scheduler("buffer", lam=3.0)

    def test_settable_params(self):
        profs = {0: make_profile()}
        state = make_state(profs)
        make_scheduler("lyapunov", lam=1.0)(state, profs)
        for name in ("buffer", "prediction"):
            make_scheduler(name, delta_th=0.4, gap_th=5.0)(state, profs)
        for name, param in (("lyapunov", "default_epoch"), ("buffer", "reservoir_frac"),
                            ("prediction", "window")):
            with pytest.raises(ValueError, match=f"unknown {name} params"):
                make_scheduler(name, **{param: 1})


# -- the one-pass scorer against the per-candidate formulas it replaced ----

def reference_payoff(state, profiles, u, z):
    """``decision_payoff`` as it was written per candidate: the float order
    every simulator report was recorded with."""
    gamma = profiles[u].ladder[z] * profiles[u].beta / state.capacity
    owner = profiles[u]
    dl = profiles[state.user]
    rate = owner.ladder[z]
    vol = rate * owner.beta
    util = math.log1p(owner.theta * rate) * owner.beta
    last = state.last_rates.get(u)
    if last is not None:
        util -= owner.phi_qdeg * max(0.0, last - rate)
    util -= owner.phi_rebuf * max(0.0, gamma - state.buffers[u])
    for m in state.neighbors:
        if m == u or state.last_rates.get(m) is None:
            continue
        util -= profiles[m].phi_rebuf * max(0.0, gamma - state.buffers[m])
    cost = dl.c_time * gamma + dl.c_data * vol
    if u != state.user:
        cost += dl.w_data * vol
    cost += owner.eps_time * owner.beta + owner.eps_rate * vol
    return util - cost


def reference_drift(state, profiles, u, z):
    """``lyapunov_drift`` as it was written per candidate."""
    gamma = profiles[u].ladder[z] * profiles[u].beta / state.capacity
    drift = 0.0
    for m, q in state.buffers.items():
        prof = profiles[m]
        if m == u:
            q_next = min(prof.buffer_cap, max(0.0, q - gamma) + prof.beta)
        else:
            q_next = max(0.0, q - gamma)
        drift += 0.5 * ((prof.buffer_cap - q_next) ** 2 - (prof.buffer_cap - q) ** 2)
    return drift


weight = st.floats(0.0, 2.0)


@st.composite
def decision_states(draw):
    """Profiles of 1-4 owners and 0-2 helpers, in a drawn order (the
    broadcast order), and a snapshot of them with positive capacity, whose
    decider is any user."""
    n_owners = draw(st.integers(1, 4))
    n_users = n_owners + draw(st.integers(0, 2))
    order = draw(st.permutations(range(n_users)))
    profs = {}
    for n in order:
        beta = draw(st.sampled_from([0.5, 1.0, 2.0, 4.0]))
        ladder = draw(st.lists(st.floats(0.05, 5.0), min_size=1, max_size=5, unique=True))
        profs[n] = UserProfile(
            id=n, beta=beta, buffer_cap=beta * draw(st.floats(1.0, 20.0)),
            ladder=tuple(sorted(ladder)), theta=draw(st.floats(0.2, 2.0)),
            phi_qdeg=draw(weight), phi_rebuf=draw(weight), c_time=draw(weight),
            c_data=draw(weight), w_data=draw(weight), eps_time=draw(weight),
            eps_rate=draw(weight), video_segments=10 if n < n_owners else 0,
        )
    owners = [n for n in profs if n < n_owners]
    user = draw(st.sampled_from(sorted(profs)))
    in_range = draw(st.sets(st.sampled_from(owners)))
    state = SchedulerState(
        user=user, now=0.0, capacity=draw(st.floats(0.01, 10.0)),
        neighbors=tuple(sorted({user} | in_range)),
        buffers={m: draw(st.floats(0.0, profs[m].buffer_cap)) for m in owners},
        last_rates={m: draw(st.none() | st.sampled_from(profs[m].ladder)) for m in owners},
        next_seg={m: draw(st.none() | st.integers(0, 9)) for m in owners},
    )
    return profs, state


class TestOnePassScorer:
    @settings(max_examples=300, deadline=None)
    @given(decision_states(), st.sampled_from([0.0, 1.0, 10.0, 100.0, 1e6]))
    def test_matches_the_per_candidate_formulas(self, drawn, lam):
        """The public views equal the per-candidate formulas bit for bit on
        every owner and level, and ``lyapunov_decide`` picks their argmin,
        ties to the lowest owner id, then the lowest level."""
        profs, state = drawn
        for u in state.buffers:
            for z in range(len(profs[u].ladder)):
                assert repr(lyapunov_drift(state, profs, u, z)) == repr(
                    reference_drift(state, profs, u, z))
                assert repr(decision_payoff(state, profs, u, z)) == repr(
                    reference_payoff(state, profs, u, z))
        got = lyapunov_decide(state, profs, lam)
        ready = online._ready_or_wait(state, profs)
        if isinstance(ready, Wait):
            assert got == ready
            return
        _, u, z = min(
            (reference_drift(state, profs, u, z) - lam * reference_payoff(state, profs, u, z),
             u, z)
            for u in ready for z in range(len(profs[u].ladder)))
        assert got == Download(owner=u, level=z, seg_index=state.next_seg[u])

    @settings(max_examples=100, deadline=None)
    @given(decision_states(), st.sampled_from(sorted(online.SCHEDULERS)), st.data())
    def test_make_scheduler_binds_like_keywords(self, drawn, name, data):
        """``make_scheduler(name, **params)`` decides as the decide function
        called with ``params`` as keywords, for any subset of its parameters."""
        profs, state = drawn
        names = ("lam",) if name == "lyapunov" else ("delta_th", "gap_th")
        params = {p: data.draw(st.floats(0.0, 200.0), label=p)
                  for p in data.draw(st.sets(st.sampled_from(names)), label="params")}
        decide = online.SCHEDULERS[name]
        assert make_scheduler(name, **params)(state, profs) == decide(state, profs, **params)


    def test_decide_calls_neither_public_view(self, monkeypatch):
        """A decision scores its ladders itself: the public drift and
        payoff, which the simulator and the benchmark call, are not asked."""
        def asked(*args):
            raise AssertionError("a public view was called")

        monkeypatch.setattr(online, "lyapunov_drift", asked)
        monkeypatch.setattr(online, "decision_payoff", asked)
        profs = {0: make_profile(0), 1: make_profile(1)}
        state = make_state(profs, capacity=1.4, neighbors=(0, 1))
        assert isinstance(lyapunov_decide(state, profs), Download)


class TestReadyOrWait:
    def test_least_overflow_and_shared_epoch_wait(self):
        """With every candidate over-full the wait is the least overflow; with
        no candidate, or no capacity, every decision gets the one epoch Wait."""
        profs = {n: make_profile(n) for n in range(3)}
        state = make_state(profs, neighbors=(0, 1, 2), buffers={0: 39.5, 1: 38.5, 2: 39.0})
        assert online._ready_or_wait(state, profs) == Wait(0.5)
        finished = make_state(profs, next_seg={0: None, 1: None, 2: None})
        stalled = make_state(profs, capacity=0.0)
        waits = [online._ready_or_wait(s, profs) for s in (finished, stalled) * 2]
        assert all(w is waits[0] for w in waits) and waits[0] == Wait(1.0)
