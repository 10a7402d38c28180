import copy
import json
import re
import sys

import pytest

from crowdstream import model, offline, online, sim
from crowdstream.model import UserProfile
from crowdstream.sim import SimConfig, gap_vs_upper_bound, run_simulation
from crowdstream.traces import CapacityTrace, EncounterTrace, PiecewiseConstant

LADDER = (0.2, 0.4, 0.7, 1.3, 2.3)


def make_profile(n=0, **kw):
    base = dict(id=n, beta=2.0, buffer_cap=40.0, ladder=LADDER, theta=1.0,
                phi_qdeg=0.5, phi_rebuf=1.0, c_time=0.05, c_data=0.02,
                w_data=0.01, video_segments=250)
    base.update(kw)
    return UserProfile(**base)


def single_user_config(rate=10.0, horizon=500.0, segments=250, **kw):
    prof = make_profile(video_segments=segments)
    return SimConfig(
        horizon=horizon,
        profiles=(prof,),
        capacity=CapacityTrace.constant([0], rate, horizon),
        encounters=EncounterTrace.none(horizon),
        scheduler="lyapunov",
        scheduler_params={"lam": 100.0},
        **kw,
    )


class TestComputeDownloadEnd:
    """Transfer end times come straight from ``CapacityTrace.invert``."""

    def test_rectangle(self):
        cap = CapacityTrace.constant([0], 2.0, 10.0)
        assert cap.invert(0, 1.0, 4.0) == pytest.approx(3.0)

    def test_two_piece(self):
        cap = CapacityTrace(users={
            0: PiecewiseConstant((0.0, 5.0), (1.0, 3.0), 10.0)
        }, horizon=10.0)
        assert cap.invert(0, 4.0, 4.0) == pytest.approx(6.0)

    def test_exhausted_trace_is_none(self):
        cap = CapacityTrace.constant([0], 1.0, 10.0)
        assert cap.invert(0, 8.0, 5.0) is None

    def test_negative_volume_rejected(self):
        cap = CapacityTrace.constant([0], 1.0, 10.0)
        with pytest.raises(ValueError):  # TraceError is a ValueError
            cap.invert(0, 0.0, -1.0)


class TestSimConfig:
    def test_horizon_must_fit_trace(self):
        cap = CapacityTrace.constant([0], 1.0, 10.0)
        with pytest.raises(ValueError, match="horizon"):
            SimConfig(horizon=20.0, profiles=(make_profile(),), capacity=cap,
                      encounters=EncounterTrace.none(10.0))

    def test_unknown_abort_policy_rejected(self):
        cap = CapacityTrace.constant([0], 1.0, 10.0)
        with pytest.raises(ValueError, match="abort policy"):
            SimConfig(horizon=10.0, profiles=(make_profile(),), capacity=cap,
                      encounters=EncounterTrace.none(10.0), abort_policy="retry")

    def test_capacity_trace_must_cover_every_user(self):
        """Refused when built, not with a bare KeyError at user 1's first
        decision."""
        cap = CapacityTrace.constant([0], 1.0, 10.0)
        with pytest.raises(ValueError, match="capacity trace has no user 1"):
            SimConfig(horizon=10.0, profiles=(make_profile(0), make_profile(1)),
                      capacity=cap, encounters=EncounterTrace.full([0, 1], 10.0))

    def test_encounter_trace_must_span_the_run(self):
        """With two users, a 20 s run on a 5 s encounter trace is refused
        when built, not partway through; a lone user never queries it."""
        cap = CapacityTrace.constant([0, 1], 1.0, 20.0)
        short = EncounterTrace.full([0, 1], 5.0)
        with pytest.raises(ValueError, match="encounter trace horizon"):
            SimConfig(horizon=20.0, profiles=(make_profile(0), make_profile(1)),
                      capacity=cap, encounters=short)
        lone = SimConfig(horizon=20.0, profiles=(make_profile(0),), capacity=cap,
                         encounters=short)
        assert run_simulation(lone).violations == []


class TestSingleUserRun:
    def test_ample_capacity_plays_everything_at_top_rate(self):
        report = run_simulation(single_user_config(rate=10.0))
        assert report.deliveries == 250
        assert report.avg_bitrate_mbps == pytest.approx(2.3)
        assert report.rebuffer_s == pytest.approx(0.0)
        assert report.drops == 0 and report.aborts == 0
        assert report.violations == []
        assert report.welfare > 0

    def test_zero_capacity_is_a_null_run(self):
        report = run_simulation(single_user_config(rate=0.0, horizon=10.0))
        assert report.deliveries == 0
        assert report.welfare == 0.0
        assert report.sw_estimated == 0.0

    def test_buffer_cap_respected(self):
        report = run_simulation(single_user_config(rate=10.0, horizon=100.0))
        # 40 s of buffer at 2 s per segment: at most 20 segments ahead of playback
        for recs in report.downloads.values():
            for r in recs:
                if r.delivered:
                    assert r.seg_index * 2.0 <= r.t_end + 40.0 + 1e-6

    def test_delivered_records_pass_feasibility_check(self):
        config = single_user_config(rate=3.0, horizon=200.0)
        report = run_simulation(config)
        delivered = {
            n: [r for r in recs if r.delivered]
            for n, recs in report.downloads.items()
        }
        profiles = model.profile_map(config.profiles)
        got = model.validate_sequences(profiles, config.capacity,
                                       config.encounters, delivered)
        assert got == []


class TestReplayDeterminism:
    def test_same_config_same_report_bytes(self):
        a = run_simulation(single_user_config(rate=3.0, horizon=120.0))
        b = run_simulation(single_user_config(rate=3.0, horizon=120.0))
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)

    def test_all_schedulers_deterministic(self):
        for name in ("lyapunov", "buffer", "prediction"):
            cfg = SimConfig(
                horizon=60.0, profiles=(make_profile(),),
                capacity=CapacityTrace.constant([0], 1.5, 60.0),
                encounters=EncounterTrace.none(60.0), scheduler=name,
            )
            a, b = run_simulation(cfg), run_simulation(cfg)
            assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)


class TestCooperation:
    def starved_pair(self, encounters, horizon=100.0, **kw):
        video = make_profile(0, video_segments=50)
        helper = make_profile(1, video_segments=0, phi_qdeg=0.0, phi_rebuf=0.0)
        cap = CapacityTrace(users={
            0: PiecewiseConstant((0.0,), (0.0,), horizon),
            1: PiecewiseConstant((0.0,), (2.0,), horizon),
        }, horizon=horizon)
        return SimConfig(horizon=horizon, profiles=(video, helper), capacity=cap,
                         encounters=encounters, scheduler="lyapunov",
                         scheduler_params={"lam": 100.0}, **kw)

    def test_helper_feeds_starved_user(self):
        full = run_simulation(self.starved_pair(EncounterTrace.full([0, 1], 100.0)))
        none = run_simulation(self.starved_pair(EncounterTrace.none(100.0)))
        assert none.deliveries == 0
        assert full.deliveries > 0
        assert full.welfare > none.welfare

    def test_abort_on_encounter_break(self):
        enc = EncounterTrace(intervals={(0, 1): ((0.0, 2.0),)}, horizon=100.0)
        video = make_profile(0, video_segments=5)
        helper = make_profile(1, video_segments=0)
        cap = CapacityTrace(users={
            0: PiecewiseConstant((0.0,), (0.0,), 100.0),
            1: PiecewiseConstant((0.0,), (0.1,), 100.0),
        }, horizon=100.0)
        cfg = SimConfig(horizon=10.0, profiles=(video, helper), capacity=cap,
                        encounters=enc, scheduler="lyapunov")
        report = run_simulation(cfg)
        assert report.aborts == 1
        assert report.deliveries == 0
        aborted = [r for r in report.downloads[1] if not r.completed]
        assert len(aborted) == 1
        assert aborted[0].t_end == pytest.approx(2.0)
        assert aborted[0].mbit == pytest.approx(0.2)  # 0.1 Mbps for 2 s
        assert not aborted[0].delivered

    def test_complete_policy_finishes_past_break(self):
        enc = EncounterTrace(intervals={(0, 1): ((0.0, 2.0),)}, horizon=100.0)
        video = make_profile(0, video_segments=5)
        helper = make_profile(1, video_segments=0)
        cap = CapacityTrace(users={
            0: PiecewiseConstant((0.0,), (0.0,), 100.0),
            1: PiecewiseConstant((0.0,), (0.1,), 100.0),
        }, horizon=100.0)
        cfg = SimConfig(horizon=10.0, profiles=(video, helper), capacity=cap,
                        encounters=enc, scheduler="lyapunov",
                        abort_policy="complete")
        report = run_simulation(cfg)
        assert report.aborts == 0
        assert report.deliveries >= 1
        first = [r for r in report.downloads[1] if r.delivered][0]
        assert first.t_end == pytest.approx(4.0)  # 0.4 Mbit at 0.1 Mbps


class TestNeighbors:
    def record_neighbors(self, encounters, horizon=4.0):
        seen = []

        def idle(state, profiles):
            seen.append((state.user, state.now, state.neighbors))
            return online.Wait(1.0)

        profiles = (make_profile(0, video_segments=5), make_profile(1, video_segments=5))
        run_simulation(SimConfig(
            horizon=horizon, profiles=profiles,
            capacity=CapacityTrace.constant([0, 1], 0.0, horizon),
            encounters=encounters, scheduler=idle,
        ))
        return [(t, nbrs) for n, t, nbrs in seen if n == 0]

    def test_neighbor_set_follows_encounter_windows(self):
        enc = EncounterTrace(intervals={(0, 1): ((0.5, 1.5), (2.5, 4.0))}, horizon=4.0)
        assert self.record_neighbors(enc) == [
            (0.0, (0,)), (1.0, (0, 1)), (2.0, (0,)), (3.0, (0, 1)),
        ]

    def test_neighbor_dropped_just_before_break(self):
        # at t=2 the window closes in under TOL, so no transfer can progress
        # even though t=1 (same gap between breakpoints) saw the pair usable
        enc = EncounterTrace(intervals={(0, 1): ((0.5, 2.0 + 5e-10),)}, horizon=4.0)
        assert self.record_neighbors(enc) == [
            (0.0, (0,)), (1.0, (0, 1)), (2.0, (0,)), (3.0, (0,)),
        ]


class TestDrops:
    def test_over_eager_scheduler_drops_at_full_buffer(self):
        def greedy(state, profiles):
            seg = state.next_seg.get(0)
            if seg is not None:
                return online.Download(owner=0, level=0, seg_index=seg)
            return online.Wait(0.5)

        prof = make_profile(0, buffer_cap=2.0, video_segments=10)
        cfg = SimConfig(horizon=30.0, profiles=(prof,),
                        capacity=CapacityTrace.constant([0], 10.0, 30.0),
                        encounters=EncounterTrace.none(30.0), scheduler=greedy)
        report = run_simulation(cfg)
        assert report.drops > 0
        assert report.deliveries >= 1
        assert report.violations == []  # drops keep the buffer legal

    def test_injected_breach_is_reported(self, monkeypatch):
        """With the drop rule switched off, a delivery past the cap is
        reported when it happens."""
        exceeds_cap = model.exceeds_cap

        def drop_rule_off(level, profile):
            # the drop rule is the one cap test made in finish_download
            if sys._getframe(1).f_code.co_name == "finish_download":
                return False
            return exceeds_cap(level, profile)

        monkeypatch.setattr(model, "exceeds_cap", drop_rule_off)

        def greedy(state, profiles):
            seg = state.next_seg.get(0)
            if seg is not None:
                return online.Download(owner=0, level=0, seg_index=seg)
            return online.Wait(0.5)

        prof = make_profile(0, buffer_cap=2.0, video_segments=10)
        cfg = SimConfig(horizon=30.0, profiles=(prof,),
                        capacity=CapacityTrace.constant([0], 10.0, 30.0),
                        encounters=EncounterTrace.none(30.0), scheduler=greedy)
        report = run_simulation(cfg)
        assert report.drops == 0
        assert report.violations
        first = report.violations[0]
        # the second segment lands on a full 2 s buffer at t = 0.08 s
        assert re.fullmatch(r"t=0\.08\d*: buffer of user 0 out of range: 3\.9\d*", first)
        assert all(
            re.fullmatch(r"t=[0-9.e-]+: buffer of user 0 out of range: [0-9.e-]+", v)
            for v in report.violations
        )


class TestOwners:
    @pytest.mark.parametrize("owner, level, seg, why", [
        (1, 0, 0, "owner 1 has no video"),
        (0, -1, 0, "level -1 is off the ladder of owner 0"),
        (0, len(LADDER), 0, f"level {len(LADDER)} is off the ladder of owner 0"),
        (0, 0, -1, "segment -1 is outside the video of owner 0"),
        (0, 0, 3, "segment 3 is outside the video of owner 0"),
    ], ids=["non-video-owner", "level-below", "level-past-top",
            "segment-below", "segment-past-end"])
    def test_refused_download(self, owner, level, seg, why):
        """A Download outside the owners' videos and ladders is refused: a
        violation, a re-poll one epoch later, no transfer, no exception."""
        polls = []

        def bad_choice(state, profiles):
            if state.user == 1:
                polls.append(state.now)
                return online.Download(owner=owner, level=level, seg_index=seg)
            return online.Wait(10.0)

        profiles = (make_profile(0, video_segments=3), make_profile(1, video_segments=0))
        report = run_simulation(SimConfig(
            horizon=3.0, profiles=profiles,
            capacity=CapacityTrace.constant([0, 1], 1.0, 3.0),
            encounters=EncounterTrace.full([0, 1], 3.0), scheduler=bad_choice,
        ))
        assert polls == [0.0, 1.0, 2.0]
        assert report.violations == [f"t={t}: {why}" for t in polls]
        assert report.downloads == {0: [], 1: []} and report.deliveries == 0

    def test_nan_wait_is_refused(self):
        """A Wait(nan) is refused like a bad Download: a violation and a
        re-poll one epoch later, so the user keeps deciding."""
        polls = []

        def nan_wait(state, profiles):
            polls.append(state.now)
            return online.Wait(float("nan"))

        report = run_simulation(SimConfig(
            horizon=3.0, profiles=(make_profile(0, video_segments=3),),
            capacity=CapacityTrace.constant([0], 1.0, 3.0),
            encounters=EncounterTrace.none(3.0), scheduler=nan_wait,
        ))
        assert polls == [0.0, 1.0, 2.0]
        assert report.violations == [f"t={t}: wait of nan from user 0" for t in polls]

    @pytest.mark.parametrize("decision, why", [
        (online.Download(owner=0, level=0.5, seg_index=0),
         "non-integer owner, level or segment (0, 0.5, 0) by 0"),
        (online.Download(owner=0, level=True, seg_index=0),
         "non-integer owner, level or segment (0, True, 0) by 0"),
        (online.Download(owner=0, level=0, seg_index=0.5),
         "non-integer owner, level or segment (0, 0, 0.5) by 0"),
        (online.Download(owner=0, level=0, seg_index=True),
         "non-integer owner, level or segment (0, 0, True) by 0"),
        (online.Download(owner=0.0, level=0, seg_index=0),
         "non-integer owner, level or segment (0.0, 0, 0) by 0"),
        (online.Wait("x"), "wait of 'x' from user 0"),
        (online.Wait(None), "wait of None from user 0"),
        (None, "decision None from user 0 is neither a Download nor a Wait"),
        ((0, 0, 0), "decision (0, 0, 0) from user 0 is neither a Download nor a Wait"),
    ], ids=["float-level", "bool-level", "float-segment", "bool-segment", "float-owner",
            "str-wait", "none-wait", "none", "tuple"])
    def test_malformed_decision_is_refused(self, decision, why):
        """A Download whose owner, level or segment is not an int (a bool is
        not one), a Wait whose duration is no real number, and a return that
        is neither a Download nor a Wait are refused: a violation, a re-poll
        one epoch later, no transfer, no exception."""
        polls = []

        def malformed(state, profiles):
            polls.append(state.now)
            return decision

        report = run_simulation(SimConfig(
            horizon=3.0, profiles=(make_profile(0, video_segments=3),),
            capacity=CapacityTrace.constant([0], 1.0, 3.0),
            encounters=EncounterTrace.none(3.0), scheduler=malformed,
        ))
        assert polls == [0.0, 1.0, 2.0]
        assert report.violations == [f"t={t}: {why}" for t in polls]
        assert report.downloads == {0: []} and report.deliveries == 0
        assert report.per_user[0]["delivered_segments"] == 0

    def test_negative_and_infinite_waits(self):
        """A negative wait is floored at 1e-6 s; an infinite one ends the
        user's decisions without a violation."""
        polls = []

        def waits(state, profiles):
            polls.append(state.now)
            return online.Wait(-5.0 if len(polls) == 1 else float("inf"))

        report = run_simulation(SimConfig(
            horizon=3.0, profiles=(make_profile(0, video_segments=3),),
            capacity=CapacityTrace.constant([0], 1.0, 3.0),
            encounters=EncounterTrace.none(3.0), scheduler=waits,
        ))
        assert polls == [0.0, 1e-6]
        assert report.violations == []

    def test_idle_helpers_gain_nothing(self):
        """Two idle helpers cannot serve each other, so the run stays within
        the fluid upper bound, which is 0 without a video user."""
        def serve_user_1(state, profiles):
            return online.Download(owner=1, level=0, seg_index=0)

        profiles = (make_profile(0, video_segments=0), make_profile(1, video_segments=0))
        capacity = CapacityTrace.constant([0, 1], 1.0, 20.0)
        encounters = EncounterTrace.full([0, 1], 20.0)
        report = run_simulation(SimConfig(
            horizon=20.0, profiles=profiles, capacity=capacity,
            encounters=encounters, scheduler=serve_user_1,
        ))
        upper = offline.solve_slotted_relaxed(
            offline.SlottedInstance.from_traces(profiles, capacity, encounters, 2.0))
        assert report.deliveries == 0 and report.downloads == {0: [], 1: []}
        assert report.welfare <= upper + model.TOL

    def test_broadcast_holds_owners_only(self):
        """Every snapshot broadcasts the video users only, and no other user
        ever gets a buffer. The decider's throughput samples are its last
        PREDICTION_WINDOW."""
        video = {0, 2}
        windows = []

        def recording(state, profiles):
            assert set(state.buffers) == set(state.next_seg) == video
            assert set(state.last_rates) <= video
            windows.append(len(state.throughput_samples))
            return online.lyapunov_decide(state, profiles)

        profiles = (make_profile(2, video_segments=20),
                    make_profile(1, video_segments=0), make_profile(0, video_segments=20))
        report = run_simulation(SimConfig(
            horizon=40.0, profiles=profiles,
            capacity=CapacityTrace.constant([0, 1, 2], 2.0, 40.0),
            encounters=EncounterTrace.full([0, 1, 2], 40.0), scheduler=recording,
        ))
        assert report.violations == [] and report.per_user[1]["delivered_segments"] == 0
        assert max(windows) == online.PREDICTION_WINDOW


    def test_snapshots_stay_snapshots(self):
        """A state handed to a scheduler keeps what it showed, although the
        simulator shares its mappings between decisions on an unchanged
        state; and a decision at the instant of an accepted Download sees
        that transfer's reservation."""
        seen = []

        def recording(state, profiles):
            copies = tuple(copy.deepcopy(dict(m)) for m in
                           (state.buffers, state.last_rates, state.next_seg))
            decision = online.lyapunov_decide(state, profiles)
            seen.append((state, copies, decision))
            return decision

        profiles = (make_profile(0, video_segments=6, buffer_cap=6.0),
                    make_profile(1, video_segments=0),
                    make_profile(2, video_segments=6, buffer_cap=6.0))
        report = run_simulation(SimConfig(
            horizon=30.0, profiles=profiles,
            capacity=CapacityTrace.constant([0, 1, 2], 1.0, 30.0),
            encounters=EncounterTrace.full([0, 1, 2], 30.0), scheduler=recording,
        ))
        assert report.violations == [] and report.deliveries > 0
        for state, copies, _ in seen:
            assert (dict(state.buffers), dict(state.last_rates), dict(state.next_seg)) == copies
        same_instant = 0
        for (before, _, decision), (after, _, _) in zip(seen, seen[1:]):
            if before.now == after.now and isinstance(decision, online.Download):
                u, k = decision.owner, decision.seg_index
                assert after.buffers[u] == pytest.approx(before.buffers[u] + profiles[0].beta)
                assert after.next_seg[u] != k
                same_instant += 1
        assert same_instant > 0


class TestNextSeg:
    def test_next_seg_across_reserve_ahead_abort_and_delivery(self):
        """``next_seg`` skips segments in flight, stays put when a segment
        ahead of it is reserved or delivered, and falls back to a segment
        whose transfer was aborted."""
        seen = []

        def script(state, profiles):
            seen.append((state.user, state.now, state.next_seg[0]))
            if state.user == 0:  # reserve segment 2, ahead of next_seg 0
                return online.Download(0, 0, 2) if state.now == 0.0 else online.Wait(10.0)
            seg = state.next_seg[0]
            if 0 in state.neighbors and seg is not None:
                return online.Download(owner=0, level=0, seg_index=seg)
            return online.Wait(1.0)

        profiles = (make_profile(0, video_segments=5),
                    make_profile(1, video_segments=0), make_profile(2, video_segments=0))
        # a level-0 segment (0.4 Mbit) takes 2 s; user 2 meets user 0 only
        # until t=1.5, so its transfer of segment 1 is aborted there
        report = run_simulation(SimConfig(
            horizon=5.0, profiles=profiles,
            capacity=CapacityTrace.constant([0, 1, 2], 0.2, 5.0),
            encounters=EncounterTrace(
                intervals={(0, 1): ((0.0, 5.0),), (0, 2): ((0.0, 1.5),)}, horizon=5.0),
            scheduler=script,
        ))
        assert seen == [
            (0, 0.0, 0), (1, 0.0, 0), (2, 0.0, 1),  # 2 and 0 reserved -> 1
            (2, 1.5, 1),  # segment 1 aborted: free again
            (0, 2.0, 1), (1, 2.0, 1),  # 2 and 0 delivered: unchanged
            (2, 2.5, 3), (2, 3.5, 3),  # 1 reserved; 2 delivered -> 3
            (1, 4.0, 3), (2, 4.5, 4),  # 3 reserved (cut at the horizon)
        ]
        assert report.aborts == 1 and report.violations == []
        assert report.per_user[0]["delivered_segments"] == 3


class TestSchedulerChoiceChecks:
    def test_non_neighbour_owner_is_a_violation(self):
        """A Download naming an owner the downloader does not encounter is
        refused and the downloader re-polls one epoch later."""
        calls = []

        def reach(state, profiles):
            calls.append(state.now)
            if len(calls) > 1000:
                raise RuntimeError("simulator made no progress")
            if state.user == 1:
                return online.Download(owner=0, level=0, seg_index=0)
            return online.Wait(10.0)

        profiles = (make_profile(0, video_segments=5), make_profile(1, video_segments=0))
        report = run_simulation(SimConfig(
            horizon=10.0, profiles=profiles,
            capacity=CapacityTrace.constant([0, 1], 1.0, 10.0),
            encounters=EncounterTrace.none(10.0), scheduler=reach,
        ))
        assert report.violations == [
            f"t={float(t)}: owner 0 is not a neighbour of 1" for t in range(10)
        ]
        assert report.downloads == {0: [], 1: []}
        assert report.aborts == 0

    def test_encountered_helper_is_not_a_neighbour(self):
        """Neighbours are the decider plus the owners in range: a helper
        that every user encounters shows up in no other user's
        ``neighbors``, and a Download naming it is refused as a
        non-neighbour, with a re-poll one epoch later."""
        seen = []

        def name_helper(state, profiles):
            seen.append((state.user, state.now, state.neighbors))
            if state.user == 2:
                return online.Download(owner=1, level=0, seg_index=0)
            return online.Wait(10.0)

        profiles = (make_profile(0, video_segments=3), make_profile(1, video_segments=0),
                    make_profile(2, video_segments=0))
        report = run_simulation(SimConfig(
            horizon=3.0, profiles=profiles,
            capacity=CapacityTrace.constant([0, 1, 2], 1.0, 3.0),
            encounters=EncounterTrace.full([0, 1, 2], 3.0), scheduler=name_helper,
        ))
        polls = [t for n, t, _ in seen if n == 2]
        assert polls == [0.0, online.DEFAULT_EPOCH, 2 * online.DEFAULT_EPOCH]
        assert report.violations == [f"t={t}: owner 1 is not a neighbour of 2" for t in polls]
        assert {(n, nbrs) for n, _, nbrs in seen} == {(0, (0,)), (1, (0, 1)), (2, (0, 2))}
        assert report.downloads == {0: [], 1: [], 2: []}


class TestReportShape:
    def test_dict_round_trips_through_json(self):
        report = run_simulation(single_user_config(rate=2.0, horizon=30.0))
        blob = json.loads(json.dumps(report.to_dict()))
        assert set(blob) >= {"config", "welfare", "sw_estimated",
                             "avg_bitrate_mbps", "rebuffer_s", "deliveries",
                             "drops", "aborts", "per_user", "downloads",
                             "violations", "gap"}
        assert blob["config"]["scheduler"] == "lyapunov"

    def test_per_user_breakdown_totals(self):
        report = run_simulation(single_user_config(rate=2.0, horizon=60.0))
        assert report.per_user[0]["payoff"] == pytest.approx(report.welfare)


class TestGapVsUpperBound:
    def test_tight_on_easy_single_user_instance(self):
        # the 80-segment budget binds both the run and the fluid bound, so
        # the bound is valid and the drift policy should land close to it
        config = single_user_config(rate=3.0, horizon=200.0, segments=80)
        report = run_simulation(config)
        instance = offline.SlottedInstance.from_traces(
            config.profiles, config.capacity, config.encounters, slot_len=5.0)
        gap = gap_vs_upper_bound(report, instance)
        upper = offline.solve_slotted_relaxed(instance)
        assert gap == pytest.approx((upper - report.sw_estimated) / abs(upper))
        assert 0.0 <= gap <= 0.15

    def test_zero_upper_bound_guarded(self):
        config = single_user_config(rate=0.0, horizon=10.0)
        report = run_simulation(config)
        instance = offline.SlottedInstance.from_traces(
            config.profiles, config.capacity, config.encounters, slot_len=5.0)
        assert gap_vs_upper_bound(report, instance) == 0.0
