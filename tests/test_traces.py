import gc
import json
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from crowdstream import traces
from crowdstream.traces import (
    CapacityTrace, EncounterTrace, PiecewiseConstant, TraceError,
)


class TestPiecewiseConstant:
    def test_value_at_picks_piece(self):
        pw = PiecewiseConstant((0.0, 5.0), (1.0, 3.0), 10.0)
        assert pw.piece_at(0.0)[0] == 1.0
        assert pw.piece_at(4.999)[0] == 1.0
        assert pw.piece_at(5.0)[0] == 3.0
        assert pw.piece_at(10.0)[0] == 3.0

    def test_piece_at_is_right_open(self):
        pw = PiecewiseConstant((0.0, 5.0), (1.0, 3.0), 10.0)
        assert pw.piece_at(0.0) == (1.0, 5.0)
        assert pw.piece_at(4.999) == (1.0, 5.0)
        assert pw.piece_at(5.0) == (3.0, 10.0)

    def test_last_piece_ends_at_horizon(self):
        pw = PiecewiseConstant((0.0, 5.0), (1.0, 3.0), 10.0)
        assert pw.piece_at(7.5) == (3.0, 10.0)
        assert pw.piece_at(10.0) == (3.0, 10.0)
        # a breakpoint at the horizon starts an empty last piece
        edge = PiecewiseConstant((0.0, 10.0), (1.0, 3.0), 10.0)
        assert edge.piece_at(9.0) == (1.0, 10.0)
        assert edge.piece_at(10.0) == (3.0, 10.0)
        cap = CapacityTrace(users={2: pw}, horizon=10.0)
        assert cap.piece_at(2, 6.0) == (3.0, 10.0)

    @pytest.mark.parametrize("t", [-1e-9, -1.0, 10.000001, 11.0, float("nan")])
    def test_piece_at_outside_horizon_raises(self, t):
        pw = PiecewiseConstant((0.0, 5.0), (1.0, 3.0), 10.0)
        with pytest.raises(TraceError, match="outside horizon"):
            pw.piece_at(t)

    @given(st.lists(st.floats(0.0, 20.0, exclude_min=True), max_size=6, unique=True),
           st.lists(st.floats(0.0, 20.0), min_size=1, max_size=10))
    def test_piece_at_agrees_with_a_scan(self, cuts, queries):
        times = (0.0, *sorted(cuts))
        pw = PiecewiseConstant(times, tuple(float(i) for i in range(len(times))), 20.0)
        for t in queries:
            start = max(i for i, a in enumerate(times) if a <= t)
            until = min((a for a in times if a > t), default=20.0)
            assert pw.piece_at(t) == (float(start), until)

    def test_integrate_across_pieces(self):
        pw = PiecewiseConstant((0.0, 5.0), (1.0, 3.0), 10.0)
        assert pw.integrate(4.0, 6.0) == pytest.approx(1.0 + 3.0)
        assert pw.integrate(0.0, 10.0) == pytest.approx(5.0 + 15.0)
        assert pw.integrate(2.0, 2.0) == 0.0

    def test_invert_rectangle(self):
        pw = PiecewiseConstant((0.0,), (2.3,), 100.0)
        assert pw.invert(1.0, 4.6) == pytest.approx(3.0)

    def test_invert_two_piece(self):
        pw = PiecewiseConstant((0.0, 5.0), (1.0, 3.0), 10.0)
        assert pw.invert(4.0, 4.0) == pytest.approx(6.0)

    def test_invert_zero_volume(self):
        pw = PiecewiseConstant((0.0,), (1.0,), 10.0)
        assert pw.invert(3.0, 0.0) == 3.0

    def test_invert_insufficient_capacity(self):
        pw = PiecewiseConstant((0.0,), (1.0,), 10.0)
        assert pw.invert(8.0, 5.0) is None

    def test_invert_through_dead_zone(self):
        pw = PiecewiseConstant((0.0, 2.0, 4.0), (1.0, 0.0, 1.0), 10.0)
        assert pw.invert(1.0, 2.0) == pytest.approx(5.0)

    def test_rejects_bad_breakpoints(self):
        with pytest.raises(TraceError):
            PiecewiseConstant((1.0,), (1.0,), 10.0)
        with pytest.raises(TraceError):
            PiecewiseConstant((0.0, 3.0, 2.0), (1.0, 1.0, 1.0), 10.0)
        with pytest.raises(TraceError):
            PiecewiseConstant((0.0,), (-1.0,), 10.0)

    @pytest.mark.parametrize("times, values, horizon", [
        ((0.0,), (float("nan"),), 10.0),
        ((0.0,), (float("inf"),), 10.0),
        ((0.0, float("nan")), (1.0, 1.0), 10.0),
        ((0.0,), (1.0,), float("inf")),
        ((0.0,), (1.0,), float("nan")),
    ], ids=["nan-rate", "inf-rate", "nan-breakpoint", "inf-horizon", "nan-horizon"])
    def test_rejects_non_finite(self, times, values, horizon):
        with pytest.raises(TraceError, match="must be finite"):
            PiecewiseConstant(times, values, horizon)

    def test_rejects_out_of_horizon_queries(self):
        pw = PiecewiseConstant((0.0,), (1.0,), 10.0)
        with pytest.raises(TraceError):
            pw.piece_at(11.0)
        with pytest.raises(TraceError):
            pw.integrate(-1.0, 2.0)

    @given(st.floats(0, 10), st.floats(0, 10))
    def test_integral_additivity(self, a, b):
        pw = PiecewiseConstant((0.0, 3.0, 7.0), (1.0, 0.5, 2.0), 10.0)
        lo, hi = sorted((a, b))
        mid = (lo + hi) / 2
        assert pw.integrate(lo, hi) == pytest.approx(
            pw.integrate(lo, mid) + pw.integrate(mid, hi)
        )

    @given(st.floats(0, 5), st.floats(0.01, 5))
    def test_invert_is_inverse_of_integrate(self, start, volume):
        pw = PiecewiseConstant((0.0, 3.0), (1.0, 2.0), 20.0)
        end = pw.invert(start, volume)
        assert end is not None
        assert pw.integrate(start, end) == pytest.approx(volume, abs=1e-9)

    @given(st.sets(st.integers(1, 20), max_size=6), st.lists(st.integers(0, 3), min_size=7),
           st.integers(0, 20), st.integers(0, 20), st.integers(0, 40))
    def test_integrate_and_invert_match_a_scan(self, cuts, rate_steps, i, j, k):
        """Breakpoints and rates on a half grid, so every integral is exact:
        zero-rate pieces, and a breakpoint at the horizon, come up often."""
        times = (0.0, *sorted(c / 2 for c in cuts))
        rates = tuple(r / 2 for r in rate_steps[:len(times)])
        pieces = list(zip(times, (*times[1:], 10.0), rates))
        pw = PiecewiseConstant(times, rates, 10.0)
        t1, t2 = sorted((i / 2, j / 2))
        assert pw.integrate(t1, t2) == sum(
            r * (min(e, t2) - max(a, t1)) for a, e, r in pieces if min(e, t2) > max(a, t1))
        volume, done, want = k / 4, 0.0, None if k else t1
        for a, e, r in pieces:
            lo = max(a, t1)
            if want is None and r > 0 and e > lo and done + r * (e - lo) >= volume:
                want = lo + (volume - done) / r
            done += r * max(0.0, e - lo)
        got = pw.invert(t1, volume)
        assert (got is None) == (want is None)
        assert got == pytest.approx(want, abs=1e-9)


class TestCapacityTrace:
    def test_constant_factory(self):
        cap = CapacityTrace.constant([0, 1], 2.0, 10.0)
        assert cap.rate_at(1, 5.0) == 2.0
        assert cap.integrate(0, 0.0, 10.0) == pytest.approx(20.0)

    def test_breakpoints_union(self):
        cap = CapacityTrace(users={
            0: PiecewiseConstant((0.0, 4.0), (1.0, 2.0), 10.0),
            1: PiecewiseConstant((0.0, 6.0), (1.0, 2.0), 10.0),
        }, horizon=10.0)
        assert cap.breakpoints() == [0.0, 4.0, 6.0, 10.0]

    def test_json_round_trip(self):
        cap = CapacityTrace.constant([0, 1], 2.5, 10.0)
        again = CapacityTrace.from_dict(json.loads(json.dumps(cap.to_dict())))
        assert again.rate_at(0, 3.0) == 2.5
        assert again.horizon == 10.0

    def test_from_dict_refuses_a_user_named_twice(self):
        """``"0"`` and ``"00"`` both name user 0; neither listing wins."""
        spec = {"times": [0.0], "rates": [1.0]}
        with pytest.raises(TraceError, match="^capacity user 0 is listed twice$"):
            CapacityTrace.from_dict({"horizon": 10.0, "users": {"0": spec, "00": spec}})


class TestEncounterTrace:
    def test_self_always_encountered(self):
        enc = EncounterTrace.none(10.0)
        assert enc.encountered(0, 0, 5.0)
        assert enc.holds(0, 0, 0.0, 10.0)

    def test_interval_membership(self):
        enc = EncounterTrace(intervals={(0, 1): ((2.0, 5.0),)}, horizon=10.0)
        assert enc.encountered(0, 1, 3.0)
        assert enc.encountered(1, 0, 5.0)
        assert not enc.encountered(0, 1, 6.0)
        assert enc.holds(0, 1, 2.0, 5.0)
        assert not enc.holds(0, 1, 2.0, 5.5)

    def test_next_break(self):
        enc = EncounterTrace(intervals={(0, 1): ((2.0, 5.0),)}, horizon=10.0)
        assert enc.next_break(0, 1, 3.0) == 5.0
        assert enc.next_break(0, 1, 6.0) == 6.0  # not encountered now
        assert enc.next_break(0, 0, 3.0) is None

    def test_full_and_none(self):
        full = EncounterTrace.full([0, 1, 2], 10.0)
        assert full.holds(0, 2, 0.0, 10.0)
        assert not EncounterTrace.none(10.0).encountered(0, 1, 0.0)

    @pytest.mark.parametrize("ivs, horizon", [
        (((float("nan"), 2.0),), 10.0),
        (((1.0, float("nan")),), 10.0),
        (((1.0, 2.0),), float("inf")),
        (((1.0, 2.0),), float("nan")),
    ], ids=["nan-start", "nan-end", "inf-horizon", "nan-horizon"])
    def test_rejects_non_finite(self, ivs, horizon):
        with pytest.raises(TraceError):
            EncounterTrace(intervals={(0, 1): ivs}, horizon=horizon)

    def test_rejects_unordered_pair_key(self):
        with pytest.raises(TraceError):
            EncounterTrace(intervals={(1, 0): ((0.0, 1.0),)}, horizon=10.0)

    def test_json_round_trip(self):
        enc = EncounterTrace(intervals={(0, 1): ((2.0, 5.0), (7.0, 9.0))}, horizon=10.0)
        again = EncounterTrace.from_dict(json.loads(json.dumps(enc.to_dict())))
        assert again.encountered(0, 1, 8.0)
        assert not again.encountered(0, 1, 6.0)

    def test_from_dict_refuses_a_repeated_pair(self):
        """A pair listed twice would keep only its last listing's windows."""
        blob = {"horizon": 10.0, "pairs": [{"users": [0, 1], "intervals": [[0, 2]]},
                                           {"users": [0, 1], "intervals": [[5, 6]]}]}
        with pytest.raises(TraceError, match=r"^encounter pair \(0, 1\) is listed twice$"):
            EncounterTrace.from_dict(blob)

    def test_windows_are_stored_once(self):
        """A trace keeps its windows only in ``intervals``: building one over
        2,000 pairs of 3 windows each allocates under 4 KB that it keeps
        (a second copy of the starts and ends would keep over 400 KB)."""
        intervals = {(0, m): ((0.0, 1.0), (2.0, 3.0), (4.0, 5.0)) for m in range(1, 2001)}
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            enc = EncounterTrace(intervals=intervals, horizon=10.0)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert enc.holds(0, 2000, 4.0, 5.0)
        assert kept < 4096

    @pytest.mark.parametrize("ivs", [
        ((5.0, 6.0), (1.0, 2.0)),  # out of start order
        ((0.0, 4.0), (3.0, 8.0)),  # overlapping
        ((0.0, 4.0), (4.0, 8.0), (6.0, 7.0)),  # nested in an earlier one
    ])
    def test_rejects_unordered_or_overlapping_intervals(self, ivs):
        with pytest.raises(TraceError, match="start order and disjoint"):
            EncounterTrace(intervals={(0, 1): ivs}, horizon=10.0)
        blob = {"horizon": 10.0, "pairs": [{"users": [0, 1], "intervals": ivs}]}
        with pytest.raises(TraceError):
            EncounterTrace.from_dict(blob)

    def test_touching_intervals_accepted(self):
        enc = EncounterTrace(intervals={(0, 1): ((0.0, 4.0), (4.0, 8.0))}, horizon=10.0)
        assert enc.encountered(0, 1, 4.0)
        assert enc.holds(0, 1, 4.0, 8.0)
        assert enc.holds(0, 1, 1.0, 4.0)
        assert not enc.holds(0, 1, 3.0, 5.0)  # no single window covers it

    def test_next_break_at_touch_point_is_first_window(self):
        enc = EncounterTrace(intervals={(0, 1): ((0.0, 4.0), (4.0, 8.0))}, horizon=10.0)
        assert enc.next_break(0, 1, 4.0) == 4.0  # the window ending at 4
        assert enc.next_break(1, 0, 4.0 + 1e-12) == 8.0
        assert enc.next_break(0, 1, 3.0) == 4.0
        assert enc.next_break(0, 1, 9.0) == 9.0
        unbounded = EncounterTrace(intervals={(0, 1): ((0.0, 4.0), (4.0, 10.0))}, horizon=10.0)
        assert unbounded.next_break(0, 1, 4.0) == 4.0
        assert unbounded.next_break(0, 1, 5.0) is None

    @given(st.lists(st.integers(0, 20), max_size=8), st.integers(0, 20), st.integers(0, 20))
    def test_bisect_queries_match_linear_scan(self, cuts, i, j):
        """Queries on sorted windows, touching or zero-length ones included,
        agree with a scan that takes the first window containing t, asked
        either way round; a pair with no windows is never encountered."""
        pts = sorted(c / 2 for c in cuts)
        ivs = tuple(zip(pts[::2], pts[1::2]))
        enc = EncounterTrace(intervals={(0, 1): ivs} if ivs else {}, horizon=10.0)
        t1, t2 = i / 2, j / 2
        containing = [b for a, b in ivs if a <= t1 <= b]
        want = t1 if not containing else (None if containing[0] >= 10.0 else containing[0])
        for n, m in ((0, 1), (1, 0)):
            assert enc.encountered(n, m, t1) == bool(containing)
            assert enc.holds(n, m, t1, t2) == any(a <= t1 and t2 <= b for a, b in ivs)
            assert enc.next_break(n, m, t1) == want
        for n, m in ((0, 2), (2, 1)):
            assert not enc.encountered(n, m, t1)
            assert not enc.holds(n, m, t1, t2)
            assert enc.next_break(n, m, t1) == t1

    @given(st.lists(st.integers(0, 20), max_size=10), st.lists(st.booleans(), min_size=10),
           st.integers(0, 20))
    def test_encountered_is_holds_on_a_point(self, cuts, keep, i):
        """Kept windows run between consecutive cut points, so neighbouring
        ones touch and a repeated cut gives a zero-length one."""
        pts = sorted(c / 2 for c in cuts)
        ivs = tuple(iv for iv, kept in zip(zip(pts, pts[1:]), keep) if kept)
        enc = EncounterTrace(intervals={(0, 1): ivs} if ivs else {}, horizon=10.0)
        t = i / 2
        assert enc.encountered(0, 1, t) == enc.holds(0, 1, t, t) == any(
            a <= t <= b for a, b in ivs)


SESSIONS_CSV = """user_id,hotspot_id,login_s,logout_s
0,ap1,0,10
1,ap1,5,20
2,ap2,0,30
1,ap2,25,28
"""

VIEWING_CSV = """user_id,video_id,seg_index,seg_len_s,bitrate_mbps,download_s
0,v1,0,2.0,1.3,2.0
0,v1,1,2.0,1.3,1.0
1,v2,0,2.0,0.7,4.0
"""


class TestIngestion:
    def test_sessions_parse(self, tmp_path):
        p = tmp_path / "sessions.csv"
        p.write_text(SESSIONS_CSV)
        recs = traces.read_sessions_csv(p)
        assert len(recs) == 4
        assert recs[0].hotspot_id == "ap1"

    def test_sessions_parse_error_has_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("user_id,hotspot_id,login_s,logout_s\n0,ap1,zzz,10\n")
        with pytest.raises(TraceError, match="bad.csv:2"):
            traces.read_sessions_csv(p)

    @pytest.mark.parametrize("read, text, where", [
        (traces.read_viewing_csv, VIEWING_CSV + "1,v2,1,2.0,zzz,4.0\n", ":5: bad viewing record"),
        (traces.read_viewing_csv, VIEWING_CSV + "1,v2,1,2.0,nan,4.0\n", ":5: bad viewing record"),
        (traces.read_viewing_csv, VIEWING_CSV + "1,v2,1,2.0,0.7,inf\n", ":5: bad viewing record"),
        (traces.read_sessions_csv, SESSIONS_CSV + "3,ap1,nan,10\n", ":6: bad session record"),
        (traces.read_sessions_csv, SESSIONS_CSV + "3,ap1,0,inf\n", ":6: bad session record"),
    ], ids=["viewing-unparsed", "viewing-nan", "viewing-inf", "session-nan", "session-inf"])
    def test_bad_row_names_kind_and_line(self, tmp_path, read, text, where):
        p = tmp_path / "log.csv"
        p.write_text(text)
        with pytest.raises(TraceError, match=where):
            read(p)

    def test_overlap_rule(self, tmp_path):
        p = tmp_path / "sessions.csv"
        p.write_text(SESSIONS_CSV)
        enc = traces.encounters_from_sessions(traces.read_sessions_csv(p))
        # users 0 and 1 overlap on ap1 during [5, 10]
        assert enc.holds(0, 1, 5.0, 10.0)
        assert not enc.encountered(0, 1, 12.0)
        # users 1 and 2 overlap on ap2 during [25, 28]
        assert enc.encountered(1, 2, 26.0)
        # users 0 and 2 never share a hotspot
        assert not enc.encountered(0, 2, 5.0)

    @pytest.mark.parametrize("horizon, intervals", [
        (30.0, {(0, 1): ((6.0, 10.0),), (1, 2): ((25.0, 28.0),)}),
        (8.0, {(0, 1): ((6.0, 8.0),)}),
        (6.0, {}),  # [6, 6] has no length
        (5.0, {}),  # the overlap starts after the horizon
        (26.0, {(0, 1): ((6.0, 10.0),), (1, 2): ((25.0, 26.0),)}),
    ])
    def test_overlap_clipped_to_horizon(self, horizon, intervals):
        records = [
            traces.SessionLogRecord(0, "ap1", 0.0, 10.0),
            traces.SessionLogRecord(1, "ap1", 6.0, 20.0),
            traces.SessionLogRecord(2, "ap2", 0.0, 30.0),
            traces.SessionLogRecord(1, "ap2", 25.0, 28.0),
        ]
        enc = traces.encounters_from_sessions(records, horizon=horizon)
        assert enc.horizon == horizon
        assert dict(enc.intervals) == intervals

    def test_overlap_before_time_zero_clipped(self):
        records = [
            traces.SessionLogRecord(0, "ap1", -8.0, -2.0),
            traces.SessionLogRecord(1, "ap1", -6.0, 4.0),
            traces.SessionLogRecord(2, "ap1", -4.0, 3.0),
        ]
        enc = traces.encounters_from_sessions(records, horizon=10.0)
        assert dict(enc.intervals) == {(1, 2): ((0.0, 3.0),)}

    @pytest.mark.parametrize("horizon", [0.0, -1.0, float("nan")])
    def test_non_positive_horizon_rejected(self, horizon):
        records = [traces.SessionLogRecord(0, "ap1", 0.0, 10.0),
                   traces.SessionLogRecord(1, "ap1", 6.0, 20.0)]
        with pytest.raises(TraceError, match="horizon must be positive"):
            traces.encounters_from_sessions(records, horizon=horizon)

    @pytest.mark.parametrize("records", [
        [], [traces.SessionLogRecord(0, "ap1", -5.0, 0.0)],
    ], ids=["no-sessions", "no-logout-after-0"])
    def test_derived_horizon_must_be_positive(self, records):
        with pytest.raises(TraceError, match="session log .* gives no horizon"):
            traces.encounters_from_sessions(records)

    def test_viewing_throughput_pieces(self, tmp_path):
        p = tmp_path / "viewing.csv"
        p.write_text(VIEWING_CSV)
        cap = traces.capacity_from_viewing_log(traces.read_viewing_csv(p))
        assert cap.rate_at(0, 0.0) == pytest.approx(1.3)   # 2.6 Mbit / 2 s
        assert cap.rate_at(0, 2.5) == pytest.approx(2.6)   # 2.6 Mbit / 1 s
        assert cap.rate_at(1, 1.0) == pytest.approx(0.35)  # 1.4 Mbit / 4 s

    def test_viewing_empty_rejected(self):
        with pytest.raises(TraceError):
            traces.capacity_from_viewing_log([])


class TestSynthetic:
    def test_capacity_deterministic(self):
        a = traces.synth_capacity([0, 1], 100.0, (0.5, 2.0), seed=7)
        b = traces.synth_capacity([0, 1], 100.0, (0.5, 2.0), seed=7)
        assert a.to_dict() == b.to_dict()
        c = traces.synth_capacity([0, 1], 100.0, (0.5, 2.0), seed=8)
        assert a.to_dict() != c.to_dict()

    def test_capacity_rates_within_jitter_band(self):
        cap = traces.synth_capacity([0], 200.0, (1.0, 2.0), seed=1)
        for rate in cap.users[0].values:
            assert 0.5 * 1.0 <= rate <= 1.5 * 2.0

    def test_encounters_modes(self):
        full = traces.synth_encounters([0, 1], 50.0, 0, mode="full")
        assert full.holds(0, 1, 0.0, 50.0)
        none = traces.synth_encounters([0, 1], 50.0, 0, mode="none")
        assert not none.encountered(0, 1, 10.0)
        with pytest.raises(TraceError):
            traces.synth_encounters([0, 1], 50.0, 0, mode="sometimes")

    def test_encounter_trace_deterministic(self):
        a = traces.synth_encounters([0, 1, 2], 200.0, 3, mode="trace")
        b = traces.synth_encounters([0, 1, 2], 200.0, 3, mode="trace")
        assert a.to_dict() == b.to_dict()

    def test_bundle_round_trip(self):
        cap = traces.synth_capacity([0, 1], 60.0, (0.5, 1.0), seed=2)
        enc = traces.synth_encounters([0, 1], 60.0, 2, mode="trace")
        blob = json.dumps(traces.traces_to_dict(cap, enc))
        cap2, enc2 = traces.traces_from_dict(json.loads(blob))
        assert cap2.to_dict() == cap.to_dict()
        assert enc2.to_dict() == enc.to_dict()
