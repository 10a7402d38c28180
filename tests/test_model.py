import math

import pytest
from hypothesis import given, strategies as st

from crowdstream import model, traces
from crowdstream.model import SegmentRecord, UserProfile

LADDER = (0.2, 0.4, 0.7, 1.3, 2.3)


def make_profile(**kw):
    base = dict(id=0, beta=2.0, buffer_cap=40.0, ladder=LADDER, video_segments=10)
    base.update(kw)
    return UserProfile(**base)


def rec(rate, t_end, seg_index=0, *, owner=0, downloader=0, t_start=None, **kw):
    if t_start is None:
        t_start = max(0.0, t_end - 1.0)
    level = LADDER.index(rate) if rate in LADDER else 0
    return SegmentRecord(downloader=downloader, owner=owner, level=level, rate=rate,
                         seg_index=seg_index, t_start=t_start, t_end=t_end, **kw)


class TestUserProfile:
    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError):
            make_profile(beta=0.0)

    def test_rejects_buffer_smaller_than_segment(self):
        with pytest.raises(ValueError):
            make_profile(buffer_cap=1.0, beta=2.0)

    def test_rejects_unsorted_ladder(self):
        with pytest.raises(ValueError):
            make_profile(ladder=(0.7, 0.2))

    def test_rejects_negative_factors(self):
        with pytest.raises(ValueError):
            make_profile(phi_rebuf=-1.0)

    @pytest.mark.parametrize("ladder", [
        (0.0, 0.5), (-1.0, 0.5), (math.nan,), (math.inf,), (0.5, math.inf),
    ])
    def test_rejects_nonpositive_or_nonfinite_rates(self, ladder):
        with pytest.raises(ValueError, match="ladder"):
            make_profile(ladder=ladder)

    @pytest.mark.parametrize("field", [
        "beta", "buffer_cap", "theta", "phi_qdeg", "phi_rebuf", "c_time",
        "c_data", "w_time", "w_data", "eps_time", "eps_rate",
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_nonfinite_numbers(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            make_profile(**{field: value})

    @pytest.mark.parametrize("segs", [2.5, 2.0, math.inf, math.nan, True])
    def test_rejects_non_integer_video_segments(self, segs):
        with pytest.raises(TypeError, match="video_segments must be an integer"):
            make_profile(video_segments=segs)

    def test_rejects_negative_video_segments(self):
        with pytest.raises(ValueError, match="video_segments"):
            make_profile(video_segments=-1)

    def test_video_user_flag(self):
        assert make_profile(video_segments=5).is_video_user
        assert not make_profile(video_segments=0).is_video_user

    def test_round_trip(self):
        p = make_profile(theta=0.5, c_time=0.1)
        assert UserProfile.from_dict(p.to_dict()) == p


class TestSegmentRecord:
    @pytest.mark.parametrize("rate", [-0.5, math.nan, 0.0, math.inf])
    def test_rejects_rate_not_positive_and_finite(self, rate):
        with pytest.raises(ValueError, match="^segment rate must be positive and finite"):
            rec(rate, 1.0)


class TestQualityValue:
    def test_zero_rate(self):
        assert model.quality_value(make_profile(), 0.0) == 0.0

    def test_top_of_ladder(self):
        assert model.quality_value(make_profile(), 2.3) == pytest.approx(math.log(3.3))

    def test_theta_scaling(self):
        assert model.quality_value(make_profile(theta=0.5), 1.3) == pytest.approx(math.log(1.65))

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            model.quality_value(make_profile(), -0.1)

    @given(st.floats(0.0, 10.0), st.floats(0.0, 10.0))
    def test_monotone_in_rate(self, a, b):
        p = make_profile()
        lo, hi = sorted((a, b))
        assert model.quality_value(p, lo) <= model.quality_value(p, hi)


class TestEvalValue:
    def test_empty(self):
        got = model.receiving_walk(make_profile(), ())[0]
        assert got == 0 and type(got) is int  # as an empty ordered_sum

    def test_single_segment(self):
        got = model.receiving_walk(make_profile(), [rec(2.3, 1.0)])[0]
        assert got == pytest.approx(2 * math.log(3.3))

    def test_two_segments(self):
        got = model.receiving_walk(make_profile(), [rec(0.7, 1.0), rec(0.7, 2.0, 1)])[0]
        assert got == pytest.approx(4 * math.log(1.7))


class TestQdegLoss:
    def test_upgrade_is_free(self):
        p = make_profile(phi_qdeg=3.0)
        assert model.receiving_walk(p, [rec(1.3, 1.0), rec(2.3, 2.0, 1)])[1] == 0.0

    def test_single_downswitch(self):
        p = make_profile(phi_qdeg=1.0)
        assert model.receiving_walk(p, [rec(2.3, 1.0), rec(1.3, 2.0, 1)])[1] == pytest.approx(1.0)

    def test_down_then_up(self):
        p = make_profile(phi_qdeg=2.0)
        seq = [rec(2.3, 1.0), rec(0.7, 2.0, 1), rec(1.3, 3.0, 2)]
        assert model.receiving_walk(p, seq)[1] == pytest.approx(3.2)


def peak_and_stall(profile, received):
    """Peak buffer level and stalled seconds of ``received``."""
    walk = model.receiving_walk(profile, received)
    return walk[5], walk[4]


class TestBufferLevels:
    """The buffer trajectory of ``receiving_walk``: each reception drains
    the gap since the one before, down to at most empty, then adds one
    segment of beta = 2 s; the walk reports its peak and the seconds it
    sat empty."""

    def test_out_of_order_arrivals(self):
        # playback order 0..3; segment 2 arrives at t=3 before segment 1 at
        # t=5, so segment 2 adds to the buffer with no drain in between
        p = make_profile()
        seq = [rec(0.7, 1.0, 0), rec(0.7, 5.0, 1), rec(0.7, 3.0, 2), rec(0.7, 6.5, 3)]
        # levels 2; drained 4 s to 0 (2 s stalled) then +2; +2 with a zero
        # gap; 4 - 1.5 + 2
        assert peak_and_stall(p, seq) == (4.5, 2.0)

    def test_empty_sequence(self):
        assert peak_and_stall(make_profile(), []) == (0.0, 0.0)

    def test_partial_drain(self):
        # levels 2, 4, 6, 8, 10, then 10 - 4 + 2
        seq = [rec(0.7, 0.0, k) for k in range(5)] + [rec(0.7, 4.0, 5)]
        assert peak_and_stall(make_profile(), seq) == (10.0, 0.0)

    def test_drained_to_zero(self):
        # levels 2, 2: the 3 s gap empties the buffer 1 s early
        seq = [rec(0.7, 0.0, 0), rec(0.7, 3.0, 1)]
        assert peak_and_stall(make_profile(), seq) == (2.0, 1.0)

    def test_no_playback(self):
        # levels 2, 4, 5.5, 7.5, 9.5
        seq = [rec(0.7, 0.0, 0), rec(0.7, 0.0, 1), rec(0.7, 0.5, 2), rec(0.7, 0.5, 3),
               rec(0.7, 0.5, 4)]
        assert peak_and_stall(make_profile(), seq) == (9.5, 0.0)

    @given(st.lists(st.floats(0, 100), min_size=1, max_size=8), st.floats(0.1, 10))
    def test_result_bounds(self, arrivals, beta):
        # the buffer plays for the span of arrivals less the stalled seconds,
        # and ends with n * beta less that, which is at least beta
        seq = [rec(0.7, t, k) for k, t in enumerate(arrivals)]
        peak, stall = peak_and_stall(make_profile(beta=beta), seq)
        n, span = len(seq), max(arrivals) - arrivals[0]
        assert beta <= peak <= n * beta + 1e-9
        assert max(0.0, span - (n - 1) * beta) - 1e-9 <= stall <= span + 1e-9


def rebuf(profile, received):
    """Rebuffering loss and stall seconds of ``received``."""
    walk = model.receiving_walk(profile, received)
    return walk[2], walk[4]


class TestRebufLoss:
    def test_no_stall(self):
        p = make_profile(phi_rebuf=1.0)
        seq = [rec(0.7, 0.0), rec(0.7, 1.0, 1), rec(0.7, 2.0, 2)]
        assert rebuf(p, seq) == (0.0, 0.0)

    def test_single_stall(self):
        # first arrival leaves q=2; next arrives 3 s later -> 1 s stall
        p = make_profile(phi_rebuf=1.0)
        seq = [rec(0.7, 0.0), rec(0.7, 3.0, 1)]
        assert rebuf(p, seq) == (pytest.approx(1.0), pytest.approx(1.0))

    def test_two_stalls_scaled(self):
        p = make_profile(phi_rebuf=2.0)
        seq = [rec(0.7, 0.0), rec(0.7, 2.5, 1), rec(0.7, 6.0, 2)]
        loss, stall = rebuf(p, seq)
        assert loss == pytest.approx(4.0)
        assert stall == pytest.approx(2.0)

    def test_startup_free(self):
        p = make_profile(phi_rebuf=5.0)
        assert rebuf(p, [rec(0.7, 100.0)]) == (0.0, 0.0)

    def test_out_of_order_arrivals_use_prefix_max(self):
        # segment 1 arrives after segment 2: playback of both waits for it
        p = make_profile(phi_rebuf=1.0)
        seq = [rec(0.7, 0.0), rec(0.7, 10.0, 1), rec(0.7, 4.0, 2)]
        loss, stall = rebuf(p, seq)
        assert stall == pytest.approx(8.0)  # single 8 s wait before segment 1
        assert loss == pytest.approx(8.0)


class TestEnergies:
    def test_cell_energy_example(self):
        p = make_profile(c_time=0.1, c_data=0.05)
        profiles = {0: p}
        d = [rec(1.3, 2.0, t_start=0.0)]
        assert model.transfer_energy(p, d, profiles)[0] == pytest.approx(0.33)

    def test_cell_energy_zero_factors(self):
        p = make_profile()
        assert model.transfer_energy(p, [rec(1.3, 2.0)], {0: p})[0] == 0.0

    def test_wifi_only_for_others(self):
        p = make_profile(w_data=0.5)
        profiles = {0: p, 1: make_profile(id=1)}
        own = [rec(1.3, 1.0, owner=0, downloader=0)]
        cross = [rec(1.3, 1.0, owner=1, downloader=0)]
        assert model.transfer_energy(p, own, profiles)[1] == 0.0
        assert model.transfer_energy(p, cross, profiles)[1] == pytest.approx(0.5 * 2.6)

    def test_wifi_skips_aborted_transfers(self):
        p = make_profile(w_data=0.5)
        profiles = {0: p, 1: make_profile(id=1)}
        aborted = [rec(1.3, 1.0, owner=1, completed=False, delivered=False, mbit=1.0)]
        assert model.transfer_energy(p, aborted, profiles)[1] == 0.0

    def test_play_energy(self):
        p = make_profile(eps_time=0.1, eps_rate=0.2)
        got = model.receiving_walk(p, [rec(1.3, 1.0)])[3]
        assert got == pytest.approx(0.1 * 2 + 0.2 * 1.3 * 2)

    def test_truncated_transfer_charged_pro_rata(self):
        p = make_profile(c_data=1.0)
        r = rec(1.3, 2.0, completed=False, delivered=False, mbit=0.9)
        assert model.transfer_energy(p, [r], {0: p})[0] == pytest.approx(0.9)


class TestReceivingSequences:
    def test_groups_and_sorts_by_playback_order(self):
        profiles = {0: make_profile(), 1: make_profile(id=1)}
        downloads = {
            0: [rec(0.7, 5.0, 1, owner=0)],
            1: [rec(0.7, 2.0, 0, owner=0, downloader=1)],
        }
        got = model.receiving_sequences(profiles, downloads)
        assert [r.seg_index for r in got[0]] == [0, 1]
        assert got[1] == []

    def test_undelivered_excluded(self):
        profiles = {0: make_profile()}
        downloads = {0: [rec(0.7, 1.0, delivered=False)]}
        assert model.receiving_sequences(profiles, downloads)[0] == []

    def test_duplicate_delivery_rejected(self):
        profiles = {0: make_profile()}
        downloads = {0: [rec(0.7, 1.0, 0), rec(1.3, 2.0, 0)]}
        with pytest.raises(model.IntegrityError):
            model.receiving_sequences(profiles, downloads)


class TestSocialWelfare:
    def test_payoff_identity(self):
        p = make_profile(phi_qdeg=0.5, phi_rebuf=1.0, c_time=0.05, c_data=0.02)
        downloads = {0: [rec(2.3, 1.0, 0, t_start=0.0), rec(0.7, 5.0, 1, t_start=4.0)]}
        welfare, bds = model.eval_social_welfare({0: p}, downloads)
        b = bds[0]
        assert welfare == pytest.approx(
            b.value - b.qdeg_loss - b.rebuf_loss
            - b.cell_energy - b.wifi_energy - b.play_energy
        )

    def test_empty_schedule(self):
        welfare, bds = model.eval_social_welfare({0: make_profile()}, {0: []})
        assert welfare == 0.0
        assert bds[0].rebuffer_s == 0.0

    @given(st.lists(st.tuples(st.sampled_from(LADDER), st.floats(0, 50)),
                    min_size=0, max_size=6))
    def test_welfare_identity_random_sequences(self, items):
        p = make_profile(phi_qdeg=0.5, phi_rebuf=0.3, c_time=0.05, c_data=0.02)
        downloads = {0: [
            rec(rate, t, i, t_start=t) for i, (rate, t) in enumerate(items)
        ]}
        welfare, bds = model.eval_social_welfare({0: p}, downloads)
        assert welfare == pytest.approx(sum(b.payoff for b in bds.values()))
        assert bds[0].qdeg_loss >= 0 and bds[0].rebuf_loss >= 0


class TestSuppliedReceivingSequences:
    """Welfare summed as the brute-force leaf sums it, from each user's
    receiving sequence supplied to ``receiving_walk`` and its transfers to
    ``transfer_energy``, through ``payoff_of`` and ``ordered_sum``, is
    ``eval_social_welfare``'s, ``repr`` for ``repr``."""

    @staticmethod
    def check(profiles, downloads):
        received = model.receiving_sequences(profiles, downloads)
        walks = {uid: model.receiving_walk(profiles[uid], seq) for uid, seq in received.items()}
        welfare, breakdowns = model.eval_social_welfare(profiles, downloads)
        payoffs = [
            model.payoff_of(*walks[uid][:4],
                            *model.transfer_energy(profiles[uid], downloads.get(uid, ()), profiles))
            for uid in sorted(profiles)
        ]
        assert [repr(p) for p in payoffs] == [repr(b.payoff) for b in breakdowns.values()]
        assert repr(model.ordered_sum(payoffs)) == repr(welfare)
        return welfare

    def test_brute_force_witnesses_of_the_tiny_family(self):
        """Every witness of tiny seeds 0-39 at beta and beta/2 that finishes
        within 50,000 nodes (all but tiny/2 at beta/2); the search's own
        welfare matches too."""
        from test_acceptance import SLOT, tiny_instance

        from crowdstream.offline import SlottedInstance, SolverBudgetError, brute_force_segmented

        witnesses = 0
        for seed in range(40):
            profiles, capacity, enc, horizon = tiny_instance(seed)
            half = SlottedInstance.from_traces(profiles, capacity, enc, SLOT).with_split(2)
            for users in (profiles, half.profiles):
                try:
                    res = brute_force_segmented(users, capacity, enc, horizon, node_budget=50_000)
                except SolverBudgetError:
                    continue
                welfare = self.check(model.profile_map(users), res.downloads)
                assert repr(res.welfare) == repr(welfare)
                witnesses += 1
        assert witnesses == 79

    @pytest.mark.parametrize("name", ["coop-abort", "coop-helpers", "single-buffer"])
    def test_simulator_reports(self, name):
        """Reports with aborted and dropped records, truncated transfers and
        out-of-order arrivals."""
        from test_sim_golden import GOLDEN

        from crowdstream.sim import run_simulation

        config = GOLDEN[name][0]()
        report = run_simulation(config)
        self.check(model.profile_map(config.profiles), report.downloads)


class TestOrderedSum:
    def test_empty_sum_is_int_zero(self):
        got = model.ordered_sum([])
        assert got == 0 and type(got) is int

    def test_welfare_is_the_left_to_right_sum(self):
        """These payoffs round differently under the compensated summation
        that ``sum`` uses for floats from Python 3.12 on; the welfare is the
        left-to-right sum on every version."""
        profiles = {n: make_profile(id=n) for n in range(3)}
        downloads = {
            n: [rec(rate, 1.0, owner=n, downloader=n)]
            for n, rate in enumerate((0.2, 0.4, 0.2))
        }
        welfare, bds = model.eval_social_welfare(profiles, downloads)
        payoffs = [bds[n].payoff for n in range(3)]
        left_to_right = (payoffs[0] + payoffs[1]) + payoffs[2]
        assert math.fsum(payoffs) != left_to_right
        assert welfare == left_to_right


class TestValidateSequences:
    def setup_method(self):
        self.profiles = {0: make_profile(), 1: make_profile(id=1)}
        self.cap = traces.CapacityTrace.constant([0, 1], 2.0, 100.0)
        self.enc = traces.EncounterTrace.none(100.0)

    def check(self, downloads):
        return model.validate_sequences(self.profiles, self.cap, self.enc, downloads)

    def test_clean_schedule(self):
        downloads = {0: [rec(0.7, 1.0, 0, t_start=0.0), rec(0.7, 2.0, 1, t_start=1.0)]}
        assert self.check(downloads) == []

    def test_overlap_detected(self):
        downloads = {0: [rec(0.7, 2.0, 0, t_start=0.0), rec(0.7, 2.5, 1, t_start=1.0)]}
        assert any(v.kind == "timing" for v in self.check(downloads))

    def test_capacity_violation_detected(self):
        downloads = {0: [rec(2.3, 1.0, 0, t_start=0.0)]}  # 4.6 Mbit in 1 s at 2 Mbps
        assert any(v.kind == "capacity" for v in self.check(downloads))

    def test_encounter_violation_detected(self):
        downloads = {0: [rec(0.7, 1.0, 0, owner=1, t_start=0.0)]}
        assert any(v.kind == "encounter" for v in self.check(downloads))

    def test_buffer_violation_detected(self):
        profiles = {0: make_profile(buffer_cap=2.0)}
        downloads = {0: [rec(0.7, 1.0, 0, t_start=0.0), rec(0.7, 1.5, 1, t_start=1.0)]}
        got = model.validate_sequences(profiles, self.cap, self.enc, downloads)
        assert any(v.kind == "buffer" for v in got)

    def test_only_receptions_above_cap_flagged(self):
        # same out-of-order sequence: levels 2, 2, 4, 4.5, so a 4.2 s cap
        # is exceeded only at the last reception
        profiles = {0: make_profile(buffer_cap=4.2)}
        downloads = {0: [
            rec(0.7, 1.0, 0, t_start=0.0), rec(0.7, 3.0, 2, t_start=2.0),
            rec(0.7, 5.0, 1, t_start=4.0), rec(0.7, 6.5, 3, t_start=5.5),
        ]}
        got = model.validate_sequences(profiles, self.cap, self.enc, downloads)
        assert got == [model.Violation("buffer", 0, "buffer 4.5 exceeds cap 4.2")]

    def test_one_buffer_violation_per_owner_at_its_peak(self):
        # levels 2, 3.5, 5.25: two receptions overfill a 2 s cap, and the
        # owner is named once, with its peak
        profiles = {0: make_profile(buffer_cap=2.0)}
        downloads = {0: [
            rec(0.7, 1.0, 0, t_start=0.0), rec(0.7, 1.5, 1, t_start=1.0),
            rec(0.7, 1.75, 2, t_start=1.5),
        ]}
        fast = traces.CapacityTrace.constant([0], 10.0, 100.0)
        got = model.validate_sequences(profiles, fast, self.enc, downloads)
        assert got == [model.Violation("buffer", 0, "buffer 5.25 exceeds cap 2.0")]

    def test_duplicate_detected(self):
        downloads = {0: [rec(0.7, 1.0, 0, t_start=0.0), rec(0.7, 3.0, 0, t_start=2.0)]}
        assert any(v.kind == "duplicate" for v in self.check(downloads))

    def test_delivery_outside_video_detected(self):
        profiles = {0: make_profile(video_segments=3), 1: make_profile(id=1, video_segments=0)}
        downloads = {
            0: [rec(0.7, 1.0, 3, t_start=0.0), rec(0.7, 2.0, -1, t_start=1.0),
                rec(0.7, 3.0, 4, t_start=2.0, delivered=False),
                rec(0.7, 4.0, 2, t_start=3.0)],
            1: [rec(0.7, 1.0, 0, owner=1, downloader=1, t_start=0.0)],
        }
        got = model.validate_sequences(profiles, self.cap, self.enc, downloads)
        assert got == [
            model.Violation("segment", 0, "delivered segment 3 of user 0, whose video has 3 segments"),
            model.Violation("segment", 0, "delivered segment -1 of user 0, whose video has 3 segments"),
            model.Violation("segment", 1, "delivered segment 0 of user 1, whose video has 0 segments"),
        ]
