import gc
import itertools
import math
import random
import sys

import pytest

from crowdstream import cli, model, offline, traces
from crowdstream.model import UserProfile
from crowdstream.offline import (
    SlottedInstance, SolverBudgetError,
    bound_certificate, brute_force_segmented, slotted_walk, solve_slotted_exact,
    solve_slotted_relaxed,
)


def make_profile(n=0, segs=2, ladder=(0.2, 0.7), **kw):
    base = dict(id=n, beta=2.0, buffer_cap=max(2.0, segs * 2.0), ladder=ladder,
                video_segments=segs)
    base.update(kw)
    return UserProfile(**base)


def one_user_instance(capacity_per_slot, *, n_slots=2, slot_len=4.0, **prof_kw):
    prof = make_profile(**prof_kw)
    return SlottedInstance(
        profiles=(prof,), slot_len=slot_len, n_slots=n_slots,
        capacity=(tuple(capacity_per_slot),), encounter=frozenset(),
    )


def valued(inst, schedule):
    """The welfare and breakdowns ``slotted_walk`` gives a schedule in
    which it finds no violations."""
    violations, welfare, bds = slotted_walk(inst, schedule)
    assert violations == []
    return welfare, bds


class TestEvalSlottedWelfare:
    def test_all_zero_schedule_stall_only(self):
        inst = one_user_instance([8.0, 8.0, 8.0], n_slots=3, phi_rebuf=0.5)
        welfare, bds = valued(inst, {})
        # empty buffer stalls the full slot length in slots 2 and 3
        assert welfare == pytest.approx(-0.5 * 4.0 * 2)
        assert bds[0].rebuffer_s == pytest.approx(8.0)

    def test_single_segment_value_minus_energy(self):
        inst = one_user_instance([8.0, 8.0], c_time=0.05, c_data=0.02)
        sched = {(0, 0, 0, 1): 1}  # one segment at 0.7 in slot 1
        welfare, _ = valued(inst, sched)
        cell = 0.05 * (1.4 / 8.0) * 4.0 + 0.02 * 1.4
        assert welfare == pytest.approx(2 * math.log(1.7) - cell)

    def test_within_slot_ascending_order_is_free(self):
        inst = one_user_instance([8.0], n_slots=1, phi_qdeg=5.0)
        sched = {(0, 0, 0, 0): 1, (0, 0, 0, 1): 1}
        welfare, bds = valued(inst, sched)
        assert bds[0].qdeg_loss == 0.0

    def test_downswitch_across_slots_charged(self):
        inst = one_user_instance([8.0, 8.0], phi_qdeg=1.0)
        sched = {(0, 0, 0, 1): 1, (1, 0, 0, 0): 1}
        _, bds = valued(inst, sched)
        assert bds[0].qdeg_loss == pytest.approx(0.5)

    def test_empty_slot_carries_high_rate_forward(self):
        inst = one_user_instance([8.0, 8.0, 8.0], n_slots=3, phi_qdeg=1.0,
                                 phi_rebuf=0.0)
        sched = {(0, 0, 0, 1): 1, (2, 0, 0, 0): 1}
        _, bds = valued(inst, sched)
        assert bds[0].qdeg_loss == pytest.approx(0.5)  # 0.7 -> (gap) -> 0.2

    def test_reads_the_schedule_twice(self):
        """The key check and the one walk that checks and values the
        schedule each read the counts once."""
        class Counted(dict):
            reads = 0

            def items(self):
                self.reads += 1
                return super().items()

        inst = one_user_instance([8.0, 8.0], c_time=0.05)
        kappa = Counted({(0, 0, 0, 1): 1, (1, 0, 0, 0): 1})
        slotted_walk(inst, kappa)
        assert kappa.reads == 2

    def test_infeasible_schedule_rejected(self):
        inst = one_user_instance([1.0, 1.0])
        sched = {(0, 0, 0, 1): 1}  # needs 1.4 Mbit in a 1 Mbit slot
        got, welfare, bds = slotted_walk(inst, sched)
        assert [v.kind for v in got] == ["capacity"]
        assert (welfare, bds) == (None, {})


class TestFeasibility:
    def test_zero_schedule_feasible(self):
        inst = one_user_instance([4.0, 4.0])
        assert slotted_walk(inst, {})[0] == []

    def test_capacity_violation(self):
        inst = one_user_instance([4.0, 4.0])
        sched = {(0, 0, 0, 1): 3}  # 4.2 Mbit > 4
        got = slotted_walk(inst, sched)[0]
        assert any(v.kind == "capacity" for v in got)

    def test_encounter_violation(self):
        profs = (make_profile(0, segs=2), make_profile(1, segs=2))
        inst = SlottedInstance(profiles=profs, slot_len=4.0, n_slots=1,
                               capacity=((8.0,), (8.0,)), encounter=frozenset())
        sched = {(0, 1, 0, 0): 1}  # user 1 downloads for 0, no encounter
        got = slotted_walk(inst, sched)[0]
        assert any(v.kind == "encounter" for v in got)

    def test_budget_violation(self):
        inst = one_user_instance([8.0], n_slots=1, segs=1)
        sched = {(0, 0, 0, 0): 2}
        got = slotted_walk(inst, sched)[0]
        assert any(v.kind == "duplicate" for v in got)

    def test_buffer_violation(self):
        inst = one_user_instance([8.0], n_slots=1, segs=3, buffer_cap=2.0)
        sched = {(0, 0, 0, 0): 3}  # 6 s of content, cap 2 s
        got = slotted_walk(inst, sched)[0]
        assert any(v.kind == "buffer" for v in got)

    def test_sub_tol_volume_in_zero_capacity_slot_is_feasible(self):
        """Its volume passes the capacity check, so the walk reports
        nothing, and values it with no cellular time in the empty slot."""
        inst = one_user_instance([0.0, 1.0], ladder=(1e-12,), c_time=0.1, c_data=0.3)
        welfare, bds = valued(inst, {(0, 0, 0, 0): 1})
        assert bds[0].cell_energy == 0.3 * (1 * 1e-12 * 2.0)  # data only
        assert welfare == bds[0].payoff and math.isfinite(welfare)

    @pytest.mark.parametrize("capacity", [0.0, 1e-15, 1e-12])
    def test_capacity_within_tol_charges_no_cellular_time(self, capacity):
        """A slot of capacity at or below ``TOL`` is valued as one of
        capacity 0, the rule by which ``_slot_vars`` gives it no download:
        the sub-``TOL`` volume's share of it costs no cellular time."""
        inst = one_user_instance([capacity], n_slots=1, ladder=(1e-12,), c_time=0.1)
        welfare, bds = valued(inst, {(0, 0, 0, 0): 1})
        assert bds[0].cell_energy == 0.0

    def test_every_feasible_schedule_is_valued_where_capacity_is_zero(self):
        """Seeded two-user instances with zero-capacity slots and ladders
        down to 1e-12: each schedule the walk finds no violations in gets
        a finite welfare, the ordered sum of its users' payoffs, also when
        it carries a volume within ``TOL`` in a slot of capacity 0."""
        rng = random.Random("zero-capacity")
        feasible = in_empty_slot = 0
        for _ in range(400):
            ladder = rng.choice([(1e-12,), (1e-12, 0.5), (1e-11, 1e-10, 0.7)])
            caps = [[rng.choice([0.0, 0.0, 1.0, 3.0]) for _ in range(3)] for _ in range(2)]
            inst = two_user_instance(caps, [rng.randint(0, 3), 3], [0, 2], ladder=ladder,
                                     c_time=0.1, c_data=0.02, phi_rebuf=0.3, phi_qdeg=0.5)
            keys = [(t, n, m, z) for t in range(3) for n in range(2) for m in range(2)
                    for z in range(len(ladder))]
            sched = {k: rng.choice([0, 1, 1, 2, 3]) for k in rng.sample(keys, rng.randint(1, 4))}
            got, welfare, bds = slotted_walk(inst, sched)
            if got:
                continue
            feasible += 1
            in_empty_slot += any(c and not inst.capacity[n][t] for (t, n, _, _), c in sched.items())
            assert math.isfinite(welfare)
            assert welfare == model.ordered_sum(bd.payoff for bd in bds.values())
        assert (feasible, in_empty_slot) == (104, 46)

    @pytest.mark.parametrize("key, count", [
        ((5, 0, 0, 0), 1),    # slot past the 3-slot horizon
        ((-1, 0, 0, 0), 1),   # negative slot (would index the last one)
        ((1.0, 0, 0, 0), 1),  # slot that is not an integer
        ((0, 1, 0, 0), 1),    # downloader outside the instance
        ((0, 0, 1, 0), 1),    # owner outside the instance
        ((0, 0, 0, 7), 1),    # level past the 2-rung ladder
        ((0, 0, 0, -1), 1),   # negative level (would index the top rung)
        ((0, 0, 0, 0), 0.5),  # count that is not a whole number
    ], ids=["slot-past-end", "slot-negative", "slot-float", "downloader",
            "owner", "level-past-top", "level-negative", "count-fraction"])
    def test_malformed_entry_is_a_violation(self, key, count):
        inst = one_user_instance([8.0, 8.0, 8.0], n_slots=3, segs=2)
        got, welfare, bds = slotted_walk(inst, {key: count})
        assert [v.kind for v in got] == ["segment"]
        assert (welfare, bds) == (None, {})


def enumerate_slotted_optimum(inst):
    """Oracle: the best welfare over every slotted schedule in which no
    owner receives more segments than its video has. Each is checked and
    valued by ``slotted_walk``."""
    per_owner = []
    for m, prof in enumerate(inst.profiles):
        keys = [(t, n, m, z) for t in range(inst.n_slots) for n in range(inst.n_users)
                for z in range(len(prof.ladder))]
        per_owner.append([
            {k: c for k, c in zip(keys, counts) if c}
            for counts in itertools.product(range(prof.video_segments + 1), repeat=len(keys))
            if sum(counts) <= prof.video_segments
        ])
    best = -math.inf
    for parts in itertools.product(*per_owner):
        sched = {k: c for part in parts for k, c in part.items()}
        got, welfare, _ = slotted_walk(inst, sched)
        if not got:
            best = max(best, welfare)
    return best


def two_user_instance(caps, segs, encounter, **prof_kw):
    profiles = tuple(make_profile(n, segs=s, **prof_kw) for n, s in enumerate(segs))
    return SlottedInstance(
        profiles=profiles, slot_len=4.0, n_slots=len(caps[0]),
        capacity=tuple(tuple(row) for row in caps),
        encounter=frozenset((0, 1, t) for t in encounter),
    )


class TestSolveSlottedExact:
    def test_matches_exhaustive_enumeration(self):
        inst = one_user_instance([3.0], n_slots=1, segs=3, c_time=0.05, c_data=0.02,
                                 phi_rebuf=0.3)
        res = solve_slotted_exact(inst)
        assert res.welfare == pytest.approx(enumerate_slotted_optimum(inst))
        assert slotted_walk(inst, res.schedule)[0] == []

    @pytest.mark.parametrize("inst", [
        # a 2 s cap holds one segment of three the link could fetch at once
        one_user_instance([3.0, 2.0], segs=3, buffer_cap=2.0, c_time=0.05,
                          phi_rebuf=0.3, phi_qdeg=0.5),
        one_user_instance([1.5, 0.5], segs=2, ladder=(0.2, 0.4), c_data=0.02,
                          phi_rebuf=0.2),
        # two owners meet in slot 1 only; the caps bind
        two_user_instance([[3.0, 0.2], [1.0, 3.0]], [2, 2], [1], buffer_cap=2.0,
                          c_time=0.05, w_data=0.01, phi_qdeg=0.5, phi_rebuf=0.3),
        # a helper with no video fetches for a capped owner in both slots
        two_user_instance([[0.2, 0.6], [3.0, 3.0]], [3, 0], [0, 1], buffer_cap=2.0,
                          c_data=0.02, phi_rebuf=0.2),
    ], ids=["one-user-cap-binds", "one-user", "two-owners-cap-binds", "helper-cap-binds"])
    def test_matches_exhaustive_enumeration_over_two_slots(self, inst):
        res = solve_slotted_exact(inst)
        assert slotted_walk(inst, res.schedule)[0] == []
        assert valued(inst, res.schedule)[0] == pytest.approx(res.welfare)
        assert res.welfare == pytest.approx(enumerate_slotted_optimum(inst))

    def test_zero_capacity_stall_only(self):
        inst = one_user_instance([0.0, 0.0], segs=1, phi_rebuf=0.5)
        res = solve_slotted_exact(inst)
        assert res.schedule == {}
        assert res.welfare == pytest.approx(-0.5 * 4.0)

    def test_helper_downloads_for_starved_user(self):
        video = make_profile(0, segs=1, phi_rebuf=0.0)
        helper = make_profile(1, segs=0, c_data=0.1, w_data=0.1)
        inst = SlottedInstance(
            profiles=(video, helper), slot_len=4.0, n_slots=1,
            capacity=((0.0,), (8.0,)), encounter=frozenset({(0, 1, 0)}),
        )
        res = solve_slotted_exact(inst)
        assert res.welfare > 0
        assert any(n == 1 and m == 0 for (_, n, m, _), c in res.schedule.items() if c)

    def test_helper_declines_when_energy_exceeds_gain(self):
        video = make_profile(0, segs=1, phi_rebuf=0.0)
        helper = make_profile(1, segs=0, c_data=10.0)
        inst = SlottedInstance(
            profiles=(video, helper), slot_len=4.0, n_slots=1,
            capacity=((0.0,), (8.0,)), encounter=frozenset({(0, 1, 0)}),
        )
        res = solve_slotted_exact(inst)
        assert res.schedule == {}

    def test_node_budget_error_carries_incumbent(self):
        inst = one_user_instance([8.0, 8.0, 8.0], n_slots=3, segs=3,
                                 ladder=(0.2, 0.4, 0.7, 1.3))
        with pytest.raises(SolverBudgetError) as err:
            solve_slotted_exact(inst, node_budget=15)
        # counts ascend, so the first leaf, the incumbent here, downloads nothing
        assert err.value.welfare == 0.0
        assert err.value.solver == "exact"

    def test_recursion_limit_is_a_budget_error(self):
        """One user with one level and more slots than the recursion limit
        allows frames, each slot's variable with two counts: the search
        stops as if out of budget, before any leaf, so with no incumbent."""
        slots = sys.getrecursionlimit() + 100
        inst = one_user_instance([4.0] * slots, n_slots=slots, ladder=(0.2,))
        with pytest.raises(SolverBudgetError, match="recursion limit") as err:
            solve_slotted_exact(inst)
        assert err.value.solver == "exact"
        assert err.value.welfare is None


class TestSolveSlottedRelaxed:
    def test_upper_bounds_exact(self):
        for caps in ([3.0, 1.0], [0.5, 0.5], [8.0, 0.0]):
            inst = one_user_instance(caps, segs=2, c_time=0.05, c_data=0.02,
                                     phi_rebuf=0.2, phi_qdeg=0.5)
            exact = solve_slotted_exact(inst)
            assert solve_slotted_relaxed(inst) >= exact.welfare - 1e-9

    def test_zero_capacity_bound_is_zero(self):
        inst = one_user_instance([0.0, 0.0], segs=1)
        assert solve_slotted_relaxed(inst) == 0.0

    def test_invariant_under_segment_split(self):
        inst = one_user_instance([3.0, 1.0], segs=2, c_time=0.05, c_data=0.02)
        a = solve_slotted_relaxed(inst)
        b = solve_slotted_relaxed(inst.with_split(2))
        assert a == pytest.approx(b, abs=1e-7)

    def test_buffer_cap_limits_bound(self):
        loose = one_user_instance([100.0, 0.0], n_slots=2, segs=10,
                                  buffer_cap=20.0)
        tight = one_user_instance([100.0, 0.0], n_slots=2, segs=10,
                                  buffer_cap=4.0)
        assert solve_slotted_relaxed(tight) < solve_slotted_relaxed(loose) - 1e-6


class TestBruteForceSegmented:
    def test_single_segment_picks_best_level(self):
        prof = make_profile(segs=1, ladder=(0.2, 0.7), c_time=0.05, c_data=0.02)
        cap = traces.CapacityTrace.constant([0], 1.0, 4.0)
        enc = traces.EncounterTrace.none(4.0)
        res = brute_force_segmented((prof,), cap, enc, horizon=4.0)
        options = []
        for rate in prof.ladder:
            dur = rate * 2.0 / 1.0
            options.append(model.quality_value(prof, rate) * 2.0
                           - 0.05 * dur - 0.02 * rate * 2.0)
        assert res.welfare == pytest.approx(max(0.0, *options))

    def test_node_budget_error_names_solver(self):
        prof = make_profile(segs=2)
        cap = traces.CapacityTrace.constant([0], 1.0, 8.0)
        enc = traces.EncounterTrace.none(8.0)
        with pytest.raises(SolverBudgetError) as err:
            brute_force_segmented((prof,), cap, enc, horizon=8.0, node_budget=1)
        assert err.value.solver == "brute"
        assert err.value.welfare == 0.0

    def test_recursion_limit_is_a_budget_error(self):
        """One user with more back-to-back segments than the recursion limit
        allows frames: the search stops as if out of budget, keeping the
        empty-schedule incumbent."""
        segs = sys.getrecursionlimit() + 100
        prof = make_profile(segs=segs, ladder=(0.2,), buffer_cap=2.0 * segs)
        cap = traces.CapacityTrace.constant([0], 10.0, 100.0)
        enc = traces.EncounterTrace.none(100.0)
        with pytest.raises(SolverBudgetError, match="recursion limit") as err:
            brute_force_segmented((prof,), cap, enc, horizon=100.0)
        assert err.value.solver == "brute"
        assert err.value.welfare == 0.0

    def test_empty_horizon(self):
        prof = make_profile(segs=1)
        cap = traces.CapacityTrace.constant([0], 1.0, 1.0)
        enc = traces.EncounterTrace.none(1.0)
        assert brute_force_segmented((prof,), cap, enc, horizon=0.0).welfare == 0.0

    def test_dominates_slotted_optimum(self):
        prof = make_profile(segs=2, c_time=0.05, c_data=0.02, phi_rebuf=0.1,
                            phi_qdeg=0.5)
        cap = traces.CapacityTrace.constant([0], 1.0, 8.0)
        enc = traces.EncounterTrace.none(8.0)
        inst = SlottedInstance.from_traces((prof,), cap, enc, 4.0)
        exact = solve_slotted_exact(inst)
        res = brute_force_segmented((prof,), cap, enc, horizon=8.0)
        assert res.welfare >= exact.welfare - 1e-9

    def test_schedule_is_feasible(self):
        prof = make_profile(segs=2, c_time=0.05)
        cap = traces.CapacityTrace.constant([0], 1.0, 8.0)
        enc = traces.EncounterTrace.none(8.0)
        res = brute_force_segmented((prof,), cap, enc, horizon=8.0)
        assert model.validate_sequences({0: prof}, cap, enc, res.downloads) == []

    def test_transfers_end_by_the_horizon(self):
        """A 10 s trace gives two 4 s slots. The brute force stops at 8 s,
        as the slotted solvers do; a segment over [7, 9] s would lift
        ``middle`` above ``upper``."""
        prof = make_profile(segs=6, ladder=(0.5, 1.0), buffer_cap=8.0)
        cap = traces.CapacityTrace.constant([0], 1.0, 10.0)
        enc = traces.EncounterTrace.none(10.0)
        res = brute_force_segmented((prof,), cap, enc, horizon=8.0)
        assert len(res.downloads[0]) == 6
        assert max(r.t_end for r in res.downloads[0]) <= 8.0
        cert = bound_certificate(SlottedInstance.from_traces((prof,), cap, enc, 4.0), cap, enc)
        assert cert.chain_ok and cert.lower <= cert.middle <= cert.upper + 1e-9

    def test_buffer_cap_delays_second_segment(self):
        # a 2 s buffer holds one segment, so a second segment arriving back
        # to back overflows it; it starts at the t=4 breakpoint instead
        prof = make_profile(segs=2, buffer_cap=2.0, c_time=0.05)
        cap = traces.CapacityTrace(
            users={0: traces.PiecewiseConstant((0.0, 4.0), (1.0, 1.0), 8.0)}, horizon=8.0)
        enc = traces.EncounterTrace.none(8.0)
        res = brute_force_segmented((prof,), cap, enc, horizon=8.0)
        assert [r.t_start for r in res.downloads[0]] == [0.0, 4.0]
        assert model.validate_sequences({0: prof}, cap, enc, res.downloads) == []


class TestSlottedEmbedding:
    def test_back_to_back_embedding_matches_welfare(self):
        # zero stall factor: the slotted and segmented stall accountings
        # differ by construction, everything else must agree exactly
        prof = make_profile(segs=2, ladder=(0.2, 0.7), phi_qdeg=1.0,
                            phi_rebuf=0.0, c_time=0.05, c_data=0.02)
        cap = traces.CapacityTrace.constant([0], 1.0, 8.0)
        enc = traces.EncounterTrace.none(8.0)
        inst = SlottedInstance.from_traces((prof,), cap, enc, 4.0)
        sched = {(0, 0, 0, 1): 1, (1, 0, 0, 0): 1}
        slotted_w, _ = valued(inst, sched)
        records = []
        seg = 0
        for (t, n, m, z), c in sorted(sched.items()):
            start = t * 4.0
            for _ in range(c):
                rate = prof.ladder[z]
                end = cap.invert(0, start, rate * prof.beta)
                records.append(model.SegmentRecord(
                    downloader=0, owner=0, level=z, rate=rate, seg_index=seg,
                    t_start=start, t_end=end))
                start = end
                seg += 1
        downloads = {0: records}
        assert model.validate_sequences({0: prof}, cap, enc, downloads) == []
        segmented_w, _ = model.eval_social_welfare({0: prof}, downloads)
        assert segmented_w == pytest.approx(slotted_w, abs=1e-9)


class TestBoundCertificate:
    def test_chain_on_tiny_instance(self):
        prof = make_profile(segs=3, buffer_cap=8.0, ladder=(0.2, 0.7),
                            phi_qdeg=0.5, phi_rebuf=0.1, c_time=0.05, c_data=0.02)
        cap = traces.CapacityTrace.constant([0], 1.0, 12.0)
        enc = traces.EncounterTrace.none(12.0)
        inst = SlottedInstance.from_traces((prof,), cap, enc, 4.0)
        cert = bound_certificate(inst, cap, enc)
        assert cert.chain_ok
        assert cert.prop1_ok
        assert cert.lower <= cert.middle + 1e-9 <= cert.upper + 2e-9

    def test_dict_wire_keys(self):
        prof = make_profile(segs=1)
        cap = traces.CapacityTrace.constant([0], 1.0, 4.0)
        enc = traces.EncounterTrace.none(4.0)
        inst = SlottedInstance.from_traces((prof,), cap, enc, 4.0)
        d = bound_certificate(inst, cap, enc).to_dict()
        assert set(d) == {"lower", "middle", "upper", "chain_ok", "prop1_ok",
                          "partial", "solver_stats"}
        assert d["partial"] is False


class TestSlottedInstance:
    def test_from_traces_integrates_capacity(self):
        prof = make_profile(segs=1)
        cap = traces.CapacityTrace(users={
            0: traces.PiecewiseConstant((0.0, 2.0), (1.0, 3.0), 8.0)
        }, horizon=8.0)
        enc = traces.EncounterTrace.none(8.0)
        inst = SlottedInstance.from_traces((prof,), cap, enc, 4.0)
        assert inst.capacity[0] == (pytest.approx(8.0), pytest.approx(12.0))

    def test_partial_slot_encounter_excluded(self):
        profs = (make_profile(0, segs=1), make_profile(1, segs=0))
        cap = traces.CapacityTrace.constant([0, 1], 1.0, 8.0)
        enc = traces.EncounterTrace(intervals={(0, 1): ((0.0, 6.0),)}, horizon=8.0)
        inst = SlottedInstance.from_traces(profs, cap, enc, 4.0)
        assert inst.encountered(0, 1, 0)
        assert not inst.encountered(0, 1, 1)

    @pytest.mark.parametrize("n_users, capacity, encounter, match", [
        (1, ((1.0,),), (), "capacity"),                # one slot of three
        (2, ((1.0,) * 3,) * 3, (), "capacity"),        # three rows for two users
        (1, (), (), "capacity"),                       # no row at all
        (2, ((1.0,) * 3,) * 2, ((0, 5, 0),), "encounter"),   # user 5 of two
        (2, ((1.0,) * 3,) * 2, ((1, 0, 0),), "encounter"),   # n > m
        (2, ((1.0,) * 3,) * 2, ((0, 0, 0),), "encounter"),   # a user with itself
        (2, ((1.0,) * 3,) * 2, ((0, 1, 3),), "encounter"),   # slot 3 of three
        (2, ((1.0,) * 3,) * 2, ((0, 1, -1),), "encounter"),  # negative slot
    ], ids=["short-row", "extra-row", "no-row", "unknown-user", "unordered-pair",
            "self-pair", "slot-past-end", "slot-negative"])
    def test_shape_is_checked(self, n_users, capacity, encounter, match):
        """Capacity rows or encounter triples that do not fit the users and
        slots are refused when the instance is built, not met later as an
        ``IndexError`` in a solver or silently ignored."""
        with pytest.raises(ValueError, match=match):
            SlottedInstance(profiles=tuple(make_profile(n) for n in range(n_users)),
                            slot_len=4.0, n_slots=3, capacity=capacity,
                            encounter=frozenset(encounter))

    @pytest.mark.parametrize("slot_len, capacity", [
        (4.0, ((math.nan, 1.0),)),
        (4.0, ((math.inf, 1.0),)),
        (math.inf, ((1.0, 1.0),)),
        (math.nan, ((1.0, 1.0),)),
    ], ids=["capacity-nan", "capacity-inf", "slot-len-inf", "slot-len-nan"])
    def test_non_finite_number_is_refused(self, slot_len, capacity):
        """A NaN or infinite capacity or slot length would reach the
        oracle's and the searches' arithmetic; it is refused here."""
        with pytest.raises(ValueError, match="finite"):
            SlottedInstance(profiles=(make_profile(),), slot_len=slot_len, n_slots=2,
                            capacity=capacity, encounter=frozenset())

    def test_with_split_scales_profiles(self):
        inst = one_user_instance([4.0, 4.0], segs=3)
        half = inst.with_split(2)
        assert half.profiles[0].beta == 1.0
        assert half.profiles[0].video_segments == 6

    def test_from_traces_rejects_zero_slot_length(self):
        cap = traces.CapacityTrace.constant([0], 1.0, 8.0)
        enc = traces.EncounterTrace.none(8.0)
        with pytest.raises(ValueError, match="slot length"):
            SlottedInstance.from_traces((make_profile(segs=1),), cap, enc, 0.0)

    def test_slot_count_limit(self):
        """``MAX_SLOTS`` slots are built; one more is refused before any
        slot is, as is a slot length so small that the count overflows."""
        horizon = float(offline.MAX_SLOTS)
        cap = traces.CapacityTrace.constant([0], 1.0, horizon)
        enc = traces.EncounterTrace.none(horizon)
        users = (make_profile(segs=1),)
        assert SlottedInstance.from_traces(users, cap, enc, 1.0).n_slots == offline.MAX_SLOTS
        for slot_len, count in ((0.5, "20000.0"), (5e-324, "inf")):
            with pytest.raises(ValueError,
                               match=f"^{count} slots exceed the limit of 10000 slots$"):
                SlottedInstance.from_traces(users, cap, enc, slot_len)

    def test_requires_contiguous_ids(self):
        with pytest.raises(ValueError):
            SlottedInstance(profiles=(make_profile(5),), slot_len=4.0, n_slots=1,
                            capacity=((1.0,),), encounter=frozenset())


def _stops(solve, why):
    """Runs ``solve``, which must stop with a budget error whose message
    starts with ``why``."""
    try:
        solve()
    except SolverBudgetError as exc:
        assert str(exc).startswith(why), exc
        return
    pytest.fail("the solve did not stop")


def _with_recursion_limit(limit, solve):
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        solve()
    finally:
        sys.setrecursionlimit(old)


def _solver_calls():
    """One call per path through the solvers, on tiny/5 unless named."""
    from test_acceptance import SLOT, split_profiles, tiny_instance

    profiles, capacity, enc, horizon = tiny_instance(5)
    inst = SlottedInstance.from_traces(profiles, capacity, enc, SLOT)
    slots = sys.getrecursionlimit() + 200
    deep_slots = one_user_instance([4.0] * slots, n_slots=slots, ladder=(0.2,))
    # more back-to-back segments than the lowered limit allows frames
    segs = 500
    deep_brute = (
        (make_profile(segs=segs, ladder=(0.2,), buffer_cap=2.0 * segs),),
        traces.CapacityTrace.constant([0], 10.0, 100.0), traces.EncounterTrace.none(100.0), 100.0)
    spec = cli.ExperimentSpec(n_users=6, video_fraction=0.5, cooperation="trace", horizon=60.0)

    def partial_certificate():
        cert = bound_certificate(inst, capacity, enc, brute_budget=3)
        assert cert.solver_stats["failed_solver"] == "brute"

    return {
        "exact": lambda: solve_slotted_exact(inst),
        "exact-half": lambda: solve_slotted_exact(inst.with_split(2)),
        "exact-budget": lambda: _stops(
            lambda: solve_slotted_exact(inst, node_budget=3), "node budget"),
        "exact-recursion": lambda: _stops(
            lambda: solve_slotted_exact(deep_slots), "recursion limit"),
        "brute": lambda: brute_force_segmented(profiles, capacity, enc, horizon),
        "brute-half": lambda: brute_force_segmented(
            split_profiles(profiles, 2), capacity, enc, horizon),
        "brute-budget": lambda: _stops(lambda: brute_force_segmented(
            profiles, capacity, enc, horizon, node_budget=3), "node budget"),
        "brute-recursion": lambda: _with_recursion_limit(400, lambda: _stops(
            lambda: brute_force_segmented(*deep_brute), "recursion limit")),
        "relaxed": lambda: solve_slotted_relaxed(inst),
        "certificate": lambda: bound_certificate(inst, capacity, enc),
        "certificate-partial": partial_certificate,
        "sim-cell": lambda: cli._run_cell(spec, "lyapunov", 100.0, 0, "trace"),
    }


@pytest.mark.parametrize("path", [
    "exact", "exact-half", "exact-budget", "exact-recursion", "brute", "brute-half",
    "brute-budget", "brute-recursion", "relaxed", "certificate", "certificate-partial",
    "sim-cell"])
def test_solvers_leave_no_cyclic_garbage(path):
    """Each solve frees its search state by reference counting when it
    returns or stops, so many small solves wake no collector pass: after
    one warm call, a second call with the collector off leaves nothing
    for ``gc.collect`` to free."""
    call = _solver_calls()[path]
    call()  # one-time imports and lazy set-up
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()
