"""Golden values for the bound solvers, pinned bit for bit.

For each fixed tiny instance the test pins ``repr`` of the five welfare
figures of a bound certificate (exact slotted optimum at beta and beta/2,
brute-force segmented optimum at beta and beta/2, fluid upper bound) and
the node and leaf counts of the exact and brute-force searches, the
brute force's count of leaves valued, and a digest of each brute-force
witness (the downloads) at beta and beta/2. A family of instances whose
buffer caps bind pins the same for the brute force, and each exact
solve's welfare, counts and schedule digest, and a digest of the slotted
oracle's welfare bits and violations on seeded schedules. One many-user
instance pins the fluid LP's size and ``repr`` of its bound. A change
here means a solver's arithmetic or search order changed, not just its
speed.
"""
import dataclasses
import hashlib
import math
import random

import pytest

from crowdstream import cli, traces
from crowdstream.cli import ExperimentSpec, build_profiles
from crowdstream.model import UserProfile
from crowdstream.offline import (
    SlottedInstance, SolverBudgetError, _fluid_lp, _slot_vars, _solve_lp,
    brute_force_segmented, check_slotted_feasibility, eval_slotted_welfare,
    solve_slotted_exact, solve_slotted_relaxed,
)
from crowdstream.traces import CapacityTrace, EncounterTrace, PiecewiseConstant

SLOT = 4.0
ENERGY = dict(c_time=0.05, c_data=0.02, w_data=0.01)


def build(caps, segs, ladder=(0.2, 0.7), enc_slots=(), buffer_cap=None,
          enc_window=None, beta=2.0, **kw):
    """Users 0..N-1 with per-slot capacities ``caps[n]`` (Mbps) and
    ``segs[n]`` segments of ``beta`` seconds; users 0 and 1 meet in
    ``enc_slots``, or over ``enc_window`` (start, end) when it is given.
    The buffer cap defaults to the whole video, so it cannot bind."""
    n_slots = len(caps[0])
    horizon = n_slots * SLOT
    profiles = tuple(
        UserProfile(id=n, beta=beta,
                    buffer_cap=max(beta, beta * segs[n]) if buffer_cap is None else buffer_cap,
                    ladder=ladder, video_segments=segs[n], **{**ENERGY, **kw})
        for n in range(len(caps))
    )
    capacity = CapacityTrace(users={
        n: PiecewiseConstant(tuple(t * SLOT for t in range(n_slots)),
                             tuple(row), horizon)
        for n, row in enumerate(caps)
    }, horizon=horizon)
    intervals = tuple((t * SLOT, (t + 1) * SLOT) for t in enc_slots)
    if enc_window is not None:
        intervals = (enc_window,)
    enc = EncounterTrace(intervals={(0, 1): intervals} if intervals else {},
                         horizon=horizon)
    return profiles, capacity, enc, horizon


INSTANCES = {
    "solo-2slot": lambda: build([[1.0, 2.0]], [2], phi_qdeg=0.5),
    "solo-3slot-play-energy": lambda: build(
        [[0.5, 1.0, 2.0]], [2], phi_qdeg=0.5, eps_time=0.03, eps_rate=0.02),
    "solo-3slot-rebuf": lambda: build(
        [[2.0, 0.0, 1.0]], [3], ladder=(0.4, 1.3), phi_rebuf=0.1),
    "helper-cross": lambda: build(
        [[0.0, 0.5], [2.0, 1.0]], [2, 0], enc_slots=(0, 1)),
    "pair-partial-encounter": lambda: build(
        [[1.0, 0.0, 2.0], [0.5, 2.0, 0.0]], [1, 1], enc_slots=(1,),
        phi_qdeg=0.5),
    "pair-2slot": lambda: build(
        [[0.5, 1.0], [2.0, 0.5]], [2, 1], ladder=(0.2, 0.4), enc_slots=(0,)),
    # a 2 s cap holds one segment: the link could fetch all three at the
    # top level in slot 0, so every solver must wait for the buffer to drain
    "solo-cap-binds": lambda: build([[4.0, 4.0]], [3], buffer_cap=2.0),
    # the window ends mid-slot: from t=0 the 1 Mbps helper fetches a low
    # segment (0.4 Mbit, ends at 0.4 s) inside it but not a high one
    # (1.4 Mbit, ends at 1.4 s), while the 0.2 Mbps owner has its own
    # end times. No slotted variable sees the window, and the fluid bound
    # (whole-slot encounters only) falls below the brute force here.
    "helper-window-mid-slot": lambda: build(
        [[0.2, 0.2], [1.0, 1.0]], [2, 0], enc_window=(0.0, 1.0)),
    # 0.3 s segments, where k * beta and a running sum of beta can differ
    # in the last bit: all 0.4 Mbit arrive in slot 0, the 0.9 s cap holds
    # three segments (six at beta/2) of the five, and each later slot
    # charges a stall
    "solo-short-segments-cap-binds": lambda: build(
        [[0.1, 0.0]], [5], beta=0.3, buffer_cap=0.9, phi_rebuf=0.1, phi_qdeg=0.5),
}

GOLDEN = {
    'helper-cross': (
        '(1.9685130042486816, 1.9685130042486816, 1.9685130042486816, 1.9685130042486816, 1.9685130042486814)',
        (37, 8, 97, 27, 50, 31, 254, 175),
        (5, 10),
    ),
    'helper-window-mid-slot': (
        '(0.5132862271758185, 0.7265929214440343, 1.0158996157122497, 1.3242063099804657, 0.8545769380049637)',
        (17, 4, 54, 20, 35, 18, 240, 141),
        (3, 15),
    ),
    'pair-2slot': (
        '(1.8948334197272776, 1.8948334197272776, 1.8948334197272776, 1.8948334197272776, 1.8948334197272776)',
        (135, 23, 806, 181, 168, 119, 2467, 1853),
        (11, 68),
    ),
    'pair-partial-encounter': (
        '(1.9965130042486816, 1.9965130042486816, 1.9965130042486816, 1.9965130042486816, 1.9965130042486814)',
        (50, 7, 181, 39, 51, 29, 373, 253),
        (6, 20),
    ),
    'solo-2slot': (
        '(1.9965130042486816, 1.9965130042486816, 1.9965130042486816, 1.9965130042486816, 1.9965130042486814)',
        (19, 5, 38, 12, 25, 15, 109, 71),
        (6, 15),
    ),
    'solo-3slot-play-energy': (
        '(1.8205130042486817, 1.8205130042486817, 1.8205130042486817, 1.8205130042486817, 1.8205130042486815)',
        (35, 7, 91, 24, 40, 25, 216, 147),
        (10, 33),
    ),
    'solo-cap-binds': (
        '(2.0315130042486813, 2.0315130042486813, 2.0315130042486813, 2.0315130042486813, 2.0315130042486818)',
        (23, 8, 69, 35, 91, 47, 1472, 751),
        (4, 11),
    ),
    'solo-short-segments-cap-binds': (
        '(-0.21301859060497616, -0.21301859060497616, 0.049988475318651124, 0.024994237659325562, 0.10934434659257411)',
        (19, 7, 50, 21, 32, 16, 330, 165),
        (15, 164),
    ),
    'solo-3slot-rebuf': (
        '(4.446454737610623, 4.446454737610623, 4.646454737610624, 4.6464547376106236, 4.6464547376106236)',
        (40, 13, 120, 57, 60, 46, 403, 317),
        (7, 22),
    ),
}


# SHA-256 of ``repr`` of each brute-force witness's sorted downloads, at
# beta and at beta/2: the records, their fields and their order per
# downloader. The cap-binding instances pin witnesses found past
# infeasible leaves.
WITNESS_DIGESTS = {
    'helper-cross': (
        '44dfdbe9ae32c1e721920b65445fd45aef647ef2f1e3a227805ee91900a1a66f',
        '4922bcf53ffb70dbea76f5d6a7cce04c29b1ef1ea3dca41df2499a9ed7cec17a',
    ),
    'helper-window-mid-slot': (
        'db26ba655c2818277a3f2cef38b537e00d2beaed3b81fa8d0ffed9498b1b52c7',
        '4f90b7a5cd793f2d5c10f127ff01a36292d226427620094ff2657345146b20f5',
    ),
    'pair-2slot': (
        '3ed983cd7cc6d3ce3e7ceedb4f68ae03d6522b18a5ed33ae6c2f1356e49c4e59',
        '82e838bcc378c19cc2be02b590768898d939a8c8557d13f6373812facdc5c8be',
    ),
    'pair-partial-encounter': (
        'a1da74e260c9da7ba422338e9e948e3ecec3033ad4d5c3c1ac1efbc5af1917c1',
        '3fb8015360fcf8feafa2c8c705ce4fbd6a71e4419035804719e998d946f06a7e',
    ),
    'solo-2slot': (
        '6fe121d6bd3805e75dfefaee729a4dff53e9aa8a4967cfa9bfcf5cf5dd35eb72',
        '89668f119c48793b37c4942cbb154a3510bc33ca79eab9c5db925e524f7bb895',
    ),
    'solo-3slot-play-energy': (
        '5ab0fcfade04a9e0b31f6cd1c24880e4fe2d7e846260b8bc51431c64d4b553bb',
        'c2ac95416a6822c18df5d90dfb326d929cafe4d3fe3007e87f284ce1246595cf',
    ),
    'solo-3slot-rebuf': (
        '69f3d11c387db345454066abbbeb5620f5ffb093692b83bc63c52aa7c1b36992',
        '15790b3a7fcc768b6dbc514898c99168f14a3a4a412a707e02a3f596fc200800',
    ),
    'solo-cap-binds': (
        '5463ffe5210828abb94a2ac78401940df195af6594fdc4f955022812adc542e8',
        'e8a3dc3229b40ad63c5ba8146eb44b379c2e6f2fe4437743cf7beb7224f4a69e',
    ),
    'solo-short-segments-cap-binds': (
        '8f82944b94c1cd5d9270d398621d8b2df58f94a833ee5d46200e0b17248003f8',
        '921cc61224042b3e1d8970217f2d92218d156060fc787452a04bfd6e5afc2a40',
    ),
}


def searches(profiles, capacity, enc, horizon):
    """Exact and brute-force results at beta and beta/2."""
    inst = SlottedInstance.from_traces(profiles, capacity, enc, SLOT)
    half = inst.with_split(2)
    return (solve_slotted_exact(inst), solve_slotted_exact(half),
            brute_force_segmented(profiles, capacity, enc, horizon),
            brute_force_segmented(half.profiles, capacity, enc, horizon))


def pins(results, upper):
    welfare = repr(tuple(r.welfare for r in results) + (upper,))
    counts = tuple(x for r in results for x in (r.nodes, r.leaves))
    return welfare, counts, tuple(r.evaluated for r in results[2:])


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_bound_solvers_golden(name):
    profiles, capacity, enc, horizon = INSTANCES[name]()
    upper = solve_slotted_relaxed(SlottedInstance.from_traces(profiles, capacity, enc, SLOT))
    results = searches(profiles, capacity, enc, horizon)
    assert pins(results, upper) == GOLDEN[name]
    assert tuple(witness_digest(r) for r in results[2:]) == WITNESS_DIGESTS[name]


def witness_digest(result):
    return hashlib.sha256(repr(sorted(result.downloads.items())).encode()).hexdigest()


def capped_instance(seed):
    """The acceptance suite's ``tiny/{seed}`` with each user's buffer cap cut
    to one or two segments, drawn from ``capped/{seed}``. The acceptance
    family's caps hold the whole video and never bind."""
    from test_acceptance import tiny_instance

    profiles, capacity, enc, horizon = tiny_instance(seed)
    rng = random.Random(f"capped/{seed}")
    profiles = tuple(dataclasses.replace(p, buffer_cap=p.beta * rng.choice([1, 2]))
                     for p in profiles)
    return profiles, capacity, enc, horizon


def test_brute_force_golden_where_caps_bind():
    """Seeds 0-59 of the capped family at beta and beta/2: each solve's
    welfare ``repr``, node, leaf and valued-leaf counts and witness digest,
    or, for the 6 solves that exhaust a 20,000-node budget, the incumbent's
    welfare ``repr``, hashed together. Valuing the leaves that overfill a
    buffer changes 35 of the 120 rows, 23 of them in welfare."""
    rows = []
    for seed in range(60):
        profiles, capacity, enc, horizon = capped_instance(seed)
        half = SlottedInstance.from_traces(profiles, capacity, enc, SLOT).with_split(2)
        for users in (profiles, half.profiles):
            try:
                r = brute_force_segmented(users, capacity, enc, horizon, node_budget=20_000)
            except SolverBudgetError as exc:
                rows.append(("budget", repr(exc.welfare)))
                continue
            rows.append((repr(r.welfare), r.nodes, r.leaves, r.evaluated, witness_digest(r)))
    finished = [r for r in rows if r[0] != "budget"]
    assert (len(finished), tuple(sum(r[i] for r in finished) for i in (1, 2, 3))) == (
        114, (56884, 34419, 1006))
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "ee083af83a74d7f3bbf3fa2d676b9f8f0e530172a38f2f377f324cf29efa8cc1")


def test_exact_golden_where_caps_bind():
    """Seeds 0-59 of the capped family at beta and beta/2: each exact
    solve's welfare ``repr``, node and leaf counts and a digest of its
    schedule, hashed together. No benchmark instance binds a cap, so this
    is the pin on the count bound that the owner's buffer room sets: with
    the cap ignored, 46 of the 120 rows change, 45 of them in welfare."""
    rows = []
    for seed in range(60):
        profiles, capacity, enc, horizon = capped_instance(seed)
        inst = SlottedInstance.from_traces(profiles, capacity, enc, SLOT)
        for i in (inst, inst.with_split(2)):
            r = solve_slotted_exact(i)
            rows.append((repr(r.welfare), r.nodes, r.leaves, hashlib.sha256(
                repr(sorted(r.schedule.items())).encode()).hexdigest()))
    assert tuple(sum(r[i] for r in rows) for i in (1, 2)) == (119190, 35729)
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "8f25226919a1a39761666a0a0568a31827f867ddd1fc437a5f6ec680a3fbc4c3")


def test_slotted_oracle_golden():
    """Seeds 0-199 of the capped family, each user's loss factors, playback
    energies and theta drawn from ``oracle/{seed}`` so that few products
    are exact, at beta, beta/2 and beta/3: the exact optimum at beta with
    its counts scaled to the split, the empty schedule and eight schedules
    of one to four random counts in -1..3, each valued by
    ``eval_slotted_welfare`` (``repr`` of the welfare and of every
    breakdown field, or the error) and checked by
    ``check_slotted_feasibility``, hashed together."""
    rows = []
    for seed in range(200):
        profiles, capacity, enc, _ = capped_instance(seed)
        rng = random.Random(f"oracle/{seed}")
        profiles = tuple(dataclasses.replace(
            p, phi_rebuf=rng.choice([0.0, 0.3]), phi_qdeg=rng.choice([0.0, 0.7]),
            theta=rng.choice([1.0, 0.9]), eps_time=0.013, eps_rate=0.0031)
            for p in profiles)
        inst = SlottedInstance.from_traces(profiles, capacity, enc, SLOT)
        optimum = solve_slotted_exact(inst).schedule
        for split in (1, 2, 3):
            i = inst.with_split(split)
            keys = [(t, n, m, z) for t in range(i.n_slots) for n in range(i.n_users)
                    for m in range(i.n_users) for z in range(len(i.profiles[m].ladder))]
            schedules = [{key: split * c for key, c in optimum.items()}, {}] + [
                {k: rng.choice([-1, 0, 1, 1, 2, 3])
                 for k in rng.sample(keys, min(len(keys), rng.randint(1, 4)))}
                for _ in range(8)
            ]
            for schedule in schedules:
                try:
                    welfare, bds = eval_slotted_welfare(i, schedule)
                    valued = repr((welfare, [dataclasses.astuple(bds[m]) for m in sorted(bds)]))
                except ValueError as exc:
                    valued = str(exc)
                rows.append((valued, repr(check_slotted_feasibility(i, schedule))))
    assert (sum(row[1] == "[]" for row in rows), len(rows)) == (2478, 6000)
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "84d7da8f08b5ce85ec459e3d8f42b653e886eb66404de7fa75644ee6e7f5b1d7")


# node budget -> repr of the brute force's incumbent when tiny/2 at beta/2
# runs out of it. 1,000, 10,006 and 100,002 stop at a bound-pruned child
# right after another; the incumbent improves at node 13,045, so 13,044
# and 13,045 stop on either side of it. Recorded before move children were
# settled in their parent's loop.
BUDGET_STOPS = {
    1_000: "5.639905998113438",
    10_006: "5.889686869986372",
    13_044: "5.889686869986372",
    13_045: "6.061467741859305",
    100_002: "6.417029485605172",
}


def test_brute_force_budget_stops_at_the_same_node():
    """A child settled in its parent's loop is counted and checked against
    the budget at the node where its own entry counted it: each budget
    stops with the pinned message and incumbent."""
    from test_acceptance import split_profiles, tiny_instance

    profiles, capacity, enc, horizon = tiny_instance(2)
    half = split_profiles(profiles, 2)
    for budget, welfare in BUDGET_STOPS.items():
        with pytest.raises(SolverBudgetError) as err:
            brute_force_segmented(half, capacity, enc, horizon, node_budget=budget)
        assert (str(err.value), err.value.solver, repr(err.value.welfare)) == (
            f"node budget {budget} exhausted", "brute", welfare)


# node budget -> repr of the exact search's incumbent when tiny/2 at beta/2
# (28,991 nodes) runs out of it. The node past the budget is a variable
# whose count bound is 0 for 1,002 and 5,000, a slot end for 1,004 and
# 5,001, and a count>0 child pruned by its bound test for 1,126 and 5,265;
# the incumbent improves at node 6,889, so 6,888 and 6,889 stop on either
# side of it. Recorded before children were settled in their parent's loop.
EXACT_BUDGET_STOPS = {
    1_002: "3.556612121991823",
    1_004: "3.556612121991823",
    1_126: "3.556612121991823",
    5_000: "5.665492111607898",
    5_001: "5.665492111607898",
    5_265: "5.886839490797135",
    6_888: "6.648248613732239",
    6_889: "6.748682106415936",
}


def test_exact_budget_stops_at_the_same_node():
    """A node the exact search passes through in a loop, or settles in its
    parent's loop, is counted and checked against the budget where its own
    call counted it: each budget stops with the pinned message and
    incumbent."""
    from test_acceptance import tiny_instance

    profiles, capacity, enc, horizon = tiny_instance(2)
    half = SlottedInstance.from_traces(profiles, capacity, enc, SLOT).with_split(2)
    assert solve_slotted_exact(half).nodes == 28_991
    for budget, welfare in EXACT_BUDGET_STOPS.items():
        with pytest.raises(SolverBudgetError) as err:
            solve_slotted_exact(half, node_budget=budget)
        assert (str(err.value), err.value.solver, repr(err.value.welfare)) == (
            f"node budget {budget} exhausted", "exact", welfare)


def test_brute_force_memory_does_not_grow_with_leaves():
    """tiny/234 at beta/3 values 8,008 leaves and makes far more distinct
    receiving walks than the leaf table holds. Its ``tracemalloc`` peak
    stays under 1 MB: about 0.5-0.7 MB with the capped table, 0.07 MB with
    no table, 7.5 MB if the table kept every walk. Counts, welfare and
    witness were recorded with no table."""
    import tracemalloc

    from test_acceptance import split_profiles, tiny_instance

    profiles, capacity, enc, horizon = tiny_instance(234)
    users = split_profiles(profiles, 3)
    tracemalloc.start()
    try:
        r = brute_force_segmented(users, capacity, enc, horizon)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (r.nodes, r.leaves, r.evaluated, repr(r.welfare), witness_digest(r)) == (
        55626, 31816, 8008, "1.571215567939546",
        "17e6c96b3af7a7db12403dffaa0709b311c5578ca5a7921081b0a366bb0ef354")
    assert peak < 1_000_000


def test_searches_keep_no_tables_between_solves():
    """Instance A, then B (same profiles, other capacities, the same
    downloaders and start times), then A again: A's schedules, welfare
    values and counts are the same both times, and equal A's pin."""
    name = "helper-window-mid-slot"
    a = INSTANCES[name]()
    b = build([[0.7, 0.1], [0.3, 2.0]], [2, 0], enc_window=(0.0, 1.0))
    assert a[0] == b[0]
    first = searches(*a)
    other = searches(*b)
    again = searches(*a)
    assert [r.welfare for r in other] != [r.welfare for r in first]
    assert again == first
    upper = solve_slotted_relaxed(SlottedInstance.from_traces(*a[:3], SLOT))
    assert pins(again, upper) == GOLDEN[name]


def test_fluid_bound_golden_on_a_many_user_instance():
    """The scaling spec at 10 users, 200 s, 5 s slots and seed 0: 40 slots
    and 2,135 flows, 1,735 of them between two users. The LP's shape and
    ``upper`` are pinned; the tiny instances above have at most two users
    and three slots."""
    spec = ExperimentSpec(n_users=10, video_fraction=0.2, capacity_range=(0.0, 0.7),
                          cooperation="trace", horizon=200.0)
    profiles = build_profiles(spec)
    ids = [p.id for p in profiles]
    inst = SlottedInstance.from_traces(
        profiles, traces.synth_capacity(ids, spec.horizon, spec.capacity_range, 0),
        traces.synth_encounters(ids, spec.horizon, 0, mode="trace"), 5.0)
    flows = [(n, m) for svars in _slot_vars(inst) for n, m, z in svars]
    assert (inst.n_slots, len(flows), sum(n != m for n, m in flows)) == (40, 2135, 1735)
    cost, ub, eq, bounds = _fluid_lp(inst)
    assert (len(cost), len(bounds)) == (2295, 2295)
    assert [(len(b), len(vals)) for rows, cols, vals, b in (ub, eq)] == [(392, 4426), (80, 2373)]
    assert repr(solve_slotted_relaxed(inst)) == "219.55409877988805"


def linprog_optimum(lp):
    """The reference optimum: ``scipy.optimize.linprog`` with HiGHS on the
    same rows, passed as one ``<=`` and one ``==`` CSR matrix."""
    from scipy import sparse
    from scipy.optimize import linprog

    cost, ub, eq, bounds = lp
    A_ub, A_eq = (sparse.csr_matrix((vals, (rows, cols)), shape=(len(b), len(cost)))
                  for rows, cols, vals, b in (ub, eq))
    res = linprog([-c for c in cost], A_ub=A_ub, b_ub=ub[3], A_eq=A_eq, b_eq=eq[3],
                  bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return float(-res.fun)


def test_milp_solve_keeps_every_linprog_bit():
    """``_solve_lp`` hands HiGHS the matrix that ``linprog`` did, so both give
    ``repr``-equal optima: on the tiny generator's seeds 0-519, on every
    golden instance, and on a 100-slot single-user instance at low and at
    high capacity."""
    from test_acceptance import tiny_instance

    lps = [_fluid_lp(SlottedInstance.from_traces(*tiny_instance(seed)[:3], SLOT))
           for seed in range(520)]
    lps += [_fluid_lp(SlottedInstance.from_traces(*f()[:3], SLOT)) for f in INSTANCES.values()]
    for capacity_range in ((0.0, 0.7), (2.5, 5.0)):
        spec = ExperimentSpec(scenario="single", capacity_range=capacity_range)
        inst = SlottedInstance.from_traces(*cli._cell_traces(spec, 0, "full"), spec.slot_len)
        assert inst.n_slots == 100
        lps.append(_fluid_lp(inst))
    lps = [lp for lp in lps if lp is not None]
    assert len(lps) == 492
    assert [repr(_solve_lp(lp)) for lp in lps] == [repr(linprog_optimum(lp)) for lp in lps]


def test_milp_gets_scipys_canonical_csc_arrays(monkeypatch):
    """``_solve_lp`` builds the CSC arrays that ``scipy.sparse.csc_array``
    builds from ``_fluid_lp``'s triplets, and hands ``milp`` the costs and
    the column and row bounds as float arrays of the same values: on the
    tiny generator's seeds 0-19, every golden instance and a 100-slot
    single-user instance."""
    import numpy as np
    from scipy import optimize, sparse
    from test_acceptance import tiny_instance

    lps = [_fluid_lp(SlottedInstance.from_traces(*tiny_instance(seed)[:3], SLOT))
           for seed in range(20)]
    lps += [_fluid_lp(SlottedInstance.from_traces(*f()[:3], SLOT)) for f in INSTANCES.values()]
    spec = ExperimentSpec(scenario="single")
    lps.append(_fluid_lp(SlottedInstance.from_traces(*cli._cell_traces(spec, 0, "full"),
                                                     spec.slot_len)))
    calls = []
    milp = optimize.milp
    monkeypatch.setattr(optimize, "milp", lambda *a, **kw: calls.append((a, kw)) or milp(*a, **kw))

    def floats(values):
        return np.asarray(values, dtype=float).tobytes()

    for lp in filter(None, lps):
        _solve_lp(lp)
        (c,), kw = calls.pop()
        (lo, hi), rows = kw["bounds"], kw["constraints"]
        cost, ub, eq, bounds = lp
        n_ub = len(ub[3])
        A = sparse.csc_array((ub[2] + eq[2], (ub[0] + [n_ub + r for r in eq[0]], ub[1] + eq[1])),
                             shape=(n_ub + len(eq[3]), len(cost)))
        assert rows.A.shape == A.shape
        assert np.array_equal(rows.A.indptr, A.indptr)
        assert np.array_equal(rows.A.indices, A.indices)
        assert rows.A.data.tobytes() == A.data.tobytes()
        assert all(isinstance(v, np.ndarray) for v in (c, lo, hi))
        assert floats(c) == floats([-v for v in cost])
        assert floats(lo) == floats([v for v, _ in bounds])
        assert floats(hi) == floats([math.inf if v is None else v for _, v in bounds])
        assert floats(rows.lb) == floats([-math.inf] * n_ub + eq[3])
        assert floats(rows.ub) == floats(ub[3] + eq[3])
    assert not calls
