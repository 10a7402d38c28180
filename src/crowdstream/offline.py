"""Offline welfare bounds via a virtual time-slotted download schedule.

The slotted scheme plans whole segments per slot instead of asynchronous
transfers. A fluid relaxation (continuous volumes, fluctuation and
rebuffering charges dropped) upper-bounds the asynchronous optimum when
capacity is constant within each slot, encounters cover whole slots and no
buffer cap binds (see ``solve_slotted_relaxed``). That the exact slotted
optimum lower-bounds it is not proven; ``chain_ok`` checks only the order
of the three values. A grid-restricted brute force over asynchronous
segmented schedules gives the middle value on tiny instances.
``slotted_walk``, apart from the searches, checks and values any slotted
schedule; the tests use it as their oracle.

scipy (and with it numpy) loads on the first fluid LP, not with this
module, so the simulator and the searches never pay for it.
"""
from __future__ import annotations

import dataclasses
import math
import numbers
import sys
from dataclasses import dataclass
from typing import Mapping, Sequence

from . import model
from .model import TOL, SegmentRecord, UserProfile, Violation, WelfareBreakdown

EXACT_NODE_BUDGET = 10_000_000  # default node budget of the exact slotted search
BRUTE_NODE_BUDGET = 2_000_000  # default node budget of the segmented brute force
MAX_SLOTS = 10_000  # most slots a slotted instance may have
MAX_LP_COLUMNS = 10_000_000  # most estimated fluid-LP columns it may ask for
LEAF_TABLE_ENTRIES = 1_024  # entries the brute-force leaf table holds before it is cleared


def slot_count(profiles: Sequence[UserProfile], horizon: float, slot_len: float) -> int:
    """The whole slots of ``slot_len`` in ``horizon``; ``ValueError`` for a
    slot length not positive and finite, over ``MAX_SLOTS`` slots or over
    ``MAX_LP_COLUMNS`` LP columns (slots × users² × levels)."""
    if not 0 < slot_len < math.inf:
        raise ValueError("slot length must be positive and finite")
    count = horizon // slot_len
    if count > MAX_SLOTS:  # an inf count, too, which int() cannot take
        raise ValueError(f"{count!r} slots exceed the limit of {MAX_SLOTS} slots")
    levels = max((len(p.ladder) for p in profiles), default=0)
    columns = count * len(profiles) * len(profiles) * levels
    if columns > MAX_LP_COLUMNS:
        raise ValueError(f"{columns:.4g} estimated LP columns exceed the limit "
                         f"of {MAX_LP_COLUMNS:.4g}")
    return int(count)


def __getattr__(name: str):
    # ``linprog`` is imported on first access (PEP 562) and kept as a module
    # global. No crowdstream code calls it: the hook serves only the
    # benchmark harness, whose traced mode wraps ``offline.linprog``, and
    # goes when that span moves to ``_solve_lp``.
    if name == "linprog":
        from scipy.optimize import linprog
        globals()["linprog"] = linprog
        return linprog
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class SolverBudgetError(RuntimeError):
    """Search exhausted its node budget or the interpreter's recursion limit;
    carries the solver's name and the welfare of the best incumbent found
    (None when there is none)."""

    def __init__(self, message: str, solver: str, welfare: float | None):
        super().__init__(message)
        self.solver = solver  # "exact" or "brute"
        self.welfare = welfare


@dataclass(frozen=True)
class SlottedInstance:
    """Profiles plus per-slot capacity (Mbit) and whole-slot encounter flags.

    Users are indexed 0..N-1 in profile order; ``capacity[n][t]`` is the
    integrated cellular capacity of user n in slot t, and ``encounter`` holds
    (n, m, t) triples (n < m) whose encounter covers the entire slot.
    """

    profiles: tuple[UserProfile, ...]
    slot_len: float
    n_slots: int
    capacity: tuple[tuple[float, ...], ...]
    encounter: frozenset[tuple[int, int, int]]

    def __post_init__(self) -> None:
        N, T = len(self.profiles), self.n_slots
        if not 0 < self.slot_len < math.inf:
            raise ValueError("slot length must be positive and finite")
        if T < 0:
            raise ValueError("slot count must be nonnegative")
        if list(p.id for p in self.profiles) != list(range(N)):
            raise ValueError("slotted instances require contiguous user ids 0..N-1")
        if len(self.capacity) != N or any(len(row) != T for row in self.capacity):
            raise ValueError(f"capacity needs {N} rows of {T} slots, one per profile")
        if not all(0 <= h < math.inf for row in self.capacity for h in row):
            raise ValueError("slot capacities must be nonnegative and finite")
        if not all(0 <= n < m < N and 0 <= t < T for n, m, t in self.encounter):
            raise ValueError(f"encounter triples (n, m, t) need 0 <= n < m < {N} "
                             f"and 0 <= t < {T}")

    @property
    def n_users(self) -> int:
        return len(self.profiles)

    def encountered(self, n: int, m: int, t: int) -> bool:
        if n == m:
            return True
        return (min(n, m), max(n, m), t) in self.encounter

    @classmethod
    def from_traces(
        cls,
        profiles: Sequence[UserProfile],
        capacity,
        encounters,
        slot_len: float,
    ) -> "SlottedInstance":
        """The whole slots of ``slot_len`` s in the capacity trace's horizon,
        as ``slot_count`` counts and checks them."""
        profiles = tuple(profiles)
        n_slots = slot_count(profiles, capacity.horizon, slot_len)
        cap = tuple(
            tuple(capacity.integrate(p.id, t * slot_len, (t + 1) * slot_len)
                  for t in range(n_slots))
            for p in profiles
        )
        enc = set()
        for i, a in enumerate(profiles):
            for b in profiles[i + 1:]:
                for t in range(n_slots):
                    if encounters.holds(a.id, b.id, t * slot_len, (t + 1) * slot_len):
                        enc.add((a.id, b.id, t))
        return cls(profiles=profiles, slot_len=slot_len, n_slots=n_slots,
                   capacity=cap, encounter=frozenset(enc))

    def with_split(self, k: int) -> "SlottedInstance":
        """Same instance with every segment split into k equal parts."""
        if k < 1:
            raise ValueError("split factor must be at least 1")
        profiles = tuple(
            dataclasses.replace(p, beta=p.beta / k, video_segments=p.video_segments * k)
            for p in self.profiles
        )
        return dataclasses.replace(self, profiles=profiles)


def _slot_vars(instance: SlottedInstance) -> list[list[tuple[int, int, int]]]:
    """Per slot, the (downloader, owner, level) triples that may carry data:
    the downloader has capacity, the owner is a video user, and the two
    meet for the whole slot. Both slotted solvers use this order."""
    N, profiles = instance.n_users, instance.profiles
    return [
        [
            (n, m, z)
            for n in range(N) if instance.capacity[n][t] > TOL
            for m in range(N)
            if profiles[m].is_video_user and instance.encountered(n, m, t)
            for z in range(len(profiles[m].ladder))
        ]
        for t in range(instance.n_slots)
    ]


def slotted_walk(
    instance: SlottedInstance, schedule: Mapping[tuple[int, int, int, int], int]
) -> tuple[list[Violation], float | None, dict[int, WelfareBreakdown]]:
    """The slotted oracle: a schedule's violations and, when it has none,
    its welfare and per-user breakdowns (else None and {}). The schedule
    maps (slot, downloader, owner, level) to a segment count; an empty
    violation list means feasible.

    A first read checks each key and count alone: a key naming a slot,
    user or level the instance lacks, or a count that is not a whole
    number, is reported as a ``"segment"`` violation, with no other,
    before anything indexes the instance. One walk then sums the Mbit per
    [downloader][slot], the segments per [owner][slot], the value and
    energies per user and the rates received per [owner][slot]. Each
    owner's buffer drains one slot length per slot, then gains the
    playback seconds received in it; a later slot stalls for what its
    starting level lacks of the slot length, only for video users.

    Only a feasible schedule is valued. Cellular time is each used slot's
    share of its capacity; a slot of capacity at or below ``TOL`` is
    skipped, as the capacity check lets through only a volume within
    ``TOL`` there and the exact search plans none (``_slot_vars``). Within
    a slot segments count as played in ascending bitrate order, so quality
    degradation is charged only across successive nonempty slots; an
    empty slot carries the previous high bitrate forward.
    """
    N, T, L = instance.n_users, instance.n_slots, instance.slot_len
    profiles = instance.profiles
    violations: list[Violation] = []
    for key, c in schedule.items():
        t, n, m, z = key
        if not (all(isinstance(i, numbers.Integral) for i in key)
                and t in range(T) and n in range(N) and m in range(N)
                and z in range(len(profiles[m].ladder))):
            violations.append(Violation(
                "segment", n, f"key {key} names a slot, user or level outside the instance"
            ))
        elif not isinstance(c, numbers.Integral):
            violations.append(Violation(
                "segment", n, f"count {c!r} at key {key} is not a whole number of segments"
            ))
    if violations:
        return violations, None, {}
    mbit = [[0.0] * T for _ in range(N)]
    segs = [[0] * T for _ in range(N)]
    slot_rates: list[list[list[float]]] = [[[] for _ in range(T)] for _ in range(N)]
    value, cell, wifi, play = [0.0] * N, [0.0] * N, [0.0] * N, [0.0] * N
    for (t, n, m, z), c in schedule.items():
        owner = profiles[m]
        rate = owner.ladder[z]
        vol = c * rate * owner.beta
        mbit[n][t] += vol
        segs[m][t] += c
        if c < 0:
            violations.append(Violation("capacity", n, f"negative count at slot {t}"))
        elif c > 0:
            if not instance.encountered(n, m, t):
                violations.append(Violation(
                    "encounter", n, f"users {n} and {m} not encountered for all of slot {t}"
                ))
            value[m] += c * model.quality_value(owner, rate) * owner.beta
            cell[n] += profiles[n].c_data * vol
            if m != n:
                wifi[n] += profiles[n].w_data * vol
            play[m] += c * (owner.eps_time * owner.beta + owner.eps_rate * rate * owner.beta)
            slot_rates[m][t].append(rate)  # only the lowest and highest count
    for m, prof in enumerate(profiles):
        if (received := sum(segs[m])) > prof.video_segments:
            violations.append(Violation(
                "duplicate", m,
                f"user {m} receives {received} segments but video has {prof.video_segments}",
            ))
    for n in range(N):
        for t in range(T):
            if mbit[n][t] > instance.capacity[n][t] + TOL:
                violations.append(Violation(
                    "capacity", n,
                    f"slot {t}: {mbit[n][t]} Mbit exceeds capacity {instance.capacity[n][t]}",
                ))
    stalls = []
    for m, prof in enumerate(profiles):
        q = stall = 0.0
        for t, c in enumerate(segs[m]):
            if t and prof.is_video_user:  # q is the level slot t starts from
                stall += max(0.0, L - q)
            q = max(0.0, q - L) + prof.beta * c
            if model.exceeds_cap(q, prof):
                violations.append(Violation(
                    "buffer", m, f"slot {t}: buffer {q} exceeds cap {prof.buffer_cap}"
                ))
        stalls.append(stall)
    if violations:
        return violations, None, {}
    breakdowns: dict[int, WelfareBreakdown] = {}
    welfare = 0.0
    for m, prof in enumerate(profiles):
        for t in range(T):
            if mbit[m][t] > 0 and instance.capacity[m][t] > TOL:
                cell[m] += prof.c_time * (mbit[m][t] / instance.capacity[m][t]) * L
        qdeg = 0.0
        last_high: float | None = None
        for rates in slot_rates[m]:
            if rates:
                if last_high is not None:
                    qdeg += prof.phi_qdeg * max(0.0, last_high - min(rates))
                last_high = max(rates)
        bd = WelfareBreakdown(
            value=value[m], qdeg_loss=qdeg,
            rebuf_loss=prof.phi_rebuf * stalls[m] if prof.is_video_user else 0.0,
            cell_energy=cell[m], wifi_energy=wifi[m], play_energy=play[m],
            rebuffer_s=stalls[m],
        )
        breakdowns[m] = bd
        welfare += bd.payoff
    return violations, welfare, breakdowns


# ---------------------------------------------------------------------------
# Exact slotted optimum: depth-first branch and bound over segment counts
# ---------------------------------------------------------------------------

class _UnreceivedValue(dict):
    """Both searches' remaining-value bound, for one solve: indexed by the
    tuple of each user's received segment count in ``profiles`` order, the
    top-rung segment value times the segments not yet received, summed over
    video users (losses and energies taken as zero). A dict, so a count
    tuple seen before is a lookup without a Python call."""

    def __init__(self, profiles: Sequence[UserProfile]):
        super().__init__()
        self.tops = [(i, p.video_segments, model.quality_value(p, p.ladder[-1]) * p.beta)
                     for i, p in enumerate(profiles) if p.is_video_user]

    def __missing__(self, key: tuple[int, ...]) -> float:
        value = self[key] = model.ordered_sum((segs - key[i]) * top for i, segs, top in self.tops)
        return value


@dataclass(frozen=True)
class ExactResult:
    """The exact search's optimum: its schedule, segment counts keyed by
    (slot, downloader, owner, level) with every zero count left out, its
    welfare, and the nodes and leaves the search made."""

    schedule: dict[tuple[int, int, int, int], int]
    welfare: float
    nodes: int
    leaves: int


def solve_slotted_exact(
    instance: SlottedInstance, node_budget: int = EXACT_NODE_BUDGET
) -> ExactResult:
    """Exact slotted optimum by branch and bound over per-slot segment counts.

    Counts are enumerated in lexicographic (slot, downloader, owner, level)
    order with ascending values and strict incumbent improvement, so the
    returned schedule, a plain dict of its nonzero counts, is the
    lexicographically smallest optimum. A count is
    bounded by the downloader's capacity left in the slot, the owner's
    segments not yet received and the owner's buffer room at the slot's end.

    A node prunes when its optimistic welfare cannot beat the incumbent. A
    node that inherits its parent's state, the count-0 child and the first
    variable of each later slot, inherits that check's pass and skips it;
    it is still counted as a node. One call loops through the nodes with
    one child (a variable whose only count is 0, a slot's end) and
    recurses only into a variable with more counts. Its count>0 children
    are counted, checked against the budget and bound-tested in its loop,
    so the nodes, their order and each test's outcome are those of a
    search that enters every node.
    """
    N, T, L = instance.n_users, instance.n_slots, instance.slot_len
    profiles = instance.profiles
    if T == 0:
        return ExactResult({}, 0.0, 0, 1)

    # Each variable's constants, once per solve: (n, m, z, rate, unit_vol,
    # unit_gain) in _slot_vars order. Alongside, the optimistic value per
    # Mbit achievable in each slot (losses and energy treated as zero keeps
    # the bound admissible).
    var_plan: list[list[tuple]] = []
    slot_density = []
    for t, svars in enumerate(_slot_vars(instance)):
        row, best = [], 0.0
        for n, m, z in svars:
            owner = profiles[m]
            rate = owner.ladder[z]
            best = max(best, model.quality_value(owner, rate) / rate)
            unit_vol = rate * owner.beta
            unit_gain = model.segment_gain(
                owner, profiles[n], rate, unit_vol / instance.capacity[n][t] * L, m != n
            )
            row.append((n, m, z, rate, unit_vol, unit_gain))
        var_plan.append(row)
        slot_density.append(best)
    suffix_cap = [0.0] * (T + 1)
    for t in range(T - 1, -1, -1):
        suffix_cap[t] = suffix_cap[t + 1] + slot_density[t] * model.ordered_sum(
            instance.capacity[n][t] for n in range(N)
        )
    slot_owners = [sorted({var[1] for var in row}) for row in var_plan]

    counts: dict[tuple[int, int, int, int], int] = {}
    received = [0] * N
    nodes, leaves = 1, 0  # the root: slot 0's first variable
    best_welfare, best_kappa = -math.inf, {}
    unreceived_value = _UnreceivedValue(profiles)
    # rates received per [slot][owner]
    slot_rate_buf: list[list[list[float]]] = [[[] for _ in range(N)] for _ in range(T)]
    rooms: dict[tuple[int, float], int] = {}  # (owner, drained level) -> room
    # (user, phi_qdeg, phi_rebuf, is a video user), for a slot's end
    user_losses = [(m, p.phi_qdeg, p.phi_rebuf, p.is_video_user) for m, p in enumerate(profiles)]

    def open_slot(t: int, q: list[float]) -> tuple[list[float], list[int]]:
        """Slot t's capacities and, per owner, the most segments the slot
        may bring: those it lacks, and no more than its room, the largest k
        whose end-of-slot level ``drained + k * beta`` does not overfill (-1
        if none), found by a scan as the cap rule is monotone in the level."""
        limit = [0] * N
        for m in slot_owners[t]:
            owner, drained = profiles[m], max(0.0, q[m] - L)
            if (room := rooms.get((m, drained))) is None:
                room = rooms[m, drained] = next(
                    (k - 1 for k in range(owner.video_segments + 1)
                     if model.exceeds_cap(drained + k * owner.beta, owner)),
                    owner.video_segments)
            limit[m] = min(owner.video_segments - received[m], room)
        return [instance.capacity[n][t] for n in range(N)], limit

    def out_of_budget(why: str = f"node budget {node_budget} exhausted") -> SolverBudgetError:
        return SolverBudgetError(why, "exact", best_welfare if best_welfare > -math.inf else None)

    def search(t: int, i: int, acc: float, rem_cap: list[float], limit: list[int],
               q: list[float], last_high: list[float | None]):
        """Search below a counted node, variable ``i`` of slot ``t`` or the
        slot's end, whose bound check, if it has one, has passed."""
        nonlocal nodes, leaves, best_welfare, best_kappa
        plan, slot_rates = var_plan[t], slot_rate_buf[t]
        while True:  # through nodes with one child
            if i < len(plan):
                n, m, z, rate, unit_vol, unit_gain = plan[i]
                rates = slot_rates[m]
                cmax = int((rem_cap[n] + TOL) // unit_vol)
                if (left := limit[m] - len(rates)) < cmax:
                    cmax = left
                if cmax > 0:
                    break
                if cmax < 0:
                    return  # count 0 already overfills the owner's buffer
                i += 1
            else:  # the slot's end: charge slot-level losses
                total = acc
                for m, phi_qdeg, phi_rebuf, video in user_losses:
                    rates = slot_rates[m]
                    if rates and last_high[m] is not None:
                        total -= phi_qdeg * max(0.0, last_high[m] - min(rates))
                    if video and t >= 1:
                        total -= phi_rebuf * max(0.0, L - q[m])
                if t + 1 == T:
                    leaves += 1
                    if total > best_welfare:
                        best_welfare, best_kappa = total, dict(counts)
                    return
                if total + min(suffix_cap[t + 1], unreceived_value[tuple(received)]) \
                        <= best_welfare + 1e-12:
                    return
                # Slot t + 1's first variable skips its bound check, this one
                # bit for bit: its capacity sum * density + suffix_cap[t + 2]
                # has suffix_cap[t + 1]'s operands; IEEE + and * commute.
                q = [max(0.0, level - L) + len(rates) * p.beta
                     for level, rates, p in zip(q, slot_rates, profiles)]
                last_high = [max(rates) if rates else high
                             for rates, high in zip(slot_rates, last_high)]
                t, i, acc = t + 1, 0, total
                plan, slot_rates = var_plan[t], slot_rate_buf[t]
                rem_cap, limit = open_slot(t, q)
            nodes += 1
            if nodes > node_budget:
                raise out_of_budget()
        key = (t, n, m, z)
        for c in range(cmax + 1):
            nodes += 1
            if nodes > node_budget:
                raise out_of_budget()
            child = acc + c * unit_gain
            if c > 0:
                counts[key] = c
                rem_cap[n] -= unit_vol
                received[m] += 1
                rates.append(rate)
                # Count 0 holds this node's state, checked already; a slot's
                # end has its own check. Rounding is monotone, so child +
                # min(capacity term, remaining value) <= best + 1e-12 holds
                # just when one sum does; the first sum is the cheaper.
                if i + 1 < len(plan) and best_welfare > -math.inf and (
                        child + unreceived_value[tuple(received)] <= best_welfare + 1e-12
                        or child + (model.ordered_sum(rem_cap) * slot_density[t]
                                    + suffix_cap[t + 1]) <= best_welfare + 1e-12):
                    continue
            search(t, i + 1, child, rem_cap, limit, q, last_high)
        del counts[key]
        rem_cap[n] += cmax * unit_vol
        received[m] -= cmax
        del rates[-cmax:]

    try:
        if nodes > node_budget:
            raise out_of_budget()
        q = [0.0] * N
        search(0, 0, 0.0, *open_slot(0, q), q, [None] * N)
    except RecursionError:
        # the search nests a call per variable with more than one count
        raise out_of_budget(f"recursion limit {sys.getrecursionlimit()} exhausted") from None
    finally:
        del search  # it refers to itself: a cycle that would keep the tables until a full GC
    return ExactResult(best_kappa, best_welfare, nodes, leaves)


# ---------------------------------------------------------------------------
# Fluid relaxation upper bound (linear program)
# ---------------------------------------------------------------------------

def _fluid_lp(instance: SlottedInstance) -> tuple | None:
    """The fluid relaxation as plain Python data, or None when no flow can
    carry data: ``(cost, ub, eq, bounds)``, with the welfare per unit of
    each variable, and ``ub`` (A x <= b) and ``eq`` (A x == b) each as
    ``(rows, cols, vals, b)``, COO triplets plus right-hand sides.

    Columns are the flows (Mbit per ``_slot_vars`` triple, in that order),
    then playback seconds p and end-of-slot buffer seconds q per (video
    user, slot) pair. Rows are each downloader's slot capacity, then per
    video user and slot the buffer balance q(t) = q(t-1) - p(t) + playback
    seconds received and p(t) <= q(t-1), then the user's video budget.
    """
    N, T, L = instance.n_users, instance.n_slots, instance.slot_len
    profiles = instance.profiles
    cost: list[float] = []
    by_slot_dl: dict[tuple[int, int], list[int]] = {}
    into: dict[tuple[int, int], list[tuple[int, float]]] = {}  # (owner, slot) -> (flow, rate)
    for t, svars in enumerate(_slot_vars(instance)):
        for n, m, z in svars:
            owner, dl = profiles[m], profiles[n]
            rate = owner.ladder[z]
            by_slot_dl.setdefault((n, t), []).append(len(cost))
            into.setdefault((m, t), []).append((len(cost), rate))
            cost.append(
                model.quality_value(owner, rate) / rate
                - dl.c_time * L / instance.capacity[n][t]
                - dl.c_data
                - (dl.w_data if m != n else 0.0)
                - (owner.eps_time / rate + owner.eps_rate)
            )
    if not cost:
        return None
    ub, eq = ([], [], [], []), ([], [], [], [])

    def add(A, entries, rhs):
        rows, cols, vals, b = A
        r = len(b)
        for c, v in entries:
            rows.append(r); cols.append(c); vals.append(v)
        b.append(rhs)

    for (n, t), js in sorted(by_slot_dl.items()):
        add(ub, [(j, 1.0) for j in js], instance.capacity[n][t])
    # the i-th (video user, slot) pair has p in column P + i and q in Q + i
    pairs = [(m, t) for m in range(N) if profiles[m].is_video_user for t in range(T)]
    P = len(cost)
    Q = P + len(pairs)
    budget: list[tuple[int, float]] = []
    for i, (m, t) in enumerate(pairs):
        flows = into.get((m, t), ())
        entries = [(Q + i, 1.0), (P + i, 1.0)]
        if t > 0:
            entries.append((Q + i - 1, -1.0))
            add(ub, [(P + i, 1.0), (Q + i - 1, -1.0)], 0.0)
        add(eq, entries + [(j, -1.0 / rate) for j, rate in flows], 0.0)
        budget += [(j, 1.0 / rate) for j, rate in flows]
        if t == T - 1 and budget:
            add(ub, budget, profiles[m].video_segments * profiles[m].beta)
            budget = []
    # flows >= 0; p in [0, L], 0 in the first slot since nothing has
    # arrived yet; q in [0, cap]
    bounds = ([(0.0, None)] * P + [(0.0, 0.0 if t == 0 else L) for m, t in pairs]
              + [(0.0, profiles[m].buffer_cap) for m, t in pairs])
    return cost + [0.0] * (2 * len(pairs)), ub, eq, bounds


def _solve_lp(lp: tuple) -> float:
    """Optimum welfare of ``_fluid_lp``'s output, solved by HiGHS through
    ``scipy.optimize.milp`` with no integer variables.

    HiGHS gets the matrix that ``linprog(method="highs")`` would hand it:
    every ``<=`` row, then every ``==`` row, with row bounds ``(-inf, b)``
    and ``(b, b)``, so both give the same optimum bits (a test compares
    them). ``linprog`` is not used because its own input handling costs
    more than the solve on small LPs.

    The CSC arrays are built here: a stable sort by column buckets the
    triplets in their listed order. Rows are listed in ascending order,
    ``<=`` before ``==``, and no row names a column twice, so each column's
    rows come out ascending and distinct: scipy's canonical CSC arrays of
    the triplets (a test compares them). Costs and bounds go to ``milp``
    as float arrays, so it converts no list.
    """
    import numpy as np
    from scipy import sparse
    from scipy.optimize import LinearConstraint, milp

    cost, ub, eq, bounds = lp
    n_ub, n = len(ub[3]), len(cost)
    cols = np.array(ub[1] + eq[1], dtype=np.intp)
    order = np.argsort(cols, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(cols, minlength=n), out=indptr[1:])
    rows = np.array(ub[0] + [n_ub + r for r in eq[0]], dtype=np.intp)
    A = sparse.csc_array((np.array(ub[2] + eq[2])[order], rows[order], indptr),
                         shape=(n_ub + len(eq[3]), n))
    row_lo = np.array([-math.inf] * n_ub + eq[3], dtype=float)
    row_hi = np.array(ub[3] + eq[3], dtype=float)
    col_lo = np.array([lo for lo, _ in bounds], dtype=float)
    col_hi = np.array([math.inf if hi is None else hi for _, hi in bounds], dtype=float)
    res = milp(-np.array(cost), bounds=(col_lo, col_hi),
               constraints=LinearConstraint(A, row_lo, row_hi))
    if res.status != 0:
        raise RuntimeError(f"relaxation LP failed: {res.message}")
    return float(-res.fun)


def solve_slotted_relaxed(instance: SlottedInstance) -> float:
    """Welfare upper bound from the fluid relaxation.

    Segment counts become continuous volumes, and the fluctuation and
    rebuffering charges are dropped (both are nonnegative). Capacity,
    whole-slot encounters, buffer capacity, and video-length budgets are
    kept. The bound does not depend on the segment length.

    It bounds the asynchronous (segmented) optimum only under three
    preconditions: capacity constant within each slot, encounters covering
    whole slots, and a buffer cap that never binds. Otherwise it can fall
    below a feasible schedule: on the golden instance
    ``helper-window-mid-slot``, whose encounter ends mid-slot, ``upper`` is
    0.8546 and the brute-force ``middle`` 1.0159.

    The objective is ``model.segment_gain`` per Mbit, written out per Mbit
    so its float order, and with it the bound's bits, stay as they are;
    a test ties the two together.
    """
    lp = _fluid_lp(instance)
    if lp is None:
        return 0.0  # the solver's optimum would read -0.0
    return _solve_lp(lp)


# ---------------------------------------------------------------------------
# Brute-force segmented oracle (grid-restricted exhaustive search)
# ---------------------------------------------------------------------------

@dataclass
class BruteForceResult:
    welfare: float
    downloads: dict[int, list[SegmentRecord]]
    nodes: int
    leaves: int
    evaluated: int  # leaves whose welfare was computed: each overfills no buffer


def brute_force_segmented(
    profiles: Sequence[UserProfile],
    capacity,
    encounters,
    horizon: float,
    node_budget: int = BRUTE_NODE_BUDGET,
) -> BruteForceResult:
    """Exhaustive search over asynchronous segmented schedules.

    Start times are restricted to the trace breakpoints plus each
    downloader's previous completion time, every transfer runs at full link
    capacity, and it ends by ``horizon`` (within ``TOL``), as the slotted
    solvers' transfers do. The result is a welfare lower bound certificate
    for the asynchronous optimum.

    A node is counted, checked against the budget and tested for a leaf
    before the search state changes. The root and each retire child do
    this on entry; a move child is settled in its parent's loop, which
    reads the remaining-value bound after one more segment for each owner
    once per parent, and changes the state only to value a leaf or to
    expand a child that survives. The nodes are visited in the same order
    and the same float expressions decide them, so counts, budget stops and
    incumbents are those of a search that enters every child.

    A leaf walks each owner's receiving sequence once, with
    ``model.receiving_walk``: its peak level serves the cap test and its
    terms the payoffs, which sum to ``model.eval_social_welfare``'s bits
    without a breakdown object. Each record is made once per solve. An
    owner's walk depends only on its sorted arrivals, so a per-solve table
    keeps it, cleared at ``LEAF_TABLE_ENTRIES`` entries so that memory does
    not grow with the leaves; a kept walk has the bits of a fresh one.
    Transfer energies are summed at each valued leaf: a table keyed by a
    downloader's records costs more to look up than the sum it saves.
    """
    pmap = model.profile_map(profiles)
    ids = sorted(pmap)
    pts = set(capacity.breakpoints()) | set(encounters.breakpoints())
    grid = sorted(t for t in pts if 0 <= t < horizon)
    owners = [(i, m) for i, m in enumerate(ids) if pmap[m].is_video_user]
    nodes = leaves = evaluated = 0
    best_welfare, best_downloads = 0.0, {n: [] for n in ids}

    next_free = {n: 0.0 for n in ids}
    received = [0] * len(ids)  # segments per user, in ``ids`` order
    # (end, downloader, start, owner, level) of each transfer placed so far,
    # per owner in ``ids`` order
    arrived: list[list[tuple[float, int, float, int, int]]] = [[] for _ in ids]

    # Per-solve tables, freed on return. A move's end time, encounter check
    # and gain depend only on (downloader, start, owner, level), and the
    # start times only on the downloader's free time, never on the search
    # state; the remaining bound depends only on the received counts, a
    # leaf's record only on its transfer and its place in playback order,
    # and an owner's walk only on its sorted transfers.
    Move = tuple[int, float, float, tuple[float, int, float, int, int]]
    moves_memo: dict[tuple[int, float], tuple[Move, ...]] = {}
    options_memo: dict[tuple[int, float], tuple[Move, ...]] = {}
    retired: dict[tuple[tuple[int, ...], int], tuple[int, ...]] = {}  # (active, d) -> rest
    unreceived_value = _UnreceivedValue([pmap[m] for m in ids])
    # received counts -> per user, the remaining bound after one more of its
    # segments; None for a user with no segment left to receive
    one_more: dict[tuple[int, ...], list[float | None]] = {}
    records: dict[tuple[int, tuple], SegmentRecord] = {}
    # The leaf table, capped: (owner's position in ``ids``, its sorted
    # arrivals) -> (its payoff terms, None if its buffer overfills; its
    # records in playback order)
    walks: dict[tuple[int, tuple], tuple] = {}
    idle_terms = {n: model.receiving_walk(pmap[n], ())[:4] for n in ids}  # nothing received

    def owner_walk(i: int, m: int, arrivals: tuple) -> tuple:
        """Make ``walks``' entry for owner ``m`` at position ``i``, whose
        transfers, sorted, are ``arrivals``."""
        seq = []
        for k, arrival in enumerate(arrivals):
            rec = records.get((k, arrival))
            if rec is None:
                end, n, start, _, z = arrival
                rec = records[k, arrival] = SegmentRecord(
                    downloader=n, owner=m, level=z, rate=pmap[m].ladder[z], seg_index=k,
                    t_start=start, t_end=end)
            seq.append(rec)
        walk = model.receiving_walk(pmap[m], seq)
        # the peak; the cap rule is monotone in the level
        terms = None if model.exceeds_cap(walk[5], pmap[m]) else walk[:4]
        if len(walks) == LEAF_TABLE_ENTRIES:
            walks.clear()
        entry = walks[i, arrivals] = (terms, seq)
        return entry

    def leaf():
        """Evaluate the schedule at a leaf; a better feasible one becomes
        the incumbent. Each owner's transfers, sorted, are its receiving
        sequence: segments are numbered in arrival order, which is then
        playback order."""
        nonlocal best_welfare, best_downloads, evaluated
        downloads: dict[int, list[SegmentRecord]] = {n: [] for n in ids}
        terms = dict(idle_terms)
        for i, m in owners:
            arrivals = tuple(sorted(arrived[i]))
            terms[m], seq = walks.get((i, arrivals)) or owner_walk(i, m, arrivals)
            if terms[m] is None:
                return  # infeasible leaf
            for rec in seq:
                downloads[rec.downloader].append(rec)
        evaluated += 1
        welfare = model.ordered_sum([
            model.payoff_of(*terms[n], *model.transfer_energy(pmap[n], downloads[n], pmap))
            for n in ids])
        if welfare > best_welfare:
            best_welfare, best_downloads = welfare, downloads

    def moves_from(d: int, start: float) -> tuple[Move, ...]:
        """(owner's position in ``ids``, end, gain, arrival) of each
        transfer ``d`` can run from ``start``, by owner, then level; the
        arrival is the tuple ``arrived`` holds."""
        moves = []
        for i, m in owners:
            prof_m = pmap[m]
            for z, rate in enumerate(prof_m.ladder):
                end = capacity.invert(d, start, rate * prof_m.beta)
                if end is None or end > horizon + TOL:
                    continue
                if m != d and not encounters.holds(d, m, start, end):
                    continue
                gain = model.segment_gain(prof_m, pmap[d], rate, end - start, m != d)
                moves.append((i, end, gain, (end, d, start, m, z)))
        return tuple(moves)

    def options_from(d: int, free: float) -> tuple[Move, ...]:
        """The moves of ``d`` free at ``free``: it starts then or at a later
        grid point, before the horizon, in ascending order of start."""
        starts = [free] + [g for g in grid if g > free + TOL]
        options: tuple[Move, ...] = ()
        for start in starts:
            if start >= horizon - TOL:
                break
            moves = moves_memo.get((d, start))
            if moves is None:
                moves = moves_memo[(d, start)] = moves_from(d, start)
            options += moves
        return options

    def after_one_more(key: tuple[int, ...]) -> list[float | None]:
        after: list[float | None] = [None] * len(ids)
        for i, m in owners:
            if key[i] < pmap[m].video_segments:
                after[i] = unreceived_value[key[:i] + (key[i] + 1,) + key[i + 1:]]
        return after

    def out_of_budget() -> SolverBudgetError:
        return SolverBudgetError(f"node budget {node_budget} exhausted", "brute", best_welfare)

    def visit(active: tuple[int, ...], partial: float):
        """Count and settle a node: value it as a leaf, or expand it."""
        nonlocal nodes, leaves
        nodes += 1
        if nodes > node_budget:
            raise out_of_budget()
        if not active or partial + unreceived_value[tuple(received)] <= best_welfare + 1e-12:
            # a leaf: no downloader is left, or even a loss-free completion
            # cannot beat the incumbent
            leaves += 1
            if partial >= best_welfare - TOL:  # welfare is at most partial
                leaf()
            return
        expand(active, partial)

    def expand(active: tuple[int, ...], partial: float):
        """Search below a counted node that is not a leaf: its move
        children, then the child that retires the earliest free downloader."""
        nonlocal nodes, leaves
        # earliest free downloader; ``active`` ascends, so ties go to the
        # smaller id. One or two downloaders need no ``min`` and its key
        # calls: two take the one comparison ``min`` would make.
        if len(active) == 2:
            a, b = active
            d = b if next_free[b] < next_free[a] else a
        else:
            d = active[0] if len(active) == 1 else min(active, key=next_free.__getitem__)
        free = next_free[d]
        options = options_memo.get((d, free))
        if options is None:
            options = options_memo[(d, free)] = options_from(d, free)
        key = tuple(received)
        after = one_more.get(key)
        if after is None:
            after = one_more[key] = after_one_more(key)
        # visit's two incumbent tests, read again once a leaf or a child
        # may have raised the incumbent
        cut, floor = best_welfare + 1e-12, best_welfare - TOL
        for i, end, gain, arrival in options:
            bound = after[i]
            if bound is None:
                continue  # owner i has all its segments
            # visit's count and leaf test for the child, state unchanged
            nodes += 1
            if nodes > node_budget:
                raise out_of_budget()
            child = partial + gain
            if child + bound <= cut:
                leaves += 1
                if child >= floor:
                    arrived[i].append(arrival)
                    leaf()
                    arrived[i].pop()
                    cut, floor = best_welfare + 1e-12, best_welfare - TOL
                continue
            arrived[i].append(arrival)
            next_free[d] = end
            received[i] += 1
            expand(active, child)
            received[i] -= 1
            arrived[i].pop()
            cut, floor = best_welfare + 1e-12, best_welfare - TOL
        next_free[d] = free  # each move set it; only a child reads it
        if (rest := retired.get((active, d))) is None:
            rest = retired[active, d] = tuple(n for n in active if n != d)
        visit(rest, partial)  # retire this downloader

    try:
        visit(tuple(ids), 0.0)
    except RecursionError:
        # the search nests a call per scheduled transfer
        raise SolverBudgetError(
            f"recursion limit {sys.getrecursionlimit()} exhausted", "brute", best_welfare
        ) from None
    finally:
        # they refer to each other: a cycle that would keep the tables until a full GC
        del visit, expand
    return BruteForceResult(best_welfare, best_downloads, nodes, leaves, evaluated)


# ---------------------------------------------------------------------------
# Bound certificate: lower / middle / upper sandwich
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundCertificate:
    """The lower/middle/upper sandwich and the checks on it.

    A partial certificate (``solver_stats["failed_solver"]`` is set) keeps
    every value that finished; ``lower`` may hold an exact-search incumbent
    and ``middle`` a brute-force incumbent. Its checks are false.
    """

    lower: float | None
    upper: float
    middle: float | None
    chain_ok: bool
    prop1_ok: bool  # halving the segment length did not lower the slotted optimum
    solver_stats: dict

    @property
    def partial(self) -> bool:
        return "failed_solver" in self.solver_stats

    def to_dict(self) -> dict:
        return {**vars(self), "partial": self.partial}


def bound_certificate(
    instance: SlottedInstance,
    capacity,
    encounters,
    *,
    include_middle: bool = True,
    exact_budget: int = EXACT_NODE_BUDGET,
    brute_budget: int = BRUTE_NODE_BUDGET,
) -> BoundCertificate:
    """Run the three bound solvers and certify the sandwich ordering.

    The relaxation LP runs first, so its ``RuntimeError`` propagates before
    any search. Then the exact solve at beta, the exact solve at beta/2 and
    the brute force at beta run in that order, and the first one to exhaust
    its budget stops the run: its incumbent goes under ``lower`` (exact) or
    ``middle`` (brute), and the beta/2 incumbent, which bounds nothing at
    beta, is dropped.
    """
    upper = solve_slotted_relaxed(instance)
    solves = [
        ("exact", lambda: solve_slotted_exact(instance, node_budget=exact_budget)),
        ("exact_half", lambda: solve_slotted_exact(
            instance.with_split(2), node_budget=exact_budget)),
    ]
    if include_middle:
        solves.append(("brute", lambda: brute_force_segmented(
            instance.profiles, capacity, encounters,
            instance.n_slots * instance.slot_len, node_budget=brute_budget,
        )))
    done: dict[str, float | None] = {}
    stats: dict = {}
    for name, solve in solves:
        try:
            res = solve()
        except SolverBudgetError as exc:
            if name != "exact_half":
                done[name] = exc.welfare
            stats.update(error=str(exc), failed_solver=name)
            break
        done[name] = res.welfare
        stats[f"{name}_nodes"] = res.nodes
    lower, middle = done.get("exact"), done.get("brute")
    finished = "failed_solver" not in stats
    chain = [v for v in (lower, middle, upper) if v is not None]
    return BoundCertificate(
        lower=lower,
        upper=upper,
        middle=middle,
        chain_ok=finished and all(a <= b + TOL for a, b in zip(chain, chain[1:])),
        prop1_ok=finished and lower <= done["exact_half"] + TOL,
        solver_stats=stats,
    )
