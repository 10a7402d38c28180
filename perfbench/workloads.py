"""Benchmark workloads: inputs made from the seed, a unit of fixed work
split into pieces, and the checks on every piece's outputs.

Every workload is a closed loop in one process: one caller starts the next
item when the previous one returns. The simulator workloads go through
``cli.main(["run", ...])`` with ``--jobs 1``; the bound workloads call the
public ``offline`` solvers directly.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
from dataclasses import dataclass, field

from crowdstream import cli, offline, online

import tiny

TOL = 1e-9


@dataclass
class UnitResult:
    """Outcome of one piece or one whole unit of work.

    ``outputs`` maps each operation to a digest of what it produced;
    ``failures`` maps failed operations to the reason. ``samples`` holds
    the per-operation quality figures that are averaged for display, and
    ``work`` is the amount of work done in the workload's unit of work.
    """

    outputs: dict[str, str] = field(default_factory=dict)
    failures: dict[str, str] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    samples: dict[str, list[float]] = field(default_factory=dict)
    extras: dict[str, int] = field(default_factory=dict)
    work: float = 0.0

    def fail(self, op: str, reason: str) -> None:
        self.failures.setdefault(op, reason)

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def merge(self, other: "UnitResult") -> None:
        self.outputs.update(other.outputs)
        self.failures.update(other.failures)
        for mine, theirs in ((self.counts, other.counts), (self.extras, other.extras)):
            for k, v in theirs.items():
                mine[k] = mine.get(k, 0) + v
        for k, v in other.samples.items():
            self.samples.setdefault(k, []).extend(v)
        self.work += other.work

    def quality(self) -> dict[str, float]:
        return {k: sum(v) / len(v) for k, v in sorted(self.samples.items())}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:20]


def _no_tick() -> None:
    pass


@contextlib.contextmanager
def count_decisions(tick=_no_tick):
    """Count scheduler decisions with one counter, and call ``tick`` every
    256 decisions so a timer can take a host probe between decisions."""
    factory = online.make_scheduler
    box = [0]

    def make_scheduler(name, **params):
        decide = factory(name, **params)

        def counted(state, profiles):
            box[0] += 1
            if not box[0] & 255:
                tick()
            return decide(state, profiles)

        return counted

    online.make_scheduler = make_scheduler
    try:
        yield box
    finally:
        online.make_scheduler = factory


class Workload:
    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def pieces(self) -> list:
        raise NotImplementedError

    def run_piece(self, piece, tick=_no_tick) -> UnitResult:
        """Run one piece; ``tick`` is called between its items."""
        raise NotImplementedError

    def run_unit(self) -> UnitResult:
        res = UnitResult()
        for piece in self.pieces():
            res.merge(self.run_piece(piece))
        return res


# ---------------------------------------------------------------------------
# Simulator workloads: crowdstream run on experiment specs, one spec a piece
# ---------------------------------------------------------------------------

class SimWorkload(Workload):
    """Runs each spec through ``cli.main`` and checks every file it writes."""

    decisions_per_unit_of_work = 0  # 0: one unit of work is the whole unit

    def setup(self) -> None:
        os.makedirs(self.workdir, exist_ok=True)
        self.specs = self.make_specs()
        for tag, spec in self.specs.items():
            with open(os.path.join(self.workdir, f"spec_{tag}.json"), "w") as fh:
                json.dump(spec, fh, sort_keys=True)

    def make_specs(self) -> dict[str, dict]:
        raise NotImplementedError

    def pieces(self) -> list[str]:
        return list(self.specs)

    def run_piece(self, tag: str, tick=_no_tick) -> UnitResult:
        res = UnitResult()
        spec_path = os.path.join(self.workdir, f"spec_{tag}.json")
        out = os.path.join(self.workdir, f"out_{tag}")
        shutil.rmtree(out, ignore_errors=True)
        call = f"{tag}/run"
        with count_decisions(tick) as decisions:
            try:
                rc = cli.main(["run", "--spec", spec_path, "--out", out, "--jobs", "1"])
            except (Exception, SystemExit) as exc:  # any crash fails the call
                res.outputs[call] = ""
                res.fail(call, f"raised {type(exc).__name__}: {exc}")
                return res
        if rc != 0:
            res.fail(call, f"exit code {rc}")
        transfers = delivered = written = 0
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                data = fh.read()
            written += len(data)
            if name == "summary.csv":
                res.outputs[call] = _digest(data)
                continue
            op = f"{tag}/{name}"
            res.outputs[op] = _digest(data)
            report = json.loads(data)
            if report["violations"]:
                res.fail(op, f"violations: {report['violations'][:3]}")
            payoff = sum(u["payoff"] for u in report["per_user"].values())
            if abs(payoff - report["welfare"]) > TOL:
                res.fail(op, "per-user payoffs do not sum to welfare")
            res.sample(f"welfare_mean[{tag}]", report["welfare"])
            if report["gap"] is not None:
                res.sample(f"gap_mean[{tag}]", report["gap"])
            for recs in report["downloads"].values():
                transfers += len(recs)
                delivered += sum(1 for r in recs if r["delivered"])
        if call not in res.outputs:
            res.outputs[call] = ""
            res.fail(call, "no summary.csv written")
        res.counts["decisions"] = decisions[0]
        res.extras = {"transfers": transfers, "delivered": delivered, "bytes_written": written}
        res.work = (decisions[0] / self.decisions_per_unit_of_work
                    if self.decisions_per_unit_of_work else 1.0 / len(self.specs))
        return res


class SimCoop(SimWorkload):
    """The cooperation scenario of ROADMAP's scaling sweep at 40 users, one
    cell whose trace seed is the workload seed."""

    # A cell takes 6-10 s depending on its seed, but the cost per decision
    # varies by only about 4%, so wall_s is reported per 10,000 decisions.
    decisions_per_unit_of_work = 10_000

    def make_specs(self) -> dict[str, dict]:
        return {"coop": {
            "scenario": "multi", "n_users": 40, "video_fraction": 0.2,
            "capacity_range": [0.0, 0.7], "cooperation": "trace",
            "schedulers": ["lyapunov"], "lambdas": [100.0],
            "seeds": [self.seed], "horizon": 500.0,
        }}


class SimSingle(SimWorkload):
    """One user with a 250-segment video: criteria 4, 5 and 7's traffic."""

    SEEDS = 10

    def make_specs(self) -> dict[str, dict]:
        seeds = [self.seed * self.SEEDS + i for i in range(self.SEEDS)]
        return {
            f"cap{lo:g}-{hi:g}": {
                "scenario": "single", "capacity_range": [lo, hi],
                "schedulers": ["lyapunov", "buffer", "prediction"],
                "lambdas": [1.0, 10.0, 100.0], "seeds": seeds,
                "horizon": 500.0, "compute_gap": True,
            }
            for lo, hi in ((0.0, 0.7), (2.5, 5.0))
        }


# ---------------------------------------------------------------------------
# Bound workloads: criteria 1-2's five solves per tiny instance
# ---------------------------------------------------------------------------

class BoundsWorkload(Workload):
    CHUNK = 24  # instances per piece

    def tiny_seeds(self):
        raise NotImplementedError

    def setup(self) -> None:
        instances = list(self.tiny_seeds())
        self.chunks = [instances[i:i + self.CHUNK]
                       for i in range(0, len(instances), self.CHUNK)]

    def pieces(self) -> list[int]:
        return list(range(len(self.chunks)))

    def run_piece(self, i: int, tick=_no_tick) -> UnitResult:
        res = UnitResult(counts=dict.fromkeys(
            ("exact.nodes", "exact.leaves", "brute.nodes", "brute.leaves"), 0))
        for k, (profiles, capacity, enc, horizon) in self.chunks[i]:
            op = f"tiny/{k}"
            try:
                inst = offline.SlottedInstance.from_traces(profiles, capacity, enc, tiny.SLOT)
                exact = offline.solve_slotted_exact(inst)
                exact_half = offline.solve_slotted_exact(inst.with_split(2))
                brute = offline.brute_force_segmented(profiles, capacity, enc, horizon)
                brute_half = offline.brute_force_segmented(
                    tiny.split_profiles(profiles, 2), capacity, enc, horizon)
                upper = offline.solve_slotted_relaxed(inst)
            except (offline.SolverBudgetError, RuntimeError) as exc:
                res.outputs[op] = ""
                res.fail(op, f"{type(exc).__name__}: {exc}")
                continue
            for name, r in (("exact", exact), ("exact", exact_half),
                            ("brute", brute), ("brute", brute_half)):
                res.counts[f"{name}.nodes"] += r.nodes
                res.counts[f"{name}.leaves"] += r.leaves
            self.count_instance(res, k, brute_half)
            values = (exact.welfare, exact_half.welfare, brute.welfare,
                      brute_half.welfare, upper)
            res.outputs[op] = _digest(repr(values).encode())
            lower, lower_half, middle, middle_half, _ = values
            if not (lower <= middle + TOL and middle <= upper + TOL):
                res.fail(op, f"bound chain broken: {values}")
            if lower > lower_half + TOL or middle > middle_half + TOL:
                res.fail(op, f"split monotonicity broken: {values}")
            res.sample("cert_width_mean", (upper - lower) / max(abs(upper), TOL))
            tick()
        res.work = 1.0 / len(self.chunks)
        return res

    def count_instance(self, res: UnitResult, k: int, brute_half) -> None:
        pass


class BoundsTiny(BoundsWorkload):
    """Acceptance-generator instances at one stated size: two users with one
    segment each, three slots, two ladder levels.

    The generator's own mix of sizes cannot be timed steadily: about one
    instance in twenty needs 2-90 s for the beta/2 brute force (tiny/2 takes
    66-87 s), and even below four segments the batch time varies by 10-15%
    between seeds. At one size the time per instance varies far less, and
    the beta/2 brute force is still about 80% of it. BoundsAcceptance keeps
    the generator's full mix.
    """

    BATCH = 240
    SHAPE = (2, 3, 2, (1, 1))

    def tiny_seeds(self):
        start = self.seed * self.BATCH
        for k in range(start, start + self.BATCH):
            yield k, tiny.tiny_instance(k, self.SHAPE)


class BoundsAcceptance(BoundsWorkload):
    """Twenty consecutive tiny seeds, all five solves; seed 0 is exactly the
    acceptance set of criteria 1 and 2."""

    WINDOW = 20

    def tiny_seeds(self):
        start = self.seed * self.WINDOW
        for k in range(start, start + self.WINDOW):
            yield k, tiny.tiny_instance(k)

    def count_instance(self, res: UnitResult, k: int, brute_half) -> None:
        res.counts[f"brute_half.nodes[tiny/{k}]"] = brute_half.nodes
        res.counts[f"brute_half.leaves[tiny/{k}]"] = brute_half.leaves


WORKLOADS = {
    "sim-coop": SimCoop,
    "sim-single": SimSingle,
    "bounds-tiny": BoundsTiny,
    "bounds-acceptance": BoundsAcceptance,
}


def make(name: str, seed: int, workdir: str) -> Workload:
    return WORKLOADS[name](seed, workdir)
