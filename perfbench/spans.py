"""Traced mode: wrap crowdstream's public entry points in timing spans.

``Tracer.install()`` replaces the functions and methods listed in
``TRACED`` with wrappers that record spans, and ``Tracer.uninstall()``
puts the originals back. Hot calls (millions of trace queries per run) are
aggregated in memory per (span name, parent span name) rather than kept one
record per call. A span's self time is its duration minus the durations of
its child spans; spans nest strictly because everything runs in one thread.
"""
from __future__ import annotations

import math
import time

from crowdstream import cli, model, offline, online, sim, traces

# (owner, attribute, span name). Owners are modules or classes; classmethods
# keep their descriptor type when wrapped.
TRACED = (
    (cli, "main", "cli.main"),
    (traces, "synth_capacity", "traces.synth"),
    (traces, "synth_encounters", "traces.synth"),
    (traces.CapacityTrace, "rate_at", "traces.rate_at"),
    (traces.CapacityTrace, "integrate", "traces.integrate"),
    (traces.CapacityTrace, "invert", "traces.invert"),
    (traces.EncounterTrace, "encountered", "traces.encounter"),
    (traces.EncounterTrace, "holds", "traces.encounter"),
    (traces.EncounterTrace, "next_break", "traces.encounter"),
    (sim, "run_simulation", "sim.run"),
    (sim, "gap_vs_upper_bound", "sim.gap"),
    (online, "decision_payoff", "online.payoff"),
    (online, "lyapunov_drift", "online.drift"),
    (model, "eval_social_welfare", "model.welfare"),
    (offline, "solve_slotted_exact", "offline.exact"),
    (offline, "brute_force_segmented", "offline.brute"),
    (offline, "solve_slotted_relaxed", "offline.lp"),
    (offline, "linprog", "offline.highs"),
    (offline.SlottedInstance, "from_traces", "offline.instance"),
)

DECIDE = "online.decide"


class Tracer:
    def __init__(self) -> None:
        # frames are [span name, time covered by child spans]
        self._stack: list[list] = [[None, 0.0]]
        # (name, parent name) -> [calls, total seconds, self seconds, min self]
        self.spans: dict[tuple[str, str | None], list] = {}
        self.decide_durations: list[float] = []
        self.counters: dict[str, int] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------
    def _wrap(self, name: str, fn, on_result=None, durations=None):
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[1] += dt
                own = dt - frame[1]
                rec = spans.get((name, parent[0]))
                if rec is None:
                    spans[(name, parent[0])] = [1, dt, own, own]
                else:
                    rec[0] += 1
                    rec[1] += dt
                    rec[2] += own
                    if own < rec[3]:
                        rec[3] = own
                if durations is not None:
                    durations.append(dt)
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def _on_exact(self, res) -> None:
        self._count("offline.exact.nodes", res.nodes)
        self._count("offline.exact.leaves", res.leaves)

    def _on_brute(self, res) -> None:
        self._count("offline.brute.nodes", res.nodes)
        self._count("offline.brute.leaves", res.leaves)

    def _on_decision(self, decision) -> None:
        if isinstance(decision, online.Download):
            self._count("online.downloads")

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        hooks = {
            "offline.exact": self._on_exact,
            "offline.brute": self._on_brute,
        }
        for owner, attr, name in TRACED:
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(name, raw.__func__, hooks.get(name))))
            else:
                setattr(owner, attr, self._wrap(name, raw, hooks.get(name)))
        factory = online.make_scheduler
        self._saved.append((online, "make_scheduler", factory))
        wrap, on_decision, durations = self._wrap, self._on_decision, self.decide_durations

        def make_scheduler(name, **params):
            return wrap(DECIDE, factory(name, **params), on_decision, durations)

        online.make_scheduler = make_scheduler

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- summaries --------------------------------------------------------
    def calls(self, name: str) -> int:
        return sum(rec[0] for (n, _), rec in self.spans.items() if n == name)

    def total(self, name: str) -> float:
        return sum((rec[1] for (n, _), rec in self.spans.items() if n == name), 0.0)

    def self_time(self, name: str) -> float:
        return sum((rec[2] for (n, _), rec in self.spans.items() if n == name), 0.0)

    def child_calls(self, name: str, parent: str) -> int:
        rec = self.spans.get((name, parent))
        return rec[0] if rec else 0


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(tracer: Tracer, extras: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced unit, as name -> (value, unit).

    ``extras`` carries what the workload read from its outputs: transfers,
    delivered transfers and bytes written.
    """
    t = tracer
    decisions = t.calls(DECIDE)
    transfers = extras.get("transfers", 0)
    out: dict[str, tuple[float, str]] = {
        "sim.run.self_s": (t.self_time("sim.run"), "s"),
        "sim.self_us_per_decision": (
            t.self_time("sim.run") / decisions * 1e6 if decisions else 0.0, "us"),
        "sim.transfers": (transfers, "count"),
        "sim.delivered_frac": (
            extras.get("delivered", 0) / transfers if transfers else 0.0, "ratio"),
        "traces.encounter.calls": (t.calls("traces.encounter"), "count"),
        "traces.encounter.self_s": (t.self_time("traces.encounter"), "s"),
        "traces.invert.calls": (t.calls("traces.invert"), "count"),
        "traces.invert.self_s": (t.self_time("traces.invert"), "s"),
        "traces.integrate.calls": (t.calls("traces.integrate"), "count"),
        "traces.integrate.self_s": (t.self_time("traces.integrate"), "s"),
        "traces.rate_at.calls": (t.calls("traces.rate_at"), "count"),
        "traces.synth.self_s": (t.self_time("traces.synth"), "s"),
        "online.decide.calls": (decisions, "count"),
        "online.decide.self_s": (t.self_time(DECIDE), "s"),
        "online.decide.p50_us": (quantile(t.decide_durations, 0.50) * 1e6, "us"),
        "online.decide.p99_us": (quantile(t.decide_durations, 0.99) * 1e6, "us"),
        "online.download_frac": (
            t.counters.get("online.downloads", 0) / decisions if decisions else 0.0, "ratio"),
        "online.payoff.calls": (t.calls("online.payoff"), "count"),
        "online.drift.calls": (t.calls("online.drift"), "count"),
        "model.welfare.calls": (t.calls("model.welfare"), "count"),
        "model.welfare.self_s": (t.self_time("model.welfare"), "s"),
        "offline.exact.nodes": (t.counters.get("offline.exact.nodes", 0), "count"),
        "offline.exact.leaves": (t.counters.get("offline.exact.leaves", 0), "count"),
        "offline.exact.self_s": (t.self_time("offline.exact"), "s"),
        "offline.brute.nodes": (t.counters.get("offline.brute.nodes", 0), "count"),
        "offline.brute.leaves": (t.counters.get("offline.brute.leaves", 0), "count"),
        "offline.brute.self_s": (t.self_time("offline.brute"), "s"),
        "offline.brute.welfare_evals": (t.child_calls("model.welfare", "offline.brute"), "count"),
        "offline.lp.calls": (t.calls("offline.lp"), "count"),
        "offline.lp.self_s": (t.self_time("offline.lp"), "s"),
        "offline.lp.highs_s": (t.total("offline.highs"), "s"),
        "offline.instance.self_s": (t.self_time("offline.instance"), "s"),
        "cli.self_s": (t.self_time("cli.main"), "s"),
        "cli.bytes_written": (extras.get("bytes_written", 0), "bytes"),
    }
    return out


# Machine-independent counts that must repeat exactly between runs.
COUNT_METRICS = (
    "sim.transfers", "traces.encounter.calls", "traces.invert.calls",
    "traces.integrate.calls", "traces.rate_at.calls", "online.decide.calls",
    "online.payoff.calls", "online.drift.calls", "model.welfare.calls",
    "offline.exact.nodes", "offline.exact.leaves", "offline.brute.nodes",
    "offline.brute.leaves", "offline.brute.welfare_evals", "offline.lp.calls",
    "cli.bytes_written",
)
