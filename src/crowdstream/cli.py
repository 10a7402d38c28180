"""Experiment runner CLI.

Verbs:
  run        execute a scheduler/seed/lambda matrix from a JSON spec and
             write per-cell report.json files plus an aggregate summary.csv
  bounds     compute the offline bound certificate for an instance file
  gen-traces synthesize seeded capacity/encounter traces to trace.json
  ingest     convert session/viewing CSV logs to trace.json

Exit codes: 0 success, 2 usage/config error (including a run spec that
fails its checks, before anything runs, and a bounds instance that cannot
be built), 3 partial result (a bound solver ran out of budget:
the partial certificate names it in solver_stats.failed_solver and keeps
the LP bound and every value that finished) or no result (the relaxation
LP failed, which happens before any search in ``bounds`` and before any
cell's report in ``run`` with compute_gap: nothing is written).
"""
from __future__ import annotations

import argparse
import collections
import concurrent.futures
import contextlib
import csv
import functools
import io
import json
import math
import os
import sys
import typing
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from . import offline, online, sim, traces
from .model import UserProfile

DEFAULT_LADDER = (0.2, 0.4, 0.7, 1.3, 2.3)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARTIAL = 3

# the types the stdlib JSON encoder writes as scalars
JSON_SCALARS = frozenset((str, int, float, bool, type(None)))

# the most work (``estimated_work``) one run cell or one gen-traces call may
# ask for; above it the command exits 2 before it starts
MAX_WORK = 10_000_000


def estimated_work(users: int, horizon: float, beta: float = math.inf) -> float:
    """Work of synthesizing the traces of ``users`` users over ``horizon``
    seconds and simulating them with segments of ``beta`` seconds, from
    those numbers alone: each user's capacity trace pieces (one, plus one
    per ``traces.CAPACITY_HOLD_MEAN`` seconds), each pair's encounter
    windows (one, plus one per ON/OFF cycle), and each user's re-polls (one
    per ``online.DEFAULT_EPOCH`` seconds) and downloads (one per ``beta``
    seconds played; none for traces alone)."""
    pairs = users * (users - 1) / 2
    cycle = traces.ENCOUNTER_MEAN_ON + traces.ENCOUNTER_MEAN_OFF
    return (users * (1 + horizon / traces.CAPACITY_HOLD_MEAN)
            + pairs * (1 + horizon / cycle)
            + users * (horizon / online.DEFAULT_EPOCH + horizon / beta))


def _work_refusal(users: int, horizon: float, beta: float = math.inf) -> str | None:
    """The one line that refuses this work, or None when its
    ``estimated_work`` is within ``MAX_WORK``."""
    try:
        work = estimated_work(users, horizon, beta)
    except OverflowError:  # a user count too large for a float
        work = math.inf
    if work > MAX_WORK:
        return f"estimated work {work:.4g} exceeds the limit of {MAX_WORK:.4g}"
    return None


class SpecError(ValueError):
    pass


@dataclass
class ExperimentSpec:
    scenario: str = "multi"  # "single" | "multi"
    n_users: int = 10
    video_fraction: float = 1.0
    capacity_range: tuple[float, float] = (0.5, 3.0)
    cooperation: str = "full"  # one of traces.ENCOUNTER_MODES
    schedulers: tuple[str, ...] = ("lyapunov", "buffer", "prediction")
    lambdas: tuple[float, ...] = (online.DEFAULT_LAM,)
    seeds: tuple[int, ...] = tuple(range(10))
    horizon: float = 500.0
    beta: float = 2.0
    buffer_cap: float = 40.0
    ladder: tuple[float, ...] = DEFAULT_LADDER
    video_length_s: float = 500.0
    theta: float = 1.0
    phi_qdeg: float = 0.5
    phi_rebuf: float = 1.0
    c_time: float = 0.05
    c_data: float = 0.02
    w_data: float = 0.01
    delta_th: float = online.DEFAULT_DELTA_TH
    gap_th: float = online.DEFAULT_GAP_TH
    slot_len: float = 5.0
    compute_gap: bool = False
    compare_cooperation: bool = False
    abort_policy: str = "abort"
    out_dir: str = "out"

    def __post_init__(self) -> None:
        if self.scenario not in ("single", "multi"):
            raise SpecError(f"unknown scenario {self.scenario!r}")
        if self.scenario == "single":
            self.n_users = 1
            self.video_fraction = 1.0
        if not 0.0 <= self.video_fraction <= 1.0:
            raise SpecError("video_fraction must lie in [0, 1]")
        if not self.schedulers:
            raise SpecError("scheduler list must be nonempty")
        for s in self.schedulers:
            if s not in online.SCHEDULERS:
                raise SpecError(f"unknown scheduler {s!r}")
        if self.cooperation not in traces.ENCOUNTER_MODES:
            raise SpecError(f"unknown cooperation mode {self.cooperation!r}")
        if self.abort_policy not in sim.ABORT_POLICIES:
            raise SpecError(f"unknown abort policy {self.abort_policy!r}")
        lo, hi = self.capacity_range
        if not 0 <= lo <= hi:
            raise SpecError(f"bad capacity range [{lo}, {hi}]")
        if not self.seeds:
            raise SpecError("seed list must be nonempty")
        if "lyapunov" in self.schedulers and not self.lambdas:
            raise SpecError("lambda list must be nonempty when lyapunov is listed")
        for keys in (self.schedulers, self.seeds, [f"{lam:g}" for lam in self.lambdas]):
            if len(set(keys)) < len(keys):  # a report's file name prints one of each
                raise SpecError(f"repeated entry in {list(keys)}: two cells would share a report")
        if not self.horizon > 0:  # the trace synthesizers loop up to it
            raise SpecError(f"horizon must be positive, got {self.horizon}")
        if not self.beta > 0:  # build_profiles divides by it
            raise SpecError(f"beta must be positive, got {self.beta}")
        if not (self.delta_th >= 0 and self.gap_th >= 0):
            raise SpecError(f"delta_th {self.delta_th} and gap_th {self.gap_th} must be >= 0")
        if self.n_users < 1:
            raise SpecError("need at least one user")
        if (refusal := _work_refusal(self.n_users, self.horizon, self.beta)) is not None:
            raise SpecError(f"{refusal} per cell")
        try:
            profiles = build_profiles(self)
            if self.compute_gap:  # each (seed, mode) builds a slotted instance
                offline.slot_count(profiles, self.horizon, self.slot_len)
        except (TypeError, ValueError, OverflowError) as exc:  # int(video_length_s / beta)
            raise SpecError(str(exc)) from exc

    @classmethod
    def from_file(cls, path: str) -> "ExperimentSpec":
        return cls(**_load_fields(path, typing.get_type_hints(cls)))

    def to_dict(self) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v for k, v in vars(self).items()}


# a bounds instance's fields and their JSON types
BOUNDS_FIELDS = {"profiles": tuple[dict, ...], "capacity": dict, "encounters": dict,
                 "slot_len": float, "exact_budget": int, "brute_budget": int,
                 "include_middle": bool}


def _has_type(value, kind) -> bool:
    """Whether JSON ``value`` has type ``kind``, converting nothing: a bool is no
    number, an int is a float, a number is finite, list items have the item type."""
    args = typing.get_args(kind)
    if typing.get_origin(kind) is tuple:
        return isinstance(value, list) and all(_has_type(v, args[0]) for v in value)
    if kind is float:
        return _has_type(value, int) or isinstance(value, float) and math.isfinite(value)
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def _load_fields(path: str, fields: dict) -> dict:
    """The JSON object in file ``path``, each list made a tuple. Refuses a key
    that ``fields`` does not name, and a value without the JSON type that
    ``fields`` gives its key (``_has_type``)."""
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise SpecError(f"expected a JSON object, got {raw!r}")
    for key, value in raw.items():
        if key not in fields:
            raise SpecError(f"unknown field {key!r}")
        if not _has_type(value, kind := fields[key]):
            name = kind.__name__ if type(kind) is type else kind
            raise SpecError(f"{key} must be {name} (numbers finite, not bools), got {value!r}")
    return {k: tuple(v) if isinstance(v, list) else v for k, v in raw.items()}


def build_profiles(spec: ExperimentSpec) -> tuple[UserProfile, ...]:
    """Users 0..N-1; the first round(fraction*N) are video users, the rest
    idle helpers that only contribute downloads (no QoE terms of their own)."""
    n_video = max(1, round(spec.video_fraction * spec.n_users)) if spec.video_fraction > 0 else 0
    segs = int(spec.video_length_s / spec.beta)
    out = []
    for n in range(spec.n_users):
        video = n < n_video
        out.append(UserProfile(
            id=n, beta=spec.beta, buffer_cap=spec.buffer_cap,
            ladder=spec.ladder, theta=spec.theta,
            phi_qdeg=spec.phi_qdeg if video else 0.0,
            phi_rebuf=spec.phi_rebuf if video else 0.0,
            c_time=spec.c_time, c_data=spec.c_data, w_data=spec.w_data,
            video_segments=segs if video else 0,
        ))
    return tuple(out)


def _write_output(path: str, parts: Iterable[str]) -> bool:
    """Writes the strings of ``parts``, in order, to a temporary file renamed
    to ``path``; False, after one stderr line, when ``path`` cannot be
    written. Whatever raises while ``parts`` is written (an object the JSON
    encoder rejects) removes the temporary file and propagates."""
    tmp = path + ".tmp"
    try:
        try:
            with open(tmp, "w", newline="") as fh:
                fh.writelines(parts)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
            raise
    except OSError as exc:
        print(f"cannot write {path}: {exc}", file=sys.stderr)
        return False
    return True


@functools.cache
def _json_encoder(depth: int) -> json.JSONEncoder:
    """Encodes a container at ``depth`` as ``indent=2`` does, in C if it can."""
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + "  " * (depth + 1), ": "))


def _json_parts(obj, depth: int = 0, open_ids: frozenset[int] = frozenset()) -> Iterator[str]:
    """``json.dumps(obj, sort_keys=True, indent=2)`` nested at ``depth``, in
    parts: one encoder call for a scalar or a container of scalars alone, a
    walk here, by the encoder's rules, for a container of containers."""
    enc, is_dict = _json_encoder(depth), isinstance(obj, dict)
    if not is_dict and not isinstance(obj, (list, tuple)):
        yield enc.encode(obj)
        return
    inner, outer = "\n" + "  " * (depth + 1), "\n" + "  " * depth
    if {*map(type, obj.values() if is_dict else obj)} <= JSON_SCALARS:
        text = enc.encode(obj)
        yield f"{text[0]}{inner}{text[1:-1]}{outer}{text[-1]}" if obj else text
        return
    if id(obj) in open_ids:
        raise ValueError("Circular reference detected")
    open_ids |= {id(obj)}
    yield "{" if is_dict else "["
    for n, (key, value) in enumerate(sorted(obj.items()) if is_dict else enumerate(obj)):
        yield f",{inner}" if n else inner
        if is_dict:  # a non-str key as in ``{key: 0}``'s text: quoted, or refused
            yield f"{enc.encode(key) if isinstance(key, str) else enc.encode({key: 0})[1:-4]}: "
        yield from _json_parts(value, depth + 1, open_ids)
    yield outer + ("}" if is_dict else "]")


def _write_json(path: str, obj) -> bool:
    """``_write_output`` of ``obj`` as JSON, keys sorted, indented by 2: the
    bytes of ``json.dumps(obj, sort_keys=True, indent=2)``, each container
    of scalars written as soon as it is encoded."""
    return _write_output(path, _json_parts(obj))


def _write_csv(path: str, fieldnames: list[str], rows: list[dict]) -> bool:
    """``_write_output`` of ``rows`` as CSV text, CRLF line ends, header first."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames)
    writer.writeheader()
    writer.writerows(rows)
    return _write_output(path, [buf.getvalue()])


def _cell_traces(spec: ExperimentSpec, seed: int, cooperation: str):
    profiles = build_profiles(spec)
    ids = [p.id for p in profiles]
    capacity = traces.synth_capacity(ids, spec.horizon, spec.capacity_range, seed)
    encounters = traces.synth_encounters(ids, spec.horizon, seed, mode=cooperation)
    return profiles, capacity, encounters


def _fluid_upper(spec: ExperimentSpec, seed: int, cooperation: str) -> float:
    """Fluid LP bound of one (seed, cooperation mode)'s traces. It does not
    depend on the scheduler or lambda, so every cell with that seed and mode
    shares it."""
    instance = offline.SlottedInstance.from_traces(
        *_cell_traces(spec, seed, cooperation), spec.slot_len
    )
    return offline.solve_slotted_relaxed(instance)


def _run_cell(spec: ExperimentSpec, scheduler: str, lam: float | None,
              seed: int, cooperation: str) -> sim.ExperimentReport:
    profiles, capacity, encounters = _cell_traces(spec, seed, cooperation)
    params: dict[str, float] = {"delta_th": spec.delta_th, "gap_th": spec.gap_th}
    if scheduler == "lyapunov":
        params = {"lam": lam}
    config = sim.SimConfig(
        horizon=spec.horizon, profiles=profiles, capacity=capacity,
        encounters=encounters, scheduler=scheduler, scheduler_params=params,
        seed=str(seed), abort_policy=spec.abort_policy,
    )
    return sim.run_simulation(config)


def _run_tasks(tasks: list[tuple], jobs: int) -> Iterator:
    """Yields ``fn(*args)`` for each ``(fn, *args)`` task, in task order.
    With ``jobs <= 1`` each task runs when its result is asked for. With
    ``jobs > 1`` they run in a pool of ``min(jobs, len(tasks))`` processes,
    at most ``2 * jobs`` in flight, each future dropped once its result is
    taken. Closing the generator early cancels the tasks not yet started and
    waits for the running ones, so no worker process outlives it."""
    if jobs <= 1:
        for fn, *args in tasks:
            yield fn(*args)
        return
    pool = concurrent.futures.ProcessPoolExecutor(max_workers=min(jobs, len(tasks)))
    try:
        in_flight = collections.deque()
        for task in tasks:
            if len(in_flight) == 2 * jobs:
                yield in_flight.popleft().result()
            in_flight.append(pool.submit(*task))
        while in_flight:
            yield in_flight.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def cmd_run(args: argparse.Namespace) -> int:
    """Runs the spec's cells, fluid bounds first when ``compute_gap`` is
    set, and writes each cell's report as soon as it finishes; only the CSV
    rows are kept, plus a "full" cell's bitrate and welfare until its "none"
    cell, so one report is alive at a time with ``--jobs 1`` (about
    ``2 * jobs`` otherwise). A report that cannot be written exits 2 before
    any later cell runs."""
    try:
        spec = ExperimentSpec.from_file(args.spec)
    except (OSError, json.JSONDecodeError, SpecError, TypeError, ValueError) as exc:
        print(f"bad experiment spec: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = args.out or spec.out_dir
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        print(f"cannot create output directory {out_dir}: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    # with compare_cooperation each "full" cell comes right before its
    # "none" cell, so a cooperation_gain.csv row is due when "none" arrives
    cells: list[tuple[str, float | None, int, str]] = []
    modes = [spec.cooperation]
    if spec.compare_cooperation:
        modes = ["full", "none"]
    for scheduler in spec.schedulers:
        lams = spec.lambdas if scheduler == "lyapunov" else (None,)
        for lam in lams:
            for seed in spec.seeds:
                for mode in modes:
                    cells.append((scheduler, lam, seed, mode))

    # one fluid bound per (seed, mode), shared by every scheduler and lambda
    bound_keys = list(dict.fromkeys(
        (seed, mode) for _, _, seed, mode in cells)) if spec.compute_gap else []
    results = _run_tasks(
        [(_fluid_upper, spec, *key) for key in bound_keys]
        + [(_run_cell, spec, *cell) for cell in cells],
        args.jobs,
    )
    rows, gain_rows = [], []
    try:
        try:
            uppers = {key: next(results) for key in bound_keys}
        except RuntimeError as exc:  # a fluid LP failed, before any report
            print(f"no report written: {exc}", file=sys.stderr)
            return EXIT_PARTIAL
        for scheduler, lam, seed, mode in cells:
            report = next(results)
            if spec.compute_gap:
                report.gap = sim.relative_gap(uppers[seed, mode], report.sw_estimated)
            lam_tag = "" if lam is None else f"{lam:g}"
            name = f"report_{scheduler}{('_lam' + lam_tag) if lam_tag else ''}_{mode}_{seed}.json"
            payload = report.to_dict()
            payload["spec"] = spec.to_dict()
            payload["cooperation"] = mode
            if not _write_json(os.path.join(out_dir, name), payload):
                return EXIT_CONFIG
            if mode == modes[0]:
                rows.append({
                    "scheduler": scheduler,
                    "seed": seed,
                    "lambda": lam_tag,
                    "avg_bitrate_mbps": report.avg_bitrate_mbps,
                    "welfare": report.welfare,
                    "rebuffer_s": report.rebuffer_s,
                    "gap": "" if report.gap is None else report.gap,
                })
            if spec.compare_cooperation and mode == "full":
                full_bitrate, full_welfare = report.avg_bitrate_mbps, report.welfare
            elif spec.compare_cooperation:  # the "none" cell of the pair
                none_bitrate = report.avg_bitrate_mbps
                gain_rows.append({
                    "scheduler": scheduler,
                    "seed": seed,
                    "lambda": lam_tag,
                    "bitrate_gain": (
                        (full_bitrate - none_bitrate) / none_bitrate if none_bitrate > 0 else ""
                    ),
                    "welfare_gain": full_welfare - report.welfare,
                })
            del report, payload  # gone before the next cell runs
    finally:
        results.close()

    if not _write_csv(os.path.join(out_dir, "summary.csv"), [
        "scheduler", "seed", "lambda", "avg_bitrate_mbps", "welfare", "rebuffer_s", "gap",
    ], rows):
        return EXIT_CONFIG
    if spec.compare_cooperation and not _write_csv(
        os.path.join(out_dir, "cooperation_gain.csv"),
        ["scheduler", "seed", "lambda", "bitrate_gain", "welfare_gain"], gain_rows,
    ):
        return EXIT_CONFIG
    return EXIT_OK


def cmd_bounds(args: argparse.Namespace) -> int:
    try:
        raw = _load_fields(args.spec, BOUNDS_FIELDS)
        for key in ("exact_budget", "brute_budget"):
            if raw.get(key, 1) < 1:  # a node budget, not a solver that ran out
                raise ValueError(f"{key} must be at least 1, got {raw[key]}")
        capacity, encounters = traces.traces_from_dict(raw)
        profiles = [UserProfile.from_dict(p) for p in raw["profiles"]]
        # the instance reads the profiles' ids alone: a trace entry of any
        # other user would be dropped without a word
        named = {*capacity.users, *(u for pair in encounters.intervals for u in pair)}
        if strangers := sorted(named - {p.id for p in profiles}):
            raise ValueError(f"trace users without a profile: {strangers}")
        instance = offline.SlottedInstance.from_traces(
            profiles, capacity, encounters, float(raw["slot_len"]))
    except (OSError, KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        print(f"bad bounds instance: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out_path = args.out or "bounds.json"
    if os.path.isdir(out_path) or not os.path.isdir(os.path.dirname(out_path) or "."):
        # a solve whose result could not be written is not started
        print(f"cannot write {out_path}: not a file in an existing directory", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cert = offline.bound_certificate(instance, capacity, encounters, **{
            k: raw[k] for k in ("include_middle", "exact_budget", "brute_budget") if k in raw})
    except RuntimeError as exc:
        print(f"no certificate written: {exc}", file=sys.stderr)
        return EXIT_PARTIAL
    if cert.partial:
        print(f"{cert.solver_stats['failed_solver']} solver budget exhausted; "
              f"partial certificate in {out_path}", file=sys.stderr)
    if not _write_json(out_path, cert.to_dict()):
        return EXIT_CONFIG
    return EXIT_PARTIAL if cert.partial else EXIT_OK


def cmd_gen_traces(args: argparse.Namespace) -> int:
    refusal = (f"need at least one user, got {args.users}" if args.users < 1
               else f"horizon must be positive, got {args.horizon}" if not args.horizon > 0
               else _work_refusal(args.users, args.horizon))
    if refusal is not None:
        print(f"trace generation refused: {refusal}", file=sys.stderr)
        return EXIT_CONFIG
    ids = list(range(args.users))
    try:
        capacity = traces.synth_capacity(
            ids, args.horizon, (args.cap_lo, args.cap_hi), args.seed
        )
        encounters = traces.synth_encounters(
            ids, args.horizon, args.seed, mode=args.encounters
        )
    except traces.TraceError as exc:
        print(f"trace generation failed: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    written = _write_json(args.out, traces.traces_to_dict(capacity, encounters))
    return EXIT_OK if written else EXIT_CONFIG


def cmd_ingest(args: argparse.Namespace) -> int:
    try:
        sessions = traces.read_sessions_csv(args.sessions)
        viewing = traces.read_viewing_csv(args.viewing)
        encounters = traces.encounters_from_sessions(sessions, horizon=args.horizon)
        capacity = traces.capacity_from_viewing_log(viewing, horizon=encounters.horizon)
        unsampled = sorted({r.user_id for r in sessions} - capacity.users.keys())
        if unsampled:
            raise traces.TraceError(f"{args.sessions}: users {unsampled} have sessions "
                                    f"but no viewing samples in {args.viewing}")
    except (OSError, traces.TraceError) as exc:
        print(f"ingestion failed: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    written = _write_json(args.out, traces.traces_to_dict(capacity, encounters))
    return EXIT_OK if written else EXIT_CONFIG


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crowdstream",
        description="Cooperative ABR streaming: simulations and welfare bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment matrix")
    p_run.add_argument("--spec", required=True, help="experiment spec JSON")
    p_run.add_argument("--out", help="output directory (overrides spec)")
    p_run.add_argument("--jobs", type=int, default=1, help="parallel workers")
    p_run.set_defaults(fn=cmd_run)

    p_bounds = sub.add_parser("bounds", help="compute offline bound certificate")
    p_bounds.add_argument("--spec", required=True, help="instance JSON")
    p_bounds.add_argument("--out", default="bounds.json")
    p_bounds.set_defaults(fn=cmd_bounds)

    p_gen = sub.add_parser("gen-traces", help="synthesize seeded traces")
    p_gen.add_argument("--users", type=int, default=10)
    p_gen.add_argument("--horizon", type=float, default=500.0)
    p_gen.add_argument("--cap-lo", type=float, default=0.5)
    p_gen.add_argument("--cap-hi", type=float, default=3.0)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--encounters", default="trace", choices=traces.ENCOUNTER_MODES)
    p_gen.add_argument("--out", default="trace.json")
    p_gen.set_defaults(fn=cmd_gen_traces)

    p_ing = sub.add_parser("ingest", help="convert CSV logs to trace.json")
    p_ing.add_argument("--sessions", required=True, help="hotspot session CSV")
    p_ing.add_argument("--viewing", required=True, help="viewing log CSV")
    p_ing.add_argument("--horizon", type=float, default=None)
    p_ing.add_argument("--out", default="trace.json")
    p_ing.set_defaults(fn=cmd_ingest)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
