import collections
import concurrent.futures
import csv
import enum
import gc
import json
import math
import multiprocessing
import os
import pathlib
import subprocess
import sys
import time
import tracemalloc
import weakref
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from crowdstream import cli, offline, sim, traces
from crowdstream.cli import ExperimentSpec, SpecError, build_profiles
from crowdstream.model import UserProfile


def write_spec(tmp_path, **overrides):
    spec = {
        "scenario": "single",
        "schedulers": ["lyapunov"],
        "lambdas": [100.0],
        "seeds": [0, 1],
        "horizon": 50.0,
        "video_length_s": 50.0,
        "capacity_range": [1.0, 2.0],
        "out_dir": str(tmp_path / "out"),
    }
    spec.update(overrides)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return str(path)


def make_bounds_instance(tmp_path, *, segs=2, ladder=(0.2, 0.7), horizon=8.0,
                         rate=1.0, slot_len=4.0, **extra):
    prof = UserProfile(id=0, beta=2.0, buffer_cap=2.0 * max(1, segs),
                       ladder=ladder, phi_qdeg=0.5, phi_rebuf=0.1,
                       c_time=0.05, c_data=0.02, video_segments=segs)
    cap = traces.CapacityTrace.constant([0], rate, horizon)
    enc = traces.EncounterTrace.none(horizon)
    payload = {
        **traces.traces_to_dict(cap, enc),
        "profiles": [prof.to_dict()],
        "slot_len": slot_len,
        **extra,
    }
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(payload))
    return str(path)


def with_profile(**fields):
    """Sets ``fields`` in the bounds instance's one profile."""
    return lambda d: {**d, "profiles": [{**d["profiles"][0], **fields}]}


def with_pairs(*pairs):
    """Adds user 1, with user 0's profile and capacity, to the bounds
    instance and gives it the encounter ``pairs``."""
    return lambda d: {
        **d, "profiles": [*d["profiles"], {**d["profiles"][0], "id": 1}],
        "capacity": {**d["capacity"], "users": {**d["capacity"]["users"],
                                                "1": d["capacity"]["users"]["0"]}},
        "encounters": {**d["encounters"], "pairs": list(pairs)},
    }


# each turns the default bounds instance into one refused before any solve
MALFORMED_BOUNDS = {
    "missing-keys": lambda d: {"profiles": []},
    "unknown-profile-key": lambda d: {**d, "profiles": [{**d["profiles"][0], "bogus": 1}]},
    "profile-missing-from-trace": lambda d: {**d, "profiles": [{**d["profiles"][0], "id": 3}]},
    "zero-slot-length": lambda d: {**d, "slot_len": 0},
    "string-include-middle": lambda d: {**d, "include_middle": "false"},
    "float-budget": lambda d: {**d, "exact_budget": 2.5},
    "bool-slot-len": lambda d: {**d, "slot_len": True},
    "overlapping-encounters": with_pairs({"users": [0, 1], "intervals": [[0, 4], [3, 8]]}),
    "repeated-encounter-pair": with_pairs({"users": [0, 1], "intervals": [[0, 2]]},
                                          {"users": [0, 1], "intervals": [[5, 6]]}),
    "encounter-user-without-profile": with_pairs({"users": [0, 7], "intervals": [[0, 2]]}),
    "capacity-user-without-profile": lambda d: {**d, "capacity": {
        **d["capacity"], "users": {**d["capacity"]["users"], "7": d["capacity"]["users"]["0"]}}},
    "user-named-twice-in-capacity": lambda d: {**d, "capacity": {
        **d["capacity"], "users": {**d["capacity"]["users"], "00": d["capacity"]["users"]["0"]}}},
    "zero-ladder-rate": with_profile(ladder=[0.0, 0.5]),
    "negative-ladder-rate": with_profile(ladder=[-1.0, 0.5]),
    "nan-ladder-rate": with_profile(ladder=[float("nan")]),
    "infinite-ladder-rate": with_profile(ladder=[float("inf")]),
    "nan-weight": with_profile(c_data=float("nan")),
    "float-video-segments": with_profile(video_segments=2.5),
    "infinite-video-segments": with_profile(video_segments=float("inf")),
    "bool-video-segments": with_profile(video_segments=True),
    "nan-capacity-rate": lambda d: {**d, "capacity": {
        **d["capacity"], "users": {"0": {"times": [0.0], "rates": [float("nan")]}}}},
    "nan-encounter-end": with_pairs({"users": [0, 1], "intervals": [[0, float("nan")]]}),
    "unknown-key": lambda d: {**d, "exact_budgte": 10},
    "infinite-slot-length": lambda d: {**d, "slot_len": float("inf")},
    "negative-exact-budget": lambda d: {**d, "exact_budget": -1},
    "zero-brute-budget": lambda d: {**d, "brute_budget": 0},
    "n-slots-key": lambda d: {**d, "n_slots": 2},  # the horizon alone sets the count
    # more slots than the limit allows: 8 / 1e-300 of them, or 8 // 5e-324,
    # which overflows
    "tiny-slot-length": lambda d: {**d, "slot_len": 1e-300},
    "subnormal-slot-length": lambda d: {**d, "slot_len": 5e-324},
    # 9,999 slots of one user with 1,001 ladder levels: 1.001e7 LP columns
    "lp-columns-above-limit": lambda d: {
        **with_profile(ladder=[0.001 * (k + 1) for k in range(1001)])(d),
        "slot_len": 8.0 / 10_000},
}


def write_bounds_case(tmp_path, case):
    """Writes the default bounds instance, as ``MALFORMED_BOUNDS[case]``
    turns it, to ``tmp_path``; returns its path."""
    path = pathlib.Path(make_bounds_instance(tmp_path))
    path.write_text(json.dumps(MALFORMED_BOUNDS[case](json.loads(path.read_text()))))
    return str(path)


# each makes a run spec that must be rejected before anything runs
BAD_RUN_SPECS = {
    "zero-beta": {"beta": 0},
    "unknown-abort-policy": {"abort_policy": "x"},
    "zero-horizon": {"horizon": 0},
    "negative-horizon": {"horizon": -5},
    "empty-ladder": {"ladder": []},
    "cap-below-beta": {"buffer_cap": 1},
    "zero-theta": {"theta": 0},
    "negative-video-length": {"video_length_s": -4},
    "infinite-video-length": {"video_length_s": float("inf")},
    "float-n-users": {"scenario": "multi", "n_users": 2.5},
    "string-lambda": {"lambdas": ["x"]},
    "nan-lambda": {"lambdas": [float("nan")]},
    "zero-slot-length-with-gap": {"slot_len": 0, "compute_gap": True},
    "no-seeds": {"seeds": []},
    "no-lambdas-for-lyapunov": {"lambdas": []},
    "zero-ladder-rate-with-gap": {"ladder": [0.0, 0.5], "compute_gap": True},
    "nan-ladder-rate": {"ladder": [float("nan")]},
    "infinite-buffer-cap": {"buffer_cap": float("inf")},
    "nan-theta": {"theta": float("nan")},
    "nan-weight": {"phi_rebuf": float("nan")},
    "infinite-capacity-range": {"capacity_range": [0, float("inf")]},
    "nan-capacity-range": {"capacity_range": [float("nan"), 1]},
    "infinite-slot-length-with-gap": {"slot_len": float("inf"), "compute_gap": True},
    "float-seed": {"seeds": [1.5]},
    "bool-seed": {"seeds": [True]},
    "nan-delta-th": {"delta_th": float("nan")},
    "infinite-gap-th": {"gap_th": float("inf")},
    "negative-gap-th": {"gap_th": -5},
    "negative-delta-th": {"delta_th": -0.5},
    "string-compute-gap": {"compute_gap": "no"},
    "int-compare-cooperation": {"compare_cooperation": 1},
    "int-out-dir": {"out_dir": 5},
    "infinite-slot-length-without-gap": {"slot_len": float("inf")},
    "bool-horizon": {"horizon": True},
    "repeated-seed": {"seeds": [0, 0]},
    "repeated-scheduler": {"schedulers": ["lyapunov", "lyapunov"]},
    "same-lambda-tag": {"lambdas": [100, 100.0000001]},
    "overflowing-segment-count": {"video_length_s": 1e308, "beta": 1e-300},
    "lp-columns-above-limit-with-gap": {"scenario": "multi", "n_users": 100,
                                        "horizon": 1005.0, "compute_gap": True},
    "infinite-horizon": {"horizon": float("inf")},
    "huge-horizon": {"horizon": 1e9},  # work far above the limit
}

# gen-traces arguments each refused before any trace is made
GEN_TRACES_NO_USERS = ("0", "-3")
GEN_TRACES_NON_POSITIVE_HORIZONS = ("0", "-5")
BAD_GEN_TRACES = {
    **{f"users={n}": ["--users", n] for n in GEN_TRACES_NO_USERS},
    **{f"horizon={h}": [f"--horizon={h}"] for h in GEN_TRACES_NON_POSITIVE_HORIZONS},
    "infinite-horizon": ["--horizon", "inf"],
    "huge-horizon": ["--users", "2", "--horizon", "1e9"],
    "reversed-capacity-range": ["--cap-lo", "3", "--cap-hi", "1"],
}

# every scheduler, two lambdas, two seeds and both cooperation modes: 16
# cells over 4 distinct (seed, mode) fluid bounds
GAP_MATRIX = dict(
    scenario="multi", n_users=2, video_fraction=0.5, seeds=[0, 1],
    horizon=40.0, video_length_s=40.0, schedulers=["lyapunov", "buffer", "prediction"],
    lambdas=[1.0, 100.0], compute_gap=True, compare_cooperation=True,
)


class TestExperimentSpec:
    def test_single_scenario_forces_one_user(self):
        spec = ExperimentSpec(scenario="single", n_users=10, video_fraction=0.3)
        assert spec.n_users == 1
        assert spec.video_fraction == 1.0

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(SpecError, match="unknown scheduler"):
            ExperimentSpec(schedulers=("greedy",))

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"scenario": "single", "typo_field": 1}))
        with pytest.raises(SpecError, match="typo_field"):
            ExperimentSpec.from_file(str(path))

    def test_bad_capacity_range_rejected(self):
        with pytest.raises(SpecError, match="capacity range"):
            ExperimentSpec(capacity_range=(3.0, 1.0))

    def test_gap_slot_count_above_limit_rejected(self):
        """``compute_gap`` builds a slotted instance per cell: more than
        ``MAX_SLOTS`` slots are refused with the spec, not in a cell."""
        with pytest.raises(SpecError, match="^12800.0 slots exceed the limit of 10000 slots$"):
            ExperimentSpec(horizon=100.0, slot_len=2**-7, compute_gap=True)
        ExperimentSpec(horizon=100.0, slot_len=2**-7)  # no gap, no slots
        ExperimentSpec(horizon=100.0, slot_len=2**-6, compute_gap=True)  # 6,400 slots

    def test_gap_infinite_slot_length_rejected(self):
        """An infinite slot length would give 0 slots and an upper bound of
        0.0 in every cell; it is refused with the spec."""
        with pytest.raises(ValueError, match="^slot length must be positive and finite$"):
            offline.slot_count(build_profiles(ExperimentSpec()), 100.0, math.inf)
        with pytest.raises(SpecError, match="^slot length must be positive and finite$"):
            ExperimentSpec(slot_len=math.inf, compute_gap=True)

    def test_gap_lp_columns_above_limit_rejected(self):
        """``compute_gap`` solves a fluid LP per (seed, mode): one estimated
        above ``MAX_LP_COLUMNS`` (slots × users² × levels) is refused with
        the spec. The 100-user scaling spec is estimated at 5e6 and kept."""
        spec = dict(n_users=100, video_fraction=0.2, capacity_range=(0.0, 0.7),
                    cooperation="trace", horizon=500.0, compute_gap=True)
        ExperimentSpec(**spec)  # 100 slots x 100**2 users x 5 levels
        with pytest.raises(SpecError, match=r"^1\.005e\+07 estimated LP columns exceed "
                                            r"the limit of 1e\+07$"):
            ExperimentSpec(**{**spec, "horizon": 1005.0})  # 201 slots
        ExperimentSpec(**{**spec, "horizon": 1005.0, "compute_gap": False})  # no LP


class TestBuildProfiles:
    def test_video_fraction_split(self):
        spec = ExperimentSpec(n_users=10, video_fraction=0.2, video_length_s=500.0)
        profiles = build_profiles(spec)
        video = [p for p in profiles if p.is_video_user]
        idle = [p for p in profiles if not p.is_video_user]
        assert len(video) == 2 and len(idle) == 8
        assert all(p.video_segments == 250 for p in video)
        assert all(p.phi_rebuf == 0.0 and p.phi_qdeg == 0.0 for p in idle)

    def test_at_least_one_video_user(self):
        spec = ExperimentSpec(n_users=10, video_fraction=0.01)
        assert sum(p.is_video_user for p in build_profiles(spec)) == 1


class TestRunCommand:
    def test_single_user_matrix(self, tmp_path):
        spec_path = write_spec(tmp_path)
        assert cli.main(["run", "--spec", spec_path]) == 0
        out = tmp_path / "out"
        with open(out / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [sorted(r.keys()) for r in rows] == [sorted([
            "scheduler", "seed", "lambda", "avg_bitrate_mbps",
            "welfare", "rebuffer_s", "gap"]) for _ in rows]
        assert len(rows) == 2  # two seeds
        assert {r["seed"] for r in rows} == {"0", "1"}
        assert all(float(r["welfare"]) != 0.0 for r in rows)
        assert (out / "report_lyapunov_lam100_full_0.json").exists()

    def test_rerun_is_deterministic(self, tmp_path):
        spec_path = write_spec(tmp_path)
        cli.main(["run", "--spec", spec_path])
        first = (tmp_path / "out" / "summary.csv").read_bytes()
        cli.main(["run", "--spec", spec_path])
        assert (tmp_path / "out" / "summary.csv").read_bytes() == first

    def test_cooperation_comparison_artifact(self, tmp_path):
        spec_path = write_spec(
            tmp_path, scenario="multi", n_users=2, video_fraction=0.5,
            seeds=[0], horizon=40.0, video_length_s=40.0,
            compare_cooperation=True,
        )
        assert cli.main(["run", "--spec", spec_path]) == 0
        with open(tmp_path / "out" / "cooperation_gain.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert set(rows[0]) == {"scheduler", "seed", "lambda",
                                "bitrate_gain", "welfare_gain"}

    def test_bad_spec_json_exits_2(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{not json")
        assert cli.main(["run", "--spec", str(path)]) == 2

    def test_unknown_scheduler_exits_2(self, tmp_path):
        spec_path = write_spec(tmp_path, schedulers=["greedy"])
        assert cli.main(["run", "--spec", spec_path]) == 2

    def test_missing_spec_exits_2(self, tmp_path):
        assert cli.main(["run", "--spec", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("case", list(BAD_RUN_SPECS))
    def test_bad_spec_exits_2_before_running(self, tmp_path, capsys, case):
        spec_path = write_spec(tmp_path, **BAD_RUN_SPECS[case])
        assert cli.main(["run", "--spec", spec_path]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("bad experiment spec: ")
        assert not (tmp_path / "out").exists()

    def test_fluid_bound_solved_once_per_seed_and_mode(self, tmp_path, monkeypatch):
        solves = []
        solve = offline.solve_slotted_relaxed

        def counted(instance):
            solves.append(instance)
            return solve(instance)

        monkeypatch.setattr(offline, "solve_slotted_relaxed", counted)
        spec_path = write_spec(tmp_path, **GAP_MATRIX)
        assert cli.main(["run", "--spec", spec_path, "--jobs", "1"]) == 0
        assert len(solves) == 4
        monkeypatch.setattr(offline, "solve_slotted_relaxed", solve)

        spec = ExperimentSpec.from_file(spec_path)
        profiles = build_profiles(spec)
        ids = [p.id for p in profiles]
        names = sorted(n for n in os.listdir(tmp_path / "out") if n.startswith("report_"))
        assert len(names) == 16
        for name in names:
            payload = json.loads((tmp_path / "out" / name).read_text())
            seed, mode = int(name.split("_")[-1][:-5]), payload["cooperation"]
            instance = offline.SlottedInstance.from_traces(
                profiles,
                traces.synth_capacity(ids, spec.horizon, spec.capacity_range, seed),
                traces.synth_encounters(ids, spec.horizon, seed, mode=mode),
                spec.slot_len,
            )
            report = SimpleNamespace(sw_estimated=payload["sw_estimated"])
            assert payload["gap"] == sim.gap_vs_upper_bound(report, instance), name

    def test_lp_failure_exits_3_before_any_report(self, tmp_path, capsys, monkeypatch):
        import scipy.optimize
        monkeypatch.setattr(scipy.optimize, "milp", lambda *a, **kw: SimpleNamespace(
            status=2, message="The problem is infeasible.", fun=None))
        spec_path = write_spec(tmp_path, compute_gap=True)
        assert cli.main(["run", "--spec", spec_path]) == 3
        assert capsys.readouterr().err == (
            "no report written: relaxation LP failed: The problem is infeasible.\n")
        assert os.listdir(tmp_path / "out") == []

    def test_process_pool_writes_identical_files(self, tmp_path):
        spec_path = write_spec(tmp_path, **GAP_MATRIX)
        outputs = {}
        for jobs in ("1", "2"):
            out = tmp_path / f"out_jobs{jobs}"
            assert cli.main(["run", "--spec", spec_path, "--out", str(out),
                             "--jobs", jobs]) == 0
            outputs[jobs] = {n: (out / n).read_bytes() for n in sorted(os.listdir(out))}
        assert "cooperation_gain.csv" in outputs["1"]
        assert outputs["1"] == outputs["2"]

    def test_at_most_one_report_alive(self, tmp_path, monkeypatch):
        reports = []
        run_simulation = sim.run_simulation

        def tracked(config):
            gc.collect()
            assert [ref() for ref in reports] == [None] * len(reports)
            report = run_simulation(config)
            reports.append(weakref.ref(report))
            return report

        monkeypatch.setattr(sim, "run_simulation", tracked)
        spec_path = write_spec(tmp_path, schedulers=["lyapunov", "buffer"], seeds=[0, 1, 2])
        assert cli.main(["run", "--spec", spec_path, "--jobs", "1"]) == 0
        assert len(reports) == 6

    def test_pool_starts_no_more_workers_than_tasks(self, tmp_path, monkeypatch):
        """A pool forks all its workers at its first submit, so it is asked
        for no more than there are tasks. The pool here is a fake that
        records its size and runs each task inline."""
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

            def shutdown(self, cancel_futures):
                pass

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        spec_path = write_spec(tmp_path)  # one scheduler, one lambda, two seeds
        assert cli.main(["run", "--spec", spec_path, "--jobs", "64"]) == 0
        assert sizes == [2]
        assert len(os.listdir(tmp_path / "out")) == 3

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failed_write_stops_run(self, tmp_path, capsys, monkeypatch, jobs):
        cells = []
        run_cell = cli._run_cell

        def counted(*args):
            cells.append(args[1:])
            return run_cell(*args)

        if jobs == "1":  # a pool pickles tasks by name, so only this run counts
            monkeypatch.setattr(cli, "_run_cell", counted)
        spec_path = write_spec(tmp_path, seeds=list(range(6)))
        out = tmp_path / "out"
        (out / "report_lyapunov_lam100_full_1.json").mkdir(parents=True)
        assert cli.main(["run", "--spec", spec_path, "--jobs", jobs]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("cannot write ")
        assert sorted(os.listdir(out)) == [
            "report_lyapunov_lam100_full_0.json", "report_lyapunov_lam100_full_1.json"]
        assert len(cells) <= 2
        assert multiprocessing.active_children() == []


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
    max_leaves=40,
)


class Level(enum.IntEnum):
    HIGH = 2


class Mbps(float):
    pass


def nested(levels):
    """A dict ``levels`` deep, each level one key holding a list of the next
    level and a number."""
    obj = {}
    for n in range(levels):
        obj = {f"l{n}": [obj, n]}
    return obj


# objects the writer must encode as json.dumps does, each in one case
JSON_EXAMPLES = {
    "int-keys": {1: [1], 2: {"a": 1}, 3: "x"},
    "flat-int-keys": {10: "a", 2: "b"},
    "float-keys": {1.5: [1], float("nan"): {}, float("inf"): [2], -float("inf"): 3.0},
    "flat-float-keys": {float("nan"): 1, 2.5: 2, -float("inf"): None},
    "bool-keys": {True: [1], False: 0},
    "flat-bool-keys": {True: 1, False: 0},
    "none-key": {None: [1]},
    "flat-none-key": {None: 1},
    "tuples": (1, (2, 3), [(4,), ()], {"t": (5.5, None)}),
    "int-enum-and-float-subclass": {
        "level": Level.HIGH, "rate": Mbps(1.5), "both": [Level.HIGH, Mbps(2.5)],
        "flat": {"level": Level.HIGH, "rate": Mbps(0.1)}},
    "empty-at-depth": {"a": {"b": {}, "c": [[], {}, [[]]], "d": [{}]}},
    "30-levels": nested(30),
    "mixed-list": [1, "x", [2, {"a": None}], {"b": [3]}, None, 2.5, [], float("nan")],
}


class TestWriteJson:
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture], deadline=None)
    @given(obj=JSON_VALUES)
    @example(obj={"b\u00e4r \u2713": ["\u65e5\u672c", "\U0001f600"], "": {}, "a": [[], {}]})
    @example(obj=list(range(20_000)))
    @example(obj={str(i): {"x": [i, None]} for i in range(10_000)})
    def test_writes_bytes_of_json_dumps(self, tmp_path, obj):
        path = tmp_path / "x.json"
        assert cli._write_json(str(path), obj)
        assert path.read_bytes() == json.dumps(obj, sort_keys=True, indent=2).encode()
        assert os.listdir(tmp_path) == ["x.json"]

    @pytest.mark.parametrize("c_encoder", [True, False], ids=["c", "pure-python"])
    @pytest.mark.parametrize("case", list(JSON_EXAMPLES))
    def test_example_writes_bytes_of_json_dumps(self, tmp_path, monkeypatch, case, c_encoder):
        """Without the C accelerator the stdlib encodes in pure Python, to
        the same bytes."""
        if not c_encoder:
            monkeypatch.setattr(json.encoder, "c_make_encoder", None)
        obj = JSON_EXAMPLES[case]
        path = tmp_path / "x.json"
        assert cli._write_json(str(path), obj)
        assert path.read_bytes() == json.dumps(obj, sort_keys=True, indent=2).encode()

    @pytest.mark.parametrize("make, error, message", [
        (lambda: (loop := [1]).append(loop) or loop, ValueError, "Circular reference"),
        (lambda: (d := {"a": []})["a"].append(d) or d, ValueError, "Circular reference"),
        (lambda: {(1, 2): [1]}, TypeError, "keys must be str, int, float, bool or None"),
    ], ids=["self-containing-list", "dict-inside-itself", "tuple-key"])
    def test_raises_as_json_dumps(self, tmp_path, make, error, message):
        with pytest.raises(error, match=message):
            json.dumps(make(), sort_keys=True, indent=2)
        with pytest.raises(error, match=message):
            cli._write_json(str(tmp_path / "x.json"), make())
        assert os.listdir(tmp_path) == []

    def test_rejected_payload_leaves_no_file(self, tmp_path, monkeypatch):
        """The 20,000 dicts are written before the writer reaches the object;
        the partial file is removed."""
        removed = []

        def remove(path, remove=os.remove):
            removed.append(os.path.getsize(path))
            remove(path)

        monkeypatch.setattr(os, "remove", remove)
        payload = [{"a": 1}] * 20_000 + [[object()]]
        with pytest.raises(TypeError, match="not JSON serializable"):
            cli._write_json(str(tmp_path / "x.json"), payload)
        assert os.listdir(tmp_path) == []
        assert len(removed) == 1 and removed[0] > 0

    def test_report_is_streamed(self, tmp_path):
        """A report of 40 users and 2,000 download records is written while
        less than half of its text is held at once."""
        report = {
            "per_user": {str(u): {"user": u, "welfare": u / 3, "rebuffer_s": 0.0}
                         for u in range(40)},
            "downloads": {str(u): [
                {"user": u, "seg": k, "level": k % 5, "bitrate": 0.7, "owner": u,
                 "start": k * 2.0, "end": k * 2.0 + 1.5, "bytes": 1_400_000,
                 "energy": k / 7, "late": k % 3 == 0}
                for k in range(50)] for u in range(40)},
        }
        path = tmp_path / "report.json"
        gc.collect()
        tracemalloc.start()
        try:
            assert cli._write_json(str(path), report)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 2


class TestBoundsCommand:
    def test_certificate_written(self, tmp_path):
        inst = make_bounds_instance(tmp_path)
        out = str(tmp_path / "bounds.json")
        assert cli.main(["bounds", "--spec", inst, "--out", out]) == 0
        payload = json.loads(pathlib.Path(out).read_text())
        assert set(payload) == {"lower", "middle", "upper", "chain_ok",
                                "prop1_ok", "solver_stats", "partial"}
        assert payload["partial"] is False
        assert payload["chain_ok"] is True
        assert payload["lower"] <= payload["upper"] + 1e-9

    def test_budget_exhaustion_exits_3_with_partial(self, tmp_path, capfd):
        inst = make_bounds_instance(
            tmp_path, segs=4, ladder=(0.2, 0.4, 0.7, 1.3), horizon=12.0,
            rate=4.0, exact_budget=10,
        )
        out = str(tmp_path / "bounds.json")
        assert cli.main(["bounds", "--spec", inst, "--out", out]) == 3
        payload = json.loads(pathlib.Path(out).read_text())
        assert payload["partial"] is True
        assert payload["upper"] is not None
        assert payload["solver_stats"]["failed_solver"] == "exact"
        assert payload["middle"] is None
        assert capfd.readouterr().out == ""  # the partial notice goes to stderr

    def test_brute_budget_exhaustion_reports_middle(self, tmp_path, capsys):
        inst = make_bounds_instance(tmp_path, brute_budget=1)
        out = str(tmp_path / "bounds.json")
        assert cli.main(["bounds", "--spec", inst, "--out", out]) == 3
        payload = json.loads(pathlib.Path(out).read_text())
        assert payload["partial"] is True
        assert payload["solver_stats"]["failed_solver"] == "brute"
        # the finished exact optimum is kept; the brute-force incumbent is a
        # middle reference, never a lower bound
        assert payload["lower"] == 1.9265130042486815
        assert payload["middle"] == 0.0
        assert payload["upper"] == 1.9265130042486813
        assert "brute" in capsys.readouterr().err

    def test_beta_half_budget_keeps_beta_optimum(self, tmp_path, capsys):
        inst = make_bounds_instance(tmp_path, exact_budget=23)
        out = str(tmp_path / "bounds.json")
        assert cli.main(["bounds", "--spec", inst, "--out", out]) == 3
        payload = json.loads(pathlib.Path(out).read_text())
        assert payload["partial"] is True
        # the beta/2 incumbent bounds nothing at beta: lower is the finished
        # beta optimum
        assert payload["lower"] == 1.9265130042486815
        assert payload["middle"] is None
        assert payload["solver_stats"]["exact_nodes"] == 22
        assert "exact_half_nodes" not in payload["solver_stats"]
        assert payload["solver_stats"]["failed_solver"] == "exact_half"
        assert payload["chain_ok"] is payload["prop1_ok"] is False
        assert capsys.readouterr().err.startswith("exact_half solver budget exhausted")

    def test_recursion_limit_exits_3_with_partial(self, tmp_path, capsys):
        """One user with one level and 200 more slots than the recursion
        limit allows frames: every slot's variable has two counts, so the
        exact search nests a call per slot; it fails as a budget
        exhaustion before any leaf, and the finished LP bound is kept."""
        slots = sys.getrecursionlimit() + 200
        inst = make_bounds_instance(tmp_path, ladder=(0.2,), horizon=4.0 * slots)
        out = str(tmp_path / "bounds.json")
        assert cli.main(["bounds", "--spec", inst, "--out", out]) == 3
        cert = json.loads(pathlib.Path(out).read_text())
        assert cert["partial"] is True
        assert cert["upper"] > 0
        assert cert["lower"] is cert["middle"] is None
        assert cert["solver_stats"]["failed_solver"] == "exact"
        assert cert["solver_stats"]["error"].startswith("recursion limit")
        assert capsys.readouterr().err.startswith("exact solver budget exhausted")

    def test_many_users_run_to_the_node_budget(self, tmp_path, capsys):
        """The scaling spec at 10 users and a 100 s horizon: 20 slots and
        1,105 slot variables, most with one count. The exact search nests
        a call only per variable with more, so it runs to its node budget
        and keeps its incumbent as ``lower``, beside the LP bound."""
        spec = ExperimentSpec(n_users=10, video_fraction=0.2, capacity_range=(0.0, 0.7),
                              cooperation="trace", horizon=100.0)
        profiles = build_profiles(spec)
        ids = [p.id for p in profiles]
        payload = {
            **traces.traces_to_dict(
                traces.synth_capacity(ids, spec.horizon, spec.capacity_range, 0),
                traces.synth_encounters(ids, spec.horizon, 0, mode="trace")),
            "profiles": [p.to_dict() for p in profiles],
            "slot_len": 5.0,
            "exact_budget": 10_000,
        }
        inst = tmp_path / "instance.json"
        inst.write_text(json.dumps(payload))
        out = str(tmp_path / "bounds.json")
        assert cli.main(["bounds", "--spec", str(inst), "--out", out]) == 3
        cert = json.loads(pathlib.Path(out).read_text())
        assert cert["partial"] is True
        assert cert["upper"] > 0
        assert cert["lower"] == -185.61877794272522
        assert cert["middle"] is None
        assert cert["solver_stats"]["failed_solver"] == "exact"
        assert cert["solver_stats"]["error"] == "node budget 10000 exhausted"
        assert capsys.readouterr().err.startswith("exact solver budget exhausted")

    def test_without_middle(self, tmp_path):
        inst = make_bounds_instance(tmp_path, include_middle=False)
        out = str(tmp_path / "bounds.json")
        assert cli.main(["bounds", "--spec", inst, "--out", out]) == 0
        payload = json.loads(pathlib.Path(out).read_text())
        assert payload["middle"] is None
        assert "brute_nodes" not in payload["solver_stats"]
        assert payload["chain_ok"] is (payload["lower"] <= payload["upper"] + offline.TOL)

    @pytest.mark.parametrize("extra, code", [
        ({}, 0), ({"exact_budget": 23}, 3), ({"brute_budget": 1}, 3),
    ], ids=["full", "exact-half-budget", "brute-budget"])
    def test_instance_built_and_lp_solved_once(self, tmp_path, monkeypatch, extra, code):
        calls = collections.Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(offline, "solve_slotted_relaxed",
                            counted("lp", offline.solve_slotted_relaxed))
        monkeypatch.setattr(offline.SlottedInstance, "from_traces", staticmethod(
            counted("instance", offline.SlottedInstance.from_traces)))
        inst = make_bounds_instance(tmp_path, **extra)
        out = str(tmp_path / "bounds.json")
        assert cli.main(["bounds", "--spec", inst, "--out", out]) == code
        assert calls == {"lp": 1, "instance": 1}

    def test_lp_failure_exits_3_without_traceback(self, tmp_path, capsys, monkeypatch):
        import scipy.optimize
        monkeypatch.setattr(scipy.optimize, "milp", lambda *a, **kw: SimpleNamespace(
            status=2, message="The problem is infeasible.", fun=None))
        inst = make_bounds_instance(tmp_path)
        out = tmp_path / "bounds.json"
        assert cli.main(["bounds", "--spec", inst, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "relaxation LP failed" in err and "Traceback" not in err
        assert not out.exists()

    def test_highs_writes_nothing_to_stdout(self, tmp_path, capfd):
        # capfd reads file descriptor 1 itself, where HiGHS's C++ log would go
        prof = UserProfile(id=0, beta=2.0, buffer_cap=4.0, ladder=(0.2, 0.7),
                           c_time=0.05, c_data=0.02, video_segments=2)
        instance = offline.SlottedInstance.from_traces(
            (prof,), traces.CapacityTrace.constant([0], 1.0, 8.0),
            traces.EncounterTrace.none(8.0), 4.0)
        assert offline.solve_slotted_relaxed(instance) > 0
        out = tmp_path / "bounds.json"
        assert cli.main(["bounds", "--spec", make_bounds_instance(tmp_path),
                         "--out", str(out)]) == 0
        assert out.exists()
        assert capfd.readouterr().out == ""

    def test_second_user_with_profile_is_solved(self, tmp_path):
        """The encounter cases of ``MALFORMED_BOUNDS`` differ from this
        instance in their windows alone, so each is refused for its own."""
        payload = with_pairs({"users": [0, 1], "intervals": [[0, 4]]})(
            json.loads(pathlib.Path(make_bounds_instance(tmp_path)).read_text()))
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(payload))
        out = tmp_path / "bounds.json"
        assert cli.main(["bounds", "--spec", str(path), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["chain_ok"] is True

    @pytest.mark.parametrize("case", list(MALFORMED_BOUNDS))
    def test_malformed_instance_exits_2(self, tmp_path, capsys, monkeypatch, case):
        """One line, no certificate, and neither the LP nor a search runs."""
        def solved(*args, **kwargs):
            raise AssertionError("a solver ran")

        for name in ("solve_slotted_relaxed", "solve_slotted_exact", "brute_force_segmented"):
            monkeypatch.setattr(offline, name, solved)
        out = tmp_path / "bounds.json"
        assert cli.main(["bounds", "--spec", write_bounds_case(tmp_path, case),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("bad bounds instance: ")
        assert not out.exists()

    @pytest.mark.parametrize("case, count", [
        ("tiny-slot-length", "7.999999999999999e+300"),
        ("subnormal-slot-length", "inf"),
    ], ids=["tiny-slot-length", "subnormal-slot-length"])
    def test_slot_count_above_limit_exits_2_at_once(self, tmp_path, capsys, case, count):
        """Each input would build more slots than the limit allows, both
        without end; it is refused within a second."""
        inst = write_bounds_case(tmp_path, case)
        out = tmp_path / "bounds.json"
        t0 = time.perf_counter()
        assert cli.main(["bounds", "--spec", inst, "--out", str(out)]) == 2
        assert time.perf_counter() - t0 < 1.0
        assert capsys.readouterr().err.splitlines() == [
            f"bad bounds instance: {count} slots exceed the limit of 10000 slots"]
        assert not out.exists()

    def test_lp_columns_above_limit_exits_2_at_once(self, tmp_path, capsys):
        """9,999 slots of one user with 1,001 ladder levels: an LP estimated
        at 1.001e7 columns is refused within a second, before a slot is
        built. The check passes at the limit and refuses one level above."""
        inst = write_bounds_case(tmp_path, "lp-columns-above-limit")
        ladder = json.loads(pathlib.Path(inst).read_text())["profiles"][0]["ladder"]
        out = tmp_path / "bounds.json"
        t0 = time.perf_counter()
        assert cli.main(["bounds", "--spec", inst, "--out", str(out)]) == 2
        assert time.perf_counter() - t0 < 1.0
        assert capsys.readouterr().err.splitlines() == [
            "bad bounds instance: 1.001e+07 estimated LP columns exceed the limit of 1e+07"]
        assert not out.exists()
        def one_user(levels):
            return (UserProfile(id=0, beta=2.0, buffer_cap=2.0, ladder=tuple(ladder[:levels])),)

        assert offline.slot_count(one_user(1000), 10_000.0, 1.0) == 10_000
        with pytest.raises(ValueError):
            offline.slot_count(one_user(1001), 10_000.0, 1.0)


class TestGenTracesCommand:
    def test_deterministic_output(self, tmp_path):
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        argv = ["gen-traces", "--users", "3", "--horizon", "100",
                "--seed", "5", "--encounters", "trace"]
        assert cli.main(argv + ["--out", a]) == 0
        assert cli.main(argv + ["--out", b]) == 0
        assert pathlib.Path(a).read_text() == pathlib.Path(b).read_text()
        cap, enc = traces.traces_from_dict(json.loads(pathlib.Path(a).read_text()))
        assert cap.horizon == 100.0
        assert sorted(cap.users) == [0, 1, 2]

    def test_bad_range_exits_2(self, tmp_path):
        out = str(tmp_path / "t.json")
        assert cli.main(["gen-traces", *BAD_GEN_TRACES["reversed-capacity-range"],
                         "--out", out]) == 2

    @pytest.mark.parametrize("users", GEN_TRACES_NO_USERS)
    def test_no_users_exits_2(self, tmp_path, capsys, users):
        """A user count below one is refused with one line, as a run spec's
        is, and no trace is written."""
        out = tmp_path / "t.json"
        assert cli.main(["gen-traces", *BAD_GEN_TRACES[f"users={users}"],
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"trace generation refused: need at least one user, got {users}\n")
        assert not out.exists()

    @pytest.mark.parametrize("horizon", GEN_TRACES_NON_POSITIVE_HORIZONS)
    def test_non_positive_horizon_exits_2(self, tmp_path, capsys, horizon):
        """A horizon that is not positive is refused with one line naming
        it, as a run spec's is, and no trace is written."""
        out = tmp_path / "t.json"
        assert cli.main(["gen-traces", *BAD_GEN_TRACES[f"horizon={horizon}"],
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"trace generation refused: horizon must be positive, got {float(horizon)}\n")
        assert not out.exists()


class TestOutputPaths:
    """An output path that cannot be written exits 2 with one stderr line,
    for every verb that writes."""

    @staticmethod
    def argv(verb, tmp_path):
        afile = tmp_path / "afile"
        afile.write_text("")
        missing = str(tmp_path / "missing" / "x.json")
        if verb == "run":
            return ["run", "--spec", write_spec(tmp_path), "--out", str(afile)]
        if verb == "run-summary-is-directory":
            (tmp_path / "out" / "summary.csv").mkdir(parents=True)
            return ["run", "--spec", write_spec(tmp_path, seeds=[0]),
                    "--out", str(tmp_path / "out")]
        if verb == "bounds":
            return ["bounds", "--spec", make_bounds_instance(tmp_path), "--out", missing]
        if verb == "bounds-into-directory":
            (tmp_path / "adir").mkdir()
            return ["bounds", "--spec", make_bounds_instance(tmp_path),
                    "--out", str(tmp_path / "adir")]
        if verb == "gen-traces":
            return ["gen-traces", "--users", "2", "--horizon", "10",
                    "--out", str(afile / "x.json")]
        if verb == "gen-traces-into-directory":
            (tmp_path / "adir").mkdir()
            return ["gen-traces", "--users", "2", "--horizon", "10",
                    "--out", str(tmp_path / "adir")]
        (tmp_path / "s.csv").write_text(SESSIONS_CSV)
        (tmp_path / "v.csv").write_text(VIEWING_CSV)
        return ["ingest", "--sessions", str(tmp_path / "s.csv"),
                "--viewing", str(tmp_path / "v.csv"), "--out", missing]

    @pytest.mark.parametrize("verb", [
        "run", "run-summary-is-directory", "bounds", "bounds-into-directory",
        "gen-traces", "gen-traces-into-directory", "ingest"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, monkeypatch, verb):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved although the output cannot be written")

        # an unwritable bounds output is caught before the certificate is solved
        monkeypatch.setattr(offline, "bound_certificate", no_solve)
        before = set(os.listdir(tmp_path))
        argv = self.argv(verb, tmp_path)
        made = set(os.listdir(tmp_path)) - before
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("cannot ")
        assert set(os.listdir(tmp_path)) - before == made  # no temporary file left
        if verb == "run-summary-is-directory":
            assert not any(n.endswith(".tmp") for n in os.listdir(tmp_path / "out"))


SESSIONS_CSV = """user_id,hotspot_id,login_s,logout_s
0,ap1,0,10
1,ap1,5,20
"""

VIEWING_CSV = """user_id,video_id,seg_index,seg_len_s,bitrate_mbps,download_s
0,v1,0,2.0,1.3,2.0
1,v2,0,2.0,0.7,4.0
"""

SESSIONS_HEADER = "user_id,hotspot_id,login_s,logout_s\n"

# each (sessions CSV, viewing CSV, more ingest arguments) refused before
# anything is written
INGEST_NON_POSITIVE_HORIZONS = ("0", "-1")
MALFORMED_INGEST = {
    "non-numeric-login": (SESSIONS_HEADER + "0,ap1,x,10\n", VIEWING_CSV, ()),
    "nan-session": (SESSIONS_CSV + "2,ap1,nan,10\n", VIEWING_CSV + "2,v3,0,2.0,0.7,4.0\n", ()),
    "nan-viewing": (SESSIONS_CSV + "2,ap1,0,10\n", VIEWING_CSV + "2,v3,0,2.0,nan,4.0\n", ()),
    **{f"horizon={h}": (SESSIONS_CSV, VIEWING_CSV, ("--horizon", h))
       for h in INGEST_NON_POSITIVE_HORIZONS},
    "session-log-without-horizon": (SESSIONS_HEADER, VIEWING_CSV, ()),
    "session-users-without-viewing-samples": (
        SESSIONS_HEADER + "0,ap1,0,10\n1,ap1,6,20\n",
        "user_id,video_id,seg_index,seg_len_s,bitrate_mbps,download_s\n0,v1,0,2.0,1.3,2.0\n",
        ()),
}


def ingest_argv(tmp_path, sessions=SESSIONS_CSV, viewing=VIEWING_CSV, more=()):
    """``ingest`` of the two CSV logs, written to ``tmp_path`` as
    ``sessions.csv`` and ``viewing.csv``, into ``tmp_path / "t.json"``."""
    (tmp_path / "sessions.csv").write_text(sessions)
    (tmp_path / "viewing.csv").write_text(viewing)
    return ["ingest", "--sessions", str(tmp_path / "sessions.csv"),
            "--viewing", str(tmp_path / "viewing.csv"), *more,
            "--out", str(tmp_path / "t.json")]


def run_python(args, timeout=60):
    """``python`` with ``args`` in a fresh interpreter that imports this
    package's source and turns a RuntimeWarning into an error."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", *args],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


class TestModuleEntryPoint:
    def test_python_dash_m_runs_without_runtime_warning(self, tmp_path):
        out = tmp_path / "t.json"
        proc = run_python(["-m", "crowdstream.cli", "gen-traces", "--users", "2",
                           "--horizon", "10", "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert out.exists()

    @pytest.mark.parametrize("verb", ["gen-traces", "run"])
    def test_infinite_horizon_exits_2(self, tmp_path, verb):
        out = tmp_path / "out"
        argv = (["gen-traces", *BAD_GEN_TRACES["infinite-horizon"], "--out", str(out)]
                if verb == "gen-traces" else
                ["run", "--spec", write_spec(tmp_path, **BAD_RUN_SPECS["infinite-horizon"])])
        # a synthesizer that loops toward an infinite horizon grows its
        # lists without bound, so the timeout is kept short
        proc = run_python(["-m", "crowdstream.cli", *argv], timeout=10)
        assert proc.returncode == 2, proc.stderr
        assert len(proc.stderr.splitlines()) == 1
        assert not out.exists()


class TestWorkLimit:
    """``run`` and ``gen-traces`` size their work from users and horizon
    before they start, and refuse more than ``cli.MAX_WORK``."""

    def test_estimate_counts_pieces_windows_polls_and_downloads(self):
        # one user over 300 s: 1 + 10 pieces, no pair, 300 re-polls, and
        # with 2 s segments 150 downloads
        assert cli.estimated_work(1, 300.0) == 311.0
        assert cli.estimated_work(1, 300.0, 2.0) == 461.0
        # two users over 120 s: 2 * (1 + 4) pieces, 1 + 1 windows, 240 re-polls
        assert cli.estimated_work(2, 120.0) == 252.0

    @pytest.mark.parametrize("users, horizon", [
        (1, 500.0),  # the single-user cells
        (40, 500.0),  # the benchmark's cooperation cell
        (200, 500.0),  # the largest user count of the scaling sweep
    ])
    def test_shipped_sizes_are_within_the_limit(self, users, horizon):
        assert cli.estimated_work(users, horizon, 2.0) <= cli.MAX_WORK

    def test_tiny_segments_exceed_the_limit(self, tmp_path, capsys):
        """A segment of 1e-6 s would make a 50 s cell download about 5e7
        segments: refused before anything runs."""
        assert cli.main(["run", "--spec", write_spec(tmp_path, beta=1e-6, buffer_cap=40.0)]) == 2
        assert capsys.readouterr().err == (
            "bad experiment spec: estimated work 5e+07 exceeds the limit of 1e+07 per cell\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("verb, line", [
        ("run", "bad experiment spec: estimated work 1.533e+09 exceeds the limit "
                "of 1e+07 per cell"),
        ("gen-traces", "trace generation refused: estimated work 2.075e+09 exceeds "
                       "the limit of 1e+07"),
    ])
    def test_huge_horizon_exits_2_at_once(self, tmp_path, verb, line):
        """A horizon of 1e9 s exits 2 within a second with one line naming
        the estimate and the limit, writes nothing and loads neither numpy
        nor scipy."""
        out = tmp_path / "out"
        argv = (["gen-traces", *BAD_GEN_TRACES["huge-horizon"], "--out", str(out)]
                if verb == "gen-traces" else
                ["run", "--spec", write_spec(tmp_path, **BAD_RUN_SPECS["huge-horizon"]),
                 "--out", str(out)])
        script = """
import sys, time
from crowdstream import cli
t0 = time.perf_counter()
rc = cli.main(sys.argv[1:])
print(rc, time.perf_counter() - t0 < 1.0, [m for m in ("numpy", "scipy") if m in sys.modules])
"""
        proc = run_python(["-c", script, *argv], timeout=30)
        assert proc.stdout.splitlines() == ["2 True []"]
        assert proc.stderr.splitlines() == [line]
        assert not out.exists()


class TestIngestCommand:
    def test_csv_logs_to_traces(self, tmp_path):
        sessions = tmp_path / "sessions.csv"
        viewing = tmp_path / "viewing.csv"
        sessions.write_text(SESSIONS_CSV)
        viewing.write_text(VIEWING_CSV)
        out = str(tmp_path / "trace.json")
        assert cli.main(["ingest", "--sessions", str(sessions),
                         "--viewing", str(viewing), "--out", out]) == 0
        cap, enc = traces.traces_from_dict(json.loads(pathlib.Path(out).read_text()))
        assert enc.encountered(0, 1, 7.0)
        assert cap.rate_at(0, 1.0) == pytest.approx(1.3)

    def test_malformed_csv_exits_2(self, tmp_path):
        assert cli.main(ingest_argv(tmp_path, *MALFORMED_INGEST["non-numeric-login"])) == 2

    @pytest.mark.parametrize("case", ["nan-session", "nan-viewing"])
    def test_non_finite_value_exits_2(self, tmp_path, capsys, case):
        assert cli.main(ingest_argv(tmp_path, *MALFORMED_INGEST[case])) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "t.json").exists()

    @pytest.mark.parametrize("horizon, pairs", [
        ("5", []),  # the overlap starts after the horizon
        ("8", [{"intervals": [[6.0, 8.0]], "users": [0, 1]}]),
    ])
    def test_horizon_clips_overlaps(self, tmp_path, horizon, pairs):
        sessions = tmp_path / "sessions.csv"
        viewing = tmp_path / "viewing.csv"
        sessions.write_text("user_id,hotspot_id,login_s,logout_s\n0,ap1,0,10\n1,ap1,6,20\n")
        viewing.write_text(VIEWING_CSV)
        out = tmp_path / "t.json"
        assert cli.main(["ingest", "--sessions", str(sessions), "--viewing", str(viewing),
                         "--horizon", horizon, "--out", str(out)]) == 0
        encounters = json.loads(out.read_text())["encounters"]
        assert encounters == {"horizon": float(horizon), "pairs": pairs}

    @pytest.mark.parametrize("horizon", INGEST_NON_POSITIVE_HORIZONS)
    def test_non_positive_horizon_exits_2(self, tmp_path, capsys, horizon):
        assert cli.main(ingest_argv(tmp_path, *MALFORMED_INGEST[f"horizon={horizon}"])) == 2
        err = capsys.readouterr().err
        assert err == f"ingestion failed: horizon must be positive, got {float(horizon)}\n"
        assert not (tmp_path / "t.json").exists()

    def test_session_log_without_horizon_exits_2(self, tmp_path, capsys):
        assert cli.main(ingest_argv(
            tmp_path, *MALFORMED_INGEST["session-log-without-horizon"])) == 2
        err = capsys.readouterr().err
        assert "session log" in err and "--horizon" in err
        assert not (tmp_path / "t.json").exists()

    def test_session_users_without_viewing_samples_exit_2(self, tmp_path, capsys):
        assert cli.main(ingest_argv(
            tmp_path, *MALFORMED_INGEST["session-users-without-viewing-samples"])) == 2
        err = capsys.readouterr().err
        sessions = tmp_path / "sessions.csv"
        assert f"{sessions}: users [1] have sessions but no viewing samples" in err
        assert not (tmp_path / "t.json").exists()

    def test_missing_file_exits_2(self, tmp_path):
        assert cli.main(["ingest", "--sessions", str(tmp_path / "a.csv"),
                         "--viewing", str(tmp_path / "b.csv"),
                         "--out", str(tmp_path / "t.json")]) == 2


def refused_cases(verb, tmp_path):
    """(name, argv, output path) of each input of ``verb`` that a table
    above refuses, each written to a directory of its own in ``tmp_path``."""
    table = {"bounds": MALFORMED_BOUNDS, "run": BAD_RUN_SPECS,
             "gen-traces": BAD_GEN_TRACES, "ingest": MALFORMED_INGEST}[verb]
    for case, entry in table.items():
        (path := tmp_path / case).mkdir()
        if verb == "bounds":
            out = path / "bounds.json"
            argv = ["bounds", "--spec", write_bounds_case(path, case), "--out", str(out)]
        elif verb == "run":
            out, argv = path / "out", ["run", "--spec", write_spec(path, **entry)]
        elif verb == "gen-traces":
            out = path / "t.json"
            argv = ["gen-traces", *entry, "--out", str(out)]
        else:
            out, argv = path / "t.json", ingest_argv(path, *entry)
        yield case, argv, str(out)


# runs cli.main on each (name, argv, output path) of the JSON list in
# argv[1]; prints, per name, the exit code, whether the output exists, and
# which of numpy and scipy are loaded by then
MAIN_PER_CASE = """
import json, os, sys
from crowdstream import cli
seen = {}
for name, argv, out in json.loads(sys.argv[1]):
    seen[name] = [cli.main(argv), os.path.exists(out),
                  [m for m in ("numpy", "scipy") if m in sys.modules]]
print(json.dumps(seen))
"""


class TestRefusedInputs:
    @pytest.mark.parametrize("verb", ["bounds", "run", "gen-traces", "ingest"])
    def test_exit_2_write_nothing_and_load_neither_numpy_nor_scipy(self, tmp_path, verb):
        """Every refused input of ``verb``, in one fresh interpreter that
        imports only ``crowdstream.cli`` and turns a RuntimeWarning into
        an error: each exits 2, writes nothing and loads neither numpy nor
        scipy. Last, a ``gen-traces`` or ``ingest`` call that is accepted
        exits 0 and loads neither either."""
        cases = list(refused_cases(verb, tmp_path))
        want = {name: [2, False, []] for name, _, _ in cases}
        if verb in ("gen-traces", "ingest"):
            (path := tmp_path / "accepted").mkdir()
            cases.append(("accepted", ingest_argv(path) if verb == "ingest" else [
                "gen-traces", "--users", "2", "--horizon", "10", "--out", str(path / "t.json")],
                str(path / "t.json")))
            want["accepted"] = [0, True, []]
        proc = run_python(["-c", MAIN_PER_CASE, json.dumps(cases)], timeout=30)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == want
