"""Tests of the benchmark itself. From the repository root:

    python3 -m pytest perfbench/tests -q
"""
import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench"),
                os.path.join(ROOT, "tests")]

import pytest  # noqa: E402

from crowdstream import offline, online, traces  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import tiny  # noqa: E402
import workloads  # noqa: E402


class SmallCoop(workloads.SimWorkload):
    """A few users meeting on random encounter traces, so the traced run
    covers encounter queries, payoff and drift in seconds."""

    def make_specs(self):
        return {"coop": {
            "scenario": "multi", "n_users": 6, "video_fraction": 0.5,
            "capacity_range": [0.0, 0.7], "cooperation": "trace",
            "schedulers": ["lyapunov", "buffer"], "lambdas": [100.0],
            "seeds": [self.seed], "horizon": 100.0,
        }}


class SmallSingle(workloads.SimSingle):
    SEEDS = 1


class SmallBounds(workloads.BoundsTiny):
    BATCH = 6
    CHUNK = 4


SMALL = {"coop": SmallCoop, "single": SmallSingle, "bounds": SmallBounds}


@pytest.fixture(params=sorted(SMALL))
def traced_pair(request, tmp_path):
    w = SMALL[request.param](3, str(tmp_path / "work"))
    w.setup()
    try:
        yield run.measure_traced(w)
    finally:
        shutil.rmtree(tmp_path / "work", ignore_errors=True)


def test_tiny_generator_matches_acceptance_generator():
    import test_acceptance
    for seed in range(20):
        assert tiny.tiny_instance(seed) == test_acceptance.tiny_instance(seed)


def test_traced_outputs_are_byte_identical(traced_pair):
    (_, plain), (_, traced), _ = traced_pair
    assert plain.outputs and not plain.failures
    assert traced.outputs == plain.outputs
    assert traced.counts == plain.counts


def test_child_spans_never_exceed_their_parent(traced_pair):
    _, _, tracer = traced_pair
    assert tracer.spans
    children: dict = {}
    for (name, parent), (calls, total, own, min_own) in tracer.spans.items():
        assert min_own >= -1e-9, (name, parent)
        assert 0 <= own <= total + 1e-9
        children[parent] = children.get(parent, 0.0) + total
    for parent, covered in children.items():
        if parent is not None:
            assert covered <= tracer.total(parent) + 1e-9, parent


def test_tracer_restores_the_originals(traced_pair):
    for owner, attr, _ in spans.TRACED:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert not hasattr(getattr(current, "__func__", current), "__wrapped__"), attr
    assert offline.linprog.__module__.startswith("scipy")
    assert online.make_scheduler.__module__ == "crowdstream.online"
    assert traces.CapacityTrace.invert.__qualname__ == "CapacityTrace.invert"


def test_counts_repeat_exactly(tmp_path):
    counts = []
    for i in range(2):
        w = SmallCoop(5, str(tmp_path / f"w{i}"))
        w.setup()
        _, (_, traced), tracer = run.measure_traced(w)
        counts.append(run.traced_counts(tracer, traced))
    assert counts[0] == counts[1]
    assert counts[0]["online.decide.calls"] > 0
    assert counts[0]["traces.encounter.calls"] > 0


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    emitted = {k: u for k, (_, u) in spans.layer_metrics(spans.Tracer(), {}).items()}
    emitted["trace.overhead_s"] = "s"
    assert per_layer == emitted
    assert {m["name"] for m in bench["end_to_end"]} == set(run.END_TO_END)
    assert {w["name"] for w in bench["workloads"]} <= set(workloads.WORKLOADS)


def test_references_hold_the_seed_commit_counts():
    with open(os.path.join(run.REFS_DIR, "sim-coop.json")) as fh:
        coop = json.load(fh)["seeds"]["0"]
    assert coop["counts"]["decisions"] == 51_605
    with open(os.path.join(run.REFS_DIR, "bounds-acceptance.json")) as fh:
        acceptance = json.load(fh)["seeds"]["0"]["counts"]
    assert acceptance["brute_half.nodes[tiny/2]"] == 1_371_597
    assert acceptance["brute_half.leaves[tiny/2]"] == 973_591
