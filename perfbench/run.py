"""crowdstream benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sim-coop --seed 0 --seconds 10 --trace 0

With ``--trace 0`` it times the workload with tracing off, in rounds over
the unit's pieces for at least ``--seconds``, and prints the end-to-end
metrics; with ``--trace 1`` it runs one unit untraced and one
traced and prints the per-layer metrics. Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. It exits nonzero
without a result when the checkout holds no ``src/crowdstream``.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REFS_DIR = os.path.join(HERE, "refs")
SETUP_SAMPLES = 5
MIN_ROUNDS = 2
# The host's speed drifts by up to 1.7x within seconds. Timed work is cut
# into spans of about PROBE_EVERY_S, each bracketed by a fixed pure-Python
# loop, and each span's time is scaled to a host on which that loop takes
# PROBE_NOMINAL_S, about this host's median.
PROBE_NOMINAL_S = 0.065
PROBE_EVERY_S = 1.0
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
WORKLOAD_NAMES = ("sim-coop", "sim-single", "bounds-tiny", "bounds-acceptance")


def prepare_imports() -> None:
    """Import crowdstream from the checkout's ``src``, never from elsewhere."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "crowdstream", "__init__.py")):
        raise SystemExit(f"run.py: no crowdstream sources under {src}; "
                         "run from the root of a checkout")
    sys.path[:0] = [src, HERE]
    import crowdstream
    if not os.path.abspath(crowdstream.__file__).startswith(src + os.sep):
        raise SystemExit(f"run.py: crowdstream imported from {crowdstream.__file__}, not {src}")


def workdir_for(workload: str, tag: str) -> str:
    return os.path.join(os.getcwd(), ".bench_out", f"{workload}-{tag}-{os.getpid()}")


def remove_workdir(workdir: str) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(workdir))  # only once it is empty
    except OSError:
        pass


def host_probe() -> float:
    """Seconds this host takes for a fixed pure-Python loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(800_000):
        acc += i * i
    return time.perf_counter() - t0


def scaled(seconds: float, probe_before: float, probe_after: float) -> float:
    return seconds * PROBE_NOMINAL_S / ((probe_before + probe_after) / 2)


class HostClock:
    """Times one piece of work in spans scaled by host probes. The work
    calls ``tick()`` between items; the probe time itself is not counted."""

    def __init__(self) -> None:
        self.probe = host_probe()

    def start(self) -> None:
        self.raw = self.scaled = 0.0
        self.t0 = time.perf_counter()

    def tick(self) -> None:
        if time.perf_counter() - self.t0 >= PROBE_EVERY_S:
            self._close_span()

    def stop(self) -> tuple[float, float]:
        self._close_span()
        return self.raw, self.scaled

    def _close_span(self) -> None:
        dt = time.perf_counter() - self.t0
        after = host_probe()
        self.raw += dt
        self.scaled += scaled(dt, self.probe, after)
        self.probe = after
        self.t0 = time.perf_counter()


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Import crowdstream and build the workload's inputs; seconds taken,
    raw and scaled to the nominal host speed.

    numpy and scipy are imported before the clock starts. Their import is
    a fixed cost outside crowdstream, about 0.6 s here, and it swings by
    20-35% between quarter-hours on this host, while crowdstream's own
    import and the input build are steady once scaled."""
    import numpy  # noqa: F401
    import scipy.optimize  # noqa: F401
    import scipy.sparse  # noqa: F401
    before = host_probe()
    t0 = time.perf_counter()
    prepare_imports()
    import workloads
    workdir = workdir_for(workload, "probe")
    try:
        workloads.make(workload, seed, workdir).setup()
        elapsed = time.perf_counter() - t0
    finally:
        remove_workdir(workdir)
    return elapsed, scaled(elapsed, before, host_probe())


def sample_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """Set-up time of fresh interpreters, one (raw, scaled) pair each."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return samples


def load_reference(workload: str, seed: int) -> dict | None:
    path = os.path.join(REFS_DIR, f"{workload}.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)["seeds"].get(str(seed))


def measure(w, seconds: float) -> tuple[float, list]:
    """Run the unit in rounds until ``seconds`` have passed, at least
    MIN_ROUNDS times. Each round runs every piece once. A piece's time is
    scaled by host probes (see HostClock), then its median over the rounds
    is taken. Returns host seconds per unit of work and each round's result."""
    import workloads
    pieces = w.pieces()
    raw: dict = {p: [] for p in pieces}
    times: dict = {p: [] for p in pieces}
    rounds = []
    clock = HostClock()
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        unit = workloads.UnitResult()
        for p in pieces:
            clock.start()
            res = w.run_piece(p, clock.tick)
            dt_raw, dt_scaled = clock.stop()
            raw[p].append(dt_raw)
            times[p].append(dt_scaled)
            unit.merge(res)
        rounds.append(unit)
    for name, t in (("raw", raw), ("scaled", times)):
        print(f"round times {name} " + " ".join(
            f"{sum(v[i] for v in t.values()):.4f}" for i in range(len(rounds))))
    wall = sum(statistics.median(t) for t in times.values()) / rounds[0].work
    return wall, rounds


def measure_traced(w):
    """One untraced unit, then one traced unit with the same inputs."""
    import spans
    t0 = time.perf_counter()
    plain = w.run_unit()
    plain_s = time.perf_counter() - t0
    tracer = spans.Tracer()
    with tracer:
        t0 = time.perf_counter()
        traced = w.run_unit()
        traced_s = time.perf_counter() - t0
    return (plain_s, plain), (traced_s, traced), tracer


def check_units(results: list, ref: dict | None) -> tuple[int, int, list[str]]:
    """Attempted and failed operations, plus problems that are not tied to
    one operation (counts that drift). Every unit must match the first unit
    and, where the seed has one, the recorded reference."""
    attempted = failed = 0
    problems: list[str] = []
    first = results[0]
    for i, res in enumerate(results):
        bad = dict(res.failures)
        for op, digest in res.outputs.items():
            if digest != first.outputs.get(op):
                bad.setdefault(op, f"output differs from unit 0 in unit {i}")
            if ref is not None and digest != ref["outputs"].get(op):
                bad.setdefault(op, "output differs from the reference")
        if ref is not None and set(res.outputs) != set(ref["outputs"]):
            problems.append(f"unit {i}: operations differ from the reference")
        attempted += len(res.outputs)
        failed += len(bad)
        for op, reason in sorted(bad.items()):
            print(f"FAILED {op}: {reason}")
        problems += count_drift(f"unit {i}", res.counts, first.counts)
        if ref is not None:
            problems += count_drift(f"unit {i} vs reference", res.counts, ref["counts"])
    return attempted, failed, problems


def count_drift(where: str, got: dict, want: dict) -> list[str]:
    return [f"COUNT DRIFT {where}: {k} expected {want.get(k)} got {got.get(k)}"
            for k in sorted(set(got) | set(want)) if got.get(k) != want.get(k)]


def traced_counts(tracer, traced) -> dict[str, int]:
    import spans
    layers = spans.layer_metrics(tracer, traced.extras)
    return {k: layers[k][0] for k in spans.COUNT_METRICS}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    prepare_imports()
    setup = None if trace else sample_setup(workload, seed)
    import spans
    import workloads
    workdir = workdir_for(workload, "run")
    try:
        w = workloads.make(workload, seed, workdir)
        w.setup()
        ref = load_reference(workload, seed)
        if trace:
            (plain_s, plain), (traced_s, traced), tracer = measure_traced(w)
            results = [plain, traced]
        else:
            wall, results = measure(w, seconds)
    finally:
        remove_workdir(workdir)
    attempted, failed, problems = check_units(results, ref)
    first = results[0]

    print(f"workload {workload}, seed {seed}, "
          f"reference {'recorded' if ref else 'none (invariant checks only)'}")
    print(f"units {len(results)}, operations {attempted}, failed {failed}, "
          f"failed_frac {failed / max(attempted, 1):.6g} ratio")
    for k, v in first.quality().items():
        print(f"{k} {v:.6g}")
    for k, v in sorted(first.counts.items()):
        print(f"count {k} {v}")

    if trace:
        layers = spans.layer_metrics(tracer, traced.extras)
        layers["trace.overhead_s"] = (traced_s - plain_s, "s")
        if ref is not None:
            problems += count_drift("traced vs reference", traced_counts(tracer, traced),
                                    ref["traced_counts"])
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        values = {
            "setup_s": statistics.median(s for _, s in setup),
            "wall_s": wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        print("setup samples raw/scaled " + " ".join(f"{r:.4f}/{s:.4f}" for r, s in setup))
    for p in problems:
        print(p)
    for k, m in metrics.items():
        print(f"{k} {m['value']:.6g} {m['unit']}")
    return {"correct": failed == 0 and not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        print(json.dumps(setup_probe(args.workload, args.seed)))
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
