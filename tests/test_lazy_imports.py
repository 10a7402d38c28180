"""numpy and scipy load on the first fluid LP, or on the first read of the
``offline.linprog`` hook, not with crowdstream.

Each test runs its script in a fresh interpreter, so that no module this
suite has already imported hides or causes a load.
"""
import os
import subprocess
import sys

from crowdstream import cli

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))

PRELUDE = """
import sys


def loaded():
    return sorted(m for m in ("numpy", "scipy") if m in sys.modules)


def one_user_instance(offline):
    from crowdstream.model import UserProfile
    prof = UserProfile(id=0, beta=2.0, buffer_cap=4.0, ladder=(0.2, 0.7),
                       c_time=0.05, c_data=0.02, video_segments=2)
    return offline.SlottedInstance(profiles=(prof,), slot_len=4.0, n_slots=2,
                                   capacity=((1.0, 1.0),), encounter=frozenset())
"""


def run_fresh(script: str, *args: str) -> None:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", PRELUDE + script, *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"


def test_simulator_only_paths_load_no_scipy(tmp_path):
    run_fresh("""
import json
trace, spec, out = sys.argv[1:]
import crowdstream
assert loaded() == [], ("import crowdstream", loaded())
from crowdstream import cli
assert loaded() == [], ("import crowdstream.cli", loaded())
assert cli.main(["gen-traces", "--users", "2", "--horizon", "10", "--out", trace]) == 0
assert loaded() == [], ("gen-traces", loaded())
with open(spec, "w") as fh:
    json.dump({"scenario": "single", "schedulers": ["buffer"], "seeds": [0],
               "horizon": 20.0, "video_length_s": 20.0, "out_dir": out}, fh)
assert cli.main(["run", "--spec", spec]) == 0
assert loaded() == [], ("run without compute_gap", loaded())

from crowdstream import offline
assert loaded() == [], ("import crowdstream.offline", loaded())
assert offline.solve_slotted_relaxed(one_user_instance(offline)) > 0
assert loaded() == ["numpy", "scipy"], ("first LP", loaded())
# the LP solves through milp and never reads the linprog hook
assert "linprog" not in vars(offline)
print("ok")
""", str(tmp_path / "trace.json"), str(tmp_path / "spec.json"), str(tmp_path / "out"))


def test_linprog_hook_loads_scipy_on_first_access():
    # the hook serves the benchmark harness, which wraps ``offline.linprog``
    run_fresh("""
from crowdstream import offline
assert loaded() == [], ("import crowdstream.offline", loaded())
assert "linprog" not in vars(offline)
linprog = offline.linprog
assert loaded() == ["numpy", "scipy"], ("offline.linprog", loaded())
import scipy.optimize
assert linprog is scipy.optimize.linprog is vars(offline)["linprog"]
from crowdstream.offline import linprog as again
assert again is linprog
print("ok")
""")
