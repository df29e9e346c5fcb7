"""Saved states and reports do not depend on HYPERSTATE_THREADS.

Each command runs in its own process, because the cap only reaches the
linear algebra backend if it is set before the backend loads.
"""

import os
import pathlib
import re
import subprocess
import sys

import hyperstate
from hyperstate.cli import _BLAS_VARS

SRC = pathlib.Path(hyperstate.__file__).resolve().parents[1]
TIMING = re.compile(r'"timing_ms": [0-9.eE+-]+')
COMMANDS = (
    ["construct", "method2", "--stages", "3", "--eps", "0.01,0.005,0.0025", "--out", "m2.json"],
    ["certify", "--state", "m2.json", "--windows", "full"],
    ["construct", "method1", "--bounds", "16,16,16", "--pairing", "bijection_interleave",
     "--out", "m1.json"],
    ["certify", "--state", "m1.json"],
    ["degree", "--paper", "hardy3"],
)


def run_commands(workdir: pathlib.Path, threads: int) -> list[tuple[int, str]]:
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    env["HYPERSTATE_THREADS"] = str(threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    workdir.mkdir()
    reports = []
    for argv in COMMANDS:
        proc = subprocess.run(
            [sys.executable, "-m", "hyperstate", *argv],
            cwd=workdir,
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.stderr == "", argv
        # paths are relative to the working directory, so only timing differs
        reports.append((proc.returncode, TIMING.sub('"timing_ms": 0', proc.stdout)))
    return reports


def test_thread_count_independence(tmp_path):
    one = run_commands(tmp_path / "t1", 1)
    two = run_commands(tmp_path / "t2", 2)
    assert [code for code, _ in one] == [0, 0, 0, 1, 0]
    assert one == two
    for name in ("m2.json", "m1.json"):
        assert (tmp_path / "t1" / name).read_bytes() == (tmp_path / "t2" / name).read_bytes()
