"""Run one hyperstate benchmark workload and print its metrics.

    python3 perfbench/run.py --workload catalog_cli --seed 1 --seconds 15 --trace 0

Each workload runs in fresh child processes (``workloads.py``) with the BLAS
thread count pinned in the environment before numpy loads.  With
``--trace 0`` the child is untraced and the end-to-end metrics are reported;
``setup_s`` is the median over several launches.  With ``--trace 1`` an
untraced child and a traced child run in turn; the per-layer metrics come
from the traced one, and the difference of their pass times is the tracing
overhead.

Stdout ends with two JSON lines: environment and run details, then the result
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is nonzero,
with no result line, when the program cannot be run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import metric_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench_work"

# BLAS threads per workload: the CLI mix is per-call Python; the window
# certificates are large SVDs, run on both cores of the reference machine.
THREADS = {"catalog_cli": 1, "window_certify": 2}
PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "HYPERSTATE_THREADS")
# Launches per --trace 0 run that only set up, besides the measured one.
EXTRA_SETUPS = 2
# Every child must have ended this long after the start of the run.
DEADLINE_S = 170.0

# End-to-end metrics the measured child reports; setup_s is added from all
# launches.
CHILD_METRICS = {"wall_s": "s", "peak_rss_mb": "MB", "cmd_p99_ms": "ms"}


class ChildFailed(RuntimeError):
    pass


def run_child(workload: str, seed: int, seconds: float, workdir: Path,
              deadline: float, *flags: str) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env.update({var: str(THREADS[workload]) for var in PIN_VARS})
    env["PYTHONHASHSEED"] = "0"
    launched = time.time()
    cmd = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--workdir", str(workdir), "--launched", repr(launched), *flags,
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{workload} child exceeded the {DEADLINE_S:.0f} s budget") from None
    if proc.returncode != 0:
        raise ChildFailed(f"{workload} child exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise ChildFailed(f"{workload} child printed no result")
    return json.loads(lines[-1])


def src_lines() -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((ROOT / "src").rglob("*.py"))
    )


def outcome(children: list[dict], metrics: dict[str, tuple[float, str]]) -> dict:
    """The result line: operations over the measuring children, and metrics."""
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    return {
        "correct": attempted > 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(THREADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hyperstate" / "__init__.py").is_file():
        print(f"error: no hyperstate sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # A terminated run still stops and waits for its child: the exception
    # unwinds through subprocess.run, which kills the child it started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + DEADLINE_S
    workdir = WORKDIR / f"{args.workload}-{os.getpid()}"
    common = (args.workload, args.seed, args.seconds)
    try:
        if args.trace:
            plain = run_child(*common, workdir / "plain", deadline)
            traced = run_child(*common, workdir / "traced", deadline, "--trace")
            measured = [plain, traced]
            metrics = {
                name: (traced["layers"][name], unit) for name, unit in metric_units().items()
            }
            metrics["trace.wall_s"] = (traced["wall_s"], "s")
            metrics["trace.untraced_wall_s"] = (plain["wall_s"], "s")
            metrics["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
            setups = []
        else:
            setups = [
                run_child(*common, workdir / f"setup{k}", deadline, "--setup-only")["setup_s"]
                for k in range(EXTRA_SETUPS)
            ]
            main_child = run_child(*common, workdir / "measured", deadline)
            setups.append(main_child["setup_s"])
            measured = [main_child]
            metrics = {"setup_s": (statistics.median(setups), "s")}
            metrics.update(
                (name, (main_child[name], unit)) for name, unit in CHILD_METRICS.items()
            )
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass

    result = outcome(measured, metrics)
    last = measured[-1]
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "src_lines": src_lines(),
        **last["env"],
        "passes": [c["passes"] for c in measured],
        "pass_s": [c["pass_s"] for c in measured],
        "ops": [c["attempted"] for c in measured],
        "latency_samples": [c["latency_samples"] for c in measured],
        "cmd_p50_ms": [c["cmd_p50_ms"] for c in measured],
        "error_rate": result["failed"] / result["attempted"],
        "failures": [f for c in measured for f in c["failures"]][:20],
        "setup_samples_s": setups,
        "peak_rss_mb": [c["peak_rss_mb"] for c in measured],
    }
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
