"""One hyperstate benchmark workload, run in its own process by ``run.py``.

A workload builds its inputs from the seed, warms up, then repeats its fixed
job list (a "pass") in a closed loop: one caller, each operation started when
the previous one returned.  Every operation's output is checked against a
known answer; an operation that raises or gives a wrong answer counts as
failed.  The process prints one JSON object on its last stdout line.

Known answers come from closed forms or from dense numpy computations made
here, never from the code under test.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import itertools
import json
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np

from spans import SpanRecorder, install

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PIN_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "HYPERSTATE_THREADS",
)


def import_program():
    """Import ``hyperstate`` from this checkout's ``src``, nowhere else."""
    if not (SRC / "hyperstate" / "__init__.py").is_file():
        raise SystemExit(f"no hyperstate sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hyperstate

    if Path(hyperstate.__file__).resolve().parent != (SRC / "hyperstate").resolve():
        raise SystemExit(f"imported hyperstate from {hyperstate.__file__}, not {SRC}")
    return hyperstate


class Run:
    """Operations attempted, the ones that failed, and each one's latency."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.latencies: list[float] = []

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def op(
        self,
        label: str,
        call: Callable[[], Any],
        check: Callable[[Any], str | None] | None = None,
    ) -> Any:
        """Time ``call()``, then ``check`` its result (None means correct)."""
        self.attempted += 1
        start = perf_counter()
        try:
            out = call()
        except Exception as exc:
            self.latencies.append(perf_counter() - start)
            self.fail(label, f"raised {type(exc).__name__}: {exc}")
            return None
        self.latencies.append(perf_counter() - start)
        try:
            problem = check(out) if check is not None else None
        except Exception as exc:
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            self.fail(label, problem)
        return out

    def fail(self, label: str, problem: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{label}: {problem}")


class Near:
    """Matches a number, or a list of numbers, within ``tol``."""

    def __init__(self, value: Any, tol: float = 1e-12) -> None:
        self.value = value
        self.tol = tol

    def __call__(self, got: Any) -> bool:
        want = np.atleast_1d(np.asarray(self.value, dtype=float))
        have = np.atleast_1d(np.asarray(got, dtype=float))
        return have.shape == want.shape and bool(np.all(np.abs(have - want) <= self.tol))

    def __repr__(self) -> str:
        return f"{self.value!r} within {self.tol:g}"


class AtLeast:
    def __init__(self, value: float) -> None:
        self.value = value

    def __call__(self, got: Any) -> bool:
        return isinstance(got, (int, float)) and got >= self.value

    def __repr__(self) -> str:
        return f">= {self.value!r}"


def mismatch(fields: dict[str, tuple[Any, Any]]) -> str | None:
    """First ``name: (got, want)`` pair that disagrees, as a problem text."""
    for name, (got, want) in fields.items():
        ok = want(got) if callable(want) else got == want
        if not ok:
            return f"{name} = {got!r}, expected {want!r}"
    return None


# ---------------------------------------------------------------- catalog_cli

R2 = 1.0 / math.sqrt(2.0)
R3 = 1.0 / math.sqrt(3.0)
R7 = 1.0 / math.sqrt(7.0)

# The six reference states in closed form (z-type bases, as documented).
CATALOG: dict[str, tuple[tuple[int, ...], dict[tuple[int, ...], float]]] = {
    "bohm": ((2, 2), {(0, 1): R2, (1, 0): R2}),
    "hardy2": ((2, 2), {(0, 1): R3, (1, 0): R3, (1, 1): R3}),
    "spin1_singlet": ((3, 3), {(0, 0): R3, (1, 1): -R3, (2, 2): -R3}),
    "spin1_two_term": ((3, 3), {(0, 0): R2, (1, 1): -R2}),
    "ghz": ((2, 2, 2), {(0, 0, 0): R2, (1, 1, 1): R2}),
    "hardy3": (
        (2, 2, 2),
        {idx: R7 for idx in itertools.product(range(2), repeat=3) if any(idx)},
    ),
}
VERDICTS = {
    "bohm": "hyperentangled",
    "hardy2": "hyperentangled",
    "spin1_singlet": "hyperentangled",
    "spin1_two_term": "not_hyperentangled",
    "ghz": "infeasible_dims",
    "hardy3": "infeasible_dims",
}
WITNESS_STATES = ("bohm", "hardy2", "spin1_singlet")
PROJECTOR_FILES = 8
REPAIR_DELTA = 0.1
# Support of the 2^a 3^b pairing below (3, 3, 37): the nine points
# (a, b, 2^a 3^b) plus (1,0,0), (0,1,0), (2,1,0) and (1,2,0).
METHOD1_SMALL_NNZ = 13


def dense(dims: tuple[int, ...], entries: dict) -> np.ndarray:
    out = np.zeros(dims, dtype=np.complex128)
    for idx, amp in entries.items():
        out[idx] = amp
    return out


def schmidt_oracle(tensor: np.ndarray, axis: int) -> np.ndarray:
    """Schmidt coefficients for (factor ``axis`` | rest) from a dense SVD."""
    rows = np.moveaxis(tensor, axis, 0).reshape(tensor.shape[axis], -1)
    return np.linalg.svd(rows, compute_uv=False)


def symmetric_product_degree(tensor: np.ndarray) -> float:
    """1 - max overlap with real product states a (x) a (x) a, a = (cos t, sin t).

    The maximum over all product states of the two three-qubit catalog
    states is attained on this symmetric family; a grid search plus golden
    section on t finds it to machine precision.
    """

    def overlap(t: float) -> float:
        a = np.array([math.cos(t), math.sin(t)])
        return abs(np.einsum("ijk,i,j,k->", tensor, a, a, a))

    grid = np.linspace(0.0, math.pi / 2, 2001)
    k = int(np.argmax([overlap(t) for t in grid]))
    lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(100):
        a, b = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
        if overlap(a) < overlap(b):
            lo = a
        else:
            hi = b
    return 1.0 - overlap((lo + hi) / 2)


def write_state_file(path: Path, dims: tuple[int, ...], entries: dict) -> None:
    """A state file in the documented JSON format (decimal amplitudes only)."""
    doc = {
        "format_version": "1.0",
        "dims": list(dims),
        "truncated_from_infinite": False,
        "metadata": {},
        "entries": [
            {"index": list(idx), "re": format(float(amp), ".17g"), "im": "0"}
            for idx, amp in sorted(entries.items())
        ],
    }
    path.write_text(json.dumps(doc), encoding="utf-8")


def write_projector_file(path: Path, subsystem: list[int], vector: np.ndarray) -> None:
    doc = {
        "format_version": "1.0",
        "subsystem": subsystem,
        "vectors": [{"re": vector.real.tolist(), "im": vector.imag.tolist()}],
    }
    path.write_text(json.dumps(doc), encoding="utf-8")


def random_unit(rng: np.random.Generator, d: int) -> np.ndarray:
    x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return x / np.linalg.norm(x)


@dataclass
class Command:
    """One CLI invocation with its expected exit code and result fields.

    ``vary`` adds per-pass arguments drawn from the workload's generator.
    """

    argv: list[str]
    code: int
    want: dict[str, Any]
    vary: Callable[[np.random.Generator], list[str]] | None = None


class CatalogCli:
    """``run_cli`` in-process over a fixed command mix on the catalog states."""

    min_ops = 1000
    # Latency percentiles are per run_cli call here, and per pass elsewhere.
    per_op_latency = True

    def __init__(self, hs, rng: np.random.Generator, workdir: Path) -> None:
        self.cli = importlib.import_module("hyperstate.cli")
        self.rng = rng
        self.commands = self._commands(rng, workdir)

    def _commands(self, rng: np.random.Generator, workdir: Path) -> list[Command]:
        commands = []
        for name, (dims, entries) in CATALOG.items():
            tensor = dense(dims, entries)
            verdict = VERDICTS[name]
            code = 0 if verdict == "hyperentangled" else 1
            state_file = workdir / f"{name}.state.json"
            write_state_file(state_file, dims, entries)
            commands.append(Command(["certify", "--paper", name], code, {"overall": verdict}))
            commands.append(
                Command(
                    ["certify", "--state", str(state_file)],
                    code,
                    {"overall": verdict, "nnz": len(entries)},
                )
            )
            for axis in range(len(dims)):
                coeffs = schmidt_oracle(tensor, axis)
                commands.append(
                    Command(
                        ["schmidt", "--paper", name, "--split", str(axis)],
                        0,
                        {
                            "coeffs": Near(coeffs.tolist()),
                            "rank": int(np.count_nonzero(coeffs > 1e-12)),
                        },
                    )
                )
            if len(dims) == 2:
                top = schmidt_oracle(tensor, 0)[0]
                commands.append(
                    Command(
                        ["degree", "--paper", name, "--split", "0"],
                        0,
                        {"value": Near(1.0 - top), "route": "bipartite"},
                    )
                )
            else:
                commands.append(
                    Command(
                        ["degree", "--paper", name, "--restarts", "16"],
                        0,
                        {
                            "value": Near(symmetric_product_degree(tensor), 1e-9),
                            "converged": True,
                        },
                        vary=lambda g: ["--seed", str(int(g.integers(2**31)))],
                    )
                )
            if name in WITNESS_STATES:
                files = []
                for k in range(PROJECTOR_FILES):
                    path = workdir / f"{name}.pprime{k}.json"
                    write_projector_file(path, [1], random_unit(rng, dims[1]))
                    files.append(str(path))
                commands.append(
                    Command(
                        ["witness", "--paper", name],
                        0,
                        {"achieved": AtLeast(1.0 - 1e-9), "warning": False},
                        vary=lambda g, files=files: [
                            "--pprime-file",
                            files[int(g.integers(len(files)))],
                        ],
                    )
                )
            commands.append(
                Command(
                    ["construct", "paper", "--name", name, "--out",
                     str(workdir / f"{name}.out.json")],
                    0,
                    {"dims": list(dims), "nnz": len(entries), "norm": Near(1.0)},
                )
            )
        commands.append(
            Command(
                ["construct", "repair", "--paper", "spin1_two_term",
                 "--delta", str(REPAIR_DELTA), "--out", str(workdir / "repair.out.json")],
                0,
                {
                    "repair": {"delta": REPAIR_DELTA, "replaced": 1},
                    "norm": Near(1.0),
                },
            )
        )
        commands.append(
            Command(
                ["construct", "method1", "--bounds", "3,3,37", "--out",
                 str(workdir / "method1.out.json")],
                0,
                {"dims": [3, 3, 37], "nnz": METHOD1_SMALL_NNZ},
            )
        )
        return commands

    def call(self, argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.run_cli(argv)
        return code, out.getvalue()

    def warm_up(self) -> None:
        self.run_pass(Run())

    def run_pass(self, run: Run) -> None:
        for k in self.rng.permutation(len(self.commands)):
            cmd = self.commands[k]
            argv = cmd.argv + (cmd.vary(self.rng) if cmd.vary else [])
            run.op(" ".join(argv), lambda: self.call(argv), lambda out: check_cli(out, cmd))


def check_cli(out: tuple[int, str], cmd: Command) -> str | None:
    code, text = out
    report = json.loads(text)
    if code != cmd.code:
        return f"exit code {code}, expected {cmd.code} ({report.get('error')})"
    result = report["result"]
    return mismatch({name: (result.get(name), want) for name, want in cmd.want.items()})


# ------------------------------------------------------------- window_certify

STAGE3_EPS = (0.01, 0.005, 0.0025)
STAGE3_DIM = 677
STAGE3_NNZ = 2026
STAGE3_WINDOWS = (2, 5, 26)
BATCH_DIM = 64  # 64 x 64 = DENSE_CAP total dimensions
BATCH_FULL_RANK = 2
BATCH_DEFICIENT = 2


class BatchCase:
    """A seeded 64 x 64 state with every amplitude nonzero, and its answers."""

    def __init__(self, hs, rng: np.random.Generator, rank: int) -> None:
        d = BATCH_DIM
        left = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
        right = rng.standard_normal((rank, d)) + 1j * rng.standard_normal((rank, d))
        matrix = left @ right
        self.matrix = matrix / np.linalg.norm(matrix)
        self.rank = rank
        self.top = float(np.linalg.svd(self.matrix, compute_uv=False)[0])
        self.state = hs.make_state(
            (d, d), {(i, j): self.matrix[i, j] for i in range(d) for j in range(d)}
        )
        self.p_prime = hs.Projector(
            subsystem=hs.Subsystem((1,)), basis=random_unit(rng, d)[None, :]
        )


class WindowCertify:
    """Stage-3 window certificates plus a batch of dense-cap bipartite states."""

    min_ops = 1
    per_op_latency = False

    def __init__(self, hs, rng: np.random.Generator, workdir: Path) -> None:
        self.hs = hs
        self.workdir = workdir
        ranks = [BATCH_DIM] * BATCH_FULL_RANK + [
            int(r) for r in rng.integers(BATCH_DIM // 2, BATCH_DIM, BATCH_DEFICIENT)
        ]
        self.cases = [BatchCase(hs, rng, r) for r in ranks]
        self.warm_matrix = random_unit(rng, 676 * 677).reshape(676, 677)

    def warm_up(self) -> None:
        # The first large SVD also starts the BLAS threads (about a second
        # with two threads); that belongs to set-up, not to the passes.
        self.hs.numerical_rank(self.warm_matrix)
        self.run_case(Run(), self.cases[0])

    def run_pass(self, run: Run) -> None:
        self.run_stage3(run)
        for case in self.cases:
            self.run_case(run, case)

    def run_stage3(self, run: Run) -> None:
        hs = self.hs
        path = self.workdir / "stage3.json"
        w = run.op("method2_build stage 3", lambda: hs.method2_build(3, STAGE3_EPS), check_stage3)
        run.op("save_state stage 3", lambda: hs.save_state(w, path))
        loaded = run.op(
            "load_state stage 3",
            lambda: hs.load_state(path),
            lambda got: same_state(got, w),
        )
        for size in STAGE3_WINDOWS:
            for axis in range(3):
                run.op(
                    f"window_certificate axis {axis} cube {size}",
                    lambda: hs.window_certificate(
                        loaded, hs.cube_window(loaded.dims, axis, size)
                    ),
                    lambda cert: mismatch(
                        {
                            "size": (cert.size, size * size),
                            "rank": (cert.rank, size * size),
                            "passed": (cert.passed, True),
                        }
                    ),
                )

    def run_case(self, run: Run, case: BatchCase) -> None:
        hs = self.hs
        v = case.state
        full = case.rank == BATCH_DIM
        run.op(
            "hyperentanglement_test",
            lambda: hs.hyperentanglement_test(v),
            lambda res: mismatch(
                {"overall": (res.overall, "hyperentangled" if full else "not_hyperentangled")}
            ),
        )
        repaired = run.op(
            "repair_bipartite",
            lambda: hs.repair_bipartite(v, 0, REPAIR_DELTA),
            lambda r: mismatch(
                {
                    "dims": (r.dims, v.dims),
                    "replaced": (
                        r.metadata.get("repair", {}).get("replaced", 0),
                        BATCH_DIM - case.rank,
                    ),
                }
            ),
        )
        run.op(
            "hyperentanglement_test repaired",
            lambda: hs.hyperentanglement_test(repaired),
            lambda res: mismatch({"overall": (res.overall, "hyperentangled")}),
        )
        run.op(
            "inner",
            lambda: hs.inner(v, repaired),
            lambda got: check_repair_distance(got, case.matrix, repaired),
        )
        run.op(
            "schmidt_decompose",
            lambda: hs.schmidt_decompose(v, 0),
            lambda sd: mismatch(
                {"rank": (sd.rank, case.rank), "top": (float(sd.coeffs[0]), Near(case.top))}
            ),
        )
        run.op(
            "correlation_witness",
            lambda: hs.correlation_witness(
                hs.CorrelationQuery(
                    state=repaired, subsystem=hs.Subsystem((0,)), p_prime=case.p_prime
                )
            ),
            lambda res: mismatch(
                {
                    "achieved": (res.achieved, AtLeast(1.0 - 1e-9)),
                    "warning": (res.warning, False),
                }
            ),
        )
        run.op(
            "degree_bipartite",
            lambda: hs.degree_bipartite(v, 0),
            lambda res: mismatch({"value": (res.value, Near(1.0 - case.top))}),
        )
        path = self.workdir / "case.json"
        run.op("save_state", lambda: hs.save_state(repaired, path))
        run.op("load_state", lambda: hs.load_state(path), lambda got: same_state(got, repaired))


def check_stage3(w) -> str | None:
    return mismatch(
        {
            "dims": (w.dims, (STAGE3_DIM,) * 3),
            "nnz": (w.nnz, STAGE3_NNZ),
            "norm": (w.is_normalized, True),
            "window_sizes": (w.metadata.get("window_sizes"), list(STAGE3_WINDOWS)),
        }
    )


def same_state(got, want) -> str | None:
    if got != want or got.metadata != want.metadata:
        return "loaded state differs from the saved one"
    return None


def check_repair_distance(got: complex, matrix: np.ndarray, repaired) -> str | None:
    """<v, repaired> against a dense oracle, and ||v - repaired|| <= delta."""
    other = np.zeros_like(matrix)
    for idx, amp in repaired.items():
        other[idx] = amp
    want = complex(np.vdot(matrix, other))
    if abs(got - want) > 1e-12:
        return f"inner = {got!r}, dense oracle gives {want!r}"
    # Both states are unit vectors: ||v - r||^2 = 2 - 2 Re <v, r>.
    distance = math.sqrt(max(0.0, 2.0 - 2.0 * got.real))
    if distance > REPAIR_DELTA:
        return f"repair moved the state by {distance}, beyond delta = {REPAIR_DELTA}"
    return None


WORKLOADS = {
    "catalog_cli": CatalogCli,
    "window_certify": WindowCertify,
}


def measure(workload, run: Run, seconds: float) -> list[float]:
    """Repeat passes while the next one fits in ``seconds``; return pass times.

    At least one pass runs.  Short of ``workload.min_ops`` operations,
    passes continue up to ``2 * seconds``.
    """
    passes: list[float] = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        workload.run_pass(run)
        passes.append(perf_counter() - t0)
        finish = perf_counter() - start + statistics.median(passes)
        if finish > (seconds if run.attempted >= workload.min_ops else 2 * seconds):
            return passes


def blas_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (AttributeError, KeyError, TypeError):
        return {}


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument(
        "--launched", type=float, required=True, help="time.time() at process launch"
    )
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    hs = import_program()
    args.workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](hs, np.random.default_rng(args.seed), args.workdir)
    workload.warm_up()
    result: dict[str, Any] = {"setup_s": time.time() - args.launched}

    if not args.setup_only:
        recorder = None
        if args.trace:
            recorder = SpanRecorder()
            install(recorder)
        run = Run()
        passes = measure(workload, run, args.seconds)
        samples = run.latencies if workload.per_op_latency else passes
        latencies_ms = np.array(samples) * 1000.0
        result.update(
            passes=len(passes),
            pass_s=passes,
            latency_samples=len(samples),
            # The mean, not the median: pass times are bimodal on a machine
            # whose speed flips every few seconds, and the mean moves smoothly
            # with the share of time spent in each state.
            wall_s=sum(passes) / len(passes),
            cmd_p50_ms=float(np.percentile(latencies_ms, 50)),
            cmd_p99_ms=float(np.percentile(latencies_ms, 99)),
            attempted=run.attempted,
            failed=run.failed,
            failures=run.failures,
        )
        if recorder is not None:
            # Per pass, so runs of different length compare directly.
            result["layers"] = {
                name: value / len(passes) for name, value in recorder.metrics().items()
            }

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_info(),
        "threads": {var: os.environ.get(var) for var in PIN_VARS},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
