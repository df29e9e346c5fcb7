"""Command line interface: construct, certify, schmidt, witness, degree.

Every invocation prints one JSON report to stdout and exits 0 on success,
1 on a certified-negative result and 2 on usage or input errors (a bad argv
or HYPERSTATE_THREADS included); only ``--help`` prints plain text.  Only
the standard library is imported at module load: the numerical modules, and
the catalog and pairing names the parser offers as choices, are pulled in by
``run_cli`` after the HYPERSTATE_THREADS cap has been applied to the
environment, so the linear algebra backend sees it when it initializes.
The parser is built once per process, by the first ``run_cli`` call that
gets past the thread cap, and reused by every later call, so in-process
callers (tests, notebooks, benchmarks) pay for building it once.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from typing import TYPE_CHECKING, NoReturn, Sequence

if TYPE_CHECKING:
    from .state import Subsystem

__all__ = ["run_cli", "main"]

_BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _apply_thread_cap() -> None:
    cap = os.environ.get("HYPERSTATE_THREADS")
    if cap is None or cap == "":
        return
    try:
        n = int(cap)
    except ValueError:
        raise ValueError(
            f"HYPERSTATE_THREADS must be a positive integer, got {cap!r}"
        ) from None
    if n < 1:
        raise ValueError(f"HYPERSTATE_THREADS must be a positive integer, got {cap!r}")
    for var in _BLAS_VARS:
        os.environ.setdefault(var, str(n))


class _Parser(argparse.ArgumentParser):
    """Raises usage errors, so they become JSON reports like any other."""

    def error(self, message: str) -> NoReturn:
        raise ValueError(f"{self.prog}: {message}")


def _add_source(parser: argparse.ArgumentParser) -> None:
    from .construct import PAPER_STATE_NAMES

    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--state", metavar="FILE", help="state file to read")
    group.add_argument(
        "--paper", choices=PAPER_STATE_NAMES, help="named catalog state to build"
    )


# One parser per process: parse_args leaves it as it was, and a build that
# raises caches nothing.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    from .construct import PAIRING_NAMES, PAPER_STATE_NAMES

    top = _Parser(
        prog="hyperstate",
        description="Construct, certify and probe hyperentangled states.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    con = sub.add_parser("construct", help="build a state and write it to a file")
    modes = con.add_subparsers(dest="mode", required=True)

    m1 = modes.add_parser("method1", help="truncated pairing-support state")
    m1.add_argument("--n", type=int, choices=(3, 4), default=3)
    m1.add_argument("--pairing", choices=PAIRING_NAMES, default=PAIRING_NAMES[0])
    m1.add_argument(
        "--bounds", required=True, help="comma-separated per-axis bounds, e.g. 3,3,37"
    )
    m1.add_argument("--out", required=True, metavar="FILE")

    m2 = modes.add_parser("method2", help="seed-and-extend construction")
    m2.add_argument("--stages", type=int, required=True)
    m2.add_argument(
        "--eps", required=True, help="comma-separated per-stage mass, e.g. 0.01,0.005"
    )
    m2.add_argument("--seed-file", metavar="FILE", help="optional 2x2x2 seed state")
    m2.add_argument("--out", required=True, metavar="FILE")

    pp = modes.add_parser("paper", help="named catalog state")
    pp.add_argument("--name", choices=PAPER_STATE_NAMES, required=True)
    pp.add_argument("--out", required=True, metavar="FILE")

    rp = modes.add_parser("repair", help="move a bipartite state onto the certified set")
    _add_source(rp)
    rp.add_argument("--delta", type=float, required=True)
    rp.add_argument("--subsystem", type=int, default=0, choices=(0, 1))
    rp.add_argument("--tol", type=float, default=None)
    rp.add_argument("--out", required=True, metavar="FILE")

    ce = sub.add_parser("certify", help="hyperentanglement verdict")
    _add_source(ce)
    ce.add_argument("--tol", type=float, default=None)
    ce.add_argument(
        "--windows",
        choices=("full",),
        default=None,
        help="also certify the recorded construction windows",
    )

    sc = sub.add_parser("schmidt", help="Schmidt spectrum across a split")
    _add_source(sc)
    sc.add_argument(
        "--split", default="0", help="factors of S left of '|', e.g. 0|1,2"
    )
    sc.add_argument("--tol", type=float, default=None)

    wi = sub.add_parser("witness", help="rank-1 conditioning projector for P'")
    _add_source(wi)
    wi.add_argument("--pprime-file", required=True, metavar="FILE")
    wi.add_argument("--epsilon", type=float, default=1e-9)

    de = sub.add_parser("degree", help="distance from the product states")
    _add_source(de)
    de.add_argument("--split", default=None, help="bipartite route across this split")
    de.add_argument("--restarts", type=int, default=16)
    de.add_argument("--seed", type=int, default=0)
    de.add_argument("--tol", type=float, default=1e-10)
    de.add_argument("--max-iters", type=int, default=500)

    return top


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag} must be a comma-separated integer list, got {text!r}")
    return values


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag} must be a comma-separated number list, got {text!r}")
    if not all(math.isfinite(x) for x in values):
        raise ValueError(f"{flag} must be a list of finite numbers, got {text!r}")
    return values


def _parse_split(text: str, nfactors: int) -> Subsystem:
    from .state import Subsystem

    left, bar, right = text.partition("|")
    part = Subsystem.coerce(_parse_int_list(left, "--split"))
    complement = part.complement(nfactors)
    if bar and right and Subsystem.coerce(_parse_int_list(right, "--split")) != complement:
        raise ValueError(
            f"--split right side {right!r} is not the complement {complement.indices}"
        )
    return part


def _load_source(args: argparse.Namespace):
    if args.state is not None:
        from .io import load_state

        return load_state(args.state)
    from .construct import paper_state

    return paper_state(args.paper)


def _cmd_construct(args: argparse.Namespace) -> tuple[int, dict, dict]:
    from .construct import (
        method1_build,
        method2_build,
        paper_state,
        pairing_fn,
        repair_bipartite,
    )
    from .io import load_state, save_state
    from .state import norm

    tolerances: dict = {}
    if args.mode == "method1":
        bounds = _parse_int_list(args.bounds, "--bounds")
        v = method1_build(args.n, pairing_fn(args.pairing), bounds)
        extra = {"pairing": args.pairing, "bounds": bounds, "n": args.n}
    elif args.mode == "method2":
        eps = _parse_float_list(args.eps, "--eps")
        seed = load_state(args.seed_file) if args.seed_file else None
        v = method2_build(args.stages, eps, seed)
        extra = {
            "stages": args.stages,
            "eps": eps,
            "stage_history": v.metadata.get("stage_history", []),
        }
    elif args.mode == "paper":
        v = paper_state(args.name)
        extra = {"name": args.name}
    else:  # repair
        source = _load_source(args)
        v = repair_bipartite(source, args.subsystem, args.delta, args.tol)
        tolerances["tol"] = args.tol
        extra = {
            "delta": args.delta,
            "subsystem": args.subsystem,
            "repair": v.metadata.get("repair"),
        }

    save_state(v, args.out)
    result = {
        "mode": args.mode,
        "dims": list(v.dims),
        "nnz": v.nnz,
        "norm": float(norm(v)),
        "truncated_from_infinite": v.truncated_from_infinite,
        "out": str(args.out),
    }
    result.update(extra)
    return 0, result, tolerances


def _cmd_certify(args: argparse.Namespace) -> tuple[int, dict, dict]:
    from .certify import (
        HYPERENTANGLED,
        cube_window,
        dimension_gate,
        hyperentanglement_test,
        window_certificate,
    )
    from .state import _DenseBudgetError

    v = _load_source(args)
    overall = subsystems = failing = None
    try:
        verdict = hyperentanglement_test(v, args.tol)
    except _DenseBudgetError:  # dense cyclicity not evaluated beyond the budget
        feas = dimension_gate(v.dims, v.truncated_from_infinite)
    else:
        feas = verdict.feasibility
        overall = verdict.overall
        subsystems = [
            {
                "index": c.subsystem.indices[0],
                "passed": c.passed,
                "min_eigenvalue": float(c.min_eigenvalue),
                "rank": c.rank,
                "full_dim": c.full_dim,
                "threshold": float(c.threshold),
            }
            for c in verdict.checks
        ]
        failing = list(verdict.failing)

    windows = None
    if args.windows == "full":
        sizes = v.metadata.get("window_sizes")
        if not sizes:
            raise ValueError(
                "state metadata records no window sizes; --windows full unavailable"
            )
        windows = []
        for size in sizes:
            for axis in range(v.nfactors):
                cert = window_certificate(v, cube_window(v.dims, axis, size), args.tol)
                windows.append(
                    {
                        "axis": axis,
                        "cube": int(size),
                        "size": cert.size,
                        "rank": cert.rank,
                        "passed": cert.passed,
                    }
                )

    positive = overall == HYPERENTANGLED or (
        v.truncated_from_infinite
        and windows is not None
        and all(w["passed"] for w in windows)
    )
    result = {
        "dims": list(v.dims),
        "nnz": v.nnz,
        "truncated_from_infinite": v.truncated_from_infinite,
        "dense_evaluated": subsystems is not None,
        "overall": overall,
        "feasible": feas.feasible,
        "reason": feas.reason,
        "subsystems": subsystems,
        "failing": failing,
        "windows": windows,
    }
    return (0 if positive else 1), result, {"tol": args.tol}


def _cmd_schmidt(args: argparse.Namespace) -> tuple[int, dict, dict]:
    from .bilinear import schmidt_decompose

    v = _load_source(args)
    part = _parse_split(args.split, v.nfactors)
    sd = schmidt_decompose(v, part, args.tol)
    report = sd.rank_report
    result = {
        "dims": list(v.dims),
        "split": {
            "s": list(sd.subsystem.indices),
            "s_prime": list(sd.subsystem.complement(v.nfactors).indices),
        },
        "coeffs": [float(c) for c in sd.coeffs],
        "sum_sq": float(sum(float(c) * float(c) for c in sd.coeffs)),
        "rank": sd.rank,
        "threshold": float(report.threshold),
        "min_kept": float(report.min_kept),
        "max_dropped": float(report.max_dropped),
        "tied": report.tied,
    }
    return 0, result, {"tol": args.tol}


def _cmd_witness(args: argparse.Namespace) -> tuple[int, dict, dict]:
    from .io import load_projector
    from .witness import CorrelationQuery, correlation_witness

    v = _load_source(args)
    pp = load_projector(args.pprime_file)
    part = pp.subsystem.complement(v.nfactors)
    res = correlation_witness(
        CorrelationQuery(state=v, subsystem=part, p_prime=pp, epsilon=args.epsilon)
    )
    ok = res.achieved >= 1.0 - args.epsilon and not res.warning
    result = {
        "dims": list(v.dims),
        "subsystem": list(part.indices),
        "pprime_subsystem": list(pp.subsystem.indices),
        "pprime_rank": pp.rank,
        "achieved": float(res.achieved),
        "warning": res.warning,
        "projector_vector": [[float(x.real), float(x.imag)] for x in res.projector.basis[0]],
    }
    return (0 if ok else 1), result, {"epsilon": args.epsilon}


def _cmd_degree(args: argparse.Namespace) -> tuple[int, dict, dict]:
    from .bilinear import _check_tol
    from .degree import _check_seed, degree_bipartite, degree_multipartite

    # Both routes echo --tol and --seed, so both refuse bad ones.
    _check_tol(args.tol)
    _check_seed(args.seed)
    v = _load_source(args)
    if args.split is not None:
        part = _parse_split(args.split, v.nfactors)
        res = degree_bipartite(v, part)
        route = "bipartite"
        split_echo: list[int] | None = list(part)
    else:
        res = degree_multipartite(
            v,
            restarts=args.restarts,
            tol=args.tol,
            max_iters=args.max_iters,
            seed=args.seed,
        )
        route = "multipartite"
        split_echo = None
    result = {
        "dims": list(v.dims),
        "route": route,
        "split": split_echo,
        "value": float(res.value),
        "overlap": float(res.overlap),
        "converged": res.converged,
        "restarts_used": res.restarts_used,
        "sweeps": res.sweeps,
    }
    return 0, result, {"tol": args.tol, "seed": args.seed}


_HANDLERS = {
    "construct": _cmd_construct,
    "certify": _cmd_certify,
    "schmidt": _cmd_schmidt,
    "witness": _cmd_witness,
    "degree": _cmd_degree,
}


def run_cli(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    start = time.perf_counter()
    # The subcommand lands here before its own arguments are parsed, so a
    # usage error inside a subcommand still reports which one it was.
    args = argparse.Namespace(command=None)
    try:
        _apply_thread_cap()  # before the first _build_parser imports the numerical modules
        _build_parser().parse_args(argv, namespace=args)
        code, result, tolerances = _HANDLERS[args.command](args)
        from .io import canonical_report_json

        # Serialised in here: a non-finite value (a NaN --tol, say) must
        # become an exit-2 error report, not a traceback.
        text = canonical_report_json(
            {
                "argv": argv,
                "command": args.command,
                "result": result,
                "timing_ms": (time.perf_counter() - start) * 1000.0,
                "tolerances": tolerances,
            }
        )
    except SystemExit as exc:  # --help; usage errors raise ValueError instead
        return exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # malformed input must exit 2, never a traceback
        report = {
            "argv": argv,
            "command": args.command,
            "error": str(exc) or type(exc).__name__,  # MemoryError() has no text
            "timing_ms": (time.perf_counter() - start) * 1000.0,
        }
        print(json.dumps(report, indent=2, sort_keys=True, default=str))
        return 2

    sys.stdout.write(text)
    return code


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
