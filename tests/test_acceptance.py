"""Acceptance gate: one test per contract criterion, tolerances pinned.

Each test prints a single ``criterion N: PASS`` or ``criterion N: FAIL``
line (visible under ``pytest -s`` and in captured output on failure)."""

import contextlib
import io
import itertools
import json
import math
import pathlib
import re
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    bloch_grid_overlap,
    dense_vector,
    oracle_conditional,
    rand_unit,
    random_schmidt_state,
    rank1,
)
from hyperstate import (
    CorrelationQuery,
    Subsystem,
    certify_state,
    correlation_witness,
    cube_window,
    cyclicity_test,
    degree_bipartite,
    degree_multipartite,
    dimension_gate,
    hyperentanglement_test,
    make_state,
    method2_build,
    norm,
    paper_state,
    repair_bipartite,
    schmidt_decompose,
    window_certificate,
)
from hyperstate.cli import run_cli
from hyperstate.construct import (
    PAPER_STATE_NAMES,
    ExtensionParams,
    default_seed,
    method1_build,
    method2_extend,
    pairing_eval,
    pairing_fn,
    support_test,
)

R2 = 1.0 / math.sqrt(2.0)
GOLDEN = pathlib.Path(__file__).parent / "golden"
MALFORMED = pathlib.Path(__file__).parent / "fixtures" / "malformed"
TIMING_LINE = re.compile(r'^(\s*"timing_ms": )[0-9.eE+-]+(,?)$', re.M)

VERDICTS = {
    "bohm": "hyperentangled",
    "hardy2": "hyperentangled",
    "spin1_singlet": "hyperentangled",
    "spin1_two_term": "not_hyperentangled",
    "ghz": "infeasible_dims",
    "hardy3": "infeasible_dims",
}


@contextlib.contextmanager
def report(n: int):
    try:
        yield
    except BaseException:
        print(f"criterion {n}: FAIL")
        raise
    print(f"criterion {n}: PASS")


def cli_json(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run_cli(argv)
    return code, buf.getvalue()


def test_criterion_1_corpus_verdicts():
    """Catalog verdicts are exact and insensitive to the rank cutoff."""
    with report(1):
        for tol in (None, 1e-12, 1e-10, 1e-9, 1e-8):
            for name, want in VERDICTS.items():
                res = hyperentanglement_test(paper_state(name), tol=tol)
                assert res.overall == want, (name, tol, res.overall)

        # the two-term spin-1 state fails with an annihilated witness
        res = hyperentanglement_test(paper_state("spin1_two_term"))
        failing = [c for c in res.checks if not c.passed]
        assert failing
        for check in failing:
            assert abs(check.min_eigenvalue) <= 1e-12

        # the three-party uniform pair state loses two dimensions at S = 0
        check = hyperentanglement_test(paper_state("ghz")).checks[0]
        assert not check.passed
        assert check.full_dim - check.rank == 2


def test_criterion_2_eigenvalue_vs_window_rank():
    """The two cyclicity criteria agree on 500 seeded bipartite states."""
    with report(2):
        rng = np.random.default_rng(20260815)
        for i in range(500):
            d = 2 + i % 7
            rank = int(rng.integers(1, d + 1))
            v = random_schmidt_state(rng, d, rank)
            full_rank = True
            for axis in (0, 1):
                eig_pass = cyclicity_test(v, axis).passed
                win_pass = window_certificate(v, cube_window(v.dims, axis, d)).passed
                assert eig_pass == win_pass, (i, d, rank, axis)
                full_rank = full_rank and eig_pass
            assert full_rank == (rank == d), (i, d, rank)

            if d == 2:
                entangled = schmidt_decompose(v, 0).rank == 2
                hyper = hyperentanglement_test(v).overall == "hyperentangled"
                assert entangled == hyper, (i, rank)


def test_criterion_3_dimension_gate():
    with report(3):
        assert not dimension_gate((2, 3)).feasible
        assert not dimension_gate((2, 2, 2)).feasible
        assert dimension_gate((2, 2, 2), truncated_from_infinite=True).feasible
        for d in range(2, 65):
            assert dimension_gate((d, d)).feasible, d


def test_criterion_4_sparse_injection_construction():
    """Exponential-pairing support: window rank plus exhaustive vanishing."""
    with report(4):
        t0 = time.perf_counter()
        p = pairing_fn("injection_2a3b")
        v = method1_build(3, p, (3, 3, 37))
        cert = window_certificate(v, cube_window(v.dims, 2, 3))
        assert cert.size == 9
        assert cert.rank == 9
        assert cert.passed

        def j(a: int, b: int) -> float:
            try:
                return pairing_eval(p, a, b)
            except OverflowError:
                return math.inf

        for a in range(7):
            for b in range(7):
                for c in range(201):
                    if c > j(a, b) or a > j(b, c) or b > j(a, c):
                        assert not support_test(p, (a, b, c)), (a, b, c)
        assert time.perf_counter() - t0 < 10.0


def extension_positions(p: int, m: int) -> list[tuple[int, int, int]]:
    """Independent transcription of the appended-support layout."""
    keys = sorted(
        (x, y) for x in range(p) for y in range(p) if not (x < m and y < m)
    )
    out = []
    for i, (x, y) in enumerate(keys):
        out.extend(((x, y, p + i), (x, p + i, y), (p + i, x, y)))
    return out


def test_criterion_5_seed_and_extend():
    """Three extension stages: support layout, mass budget, window ranks."""
    with report(5):
        t0 = time.perf_counter()
        eps = (0.01, 0.005, 0.0025)
        v = default_seed()
        p, m = 2, 1
        for stage, e in enumerate(eps):
            prev_support = {idx for idx, _ in v.items()}
            prev_items = dict(v.items())
            v = method2_extend(v, ExtensionParams(p=p, m=m, epsilon=e))

            new_positions = extension_positions(p, m)
            support = {idx for idx, _ in v.items()}
            assert support == prev_support | set(new_positions)
            for idx, amp in prev_items.items():
                assert v.amplitude(idx) == amp, idx

            scale = math.sqrt(e / (3 * (p * p - m * m)))
            added = 0.0
            for idx in new_positions:
                amp = v.amplitude(idx)
                assert abs(amp - scale) <= 1e-15, idx
                added += abs(amp) ** 2
            assert abs(added - e) <= 1e-12, stage

            if stage < 2:  # dense exhaustive pass while the cube is small
                dense = dense_vector(v).reshape(v.dims)
                on = np.zeros(v.dims, dtype=bool)
                for idx in support:
                    on[idx] = True
                assert not np.any(dense[~on])

            for axis in range(3):
                cert = window_certificate(v, cube_window(v.dims, axis, p))
                assert cert.size == p * p
                assert cert.passed, (stage, axis)

            p, m = v.dims[0], p

        assert v.dims == (677, 677, 677)
        assert [c.size for c in (
            window_certificate(v, cube_window(v.dims, 0, 26)),
        )] == [676]
        assert time.perf_counter() - t0 < 60.0


def extension_layout(p: int, m: int) -> np.ndarray:
    """:func:`extension_positions` as an (n, 3) array, in the same order."""
    x, y = (a.ravel() for a in np.meshgrid(np.arange(p), np.arange(p), indexing="ij"))
    keep = ~((x < m) & (y < m))
    x, y = x[keep], y[keep]
    z = p + np.arange(x.size)
    return np.stack([x, y, z, x, z, y, z, x, y], axis=1).reshape(-1, 3)


def checked_chain(seed, eps):
    """``method2_extend`` stage after stage from ``seed``, each against the
    oracle: the preserved block, the appended layout, count and mass."""
    v, p, m = seed, 2, 1
    for e in eps:
        out = method2_extend(v, ExtensionParams(p=p, m=m, epsilon=e))
        layout = extension_layout(p, m)
        if p < 100:  # the array layout is the tuple transcription
            assert list(map(tuple, layout.tolist())) == extension_positions(p, m)
        assert len(layout) == 3 * (p * p - m * m)
        kept = (out.indices < p).all(axis=1)
        assert np.array_equal(out.indices[kept], v.indices)
        assert np.array_equal(out.amplitudes[kept], v.amplitudes)
        # entries are kept in lexicographic index order
        assert np.array_equal(out.indices[~kept], layout[np.lexsort(layout.T[::-1])])
        amps = out.amplitudes[~kept]
        assert np.abs(amps - math.sqrt(e / len(layout))).max() <= 1e-15
        assert abs(math.fsum((amps.real ** 2 + amps.imag ** 2).tolist()) - e) <= 1e-12
        v, p, m = out, out.dims[0], p
    return v


def check_build(built, chain, stages: int) -> None:
    """``method2_build`` is the last ``method2_extend`` stage, normalized."""
    assert built.dims == chain.dims
    assert np.array_equal(built.indices, chain.indices)
    a = chain.amplitudes
    scale = math.sqrt(math.fsum((a.real ** 2 + a.imag ** 2).tolist()))
    np.testing.assert_allclose(built.amplitudes, a / scale, rtol=2.0**-50, atol=0)
    assert abs(norm(built) - 1.0) <= 1e-12
    sizes = [rec["p"] for rec in chain.metadata["stage_history"]]
    assert len(sizes) == stages
    assert built.metadata["window_sizes"] == sizes
    assert built.metadata == chain.metadata


def test_criterion_5_stage4_in_memory():
    """The stage-4 build (458330**3, nnz 1,374,985), stage by stage, in memory."""
    with report(5):
        t0 = time.perf_counter()
        eps = (0.01, 0.005, 0.0025, 0.00125)
        v = checked_chain(default_seed(), eps)
        assert v.dims == (458330,) * 3
        assert v.nnz == 1_374_985
        check_build(method2_build(4, eps), v, 4)
        assert time.perf_counter() - t0 < 30.0


_UNIT = st.floats(-1.0, 1.0)
_AWAY = st.floats(1e-6, 1.0) | st.floats(-1.0, -1e-6)


def _seven(real):
    return st.lists(st.tuples(real, _UNIT), min_size=7, max_size=7)


@given(
    seed_amps=st.tuples(st.tuples(st.floats(1e-6, 1.0), _UNIT), _seven(_UNIT))
    | st.tuples(st.just((0.0, 0.0)), _seven(_AWAY)),
)
def test_criterion_5_random_seeds(seed_amps):
    """Random 2 x 2 x 2 seeds meet the oracle at every stage.

    A seed is accepted when every axis's (0, 0)-slice is nonzero, so two
    kinds are drawn.  Either the origin's real part is at least 1e-6 and
    every other part lies in [-1, 1], or the origin is exactly zero and every
    other real part is at least 1e-6 in size.  A (0, 0)-slice negligible
    beside the rest passes stage 1 but is refused at stage 2 (next test), so
    both kinds keep it away from zero.
    """
    with report(5):
        origin, rest = seed_amps
        amps = [complex(*origin)] + [complex(*z) for z in rest]
        seed = make_state(
            (2, 2, 2),
            dict(zip(itertools.product(range(2), repeat=3), amps)),
            truncated_from_infinite=True,
        )
        eps = (0.01, 0.005, 0.0025)
        check_build(method2_build(3, eps, seed=seed), checked_chain(seed, eps), 3)


def test_criterion_5_zero_origin_seed():
    """hardy3 has a zero origin but nonzero (0, 0)-slices: it seeds a build."""
    with report(5):
        seed = paper_state("hardy3")
        eps = (0.01, 0.005, 0.0025)
        built = method2_build(3, eps, seed)
        check_build(built, checked_chain(seed, eps), 3)
        assert certify_state(built, windows=True).positive


def test_criterion_5_tiny_origin_refused():
    """A nonzero origin negligible beside the rest is refused, not built.

    The refusal is the one stage rule, the window hypothesis, applied by
    stage 2 after a 5**3 stage 1: the origin passes the 1-window, but is lost
    beside the rest in the 2-window.
    """
    with report(5):
        seed = make_state(
            (2, 2, 2), {(0, 0, 0): 1e-14, (1, 1, 1): 1.0}, truncated_from_infinite=True
        )
        with pytest.raises(ValueError, match="^window hypothesis fails on axis 0: .* 2-window$"):
            method2_build(2, (0.01, 0.005), seed=seed)


def test_criterion_6_correlation_witness():
    """Every random projection on S' is drivable to near-certainty."""
    with report(6):
        rng = np.random.default_rng(42)
        for name in ("bohm", "hardy2", "spin1_singlet"):
            v = paper_state(name)
            n = v.nfactors
            for k in range(100):
                s = Subsystem((k % n,))
                comp = s.complement(n)
                dim = math.prod(v.dims[i] for i in comp)
                pp = rank1(comp, rand_unit(rng, dim))
                res = correlation_witness(
                    CorrelationQuery(state=v, subsystem=s, p_prime=pp)
                )
                assert res.achieved >= 1.0 - 1e-9, (name, k)
                assert not res.warning
                again = oracle_conditional(v, res.projector, pp)
                assert abs(again - res.achieved) <= 1e-12, (name, k)


def test_criterion_7_degree_values():
    with report(7):
        prod = make_state((2, 2), {(0, 0): 1.0})
        assert degree_bipartite(prod).value <= 1e-12
        prod3 = make_state((2, 2, 2), {(1, 0, 1): 1.0})
        assert degree_multipartite(prod3, restarts=4).value <= 1e-12

        bohm = paper_state("bohm")
        assert abs(degree_bipartite(bohm).value - (1 - R2)) <= 1e-9
        assert abs(degree_multipartite(bohm, restarts=16).value - (1 - R2)) <= 1e-6

        ghz = paper_state("ghz")
        got = degree_multipartite(ghz, restarts=16).value
        oracle = 1.0 - bloch_grid_overlap(ghz, 181)
        assert abs(got - oracle) <= 1e-4
        assert abs(got - (1 - R2)) <= 1e-4


def test_criterion_8_repair_reaches_certified_states():
    with report(8):
        for d in range(2, 11):
            v = make_state((d, d), {(0, 0): 1.0})
            for delta in (0.1, 0.01):
                w = repair_bipartite(v, delta=delta)
                dist = float(np.linalg.norm(dense_vector(w) - dense_vector(v)))
                assert dist <= delta, (d, delta, dist)
                assert hyperentanglement_test(w).overall == "hyperentangled"
                assert degree_bipartite(w).value < delta, (d, delta)


def test_criterion_9_cli_contract():
    """Golden reports are byte-stable; malformed inputs exit 2, cleanly."""
    with report(9):
        for name in PAPER_STATE_NAMES:
            code, out = cli_json(["certify", "--paper", name])
            assert code == (0 if VERDICTS[name] == "hyperentangled" else 1)
            masked, nsub = TIMING_LINE.subn(r'\1"MASKED"\2', out)
            assert nsub == 1
            assert masked.encode() == (GOLDEN / f"certify_{name}.json").read_bytes()

        fixtures = sorted(MALFORMED.glob("*.json"))
        assert len(fixtures) == 20
        for f in fixtures:
            code, out = cli_json(["certify", "--state", str(f)])
            assert code == 2, f.name
            assert "error" in json.loads(out), f.name

        # spot-check through a real process: message stays out of stderr,
        # for malformed files and malformed argv alike
        for argv in (["--state", str(fixtures[0])], ["--paper", "nope"]):
            proc = subprocess.run(
                [sys.executable, "-m", "hyperstate", "certify", *argv],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 2
            assert proc.stderr == ""
            assert "error" in json.loads(proc.stdout)
