"""Exact window ranks, by elimination modulo a prime, against the window certificates.

Every stored amplitude is a dyadic rational, so a window matrix has an exact
rank; :func:`helpers.rank_mod_p` bounds it from below, independently of the
SVD and of the structural route.
"""

from fractions import Fraction

import numpy as np
import pytest

from helpers import RANK_PRIMES, rank_mod_p, window_entries, window_ranks_mod_p
from hyperstate import (
    cube_window,
    method1_build,
    method2_build,
    pairing_fn,
    recorded_windows,
    window_certificate,
)

STAGE_EPS = (0.01, 0.005, 0.0025)


def fraction_rank(rows: list[list[Fraction]]) -> int:
    """Rank over Q by Gaussian elimination in exact rationals."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def dyadic_matrix(rng: np.random.Generator, n: int, m: int, r: int) -> np.ndarray:
    """A complex n x m product of n x r and r x m factors, every entry exact.

    The factors hold small integers times 2**-3..2**3, so each product is
    exact in floats; the whole matrix is then scaled by 2**-60..2**60.
    """

    def draw(shape):
        parts = (rng.integers(-4, 5, size=shape) * 2.0 ** rng.integers(-3, 4, size=shape))
        return parts + 1j * rng.integers(-4, 5, size=shape) * 2.0 ** rng.integers(-3, 4, size=shape)

    return np.ldexp(1.0, int(rng.integers(-60, 61))) * (draw((n, r)) @ draw((r, m)))


@pytest.mark.parametrize("seed", range(16))
def test_rank_mod_p_matches_fraction_elimination(seed):
    rng = np.random.default_rng(seed)
    n, m = (int(k) for k in rng.integers(1, 7, size=2))
    a = dyadic_matrix(rng, n, m, int(rng.integers(1, min(n, m) + 1)))
    if seed % 2:
        a = a.real + 0j
    # a complex matrix A + iB has half the real rank of [[A, -B], [B, A]]
    re = [[Fraction(x) for x in row] for row in a.real.tolist()]
    im = [[Fraction(x) for x in row] for row in a.imag.tolist()]
    neg = [[-x for x in row] for row in im]
    real_form = [r + s for r, s in zip(re, neg)] + [s + r for r, s in zip(re, im)]
    want = fraction_rank(real_form) // 2
    entries = [(i, j, complex(a[i, j])) for i, j in zip(*np.nonzero(a))]
    for p in RANK_PRIMES:
        assert rank_mod_p(entries, a.shape, p) == want, p


@pytest.mark.parametrize("stages", [1, 2, 3])
def test_method2_windows_have_full_rank_mod_p(stages):
    v = method2_build(stages, STAGE_EPS[:stages])
    for w in recorded_windows(v):
        assert window_ranks_mod_p(v, w.axis, w.size) == (w.size**2,) * len(RANK_PRIMES), w


@pytest.mark.parametrize(
    "kind, bound, size, exact, numerical",
    [
        ("bijection_interleave", 64, 8, 64, 34),
        ("bijection_interleave", 256, 16, 256, 30),
        ("injection_2a3b", 64, 4, 13, 13),
    ],
)
def test_method1_exact_and_numerical_rank(kind, bound, size, exact, numerical):
    v = method1_build(3, pairing_fn(kind), (bound,) * 3)
    # no more than the nonempty rows, no less than the rank mod p: exact
    nonempty = {row for row, _, _ in window_entries(v, 0, size)}
    assert len(nonempty) == exact
    assert window_ranks_mod_p(v, 0, size) == (exact,) * len(RANK_PRIMES)
    assert window_certificate(v, cube_window(v.dims, 0, size)).rank == numerical


@pytest.mark.parametrize(
    "kind, bounds", [("injection_2a3b", (3, 3, 37)), ("bijection_interleave", (16, 16, 16))]
)
def test_method1_structural_passes_have_full_rank_mod_p(kind, bounds):
    v = method1_build(3, pairing_fn(kind), bounds)
    structural = 0
    for axis in range(3):
        for size in range(1, min(d for k, d in enumerate(bounds) if k != axis) + 1):
            cert = window_certificate(v, cube_window(v.dims, axis, size))
            if cert.route == "structural":
                structural += 1
                assert window_ranks_mod_p(v, axis, size) == (size**2,) * len(RANK_PRIMES)
    assert structural
