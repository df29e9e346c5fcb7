"""Shared oracles and generators: everything here is independent of the
library's linear-algebra paths (dense tensors, index loops, QR draws)."""

from __future__ import annotations

import itertools

import numpy as np

from hyperstate import DegreeResult, StateTensor, make_state, rank_tolerance
from hyperstate.bilinear import _check_tol


def dense_tensor(v: StateTensor) -> np.ndarray:
    out = np.zeros(v.dims, dtype=np.complex128)
    for idx, amp in v.items():
        out[idx] = amp
    return out


def dense_vector(v: StateTensor) -> np.ndarray:
    return dense_tensor(v).reshape(-1)


def loop_reduced_density(v: StateTensor, keep: tuple[int, ...]) -> np.ndarray:
    """Partial trace by explicit index summation; O(D_keep^2 * D_comp)."""
    keep = tuple(keep)
    nf = v.nfactors
    comp = [k for k in range(nf) if k not in keep]
    kd = [v.dims[k] for k in keep]
    cd = [v.dims[k] for k in comp]
    t = dense_tensor(v)
    size = int(np.prod(kd))
    rho = np.zeros((size, size), dtype=np.complex128)
    for pos_i, i in enumerate(itertools.product(*map(range, kd))):
        for pos_j, j in enumerate(itertools.product(*map(range, kd))):
            acc = 0j
            for c in itertools.product(*map(range, cd)):
                ia = [0] * nf
                ja = [0] * nf
                for slot, k in enumerate(keep):
                    ia[k] = i[slot]
                    ja[k] = j[slot]
                for slot, k in enumerate(comp):
                    ia[k] = c[slot]
                    ja[k] = c[slot]
                acc += t[tuple(ia)] * np.conj(t[tuple(ja)])
            rho[pos_i, pos_j] = acc
    return rho


def scaled_state(v: StateTensor, k: int) -> StateTensor:
    """``v`` times 2**k, exactly while every amplitude stays a normal float."""
    return make_state(
        v.dims,
        {idx: complex(np.ldexp(a.real, k), np.ldexp(a.imag, k)) for idx, a in v.items()},
        truncated_from_infinite=v.truncated_from_infinite,
        metadata=v.metadata,
    )


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    phases = np.diag(r)
    return q * (phases / np.abs(phases))


def rand_unit(rng: np.random.Generator, d: int) -> np.ndarray:
    x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return x / np.linalg.norm(x)


def random_state(rng: np.random.Generator, dims: tuple[int, ...]) -> StateTensor:
    t = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
    t /= np.linalg.norm(t)
    entries = {idx: complex(t[idx]) for idx in itertools.product(*map(range, dims))}
    return make_state(dims, entries)


def bloch_grid_overlap(v: StateTensor, steps: int) -> float:
    """Best product overlap of a three-qubit state by exhaustive angle grid.

    Valid for nonnegative real amplitudes only: the triangle inequality then
    lets the maximizing product vector be taken with nonnegative real
    components, so one polar angle per qubit covers everything up to grid
    resolution.
    """
    if v.dims != (2, 2, 2):
        raise ValueError("grid oracle is written for three qubits")
    if any(amp.imag != 0.0 or amp.real < 0.0 for _, amp in v.items()):
        raise ValueError("grid oracle needs nonnegative real amplitudes")
    thetas = np.linspace(0.0, np.pi / 2.0, steps)
    f = np.stack([np.cos(thetas), np.sin(thetas)])
    acc = np.zeros((steps, steps, steps))
    for idx, amp in v.items():
        acc += (
            amp.real
            * f[idx[0]][:, None, None]
            * f[idx[1]][None, :, None]
            * f[idx[2]][None, None, :]
        )
    return float(acc.max())


def random_schmidt_state(rng: np.random.Generator, d: int, rank: int) -> StateTensor:
    """Bipartite [d, d] unit state with exact Schmidt rank ``rank``.

    Coefficients are bounded away from zero so numerical rank is unambiguous.
    """
    c = rng.uniform(0.3, 1.0, size=rank)
    c /= np.linalg.norm(c)
    u = haar_unitary(rng, d)
    w = haar_unitary(rng, d)
    a = (u[:, :rank] * c) @ w[:, :rank].T
    entries = {(i, j): complex(a[i, j]) for i in range(d) for j in range(d)}
    return make_state((d, d), entries, normalize=True)


def projector_operator(p) -> np.ndarray:
    return p.basis.T @ p.basis.conj()


def oracle_conditional(v: StateTensor, p, pp) -> float:
    """Dense joint/marginal via explicit operator application."""
    s = tuple(p.subsystem)
    sp = tuple(pp.subsystem)
    t = dense_tensor(v)
    dim_s = int(np.prod([v.dims[k] for k in s]))
    x = np.transpose(t, s + sp).reshape(dim_s, -1)
    px = projector_operator(p) @ x
    marginal = float(np.linalg.norm(px) ** 2)
    joint = float(np.linalg.norm(px @ projector_operator(pp).T) ** 2)
    return joint / marginal


def rank1(subsystem, vec):
    from hyperstate import Projector, Subsystem

    vec = np.asarray(vec, dtype=np.complex128)
    return Projector(
        subsystem=Subsystem.coerce(subsystem),
        basis=vec[None, :] / np.linalg.norm(vec),
    )


def window_entries(v: StateTensor, axis: int, size: int) -> list[tuple[int, int, complex]]:
    """``(row, column, amplitude)`` of each stored entry in the ``size`` cube window on ``axis``.

    Rows follow the lexicographic order of the complement keys, of which
    there are ``size ** (v.nfactors - 1)``; the column is the coordinate on
    ``axis``.  Built by an index loop over the stored entries, so it also
    works far past the size at which :func:`dense_tensor` fits in memory.
    """
    out = []
    for idx, amp in v.items():
        key = idx[:axis] + idx[axis + 1:]
        if max(key) < size:
            row = 0
            for k in key:
                row = row * size + k
            out.append((row, idx[axis], amp))
    return out


def cube_window_matrix(v: StateTensor, axis: int, size: int) -> np.ndarray:
    """Slice vectors of the ``size`` cube window on ``axis``, one row per key."""
    out = np.zeros((size ** (v.nfactors - 1), v.dims[axis]), dtype=np.complex128)
    for row, col, amp in window_entries(v, axis, size):
        out[row, col] = amp
    return out


# Two primes p = 1 (mod 4) below 2**31: GF(p) holds a square root of -1, and
# the product of two residues fits in int64.
RANK_PRIMES = (2147483629, 2147483549)


def _to_gf(x: float, p: int) -> int:
    """The float ``x = mant * 2**e`` in GF(p), through the inverse of 2 when e < 0."""
    mant, den = x.as_integer_ratio()  # den is 2**-e, or 1
    return mant * pow(den, -1, p) % p


def _sqrt_minus_one(p: int) -> int:
    nonresidue = next(g for g in itertools.count(2) if pow(g, (p - 1) // 2, p) == p - 1)
    return pow(nonresidue, (p - 1) // 4, p)


def rank_mod_p(entries: list[tuple[int, int, complex]], shape: tuple[int, int], p: int) -> int:
    """Rank over GF(p) of the matrix holding ``entries`` as ``(row, column, value)``.

    A complex value ``re + im i`` maps to ``re + im * j`` with ``j**2 = -1``
    mod p; only the given entries are mapped.  Since every float is a dyadic
    rational and p is odd, the map is a ring homomorphism, so the rank mod p
    never exceeds the exact rank over the complex numbers, and full rank mod
    p proves full rank.  Gaussian elimination touches only the rows with a
    nonzero in the pivot column, which keeps sparse windows cheap.
    """
    j = _sqrt_minus_one(p)
    m = np.zeros(shape, dtype=np.int64)
    for row, col, value in entries:
        m[row, col] = (_to_gf(value.real, p) + j * _to_gf(value.imag, p)) % p
    rank = 0
    for col in range(shape[1]):
        hits = rank + np.flatnonzero(m[rank:, col])
        if hits.size == 0:
            continue
        m[[rank, hits[0]]] = m[[hits[0], rank]]
        m[rank] = m[rank] * pow(int(m[rank, col]), -1, p) % p
        below = rank + 1 + np.flatnonzero(m[rank + 1:, col])
        m[below] = (m[below] - np.outer(m[below, col], m[rank]) % p) % p
        rank += 1
        if rank == shape[0]:
            break
    return rank


def window_ranks_mod_p(v: StateTensor, axis: int, size: int) -> tuple[int, ...]:
    """:func:`rank_mod_p` of the ``size`` cube window on ``axis``, once per prime."""
    shape = (size ** (v.nfactors - 1), v.dims[axis])
    entries = window_entries(v, axis, size)
    return tuple(rank_mod_p(entries, shape, p) for p in RANK_PRIMES)


def svd_rank(m: np.ndarray) -> tuple[int, float]:
    """Rank under the default policy and the smallest singular value."""
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.count_nonzero(s > rank_tolerance(max(m.shape), s[0]))), float(s[-1])


def state_document(v: StateTensor) -> dict:
    """The JSON document of a state file, built entry by entry from ``items()``.

    ``json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\\n"`` is
    the reference text that ``save_state`` must reproduce byte for byte.
    """
    return {
        "format_version": "1.0",
        "dims": list(v.dims),
        "truncated_from_infinite": v.truncated_from_infinite,
        "entries": [
            {
                "index": list(idx),
                "re": format(amp.real, ".17g"),
                "im": format(amp.imag, ".17g"),
                "re_hex": amp.real.hex(),
                "im_hex": amp.imag.hex(),
            }
            for idx, amp in v.items()
        ],
        "metadata": v.metadata,
    }


# The sequential restart loop that degree_multipartite ran before restarts
# were swept in blocks, kept verbatim apart from the names: the batched
# kernel must reproduce it bit for bit.
def loop_als_sweep(
    v: StateTensor, factors: list[np.ndarray]
) -> tuple[list[np.ndarray], float]:
    """One round of factor updates; returns the new overlap |<w, v>|."""
    overlap = 0.0
    for k in range(v.nfactors):
        re, im = v.amplitudes.real, v.amplitudes.imag
        for l in range(v.nfactors):
            if l != k:  # times conj(factor), by components to round as scalar products do
                f = factors[l][v.indices[:, l]]
                re, im = re * f.real + im * f.imag, im * f.real - re * f.imag
        g = np.zeros(v.dims[k], dtype=np.complex128)
        np.add.at(g.real, v.indices[:, k], re)
        np.add.at(g.imag, v.indices[:, k], im)
        ng = float(np.linalg.norm(g))
        if ng == 0.0:
            continue  # keep the previous factor; the next sweep moves on
        factors[k] = g / ng
        overlap = ng
    return factors, overlap


def loop_degree_multipartite(
    v: StateTensor,
    restarts: int = 16,
    tol: float = 1e-10,
    max_iters: int = 500,
    seed: int = 0,
) -> DegreeResult:
    if not v.is_normalized:
        raise ValueError("degree is defined for unit states")
    if restarts < 1:
        raise ValueError(f"need at least one restart, got {restarts}")
    if max_iters < 1:
        raise ValueError(f"need at least one sweep, got max_iters={max_iters}")
    _check_tol(tol)
    rng = np.random.default_rng(seed)

    best_overlap = -1.0
    best_factors: list[np.ndarray] | None = None
    best_converged = False
    best_sweeps = 0
    for _ in range(restarts):
        factors = []
        for d in v.dims:
            x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            factors.append(x / np.linalg.norm(x))
        overlap = 0.0
        converged = False
        sweeps = 0
        for sweeps in range(1, max_iters + 1):
            factors, new_overlap = loop_als_sweep(v, factors)
            if abs(new_overlap - overlap) <= tol * max(1.0, new_overlap):
                overlap = new_overlap
                converged = True
                break
            overlap = new_overlap
        if overlap > best_overlap:
            best_overlap = overlap
            best_factors = [f.copy() for f in factors]
            best_converged = converged
            best_sweeps = sweeps

    assert best_factors is not None
    for f in best_factors:
        f.flags.writeable = False
    return DegreeResult(
        value=max(0.0, 1.0 - best_overlap),
        overlap=best_overlap,
        best_product=tuple(best_factors),
        converged=best_converged,
        restarts_used=restarts,
        sweeps=best_sweeps,
    )
