"""Shared oracles and generators: everything here is independent of the
library's linear-algebra paths (dense tensors, index loops, QR draws)."""

from __future__ import annotations

import itertools

import numpy as np

from hyperstate import StateTensor, make_state, rank_tolerance


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


def cube_window_matrix(v: StateTensor, axis: int, size: int) -> np.ndarray:
    """Slice vectors of the ``size`` cube window on ``axis``, one row per key.

    Rows follow the lexicographic order of the complement keys; built by an
    index loop over the stored entries, so it also works far past the size
    at which :func:`dense_tensor` fits in memory.
    """
    nkeys = v.nfactors - 1
    out = np.zeros((size**nkeys, v.dims[axis]), dtype=np.complex128)
    for idx, amp in v.items():
        key = idx[:axis] + idx[axis + 1:]
        if max(key) < size:
            row = 0
            for k in key:
                row = row * size + k
            out[row, idx[axis]] = amp
    return out


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
