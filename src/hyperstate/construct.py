"""Constructors: pairing-support states, seed-and-extend, repair, catalog.

Two families of finite truncations of infinite-dimensional constructions are
built here, plus a repair step that nudges a rank-deficient bipartite state
into a certified hyperentangled one, and a small catalog of named reference
states used throughout the tests and the CLI.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .bilinear import schmidt_decompose, unfold
from .certify import cube_window, window_certificate
from .state import DROP_THRESHOLD, MultiIndex, StateTensor, Subsystem, make_state, norm
from .state import _state_from_arrays

__all__ = [
    "PairingFn",
    "pairing_fn",
    "pairing_eval",
    "geometric_weights",
    "support_test",
    "method1_build",
    "ExtensionParams",
    "method2_extend",
    "method2_build",
    "default_seed",
    "repair_bipartite",
    "paper_state",
    "PAPER_STATE_NAMES",
    "PAIRING_NAMES",
]

# Pairing values must stay within unsigned 64-bit range.
_PAIRING_MAX = 2**64 - 1


@dataclass(frozen=True)
class PairingFn:
    """An injection j(a, b) on pairs of nonnegative integers.

    The support constructions only need injectivity plus the growth property
    j(a, b) >= max(a, b); :func:`pairing_eval` enforces the latter on every
    call, so custom evaluators are usable too.
    """

    kind: str
    func: Callable[[int, int], int]


def _pow_2a3b(a: int, b: int) -> int:
    # Exponent guard first: beyond it the product cannot fit 64 bits, and
    # evaluating it would build astronomically large integers.
    if a > 64 or b > 40:
        raise OverflowError(f"j({a}, {b}) exceeds the 64-bit range")
    return 2**a * 3**b


def _interleave_bits(a: int, b: int) -> int:
    if a.bit_length() > 32 or b.bit_length() > 32:
        raise OverflowError(f"j({a}, {b}) exceeds the 64-bit range")
    # Bit i of a lands at position 2i, bit i of b at position 2i + 1.
    out = 0
    shift = 0
    while a or b:
        out |= (a & 1) << (2 * shift)
        out |= (b & 1) << (2 * shift + 1)
        a >>= 1
        b >>= 1
        shift += 1
    return out


_BUILTINS: dict[str, Callable[[int, int], int]] = {
    "injection_2a3b": _pow_2a3b,
    "bijection_interleave": _interleave_bits,
}

PAIRING_NAMES: tuple[str, ...] = tuple(_BUILTINS)


def pairing_fn(kind: str) -> PairingFn:
    """Look up a built-in pairing by name."""
    try:
        return PairingFn(kind=kind, func=_BUILTINS[kind])
    except KeyError:
        raise ValueError(
            f"unknown pairing {kind!r}; expected one of {sorted(_BUILTINS)}"
        ) from None


def pairing_eval(p: PairingFn, a: int, b: int) -> int:
    """Evaluate j(a, b) with range and growth checks."""
    if a < 0 or b < 0:
        raise ValueError(f"pairing arguments must be nonnegative, got ({a}, {b})")
    value = p.func(int(a), int(b))
    if value > _PAIRING_MAX:
        # Report the width, not the value: a custom pairing may return an
        # integer too large for str conversion.
        raise OverflowError(
            f"j({a}, {b}) needs {value.bit_length()} bits, beyond the 64-bit range"
        )
    if value < max(a, b):
        raise ValueError(f"pairing violates j(a, b) >= max(a, b) at ({a}, {b})")
    return value


def _eval_clause(p: PairingFn, a: int, b: int) -> int | None:
    # Overflowing values exceed every admissible index, so a clause
    # comparing against them is simply false.
    try:
        return pairing_eval(p, a, b)
    except OverflowError:
        return None


def support_test(p: PairingFn, idx: Sequence[int]) -> bool:
    """Whether ``idx`` is in the support of the pairing construction.

    For three factors, (a, b, c) is supported iff one coordinate is the
    pairing of the other two in order: a = j(b, c), b = j(a, c) or
    c = j(a, b).  For four factors each coordinate is tested against the
    nested pairing of the remaining three, e.g. a = j(b, j(c, d)).
    """
    idx = tuple(int(k) for k in idx)
    if any(k < 0 for k in idx):
        raise ValueError(f"indices must be nonnegative, got {idx}")
    if len(idx) == 3:
        a, b, c = idx
        return (
            a == _eval_clause(p, b, c)
            or b == _eval_clause(p, a, c)
            or c == _eval_clause(p, a, b)
        )
    if len(idx) == 4:
        a, b, c, d = idx

        def nested(x: int, y: int, z: int) -> int | None:
            inner_v = _eval_clause(p, y, z)
            return None if inner_v is None else _eval_clause(p, x, inner_v)

        return (
            a == nested(b, c, d)
            or b == nested(a, c, d)
            or c == nested(a, b, d)
            or d == nested(a, b, c)
        )
    raise ValueError(f"support is defined for 3 or 4 factors, got {len(idx)}")


def geometric_weights(idx: Sequence[int]) -> complex:
    """Default amplitude rule 2**-(sum of coordinates)."""
    return complex(2.0 ** -float(sum(idx)))


def method1_build(
    n: int,
    pairing: PairingFn,
    bounds: Sequence[int],
    weights: Callable[[MultiIndex], complex] | None = None,
) -> StateTensor:
    """Truncated pairing-support state on ``n`` factors.

    Enumerates all indices below ``bounds``, keeps those passing
    :func:`support_test`, weights them (default geometric decay) and
    normalizes.  The result is flagged as a truncation of an
    infinite-dimensional state; its certification target is window
    certificates, not the finite hyperentanglement test.
    """
    if n not in (3, 4):
        raise ValueError(f"pairing-support construction needs n in {{3, 4}}, got {n}")
    bounds_t = tuple(int(b) for b in bounds)
    if len(bounds_t) != n:
        raise ValueError(f"bounds {bounds_t} must have length {n}")
    if any(b < 2 for b in bounds_t):
        raise ValueError(f"every bound must be >= 2, got {bounds_t}")
    rule = geometric_weights if weights is None else weights

    entries: dict[MultiIndex, complex] = {}
    for idx in itertools.product(*(range(b) for b in bounds_t)):
        if not support_test(pairing, idx):
            continue
        amp = complex(rule(idx))
        if abs(amp) <= DROP_THRESHOLD:
            raise ValueError(f"weight rule vanishes on support index {idx}")
        entries[idx] = amp
    if not entries:
        raise ValueError(f"no support indices within bounds {bounds_t}")

    return make_state(
        bounds_t,
        entries,
        normalize=True,
        truncated_from_infinite=True,
        metadata={
            "construction": "pairing_support",
            "pairing": pairing.kind,
            "bounds": list(bounds_t),
        },
    )


@dataclass(frozen=True)
class ExtensionParams:
    """One seed-and-extend stage: input side ``p``, window ``m``, mass ``epsilon``.

    ``p >= m**2`` is required: the window hypothesis puts m**2 slice vectors
    in a p-dimensional space, so independence is impossible otherwise.  The
    default iteration (2,1) -> (5,2) -> (26,5) -> (677,26) keeps the bound
    inductively.
    """

    p: int
    m: int
    epsilon: float

    def __post_init__(self) -> None:
        if self.p < 2:
            raise ValueError(f"p must be >= 2, got {self.p}")
        if not (1 <= self.m <= self.p):
            raise ValueError(f"need 1 <= m <= p, got m={self.m}, p={self.p}")
        if self.p < self.m * self.m:
            raise ValueError(f"need p >= m**2, got p={self.p}, m={self.m}")
        if not (self.epsilon > 0.0 and math.isfinite(self.epsilon)):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")

    @property
    def p_prime(self) -> int:
        return self.p * self.p + self.p - self.m * self.m


def method2_extend(v: StateTensor, params: ExtensionParams) -> StateTensor:
    """One extension stage of the seed-and-extend construction.

    The p**3 block is preserved verbatim.  Along each of the three axes, the
    slices keyed by pairs with a coordinate >= m are appended with scaled
    standard-basis vectors (pairwise distinct directions, lexicographic key
    order), slices keyed by two small coordinates are extended by zeros, and
    everything else in the p'**3 cube stays zero.  The appended mass is
    exactly ``epsilon``, split evenly over the three axes.
    """
    p, m = params.p, params.m
    if v.nfactors != 3:
        raise ValueError(f"extension is defined for 3 factors, got {v.nfactors}")
    if v.dims != (p, p, p):
        raise ValueError(f"state dims {v.dims} do not match params p={p}")
    for axis in range(3):
        cert = window_certificate(v, cube_window(v.dims, axis, m))
        if not cert.passed:
            raise ValueError(
                f"window hypothesis fails on axis {axis}: "
                f"rank {cert.rank} < {cert.size} for the {m}-window"
            )

    pp = params.p_prime
    # Pairs (x, y) with a coordinate >= m, in lexicographic order; pair i
    # gets the new coordinate p + i on axis 2, then axis 1, then axis 0.
    x, y = np.divmod(np.arange(p * p), p)
    wide = (x >= m) | (y >= m)
    x, y, new = x[wide], y[wide], p + np.arange(np.count_nonzero(wide))
    slots = ((x, y, new), (x, new, y), (new, x, y))
    appended = np.concatenate([np.stack(cols, axis=1) for cols in slots])
    scale = math.sqrt(params.epsilon / len(appended))

    metadata = dict(v.metadata)
    history = list(metadata.get("stage_history", []))
    history.append({"p": p, "m": m, "epsilon": params.epsilon, "p_prime": pp})
    metadata["stage_history"] = history
    metadata.setdefault("construction", "seed_extend")

    out = _state_from_arrays(
        (pp, pp, pp),
        np.concatenate([v.indices, appended]),
        np.concatenate([v.amplitudes, np.full(len(appended), scale, dtype=np.complex128)]),
        truncated_from_infinite=True,
        metadata=metadata,
    )
    _check_extension(v, out, params)
    return out


def _check_extension(v: StateTensor, out: StateTensor, params: ExtensionParams) -> None:
    """Structural postconditions, verified after every stage."""
    p, m = params.p, params.m
    new = (out.indices >= p).any(axis=1)
    if not (
        np.array_equal(out.indices[~new], v.indices)
        and np.array_equal(out.amplitudes[~new], v.amplitudes)
    ):
        raise RuntimeError("extension altered the preserved p**3 block")
    added, amps = out.indices[new], out.amplitudes[new]
    if len(added) != 3 * (p * p - m * m) or ((added >= p).sum(axis=1) != 1).any():
        raise RuntimeError("appended standard-basis pattern corrupted")
    if ((added < m).sum(axis=1) >= 2).any():
        raise RuntimeError("zero-pattern violated in the extension region")
    new_mass = math.fsum((amps.real * amps.real + amps.imag * amps.imag).tolist())
    if abs(new_mass - params.epsilon) > 1e-12 * max(1.0, params.epsilon):
        raise RuntimeError(
            f"appended mass {new_mass} differs from epsilon {params.epsilon}"
        )


def default_seed() -> StateTensor:
    """The 2 x 2 x 2 seed with a single unit amplitude at the origin."""
    return make_state(
        (2, 2, 2),
        {(0, 0, 0): 1.0},
        truncated_from_infinite=True,
        metadata={"construction": "seed_extend"},
    )


def method2_build(
    stages: int,
    eps_schedule: Sequence[float],
    seed: StateTensor | None = None,
) -> StateTensor:
    """Iterate the extension from the (p, m) = (2, 1) seed and normalize.

    Each stage consumes the previous output with m set to the previous p, so
    every slice stabilizes after finitely many stages.  ``eps_schedule``
    supplies one appended-mass budget per stage.
    """
    if stages < 1:
        raise ValueError(f"need at least one stage, got {stages}")
    eps = [float(e) for e in eps_schedule]
    if len(eps) != stages:
        raise ValueError(
            f"eps_schedule has {len(eps)} entries for {stages} stages"
        )
    p, m = 2, 1
    for _ in eps:  # refused before building: each stage makes p' = p**2 + p - m**2
        p, m = p * p + p - m * m, p
        if p**3 >= 2**63:
            raise ValueError(f"{stages} stages give dims {(p,) * 3}: over 2**63 - 1 positions")
    v = default_seed() if seed is None else seed
    if v.nfactors != 3 or v.dims != (2, 2, 2):
        raise ValueError(f"seed must be 2 x 2 x 2, got dims {v.dims}")
    if v.amplitude((0, 0, 0)) == 0j:
        raise ValueError("seed must have a nonzero amplitude at (0, 0, 0)")

    p, m = 2, 1
    for e in eps:
        v = method2_extend(v, ExtensionParams(p=p, m=m, epsilon=e))
        p, m = v.dims[0], p

    metadata = dict(v.metadata)
    metadata["window_sizes"] = [rec["p"] for rec in metadata.get("stage_history", [])]
    return _state_from_arrays(
        v.dims,
        v.indices,
        v.amplitudes,
        normalize=True,
        truncated_from_infinite=True,
        metadata=metadata,
    )


def repair_bipartite(
    v: StateTensor,
    subsystem: Subsystem | int | Iterable[int] = 0,
    delta: float = 0.1,
    tol: float | None = None,
) -> StateTensor:
    """Nudge a bipartite state onto the hyperentangled set, within ``delta``.

    Zero Schmidt coefficients (cut at the rank threshold) are replaced by
    delta / (2 sqrt(#zeros)) and the state is renormalized; full-rank inputs
    are returned unchanged.  The output is within ``delta`` of the input in
    norm and has strictly positive Schmidt spectrum across the split.
    """
    part = Subsystem.coerce(subsystem)
    if v.nfactors != 2:
        raise ValueError(f"repair is defined for two factors, got {v.nfactors}")
    if len(part) != 1:
        raise ValueError(f"subsystem must be a single factor, got {part.indices}")
    part.validate_for(2)
    if v.dims[0] != v.dims[1]:
        raise ValueError(f"repair needs equal dimensions, got {v.dims}")
    if abs(norm(v) - 1.0) > 1e-10:
        raise ValueError(f"input must be normalized, norm is {norm(v)!r}")
    if not (delta > 0.0 and math.isfinite(delta)):
        raise ValueError(f"delta must be positive and finite, got {delta}")

    sd = schmidt_decompose(v, part, tol)
    total = sd.coeffs.size
    nzeros = total - sd.rank
    if nzeros == 0:
        return v

    fill = delta / (2.0 * math.sqrt(nzeros))
    coeffs = [float(c) if k < sd.rank else fill for k, c in enumerate(sd.coeffs)]

    # Rows of mat run over the subsystem's factor, columns over the other;
    # transposed to (factor 0, factor 1) order when the subsystem is 1.
    d = v.dims[0]
    mat = np.zeros((d, d), dtype=np.complex128)
    for ck, left, right in zip(coeffs, sd.left_vectors, sd.right_vectors):
        if ck != 0.0:
            mat += ck * np.outer(left, right)
    if part.indices[0] == 1:
        mat = mat.T
    support = np.nonzero(mat)

    metadata = dict(v.metadata)
    metadata["repair"] = {"replaced": int(nzeros), "delta": float(delta)}
    out = _state_from_arrays(
        v.dims,
        np.stack(support, axis=1),
        mat[support],
        normalize=True,
        truncated_from_infinite=v.truncated_from_infinite,
        metadata=metadata,
    )

    # Distance guarantee, checked on the dense coefficient matrices.
    dist = float(np.linalg.norm(unfold(out, 0).matrix - unfold(v, 0).matrix))
    if dist > delta:
        raise RuntimeError(f"repair moved {dist}, beyond delta={delta}")
    return out


_R2 = 1.0 / math.sqrt(2.0)
_R3 = 1.0 / math.sqrt(3.0)
_R7 = 1.0 / math.sqrt(7.0)


# name -> (dims, amplitudes) of the named reference states.
_CATALOG: dict[str, tuple[tuple[int, ...], dict[MultiIndex, float]]] = {
    # Two spin-1/2 particles, one up and one down, z basis (up = 0).
    "bohm": ((2, 2), {(0, 1): _R2, (1, 0): _R2}),
    # Two qubits, z basis: equal weight on every index except (0, 0).
    "hardy2": ((2, 2), {(0, 1): _R3, (1, 0): _R3, (1, 1): _R3}),
    # Two spin-1 particles in the orthonormal basis of null directions
    # of the y, x, z spin components (indices 0, 1, 2 respectively).
    "spin1_singlet": ((3, 3), {(0, 0): _R3, (1, 1): -_R3, (2, 2): -_R3}),
    # Same basis as spin1_singlet with the z-null term removed: one
    # Schmidt coefficient is exactly zero, so this is not cyclic.
    "spin1_two_term": ((3, 3), {(0, 0): _R2, (1, 1): -_R2}),
    "ghz": ((2, 2, 2), {(0, 0, 0): _R2, (1, 1, 1): _R2}),
    # Three qubits, z basis: equal weight everywhere except (0, 0, 0).
    "hardy3": (
        (2, 2, 2),
        {idx: _R7 for idx in itertools.product(range(2), repeat=3) if idx != (0, 0, 0)},
    ),
}

PAPER_STATE_NAMES: tuple[str, ...] = tuple(sorted(_CATALOG))


def paper_state(name: str) -> StateTensor:
    """Build a state from the named reference catalog."""
    try:
        dims, entries = _CATALOG[name]
    except KeyError:
        raise ValueError(
            f"unknown state {name!r}; expected one of {list(PAPER_STATE_NAMES)}"
        ) from None
    return make_state(dims, entries, metadata={"catalog": name})
