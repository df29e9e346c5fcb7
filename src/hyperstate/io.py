"""On-disk formats: state files, projector files, report serialization.

State files are JSON with amplitudes as 17-significant-digit decimal strings
plus hex-float companions, so a save/load round trip is bit-exact.  All
validation errors cite the offending field and raise
:class:`StateFileError`, which the CLI maps to exit code 2.
"""

from __future__ import annotations

import json
import math
import re as _re
from itertools import chain
from pathlib import Path
from typing import Any

import numpy as np

from .state import StateTensor, Subsystem, _state_from_arrays
from .witness import Projector

__all__ = [
    "FORMAT_VERSION",
    "StateFileError",
    "save_state",
    "load_state",
    "save_projector",
    "load_projector",
    "canonical_report_json",
]

FORMAT_VERSION = "1.0"
_VERSION_PATTERN = _re.compile(r"^1\.\d+$")


class StateFileError(ValueError):
    """A state or projector file failed validation."""


def _fail(where: str, problem: str) -> "StateFileError":
    return StateFileError(f"{where}: {problem}")


def _check_version(obj: dict, where: str) -> None:
    version = obj.get("format_version")
    if version is None:
        raise _fail(where, "missing field 'format_version'")
    if not isinstance(version, str) or not _VERSION_PATTERN.match(version):
        raise _fail(
            where, f"unsupported format_version {version!r}; need '1.x' as a string"
        )


class _NonFinite:
    """Placeholder for a ``NaN``/``Infinity`` token, located after parsing."""

    def __init__(self, token: str):
        self.token = token


def _find_nonfinite(obj: Any, path: str) -> tuple[str, str] | None:
    """Field path and token of the first :class:`_NonFinite` in ``obj``."""
    if isinstance(obj, _NonFinite):
        return path, obj.token
    if isinstance(obj, dict):
        children = ((f"{path}.{k}" if path else k, x) for k, x in obj.items())
    elif isinstance(obj, list):
        children = ((f"{path}[{k}]", x) for k, x in enumerate(obj))
    else:
        return None
    for sub, child in children:
        found = _find_nonfinite(child, sub)
        if found is not None:
            return found
    return None


def _parse_json(path: Path) -> Any:
    """Read and parse ``path``; non-finite constants are rejected by field."""
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _fail(str(path), f"cannot read file ({exc})") from None
    tokens: list[str] = []

    def constant(token: str) -> _NonFinite:
        tokens.append(token)
        return _NonFinite(token)

    try:
        obj = json.loads(text, parse_constant=constant)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise _fail(str(path), f"invalid JSON ({exc})") from None
    if tokens:  # walk the tree only when a constant was seen
        field, token = _find_nonfinite(obj, "")
        raise _fail(
            f"{path}: {field or 'top level'}",
            f"non-finite number {token} is not allowed",
        )
    return obj


def _float_field(entry: dict, key: str, where: str) -> float:
    if key not in entry:
        raise _fail(where, f"missing field {key!r}")
    raw = entry[key]
    if isinstance(raw, bool) or not isinstance(raw, (str, int, float)):
        raise _fail(where, f"field {key!r} must be a decimal string or number")
    try:
        value = float(raw)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    except ValueError:
        raise _fail(where, f"field {key!r} is not a number: {raw!r}") from None
    hex_key = key + "_hex"
    if hex_key in entry:
        raw_hex = entry[hex_key]
        if not isinstance(raw_hex, str):
            raise _fail(where, f"field {hex_key!r} must be a hex-float string")
        try:
            exact = float.fromhex(raw_hex)
        except OverflowError:
            exact = math.inf
        except ValueError:
            raise _fail(where, f"field {hex_key!r} is not a hex float: {raw_hex!r}") from None
        if not (math.isfinite(exact) and math.isfinite(value)):
            raise _fail(where, f"field {key!r} must be finite")
        if abs(exact - value) > 1e-9 * max(1.0, abs(exact)):
            raise _fail(where, f"fields {key!r} and {hex_key!r} disagree")
        value = exact
    if not math.isfinite(value):
        raise _fail(where, f"field {key!r} must be finite")
    return value


def _is_count(x: Any) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 1


def _check_metadata(metadata: dict, where: str) -> None:
    """Validate the metadata fields that constructions and the CLI read back."""

    def need(ok: bool, field: str, rule: str, value: Any) -> None:
        if not ok:
            raise _fail(f"{where}: metadata.{field}", f"must be {rule}, got {value!r}")

    history = metadata.get("stage_history", [])
    need(isinstance(history, list), "stage_history", "a list of stage records", history)
    for k, rec in enumerate(history):
        need(isinstance(rec, dict), f"stage_history[{k}]", "an object", rec)
        for key in ("p", "m", "p_prime", "epsilon"):
            if key not in rec:
                raise _fail(f"{where}: metadata.stage_history[{k}]", f"missing field {key!r}")
        for key in ("p", "m", "p_prime"):
            need(_is_count(rec[key]), f"stage_history[{k}].{key}", "an integer >= 1", rec[key])
        eps = rec["epsilon"]
        need(
            isinstance(eps, (int, float)) and not isinstance(eps, bool) and 0 < eps < math.inf,
            f"stage_history[{k}].epsilon",
            "a finite positive number",
            eps,
        )
    sizes = metadata.get("window_sizes", [])
    need(isinstance(sizes, list), "window_sizes", "a list of integers >= 1", sizes)
    for k, size in enumerate(sizes):
        need(_is_count(size), f"window_sizes[{k}]", "an integer >= 1", size)


def _state_from_json(obj: Any, where: str) -> StateTensor:
    if not isinstance(obj, dict):
        raise _fail(where, "top level must be a JSON object")
    _check_version(obj, where)

    dims = obj.get("dims")
    if dims is None:
        raise _fail(where, "missing field 'dims'")
    if not isinstance(dims, list) or not all(
        isinstance(d, int) and not isinstance(d, bool) for d in dims
    ):
        raise _fail(where, "field 'dims' must be a list of integers")

    raw_entries = obj.get("entries")
    if raw_entries is None:
        raise _fail(where, "missing field 'entries'")
    if not isinstance(raw_entries, list):
        raise _fail(where, "field 'entries' must be a list")

    truncated = obj.get("truncated_from_infinite", False)
    if not isinstance(truncated, bool):
        raise _fail(where, "field 'truncated_from_infinite' must be a boolean")

    metadata = obj.get("metadata", {})
    if not isinstance(metadata, dict):
        raise _fail(where, "field 'metadata' must be an object")
    _check_metadata(metadata, where)

    rows = _index_column(raw_entries)
    re_part = _float_column(raw_entries, "re")
    im_part = _float_column(raw_entries, "im")
    if rows is None or re_part is None or im_part is None:
        # Some entry fails a column check: this loop names the first one.
        rows, re_part, im_part = [], [], []
        for k, entry in enumerate(raw_entries):
            spot = f"{where}: entries[{k}]"
            if not isinstance(entry, dict):
                raise _fail(spot, "must be an object")
            index = entry.get("index")
            if not isinstance(index, list) or not all(
                isinstance(i, int) and not isinstance(i, bool) for i in index
            ):
                raise _fail(spot, "field 'index' must be a list of integers")
            rows.append(index)
            re_part.append(_float_field(entry, "re", spot))
            im_part.append(_float_field(entry, "im", spot))
    amps = np.empty(len(rows), dtype=np.complex128)
    amps.real, amps.imag = re_part, im_part

    # _state_from_arrays checks index length, range and repeats, citing entries[k].
    try:
        return _state_from_arrays(
            dims, rows, amps, truncated_from_infinite=truncated, metadata=metadata
        )
    except ValueError as exc:
        raise _fail(where, str(exc)) from None


def _index_column(entries: list) -> list | None:
    """The ``index`` lists of all entries, or None unless each is a list of ints."""
    try:
        rows = [entry["index"] for entry in entries]
    except (KeyError, TypeError):  # a missing field, or an entry that is no object
        return None
    if set(map(type, rows)) <= {list} and set(map(type, chain.from_iterable(rows))) <= {int}:
        return rows
    return None


def _float_column(entries: list, key: str) -> np.ndarray | None:
    """Field ``key`` of all entries as :func:`_float_field` reads it, or None.

    None means some entry fails one of :func:`_float_field`'s checks, or only
    some entries carry the hex companion; the per-entry loop then decodes the
    file, or names its first bad entry.
    """
    hex_key = key + "_hex"
    try:
        raw = [entry[key] for entry in entries]
        if not set(map(type, raw)) <= {str, int, float}:
            return None
        value = np.array(list(map(float, raw)), dtype=np.float64)
        if not np.isfinite(value).all():
            return None
        if not any(hex_key in entry for entry in entries):
            return value
        raw_hex = [entry[hex_key] for entry in entries]
        if not set(map(type, raw_hex)) <= {str}:
            return None
        exact = np.array(list(map(float.fromhex, raw_hex)), dtype=np.float64)
    except (KeyError, TypeError, ValueError, OverflowError):
        return None
    agree = np.abs(exact - value) <= 1e-9 * np.maximum(1.0, np.abs(exact))
    return exact if np.isfinite(exact).all() and agree.all() else None


def _entry_template(nfactors: int) -> str:
    """One entry as ``json.dumps(indent=2, sort_keys=True)`` lays it out in a
    state file, to be filled with ``(im, im_hex, *index, re, re_hex)``."""
    index = ",\n".join(["        %d"] * nfactors)
    return (
        '    {\n      "im": "%.17g",\n      "im_hex": "%s",\n      "index": [\n'
        + index
        + '\n      ],\n      "re": "%.17g",\n      "re_hex": "%s"\n    }'
    )


def save_state(v: StateTensor, path: str | Path) -> None:
    """Write ``v``; non-finite metadata numbers raise ValueError first.

    The file is what ``json.dumps(..., indent=2, sort_keys=True)`` gives for
    the whole document, but the entries are rendered from the arrays through
    one template instead of the stdlib's pure-Python indenting encoder.  The
    text is complete before the file is opened, so a failed save leaves an
    existing file as it was.
    """
    header = {
        "format_version": FORMAT_VERSION,
        "dims": list(v.dims),
        "truncated_from_infinite": v.truncated_from_infinite,
        "entries": [],
        "metadata": v.metadata,
    }
    text = json.dumps(header, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if v.nnz:
        template = _entry_template(v.nfactors)
        re_part, im_part = v.amplitudes.real.tolist(), v.amplitudes.imag.tolist()
        block = ",\n".join(
            template % (im, im.hex(), *index, re, re.hex())
            for index, re, im in zip(v.indices.tolist(), re_part, im_part)
        )
        # "dims" sorts first, so the first match is the top-level field.
        text = text.replace(
            '\n  "entries": [],\n', f'\n  "entries": [\n{block}\n  ],\n', 1
        )
    Path(path).write_text(text, encoding="utf-8")


def load_state(path: str | Path) -> StateTensor:
    p = Path(path)
    return _state_from_json(_parse_json(p), str(p))


def save_projector(p: Projector, path: str | Path) -> None:
    obj = {
        "format_version": FORMAT_VERSION,
        "subsystem": list(p.subsystem.indices),
        "vectors": [
            {"re": [x.real for x in row], "im": [x.imag for x in row]}
            for row in p.basis
        ],
    }
    Path(path).write_text(
        json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _is_finite_number(x: Any) -> bool:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an integer beyond the float range
        return False


def load_projector(path: str | Path) -> Projector:
    p = Path(path)
    obj = _parse_json(p)
    where = str(p)
    if not isinstance(obj, dict):
        raise _fail(where, "top level must be a JSON object")
    _check_version(obj, where)

    subsystem = obj.get("subsystem")
    if not isinstance(subsystem, list) or not all(
        isinstance(i, int) and not isinstance(i, bool) for i in subsystem
    ):
        raise _fail(where, "field 'subsystem' must be a list of integers")

    vectors = obj.get("vectors")
    if not isinstance(vectors, list) or not vectors:
        raise _fail(where, "field 'vectors' must be a nonempty list")
    rows = []
    width = None
    for k, vec in enumerate(vectors):
        spot = f"{where}: vectors[{k}]"
        if not isinstance(vec, dict):
            raise _fail(spot, "must be an object with 're' and 'im' lists")
        re_part = vec.get("re")
        im_part = vec.get("im")
        for name, part in (("re", re_part), ("im", im_part)):
            if not isinstance(part, list) or not all(map(_is_finite_number, part)):
                raise _fail(spot, f"field {name!r} must be a list of finite numbers")
        if len(re_part) != len(im_part):
            raise _fail(spot, "'re' and 'im' must have the same length")
        if width is None:
            width = len(re_part)
        elif len(re_part) != width:
            raise _fail(spot, "all vectors must have the same length")
        rows.append([complex(r, i) for r, i in zip(re_part, im_part)])

    try:
        return Projector(
            subsystem=Subsystem.coerce(subsystem), basis=np.array(rows)
        )
    except ValueError as exc:
        raise _fail(where, str(exc)) from None


def canonical_report_json(report: dict) -> str:
    """Deterministic rendering used for all CLI reports."""
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
