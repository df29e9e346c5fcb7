"""On-disk formats: state files and projector files.

State files are JSON with amplitudes as 17-significant-digit decimal strings
plus hex-float companions, so a save/load round trip is bit-exact.  All
validation errors cite the offending field and raise
:class:`StateFileError`, which the CLI maps to exit code 2.  Both formats
are laid out by :func:`canonical_report_json`, re-exported here from ``cli``.
"""

from __future__ import annotations

import errno
import json
import math
import os
import re as _re
import stat
from itertools import chain
from pathlib import Path
from typing import Any, Callable, Iterable

import numpy as np

from .cli import canonical_report_json
from .state import StateTensor, Subsystem, _is_finite_number, _json_nodes, _state_from_arrays
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


class _NonFinite(str):
    """A ``NaN``/``Infinity`` token as parsed, located afterwards."""


def _read_document(path: str | Path) -> tuple[dict, str]:
    """The top-level object of the file at ``path`` and the name errors cite.

    The one reader of state and projector files: it reads, parses (naming a
    non-finite token by its field, through ``state._json_nodes``), refuses a
    top level that is not an object and checks ``format_version``, in order.
    """
    path = Path(path)
    where = str(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _fail(where, f"cannot read file ({exc})") from None
    tokens: list[str] = []
    try:
        obj = json.loads(text, parse_constant=lambda t: tokens.append(t) or _NonFinite(t))
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise _fail(where, f"invalid JSON ({exc})") from None
    except RecursionError:
        raise _fail(where, "invalid JSON (nested too deeply)") from None
    if tokens:  # walk the tree only when the parser met a token, at any depth it parsed

        def refuse(field: str, x: object) -> None:
            if isinstance(x, _NonFinite):
                problem = f"non-finite number {x} is not allowed"
                raise _fail(f"{where}: {field or 'top level'}", problem)

        _json_nodes(obj, "", refuse, depth=math.inf)
    if not isinstance(obj, dict):
        raise _fail(where, "top level must be a JSON object")
    version = obj.get("format_version")
    if version is None:
        raise _fail(where, "missing field 'format_version'")
    if not isinstance(version, str) or not _VERSION_PATTERN.match(version):
        raise _fail(where, f"unsupported format_version {version!r}; need '1.x' as a string")
    return obj, where


def _write_document(path: str | Path, text: str) -> None:
    """Replace the file at ``path`` with ``text`` in one step.

    The one writer of state and projector files: the text goes to a new
    file beside the target, which ``os.replace`` then moves over it, so a
    failed write leaves an existing file as it was and no new file behind.
    A symlink is written through, an existing file keeps its permission
    bits, a file the caller may not write is refused as a truncating write
    would refuse it, and an ``OSError`` names ``path``.  A target that is
    not a regular file (a device such as ``/dev/null``, a FIFO) is written
    in place, as ``open`` writes it, and so is never replaced.
    """
    temp = None
    try:
        try:
            mode = os.stat(path).st_mode
        except FileNotFoundError:
            mode = None
        if mode is not None and not stat.S_ISREG(mode):
            with open(path, "w", encoding="utf-8") as out:
                out.write(text)
            return
        if mode is not None and not os.access(path, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
        target = os.path.realpath(path) if os.path.islink(path) else path
        name = os.path.join(os.path.dirname(target), f".hyperstate-{os.urandom(6).hex()}.tmp")
        with open(name, "x", encoding="utf-8") as out:
            temp = name
            out.write(text)
        if mode is not None:  # a new file keeps open's mode
            os.chmod(temp, stat.S_IMODE(mode))
        os.replace(temp, target)
    except BaseException as exc:
        if temp is not None:
            os.unlink(temp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, str(Path(path))) from None
        raise


def _name_first(where: str, oks: Iterable, problem: str) -> StateFileError:
    """The error citing the first falsy item of ``oks`` as ``entries[k]``."""
    k = next(k for k, ok in enumerate(oks) if not ok)
    return _fail(f"{where}: entries[{k}]", problem)


def _is_int_list(x: Any) -> bool:
    return isinstance(x, list) and all(isinstance(i, int) and not isinstance(i, bool) for i in x)


def _index_column(entries: list, where: str) -> list:
    """The ``index`` list of every entry, after every entry is checked to be an object."""
    try:
        rows = [entry["index"] for entry in entries]
        if set(map(type, rows)) <= {list} and set(map(type, chain.from_iterable(rows))) <= {int}:
            return rows
    except (KeyError, TypeError):  # a missing field, or an entry that is no object
        pass
    objects = [isinstance(entry, dict) for entry in entries]
    if not all(objects):
        raise _name_first(where, objects, "must be an object")
    oks = (_is_int_list(entry.get("index")) for entry in entries)
    raise _name_first(where, oks, "field 'index' must be a list of integers")


def _parse_column(parse: Callable, raw: list, where: str, problem: str) -> np.ndarray:
    """``map(parse, raw)`` as float64; after it fails, each item is parsed again
    to name the first refused one, and an integer beyond the float range is inf."""
    try:
        return np.array(list(map(parse, raw)), dtype=np.float64)
    except (ValueError, OverflowError):
        pass
    out = []
    for k, x in enumerate(raw):
        try:
            out.append(parse(x))
        except OverflowError:
            out.append(math.inf)
        except ValueError:
            raise _fail(f"{where}: entries[{k}]", f"{problem}: {x!r}") from None
    return np.array(out, dtype=np.float64)


def _float_column(entries: list, key: str, where: str) -> np.ndarray:
    """Field ``key`` of every entry, exact from its ``key + "_hex"`` companion if any.

    Each check runs over the whole column, naming its first failing entry,
    before the next: missing, type, number, hex type, hex number, finite,
    agreement.  Where only some entries carry the companion, the others stand
    for their decimal's own hex.
    """
    hex_key = key + "_hex"
    try:
        raw = [entry[key] for entry in entries]
    except KeyError:
        raise _name_first(where, (key in e for e in entries), f"missing field {key!r}") from None
    if not set(map(type, raw)) <= {str, int, float}:
        oks = (type(x) in (str, int, float) for x in raw)
        raise _name_first(where, oks, f"field {key!r} must be a decimal string or number")
    value = exact = _parse_column(float, raw, where, f"field {key!r} is not a number")
    if any(hex_key in entry for entry in entries):
        try:
            raw_hex = [entry[hex_key] for entry in entries]
        except KeyError:
            pairs = zip(entries, value.tolist())
            raw_hex = [e[hex_key] if hex_key in e else x.hex() for e, x in pairs]
        if not set(map(type, raw_hex)) <= {str}:
            oks = (isinstance(x, str) for x in raw_hex)
            raise _name_first(where, oks, f"field {hex_key!r} must be a hex-float string")
        problem = f"field {hex_key!r} is not a hex float"
        exact = _parse_column(float.fromhex, raw_hex, where, problem)
    finite = np.isfinite(exact) & np.isfinite(value)
    if not finite.all():
        raise _name_first(where, finite, f"field {key!r} must be finite")
    with np.errstate(over="ignore"):  # a gap beyond the float range is inf: they disagree
        agree = np.abs(exact - value) <= 1e-9 * np.maximum(1.0, np.abs(exact))
    if not agree.all():
        raise _name_first(where, agree, f"fields {key!r} and {hex_key!r} disagree")
    return exact


def _entry_template(nfactors: int) -> str:
    """One entry as :func:`canonical_report_json` lays it out in a state file,
    to be filled with ``(im, im_hex, *index, re, re_hex)``."""
    entry = dict(im="%.17g", im_hex="%s", index=["%d"] * nfactors, re="%.17g", re_hex="%s")
    text = canonical_report_json(entry).replace('"%d"', "%d").rstrip("\n")
    return "    " + text.replace("\n", "\n    ")


def save_state(v: StateTensor, path: str | Path) -> None:
    """Write ``v``: its metadata is JSON by construction, so only the write can fail.

    The file is what :func:`canonical_report_json` gives for the whole
    document, but the entries are rendered from the arrays through one
    template instead of the stdlib's pure-Python indenting encoder.  A
    regular file is replaced in one step, so a failed save leaves the old
    file.
    """
    header = {
        "format_version": FORMAT_VERSION,
        "dims": list(v.dims),
        "truncated_from_infinite": v.truncated_from_infinite,
        "entries": [],
        "metadata": v.metadata,
    }
    text = canonical_report_json(header)
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
    _write_document(path, text)


def load_state(path: str | Path) -> StateTensor:
    obj, where = _read_document(path)

    dims = obj.get("dims")
    if dims is None:
        raise _fail(where, "missing field 'dims'")
    if not _is_int_list(dims):
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

    rows = _index_column(raw_entries, where)
    amps = np.empty(len(rows), dtype=np.complex128)
    amps.real = _float_column(raw_entries, "re", where)
    amps.imag = _float_column(raw_entries, "im", where)

    # _state_from_arrays checks metadata.<field>, then entries[k]: length, range, repeats.
    try:
        return _state_from_arrays(
            dims, rows, amps, truncated_from_infinite=truncated, metadata=metadata
        )
    except ValueError as exc:
        raise _fail(where, str(exc)) from None


def save_projector(p: Projector, path: str | Path) -> None:
    obj = {
        "format_version": FORMAT_VERSION,
        "subsystem": list(p.subsystem.indices),
        "vectors": [
            {"re": [x.real for x in row], "im": [x.imag for x in row]}
            for row in p.basis
        ],
    }
    _write_document(path, canonical_report_json(obj))


def load_projector(path: str | Path) -> Projector:
    obj, where = _read_document(path)

    subsystem = obj.get("subsystem")
    if not _is_int_list(subsystem):
        raise _fail(where, "field 'subsystem' must be a list of integers")

    vectors = obj.get("vectors")
    if not isinstance(vectors, list) or not vectors:
        raise _fail(where, "field 'vectors' must be a nonempty list")
    rows = []
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
        if rows and len(re_part) != len(rows[0]):
            raise _fail(spot, "all vectors must have the same length")
        rows.append([complex(r, i) for r, i in zip(re_part, im_part)])

    try:
        return Projector(
            subsystem=Subsystem.coerce(subsystem), basis=np.array(rows)
        )
    except ValueError as exc:
        raise _fail(where, str(exc)) from None

