"""Fuzzing of the state and projector loaders and of the CLI that reads them.

A valid state document gets one hostile edit: a non-finite constant, a bool
posing as an integer, an integer beyond int64, beyond the float range or past
Python's 4300-digit conversion limit, a ragged, out-of-range or repeated
index, dims spanning more than 2**63 positions, or a byte that is not UTF-8.
``load_state`` must raise ``StateFileError`` and ``certify --state`` must
exit 2 with a JSON report and a quiet stderr.  Projector documents get the
same treatment through ``load_projector`` and ``witness --pprime-file``.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperstate.cli import run_cli
from hyperstate.io import StateFileError, load_projector, load_state

RAW = "@@raw@@"  # placeholder swapped for a token that json.dumps cannot write
HUGE_INTS = [2**63, 2**64, -(2**63) - 1, 10**30]


@st.composite
def valid_documents(draw):
    dims = draw(st.lists(st.integers(2, 4), min_size=2, max_size=3))
    cells = st.tuples(*(st.integers(0, d - 1) for d in dims))
    indices = draw(st.lists(cells, min_size=1, max_size=5, unique=True))
    values = st.floats(-2.0, 2.0, allow_nan=False).filter(lambda x: abs(x) > 1e-3)
    return {
        "format_version": "1.0",
        "dims": dims,
        "truncated_from_infinite": draw(st.booleans()),
        "entries": [
            {"index": list(idx), "re": draw(values), "im": draw(values)} for idx in indices
        ],
        "metadata": {},
    }


def scalar_slots(doc):
    """(container, key) of every number an edit may replace."""
    slots = [(doc["dims"], k) for k in range(len(doc["dims"]))]
    for entry in doc["entries"]:
        slots += [(entry["index"], k) for k in range(len(entry["index"]))]
        slots += [(entry, "re"), (entry, "im")]
    return slots


def encode(draw, doc, raw, bad_byte):
    """UTF-8 JSON of ``doc`` with ``raw`` in the RAW slot; ``bad_byte`` splices in a 0xff."""
    text = json.dumps(doc)
    data = (text if raw is None else text.replace(json.dumps(RAW), raw, 1)).encode()
    if bad_byte:  # no longer UTF-8 at all
        k = draw(st.integers(0, len(data)))
        data = data[:k] + b"\xff" + data[k:]
    return data


@st.composite
def hostile_documents(draw):
    """The bytes of a valid document with one edit that makes it invalid."""
    doc = draw(valid_documents())
    raw = None
    kind = draw(
        st.sampled_from(
            [
                "nonfinite", "bool", "huge", "wide", "digits",
                "ragged", "range", "repeat", "dims", "byte",
            ]
        )
    )
    entry = draw(st.sampled_from(doc["entries"]))
    if kind in ("nonfinite", "digits"):
        container, key = draw(st.sampled_from(scalar_slots(doc)))
        container[key] = RAW
        raw = (
            draw(st.sampled_from(["NaN", "Infinity", "-Infinity"]))
            if kind == "nonfinite"
            else "-" * draw(st.booleans()) + "9" * 5000
        )
    elif kind == "bool":
        container, key = draw(
            st.sampled_from(
                [(doc["dims"], k) for k in range(len(doc["dims"]))]
                + [(entry["index"], k) for k in range(len(entry["index"]))]
                + [(entry, "re"), (entry, "im")]
            )
        )
        container[key] = draw(st.booleans())
    elif kind == "huge":
        container, key = draw(
            st.sampled_from(
                [(entry["index"], k) for k in range(len(entry["index"]))]
                + [(doc["dims"], k) for k in range(len(doc["dims"]))]
            )
        )
        container[key] = draw(st.sampled_from(HUGE_INTS))
    elif kind == "wide":  # an integer that no float can hold
        entry[draw(st.sampled_from(["re", "im"]))] = draw(st.sampled_from([-1, 1])) * 10**400
    elif kind == "ragged":
        if draw(st.booleans()) and len(entry["index"]) > 1:
            entry["index"].pop()
        else:
            entry["index"].append(0)
    elif kind == "range":
        k = draw(st.integers(0, len(entry["index"]) - 1))
        entry["index"][k] = draw(st.sampled_from([-1, doc["dims"][k]]))
    elif kind == "repeat":
        doc["entries"].append(dict(entry, re=0.5))
    elif kind == "dims":  # every dim fits int64, the number of positions does not
        doc["dims"] = [2**32] * len(doc["dims"])
    return encode(draw, doc, raw, kind == "byte")


def assert_cli_refuses(argv, command):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    assert code == 2
    assert err.getvalue() == ""
    report = json.loads(out.getvalue())
    assert set(report) == {"argv", "command", "error", "timing_ms"}
    assert report["command"] == command


@given(data=hostile_documents())
def test_hostile_state_files_are_refused(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "state.json"
    path.write_bytes(data)
    with pytest.raises(StateFileError):
        load_state(path)
    assert_cli_refuses(["certify", "--state", str(path)], "certify")


@st.composite
def projector_documents(draw):
    """A valid P' for ``witness --paper bohm``: orthonormal rows on factor 1."""
    rows = draw(st.sampled_from([[[1, 0]], [[0, 1]], [[1, 0], [0, 1]], [[0.6, 0.8], [-0.8, 0.6]]]))
    imag = draw(st.booleans())  # put each row on the imaginary axis instead
    return {
        "format_version": "1.0",
        "subsystem": [1],
        "vectors": [
            {"re": [0] * len(row), "im": list(row)} if imag else {"re": list(row), "im": [0, 0]}
            for row in rows
        ],
    }


@st.composite
def hostile_projectors(draw):
    """The bytes of a valid projector document with one edit that makes it invalid."""
    doc = draw(projector_documents())
    raw = None
    kind = draw(
        st.sampled_from(
            [
                "nonfinite", "bool", "wide", "digits",
                "ragged", "width", "empty", "orthonormal", "byte",
            ]
        )
    )
    vec = draw(st.sampled_from(doc["vectors"]))
    part = vec[draw(st.sampled_from(["re", "im"]))]
    slot = draw(st.integers(0, len(part) - 1))
    if kind in ("nonfinite", "digits"):
        part[slot] = RAW
        raw = (
            draw(st.sampled_from(["NaN", "Infinity", "-Infinity"]))
            if kind == "nonfinite"
            else "-" * draw(st.booleans()) + "9" * 5000
        )
    elif kind == "bool":
        if draw(st.booleans()):
            part[slot] = draw(st.booleans())
        else:
            doc["subsystem"][0] = True
    elif kind == "wide":
        part[slot] = draw(st.sampled_from([-1, 1])) * 10**400
    elif kind == "ragged":
        if draw(st.booleans()):
            part.pop()
        else:
            part.append(0)
    elif kind == "width":  # a second vector one component longer
        doc["vectors"].append({"re": [0, 0, 1], "im": [0, 0, 0]})
    elif kind == "empty":
        doc["vectors"] = []
    elif kind == "orthonormal":  # scale one row, or repeat it
        if draw(st.booleans()):
            scale = draw(st.sampled_from([0, 0.5, 2, 1e200]))
            vec["re"] = [x * scale for x in vec["re"]]
            vec["im"] = [x * scale for x in vec["im"]]
        else:
            doc["vectors"].append(vec)
    return encode(draw, doc, raw, kind == "byte")


@pytest.mark.filterwarnings("error::RuntimeWarning")  # 1e200 rows must warn nothing
@given(data=hostile_projectors())
def test_hostile_projector_files_are_refused(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "pprime.json"
    path.write_bytes(data)
    with pytest.raises(StateFileError):
        load_projector(path)
    assert_cli_refuses(["witness", "--paper", "bohm", "--pprime-file", str(path)], "witness")
