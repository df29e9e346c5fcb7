"""Fuzzing of the state-file loader and of the CLI that reads state files.

A valid state document gets one hostile edit: a non-finite constant, a bool
posing as an integer, an integer beyond int64 or past Python's 4300-digit
conversion limit, a ragged, out-of-range or repeated index, or dims spanning
more than 2**63 positions.  ``load_state`` must raise ``StateFileError`` and
``certify --state`` must exit 2 with a JSON report and a quiet stderr.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperstate.cli import run_cli
from hyperstate.io import StateFileError, load_state

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


@st.composite
def hostile_documents(draw):
    """JSON text of a valid document with one edit that makes it invalid."""
    doc = draw(valid_documents())
    raw = None
    kind = draw(
        st.sampled_from(
            ["nonfinite", "bool", "huge", "digits", "ragged", "range", "repeat", "dims"]
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
    else:  # every dim fits int64, the number of positions does not
        doc["dims"] = [2**32] * len(doc["dims"])
    text = json.dumps(doc)
    return text if raw is None else text.replace(json.dumps(RAW), raw, 1)


@given(text=hostile_documents())
def test_hostile_state_files_are_refused(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "state.json"
    path.write_text(text)
    with pytest.raises(StateFileError):
        load_state(path)

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(["certify", "--state", str(path)])
    assert code == 2
    assert err.getvalue() == ""
    report = json.loads(out.getvalue())
    assert set(report) == {"argv", "command", "error", "timing_ms"}
    assert report["command"] == "certify"
