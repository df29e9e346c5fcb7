"""State files byte for byte: the writer's layout, the loader's messages.

Golden files under ``golden/`` were written by the entry-by-entry writer
that ``save_state`` replaced; ``helpers.state_document`` rebuilds that
writer's document so any state can be checked against the stdlib encoder.
"""

import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import state_document
from hyperstate import make_state
from hyperstate.cli import run_cli
from hyperstate.io import StateFileError, load_state, save_state

TESTS = pathlib.Path(__file__).parent
GOLDEN = TESTS / "golden"


@pytest.mark.parametrize(
    "name, argv",
    [
        ("state_hardy3", ["construct", "paper", "--name", "hardy3"]),
        ("state_method1_3_3_37", ["construct", "method1", "--bounds", "3,3,37"]),
        ("state_method2_stage2", ["construct", "method2", "--stages", "2", "--eps", "0.01,0.005"]),
        (
            "state_repair_spin1_two_term",
            ["construct", "repair", "--paper", "spin1_two_term", "--delta", "0.1"],
        ),
    ],
)
def test_golden_state_files(capsys, tmp_path, name, argv):
    golden = GOLDEN / f"{name}.json"
    out = tmp_path / "out.json"
    assert run_cli(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == golden.read_bytes()

    v = load_state(golden)
    again = tmp_path / "again.json"
    save_state(v, again)
    assert again.read_bytes() == golden.read_bytes()
    w = load_state(out)
    assert w == v
    assert w.metadata == v.metadata == json.loads(golden.read_text())["metadata"]


SUBNORMALS = [5e-324, 1e-310, 2.2250738585072009e-308]  # the last is the largest
EDGE_FLOATS = [0.0, 1e308, 1.7976931348623157e308, 1e-5, 1e16, 1e17, 1e21, 2.5e-300]
amplitude_parts = st.one_of(
    st.sampled_from(SUBNORMALS + EDGE_FLOATS).flatmap(
        lambda x: st.sampled_from([x, -x])  # includes -0.0
    ),
    st.floats(allow_nan=False, allow_infinity=False),
)
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4),
)
metadata = st.dictionaries(
    st.text(max_size=4),
    st.recursive(
        json_scalars,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=6,
    ),
    max_size=3,
)


@st.composite
def states(draw):
    dims = draw(st.lists(st.integers(2, 3), min_size=2, max_size=4))
    cells = st.tuples(*(st.integers(0, d - 1) for d in dims))
    indices = draw(st.lists(cells, max_size=6, unique=True))
    return make_state(
        dims,
        {idx: complex(draw(amplitude_parts), draw(amplitude_parts)) for idx in indices},
        truncated_from_infinite=draw(st.booleans()),
        metadata=draw(metadata),
    )


@given(v=states())
def test_writer_matches_stdlib_encoder(tmp_path_factory, v):
    path = tmp_path_factory.mktemp("prop") / "v.json"
    save_state(v, path)
    text = path.read_text(encoding="utf-8")
    assert text == json.dumps(state_document(v), indent=2, sort_keys=True, allow_nan=False) + "\n"

    w = load_state(path)
    assert w.dims == v.dims
    assert w.truncated_from_infinite == v.truncated_from_infinite
    assert w.metadata == v.metadata
    assert np.array_equal(w.indices, v.indices)
    assert np.array_equal(w.amplitudes.view(np.uint64), v.amplitudes.view(np.uint64))


def test_failed_save_leaves_file_alone(tmp_path):
    path = tmp_path / "v.json"
    save_state(make_state((2, 2), {(0, 1): 1.0}), path)
    before = path.read_bytes()
    bad = make_state((2, 2), {(1, 0): 1.0}, metadata={"x": [1.0, math.nan]})
    with pytest.raises(ValueError):
        save_state(bad, path)
    assert path.read_bytes() == before


class TestLoaderMessages:
    def test_fixture_messages_unchanged(self, monkeypatch):
        monkeypatch.chdir(TESTS)  # the golden messages cite paths relative to tests/
        golden = json.loads((GOLDEN / "loader_messages.json").read_text())
        assert len(golden) == 21
        for rel, message in golden.items():
            with pytest.raises(StateFileError) as info:
                load_state(rel)
            assert str(info.value) == message

    @staticmethod
    def big_document() -> dict:
        """A valid 64x64 document: 4096 entries, entry 3000 is index (46, 56)."""
        x = np.sin(np.arange(1.0, 4097.0)).reshape(64, 64)
        v = make_state((64, 64), {(i, j): x[i, j] for i in range(64) for j in range(64)})
        return json.loads(json.dumps(state_document(v)))

    @pytest.mark.parametrize(
        "edit, problem",
        [
            (lambda e: e["index"].__setitem__(1, True), "field 'index' must be a list of integers"),
            (lambda e: e.pop("im"), "missing field 'im'"),
            (lambda e: e.__setitem__("re_hex", (0.75).hex()), "fields 're' and 're_hex' disagree"),
            (lambda e: e.__setitem__("re", [0.5]), "field 're' must be a decimal string or number"),
            (lambda e: e["index"].__setitem__(1, 64), "index (46, 64) out of range for dims (64, 64)"),
            (lambda e: e.__setitem__("im", 10**400), "field 'im' must be finite"),
            (lambda e: e.__setitem__("re", "nan"), "field 're' must be finite"),  # hex still valid
            (lambda e: e.__setitem__("re_hex", 5), "field 're_hex' must be a hex-float string"),
            (lambda e: e.__setitem__("re_hex", "zz"), "field 're_hex' is not a hex float: 'zz'"),
            pytest.param(
                lambda e: e.__setitem__("re_hex", "0x1p5000"),
                "field 're' must be finite",
                id="re_hex-overflow",
            ),
            pytest.param(  # their difference is beyond the float range, with no warning
                lambda e: e.update(re="-1.7e308", re_hex=(1.7e308).hex()),
                "fields 're' and 're_hex' disagree",
                id="re_hex-opposite-huge",
            ),
        ],
    )
    def test_one_bad_entry_among_many(self, tmp_path, edit, problem):
        doc = self.big_document()
        edit(doc["entries"][3000])
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(StateFileError) as info:
            load_state(path)
        assert str(info.value) == f"{path}: entries[3000]: {problem}"

    @pytest.mark.parametrize(
        "field, value, problem",
        [
            ("truncated_from_infinite", "yes", "field 'truncated_from_infinite' must be a boolean"),
            ("metadata", [], "field 'metadata' must be an object"),
        ],
    )
    def test_bad_document_field(self, tmp_path, field, value, problem):
        doc = self.big_document()
        doc[field] = value
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(StateFileError) as info:
            load_state(path)
        assert str(info.value) == f"{path}: {problem}"

    @pytest.mark.parametrize(
        "bad, problem",
        [
            ({3: ("im", "x"), 9: ("index", [0, True])}, "field 'index' must be a list of integers"),
            ({3: ("re", "nan"), 9: ("re", [0.5])}, "field 're' must be a decimal string or number"),
        ],
    )
    def test_first_failing_check_names_the_entry(self, tmp_path, bad, problem):
        # checks run field by field (object, index, re, im), each over the
        # whole column, so the earliest check names its first failing entry
        doc = self.big_document()
        for k, (field, value) in bad.items():
            doc["entries"][k][field] = value
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(StateFileError) as info:
            load_state(path)
        assert str(info.value) == f"{path}: entries[9]: {problem}"

    @pytest.mark.parametrize("flavour", ["hex", "decimal_only", "numbers", "mixed_hex"])
    def test_valid_files_load_by_column(self, tmp_path, flavour):
        doc = self.big_document()
        want = load_state_text(tmp_path, json.dumps(doc))
        for k, entry in enumerate(doc["entries"]):
            if flavour == "mixed_hex":
                del entry[("re_hex", "im_hex")[k % 2]]
            elif flavour != "hex":
                del entry["re_hex"], entry["im_hex"]
            if flavour == "numbers":
                entry["re"], entry["im"] = float(entry["re"]), 0
        got = load_state_text(tmp_path, json.dumps(doc))
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.amplitudes.view(np.uint64), want.amplitudes.view(np.uint64))
        assert got == want


def load_state_text(tmp_path: pathlib.Path, text: str):
    path = tmp_path / "doc.json"
    path.write_text(text)
    return load_state(path)
