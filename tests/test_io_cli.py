import argparse
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import dense_tensor, rand_unit, random_state, refuse_constant, scaled_state
from hyperstate import Projector, Subsystem, certify_state, make_state, method2_build
from hyperstate.cli import run_cli
from hyperstate.io import (
    StateFileError,
    canonical_report_json,
    load_projector,
    load_state,
    save_projector,
    save_state,
)
from hyperstate.state import _METADATA_DEPTH

R2 = 1.0 / math.sqrt(2.0)
NONFINITE_SEED = pathlib.Path(__file__).parent / "fixtures" / "nonfinite_seed.json"
GOLDEN = pathlib.Path(__file__).parent / "golden"
TIMING_LINE = re.compile(r'^(\s*"timing_ms": )[0-9.eE+-]+(,?)$', re.M)


def run(capsys, *argv):
    code = run_cli(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def nested_metadata(levels):
    """Metadata ``levels`` dicts and lists deep, itself the first."""
    inner = 1
    for _ in range(levels - 1):
        inner = [inner]
    return {"m": inner}


def masked_run(capsys, argv):
    """Exit code, stdout with the timing masked, and stderr of one in-process call."""
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, TIMING_LINE.sub(r'\1"MASKED"\2', captured.out), captured.err


@pytest.fixture(scope="module")
def over_budget(tmp_path_factory):
    """A (2049, 2049) state file: its 2049 x 2049 unfolding exceeds the dense budget."""
    path = tmp_path_factory.mktemp("budget") / "wide.json"
    save_state(make_state((2049, 2049), {(k, k): 1.0 for k in range(3)}, normalize=True), path)
    return str(path)


class TestStateFiles:
    def test_round_trip_bitwise(self, tmp_path):
        v = make_state(
            (2, 3),
            {(0, 1): complex(1.0 / 3.0, -2.0e-200), (1, 2): -0.1},
            truncated_from_infinite=True,
            metadata={"note": [1, 2]},
        )
        path = tmp_path / "v.json"
        save_state(v, path)
        w = load_state(path)
        assert w == v
        assert w.metadata == v.metadata
        for idx, amp in v.items():
            assert w.amplitude(idx) == amp  # exact, via the hex fields

    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64, min_value=-1e100, max_value=1e100),
            min_size=2,
            max_size=8,
        )
    )
    def test_round_trip_random_amplitudes(self, tmp_path_factory, values):
        entries = {}
        for k in range(0, len(values) - 1, 2):
            entries[(k // 2 % 2, k // 2 % 3)] = complex(values[k], values[k + 1])
        if not entries:
            entries = {(0, 0): 1.0}
        v = make_state((2, 3), entries)
        path = tmp_path_factory.mktemp("rt") / "v.json"
        save_state(v, path)
        assert load_state(path) == v

    def test_file_layout(self, tmp_path, corpus):
        path = tmp_path / "bohm.json"
        save_state(corpus["bohm"], path)
        obj = json.loads(path.read_text())
        assert obj["format_version"] == "1.0"
        assert obj["dims"] == [2, 2]
        assert obj["truncated_from_infinite"] is False
        entry = obj["entries"][0]
        assert entry["index"] == [0, 1]
        assert float(entry["re"]) == pytest.approx(R2)
        assert float.fromhex(entry["re_hex"]) == R2

    def test_minor_versions_accepted(self, tmp_path):
        path = tmp_path / "v.json"
        path.write_text(json.dumps({
            "format_version": "1.7",
            "dims": [2, 2],
            "entries": [{"index": [0, 0], "re": 1.0, "im": 0}],
        }))
        assert load_state(path).amplitude((0, 0)) == 1.0

    def test_decimal_only_entries_accepted(self, tmp_path):
        path = tmp_path / "v.json"
        path.write_text(json.dumps({
            "format_version": "1.0",
            "dims": [2, 2],
            "entries": [{"index": [1, 1], "re": "0.25", "im": "-1"}],
        }))
        assert load_state(path).amplitude((1, 1)) == complex(0.25, -1.0)

    def test_errors_cite_the_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(StateFileError, match="broken.json"):
            load_state(path)
        with pytest.raises(StateFileError, match="cannot read"):
            load_state(tmp_path / "absent.json")

    def test_hex_decimal_disagreement(self, tmp_path):
        path = tmp_path / "v.json"
        path.write_text(json.dumps({
            "format_version": "1.0",
            "dims": [2, 2],
            "entries": [{"index": [0, 0], "re": "0.5", "re_hex": (0.25).hex(), "im": 0}],
        }))
        with pytest.raises(StateFileError, match="disagree"):
            load_state(path)


class Library(dict):
    """Metadata handed to make_state, where a plain dict is written to a file."""


class TestMetadataFields:
    """stage_history and window_sizes are read back, so the constructor checks
    them for every state; a file's error cites its path, then the field."""

    RECORD = {"p": 2, "m": 1, "epsilon": 0.01, "p_prime": 5}

    def write(self, tmp_path, metadata):
        path = tmp_path / "v.json"
        path.write_text(json.dumps({
            "format_version": "1.0",
            "dims": [2, 2, 2],
            "entries": [{"index": [0, 0, 0], "re": 1.0, "im": 0}],
            "metadata": metadata,
        }))
        return path

    def test_valid_fields_load(self, tmp_path):
        meta = {"stage_history": [self.RECORD], "window_sizes": [2]}
        assert load_state(self.write(tmp_path, meta)).metadata == meta

    BAD_FIELDS = [
        ({"stage_history": [{"m": 1, "epsilon": 0.01, "p_prime": 5}]},
         r"stage_history\[0\]: missing field 'p'"),
        ({"stage_history": [{**RECORD, "m": True}]}, r"stage_history\[0\]\.m: .*True"),
        ({"stage_history": [{**RECORD, "p_prime": 0}]}, r"stage_history\[0\]\.p_prime: "),
        ({"stage_history": [{**RECORD, "epsilon": -0.5}]}, r"stage_history\[0\]\.epsilon: "),
        ({"stage_history": [{**RECORD, "epsilon": "0.01"}]}, r"stage_history\[0\]\.epsilon: "),
        ({"stage_history": [RECORD, [2]]}, r"stage_history\[1\]: must be an object"),
        ({"stage_history": {"p": 2}}, r"metadata\.stage_history: must be a list"),
        ({"window_sizes": ["a"]}, r"window_sizes\[0\]: .*'a'"),
        ({"window_sizes": [2, 2.5]}, r"window_sizes\[1\]: .*2\.5"),
        ({"window_sizes": [True]}, r"window_sizes\[0\]: .*True"),
        ({"window_sizes": [0]}, r"window_sizes\[0\]: "),
        ({"window_sizes": 2}, r"metadata\.window_sizes: must be a list"),
        # an exact JSON integer beyond the float range, refused like a projector entry
        ({"stage_history": [{**RECORD, "epsilon": 10**400}]}, r"stage_history\[0\]\.epsilon: "),
    ]

    @pytest.mark.parametrize(
        "metadata, field", BAD_FIELDS + [(Library(meta), field) for meta, field in BAD_FIELDS]
    )
    def test_bad_fields_cite_their_path(self, tmp_path, metadata, field):
        if isinstance(metadata, Library):
            with pytest.raises(ValueError, match=field) as info:
                make_state((2, 2, 2), {(0, 0, 0): 1.0}, metadata=metadata)
            assert type(info.value) is ValueError
            assert str(info.value).startswith("metadata.")
            return
        with pytest.raises(StateFileError, match=field) as info:
            load_state(self.write(tmp_path, metadata))
        assert str(info.value).startswith(f"{tmp_path / 'v.json'}: metadata.")

    def test_overlong_integer_in_a_field_is_named(self):
        # 10**5000 has no repr within Python's digit limit, so the field checks,
        # which show the value they refuse, never see it
        too_long = r": integer too long to write as JSON$"
        record = {**self.RECORD, "epsilon": 10**5000}
        with pytest.raises(ValueError, match=r"^metadata\.stage_history\[0\]\.epsilon" + too_long):
            make_state((2, 2, 2), {(0, 0, 0): 1.0}, metadata={"stage_history": [record]})
        with pytest.raises(ValueError, match=r"^metadata\.window_sizes" + too_long):
            make_state((2, 2, 2), {(0, 0, 0): 1.0}, metadata={"window_sizes": (10**5000,)})

    def test_fault_order(self, tmp_path):
        # the entry columns are parsed before the constructor, which checks
        # the records before the index ranges
        path = self.write(tmp_path, {"stage_history": [5]})
        doc = json.loads(path.read_text())
        doc["entries"][0]["re"] = "x"
        path.write_text(json.dumps(doc))
        with pytest.raises(StateFileError, match=r": entries\[0\]: field 're' is not a number"):
            load_state(path)
        doc["entries"][0].update(re=1.0, index=[0, 0, 5])
        path.write_text(json.dumps(doc))
        with pytest.raises(StateFileError, match=r": metadata\.stage_history\[0\]: must be an object"):
            load_state(path)

    def test_overflowing_epsilon(self, tmp_path):
        path = self.write(tmp_path, {"stage_history": [self.RECORD]})
        path.write_text(path.read_text().replace("0.01", "1e400"))
        with pytest.raises(StateFileError, match=r"stage_history\[0\]\.epsilon: .*inf"):
            load_state(path)

    def test_cli_reports_the_field(self, capsys, tmp_path):
        seed = self.write(tmp_path, {"stage_history": [{"m": 1, "epsilon": 0.01, "p_prime": 5}]})
        code, rep = run(
            capsys, "construct", "method2", "--stages", "1", "--eps", "0.01",
            "--seed-file", str(seed), "--out", str(tmp_path / "m2.json"),
        )
        assert code == 2
        assert "stage_history[0]: missing field 'p'" in rep["error"]
        path = self.write(tmp_path, {"window_sizes": [2.5]})
        code, rep = run(capsys, "certify", "--state", str(path), "--windows", "full")
        assert code == 2
        assert "window_sizes[0]" in rep["error"]

    def test_cli_refuses_a_record_that_does_not_end_at_the_seed(self, capsys, tmp_path):
        seed = self.write(tmp_path, {"stage_history": [{**self.RECORD, "p_prime": 81}]})
        out = tmp_path / "m2.json"
        code, rep = run(
            capsys, "construct", "method2", "--stages", "1", "--eps", "0.01",
            "--seed-file", str(seed), "--out", str(out),
        )
        assert code == 2
        assert rep["error"] == "metadata records a stage ending at p=81, not 2"
        assert not out.exists()


class TestProjectorFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        basis = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0][:, :2].T
        p = Projector(subsystem=Subsystem((1,)), basis=basis)
        path = tmp_path / "p.json"
        save_projector(p, path)
        q = load_projector(path)
        assert q.subsystem == p.subsystem
        np.testing.assert_allclose(q.basis, p.basis, atol=1e-15)

    def test_file_is_the_canonical_layout(self, tmp_path):
        basis = np.array([[0.6, 0.8j], [0.8, -0.6j]])
        path = tmp_path / "p.json"
        save_projector(Projector(subsystem=Subsystem((1,)), basis=basis), path)
        text = path.read_text(encoding="utf-8")
        assert text == canonical_report_json(json.loads(text))

    def test_validation(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({
            "format_version": "1.0",
            "subsystem": [0],
            "vectors": [{"re": [1.0, 1.0], "im": [0.0, 0.0]}],
        }))
        with pytest.raises(StateFileError, match="orthonormal"):
            load_projector(path)
        path.write_text(json.dumps({
            "format_version": "1.0",
            "subsystem": [0],
            "vectors": [{"re": [1.0], "im": [0.0, 0.0]}],
        }))
        with pytest.raises(StateFileError, match="length"):
            load_projector(path)

    @pytest.mark.parametrize("doc, problem", [
        ([1], "top level must be a JSON object"),
        (
            {"format_version": "1.0", "subsystem": [1], "vectors": [5]},
            "vectors[0]: must be an object with 're' and 'im' lists",
        ),
    ])
    def test_shape_messages(self, tmp_path, doc, problem):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(StateFileError) as info:
            load_projector(path)
        assert str(info.value) == f"{path}: {problem}"


class TestNonFiniteJson:
    """NaN/Infinity are not JSON: loaders cite the field, and the constructor
    refuses them, as it refuses every value JSON cannot encode."""

    def test_state_loader_cites_field(self, tmp_path):
        path = tmp_path / "v.json"
        path.write_text(
            '{"format_version": "1.0", "dims": [2, 2],'
            ' "entries": [{"index": [0, 0], "re": Infinity, "im": 0}]}'
        )
        with pytest.raises(StateFileError, match=r"entries\[0\]\.re: non-finite number Infinity"):
            load_state(path)
        with pytest.raises(StateFileError, match=r"stage_history\[0\]\.epsilon: .*NaN"):
            load_state(NONFINITE_SEED)

    def test_projector_loader_cites_field(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(
            '{"format_version": "1.0", "subsystem": [0],'
            ' "vectors": [{"re": [1.0, 0.0], "im": [0.0, -Infinity]}]}'
        )
        with pytest.raises(StateFileError, match=r"vectors\[0\]\.im\[1\]: .*-Infinity"):
            load_projector(path)

    def test_nonfinite_metadata_refused_when_built(self):
        with pytest.raises(ValueError, match=r"^metadata\.x: non-finite number nan is not JSON$"):
            make_state((2, 2), {(0, 0): 1.0}, metadata={"x": float("nan")})

    @pytest.mark.parametrize("metadata", [
        {"x": float("nan")},
        {"x": np.int64(1)},  # json.dumps raises TypeError on these two
        {1: 2, "a": 3},  # keys that cannot be sorted
        {1: 2, 3: (1, 2)},  # these two would load back as {"1": 2, "3": [1, 2]}
        {"a": [1, {"b": (1, 2)}]},
    ])
    def test_save_refusal_keeps_the_old_file(self, tmp_path, metadata):
        # the constructor refuses the metadata, so no save of it can begin
        path = tmp_path / "v.json"
        save_state(make_state((2, 2), {(0, 0): 1.0}), path)
        before = path.read_bytes()
        with pytest.raises(ValueError, match="JSON") as info:
            make_state((2, 2), {(0, 0): 1.0}, metadata=metadata)
        assert str(info.value).startswith("metadata")
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["v.json"]

    @pytest.mark.parametrize("metadata, field", [
        ({"a": 1, 3: (1, 2)}, "metadata: key 3 "),
        ({"a": [1, {"b": (1, 2)}]}, r"metadata\.a\[1\]\.b: tuple \(1, 2\)"),
    ])
    def test_save_names_metadata_that_would_load_back_otherwise(self, tmp_path, metadata, field):
        with pytest.raises(ValueError, match=field):
            make_state((2, 2), {(0, 0): 1.0}, metadata=metadata)
        path = tmp_path / "v.json"
        kept = {"a": [1, {"b": [1, 2]}], "c": None}  # what JSON gives back as it was
        save_state(make_state((2, 2), {(0, 0): 1.0}, metadata=kept), path)
        assert load_state(path).metadata == kept

    def test_token_a_duplicate_key_replaced_is_gone(self, tmp_path):
        # the parser keeps a repeated key's last value, so no token is left to name
        path = tmp_path / "v.json"
        path.write_text(
            '{"format_version": "1.0", "dims": [2, 2],'
            ' "entries": [{"index": [0, 0], "re": 1, "im": 0}], "metadata": {"a": NaN, "a": 1}}'
        )
        assert load_state(path).metadata == {"a": 1}

    OVERFLOWING = [  # a number beyond the float range parses as inf
        ('{"w": 1e999}', r"metadata\.w"),
        ('{"note": {"weight": -1e999}}', r"metadata\.note\.weight"),
        ('{"xs": [1, 1e999]}', r"metadata\.xs\[1\]"),
    ]

    def write_overflowing(self, tmp_path, metadata):
        path = tmp_path / "seed.json"
        path.write_text(
            '{"format_version": "1.0", "dims": [2, 2, 2],'
            ' "entries": [{"index": [0, 0, 0], "re": 1, "im": 0}], "metadata": %s}' % metadata
        )
        return path

    @pytest.mark.parametrize("metadata, field", OVERFLOWING)
    def test_loader_refuses_metadata_beyond_the_float_range(self, tmp_path, metadata, field):
        path = self.write_overflowing(tmp_path, metadata)
        problem = "non-finite number -?inf is not JSON"
        with pytest.raises(StateFileError, match=rf"^{re.escape(str(path))}: {field}: {problem}$"):
            load_state(path)

    @pytest.mark.parametrize("metadata, field", OVERFLOWING)
    def test_cli_names_metadata_beyond_the_float_range(self, capsys, tmp_path, metadata, field):
        path = self.write_overflowing(tmp_path, metadata)
        out = tmp_path / "m2.json"
        for argv in (
            ["certify", "--state", str(path)],
            ["construct", "method2", "--stages", "1", "--eps", "0.01",
             "--seed-file", str(path), "--out", str(out)],
        ):
            code, rep = run(capsys, *argv)
            assert code == 2
            assert re.search(rf"^{re.escape(str(path))}: {field}: ", rep["error"]), rep
        assert not out.exists()

    def test_cli_exits_two_with_a_json_report(self, capsys, tmp_path):
        out = tmp_path / "m2.json"
        code, rep = run(
            capsys, "construct", "method2", "--stages", "1", "--eps", "0.01",
            "--seed-file", str(NONFINITE_SEED), "--out", str(out),
        )
        assert code == 2
        assert "stage_history[0].epsilon" in rep["error"]
        assert not out.exists()
        # a NaN tolerance reaches the report itself, which cannot be JSON
        code, rep = run(capsys, "certify", "--paper", "bohm", "--tol", "nan")
        assert code == 2
        assert set(rep) == {"argv", "command", "error", "timing_ms"}


class TestMetadataIsJson:
    """Metadata JSON could not write, or would give back as something else, is
    refused by its path when the state is built, so every state saves."""

    def test_cycle_is_refused_by_its_path(self):
        m = {"a": []}
        m["a"].append(m)
        with pytest.raises(ValueError, match=r"^metadata\.a\[0\]: dict inside itself .*JSON"):
            make_state((2, 2), {(0, 0): 1.0}, metadata=m)

    def test_shared_value_is_no_cycle(self, tmp_path):
        shared = {"c": [1]}
        v = make_state((2, 2), {(0, 0): 1.0}, metadata={"a": [shared, shared], "b": shared})
        save_state(v, tmp_path / "v.json")
        want = {"a": [{"c": [1]}, {"c": [1]}], "b": {"c": [1]}}
        assert load_state(tmp_path / "v.json").metadata == v.metadata == want

    @pytest.mark.parametrize(
        "depth, problem",
        [(900, "metadata: nested too deeply to copy and check"), (5000, "invalid JSON (nested too deeply)")],
    )
    def test_deep_nesting_is_refused(self, tmp_path, depth, problem):
        # the JSON parser gives up at the deeper nesting, the constructor's copy at both
        nested = 1
        for _ in range(depth):
            nested = [nested]
        with pytest.raises(ValueError, match=r"^metadata: nested too deeply to copy and check$"):
            make_state((2, 2), {(0, 0): 1.0}, metadata={"m": nested})
        path = tmp_path / "v.json"
        doc = '{"format_version": "1.0", "dims": [2, 2], "entries": [], "metadata": {"m": %s}}'
        path.write_text(doc % ("[" * depth + "1" + "]" * depth))
        with pytest.raises(StateFileError) as info:
            load_state(path)
        assert str(info.value) == f"{path}: {problem}"

    def test_metadata_at_the_cap_loads_back_from_any_caller(self, tmp_path):
        # the cap, not what is left of the caller's stack, decides: what builds and
        # saves at the top of a script loads back in the CLI and from a deep stack
        v = make_state((2, 2), {(0, 0): R2, (1, 1): R2}, metadata=nested_metadata(_METADATA_DEPTH))
        path = tmp_path / "v.json"
        save_state(v, path)
        proc = subprocess.run(
            [sys.executable, "-m", "hyperstate", "certify", "--state", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout
        assert "error" not in json.loads(proc.stdout)

        def on_deep_stack(frames, call):
            return call() if frames == 0 else on_deep_stack(frames - 1, call)

        w = on_deep_stack(300, lambda: load_state(path))
        assert w.metadata == v.metadata == nested_metadata(_METADATA_DEPTH)
        on_deep_stack(300, lambda: save_state(w, tmp_path / "w.json"))
        assert (tmp_path / "w.json").read_text() == path.read_text()

    def test_one_level_past_the_cap_is_refused_alike(self, capsys, tmp_path):
        too_deep = nested_metadata(_METADATA_DEPTH + 1)
        problem = "metadata: nested too deeply to copy and check"
        with pytest.raises(ValueError, match=rf"^{problem}$"):
            make_state((2, 2), {(0, 0): 1.0}, metadata=too_deep)
        path = tmp_path / "v.json"
        doc = {"format_version": "1.0", "dims": [2, 2], "entries": [], "metadata": too_deep}
        path.write_text(json.dumps(doc))
        with pytest.raises(StateFileError) as info:
            load_state(path)
        assert str(info.value) == f"{path}: {problem}"
        code, rep = run(capsys, "certify", "--state", str(path))
        assert code == 2 and rep["error"] == f"{path}: {problem}"

    def test_nonfinite_token_is_named_at_any_depth_the_parser_reads(self, tmp_path):
        # the file's walk for NaN/Infinity has no cap: the parser's own limit bounds it
        path = tmp_path / "v.json"
        doc = '{"format_version": "1.0", "dims": [2, 2], "entries": [], "metadata": {"m": %s}}'
        path.write_text(doc % ("[" * 900 + "NaN" + "]" * 900))
        with pytest.raises(StateFileError) as info:
            load_state(path)
        field = "metadata.m" + "[0]" * 900
        assert str(info.value) == f"{path}: {field}: non-finite number NaN is not allowed"

    def test_overlong_integer_is_refused_by_its_path(self):
        digits = sys.get_int_max_str_digits()
        fits = {"n": [-(10**digits - 1)]}  # as many digits as json.dumps writes
        assert make_state((2, 2), {(0, 0): 1.0}, metadata=fits).metadata == fits
        with pytest.raises(ValueError, match=r"^metadata\.n\[0\]: integer too long .*JSON"):
            make_state((2, 2), {(0, 0): 1.0}, metadata={"n": [10**digits]})


class TestOverlongIntegers:
    """Integers past Python's str-conversion limit are invalid JSON, not a crash."""

    HUGE = "7" * 5000

    def test_state_loader(self, tmp_path):
        path = tmp_path / "v.json"
        path.write_text(
            '{"format_version": "1.0", "dims": [2, 2],'
            ' "entries": [{"index": [0, 0], "re": %s, "im": 0}]}' % self.HUGE
        )
        with pytest.raises(StateFileError, match=r"v\.json: invalid JSON"):
            load_state(path)

    def test_projector_loader(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(
            '{"format_version": "1.0", "subsystem": [0],'
            ' "vectors": [{"re": [%s, 0.0], "im": [0.0, 0.0]}]}' % self.HUGE
        )
        with pytest.raises(StateFileError, match=r"p\.json: invalid JSON"):
            load_projector(path)


class TestNonUtf8Files:
    """A file that is not UTF-8 is a file error that names the file."""

    @pytest.fixture
    def bad(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"dims"\xff: [2, 2]}')
        return path

    def test_loaders(self, bad):
        for loader in (load_state, load_projector):
            with pytest.raises(StateFileError, match=rf"^{re.escape(str(bad))}: .*0xff"):
                loader(bad)

    def test_cli_exits_two(self, capsys, bad):
        for argv in (["certify", "--state"], ["witness", "--paper", "bohm", "--pprime-file"]):
            code, rep = run(capsys, *argv, str(bad))
            assert code == 2
            assert rep["error"].startswith(f"{bad}: ")


class TestSharedHeaderCheck:
    """State and projector files share one header check and its messages."""

    @pytest.mark.parametrize("doc, problem", [
        ([{"format_version": "1.0"}], "top level must be a JSON object"),
        ({"dims": [2, 2], "subsystem": [0]}, "missing field 'format_version'"),
        ({"format_version": "2.0"}, "unsupported format_version '2.0'; need '1.x' as a string"),
        ({"format_version": 1.0}, "unsupported format_version 1.0; need '1.x' as a string"),
    ])
    def test_both_loaders_give_one_message(self, tmp_path, doc, problem):
        path = tmp_path / "header.json"
        path.write_text(json.dumps(doc))
        for loader in (load_state, load_projector):
            with pytest.raises(StateFileError) as info:
                loader(path)
            assert str(info.value) == f"{path}: {problem}"

    def test_cli_exits_two_with_the_message(self, capsys, tmp_path):
        path = tmp_path / "header.json"
        path.write_text(json.dumps({"format_version": "2.0"}))
        for argv in (["certify", "--state"], ["witness", "--paper", "bohm", "--pprime-file"]):
            code, rep = run(capsys, *argv, str(path))
            assert code == 2
            assert rep["error"] == (
                f"{path}: unsupported format_version '2.0'; need '1.x' as a string"
            )


class TestGoldenReports:
    """Reports that depend on the last bits of the arithmetic, pinned byte for byte."""

    @pytest.mark.parametrize(
        "name, argv",
        [
            ("degree_ghz", ["degree", "--paper", "ghz"]),
            ("degree_hardy3", ["degree", "--paper", "hardy3"]),
            ("schmidt_hardy3_0_12", ["schmidt", "--paper", "hardy3", "--split", "0|1,2"]),
        ],
    )
    def test_report_bytes(self, capsys, name, argv):
        assert run_cli(argv) == 0
        masked, nsub = TIMING_LINE.subn(r'\1"MASKED"\2', capsys.readouterr().out)
        assert nsub == 1
        assert masked.encode() == (GOLDEN / f"{name}.json").read_bytes()


class TestCanonicalReports:
    def test_idempotent_and_sorted(self):
        text = canonical_report_json({"b": 1, "a": [1, 2]})
        assert text.endswith("\n")
        assert text == canonical_report_json(json.loads(text))
        assert text.index('"a"') < text.index('"b"')

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_report_json({"x": float("nan")})

    def test_value_the_encoder_refuses_is_a_value_error(self):
        with pytest.raises(ValueError, match="^cannot render as JSON: .*int64") as info:
            canonical_report_json({"x": np.int64(1)})
        assert type(info.value) is ValueError


class TestCliConstructAndCertify:
    def test_paper_construct_writes_loadable_state(self, capsys, tmp_path, corpus):
        out = tmp_path / "bohm.json"
        code, rep = run(capsys, "construct", "paper", "--name", "bohm", "--out", str(out))
        assert code == 0
        assert rep["command"] == "construct"
        assert rep["result"]["dims"] == [2, 2]
        assert load_state(out) == corpus["bohm"]

    def test_certify_exit_codes(self, capsys):
        for name, want in (
            ("bohm", 0), ("hardy2", 0), ("spin1_singlet", 0),
            ("spin1_two_term", 1), ("ghz", 1), ("hardy3", 1),
        ):
            code, rep = run(capsys, "certify", "--paper", name)
            assert code == want, name
            assert len(rep["result"]["subsystems"]) == len(rep["result"]["dims"])

    def test_certify_report_shape(self, capsys):
        code, rep = run(capsys, "certify", "--paper", "ghz")
        res = rep["result"]
        assert res["overall"] == "infeasible_dims"
        assert res["reason"] == "finite_dims_n_gt_2"
        assert res["failing"] == [0, 1, 2]
        assert res["dense_evaluated"] is True
        assert rep["tolerances"] == {"tol": None}

    def test_certify_truncated_with_windows(self, capsys, tmp_path):
        out = tmp_path / "m2.json"
        code, rep = run(
            capsys, "construct", "method2", "--stages", "1", "--eps", "0.01",
            "--out", str(out),
        )
        assert code == 0
        assert rep["result"]["dims"] == [5, 5, 5]

        # dense route alone says no: a 5^3 truncation is not hyperentangled
        code, rep = run(capsys, "certify", "--state", str(out))
        assert code == 1
        assert rep["result"]["overall"] == "not_hyperentangled"

        # window certificates are the right criterion for truncations
        code, rep = run(capsys, "certify", "--state", str(out), "--windows", "full")
        assert code == 0
        assert all(w["passed"] for w in rep["result"]["windows"])

    @staticmethod
    def bohm_like(tmp_path, k):
        """A state file holding (0.6|01> + 0.8|10>) times 2**k."""
        path = tmp_path / f"bohm_like_{k}.json"
        save_state(make_state((2, 2), {(0, 1): math.ldexp(0.6, k), (1, 0): math.ldexp(0.8, k)}), path)
        return str(path)

    def test_certify_huge_unnormalised_state(self, capsys, tmp_path):
        # amplitudes near 1e159: M M+ would overflow without the exact rescaling
        path = self.bohm_like(tmp_path, 530)
        code, out, err = masked_run(capsys, ["certify", "--state", path])
        assert (code, err) == (0, "")
        res = json.loads(out)["result"]
        assert res["overall"] == "hyperentangled"
        assert [c["rank"] for c in res["subsystems"]] == [2, 2]

    def test_witness_huge_unnormalised_state(self, capsys, tmp_path):
        # the witness scales the unfolding exactly as the density is scaled
        ppath = tmp_path / "pp.json"
        save_projector(Projector(subsystem=Subsystem((1,)), basis=np.array([[0.6, 0.8]])), ppath)
        results = []
        for k in (530, 0):
            argv = ["witness", "--state", self.bohm_like(tmp_path, k), "--pprime-file", str(ppath)]
            code, out, err = masked_run(capsys, argv)
            assert (code, err) == (0, "")
            results.append(json.loads(out)["result"])
        assert results[0] == results[1]
        assert results[0]["achieved"] == 1.0 and results[0]["warning"] is False

    def test_schmidt_sum_sq_beyond_float_range(self, capsys, tmp_path):
        # sum_sq is about 1e319: refused with a reason, not a JSON encoder error
        code, out, err = masked_run(capsys, ["schmidt", "--state", self.bohm_like(tmp_path, 530)])
        assert (code, err) == (2, "")
        assert json.loads(out)["error"] == "sum_sq of the Schmidt coefficients lies beyond the float range"
        code, rep = run(capsys, "schmidt", "--state", self.bohm_like(tmp_path, 511))
        assert code == 0
        assert rep["result"]["sum_sq"] == pytest.approx(math.ldexp(1.0, 1022), rel=1e-15)

    def test_schmidt_sum_sq_below_normal_range(self, capsys, tmp_path, corpus):
        # bohm x 2**-560: coefficients near 1.9e-169, whose squares underflow to 0.0
        path = tmp_path / "tiny.json"
        save_state(scaled_state(corpus["bohm"], -560), path)
        code, out, err = masked_run(capsys, ["schmidt", "--state", str(path), "--split", "0"])
        assert (code, err) == (2, "")
        assert "sum_sq" in json.loads(out)["error"]
        save_state(scaled_state(corpus["bohm"], -400), path)
        code, rep = run(capsys, "schmidt", "--state", str(path), "--split", "0")
        assert code == 0
        assert rep["result"]["sum_sq"] == pytest.approx(math.ldexp(1.0, -800), rel=1e-12)

    def test_schmidt_where_the_plain_cutoff_overflows(self, capsys, tmp_path):
        # the library now cuts this state at a finite threshold (test_bilinear), but
        # any spectrum maximum that overflows side * max also overflows sum_sq,
        # so the command refuses the state rather than print a rank report
        path = tmp_path / "huge.json"
        save_state(make_state((2, 2), {(0, 0): 1e308, (1, 1): 1.5e308}), path)
        code, out, err = masked_run(capsys, ["schmidt", "--state", str(path), "--split", "0"])
        assert (code, err) == (2, "")
        assert json.loads(out)["error"] == "sum_sq of the Schmidt coefficients lies beyond the float range"

    def test_certify_windows_without_recorded_sizes(self, capsys):
        path = GOLDEN / "state_method1_3_3_37.json"
        code, rep = run(capsys, "certify", "--state", str(path), "--windows", "full")
        assert code == 2
        assert "records no window sizes" in rep["error"]

    def test_certify_beyond_dense_budget(self, capsys, tmp_path, over_budget):
        # 17^3 total dims, beyond the old 4096 cap: the 289 x 289 densities fit
        v = make_state((17, 17, 17), {(k, k, k): 0.5 for k in range(4)}, normalize=True)
        path = tmp_path / "c17.json"
        save_state(v, path)
        code, rep = run(capsys, "certify", "--state", str(path))
        assert code == 1
        assert rep["result"]["dense_evaluated"] is True
        assert rep["result"]["overall"] == "infeasible_dims"
        assert [c["rank"] for c in rep["result"]["subsystems"]] == [4, 4, 4]

        # feasible dims past the budget: no verdict was computed, so none is printed
        diagonal = tmp_path / "diagonal.json"
        save_state(make_state((2049, 2049), {(k, k): 1.0 for k in range(2049)}, normalize=True), diagonal)
        for path in (over_budget, str(diagonal)):
            code, rep = run(capsys, "certify", "--state", path)
            assert code == 2
            assert set(rep) == {"argv", "command", "error", "timing_ms"}
            assert re.search(r"dense 2049x2049 matrix .* budget.*--windows full", rep["error"])

        # infeasible dims are a verdict without the checks
        unequal = tmp_path / "unequal.json"
        save_state(make_state((2049, 2050), {(k, k): 1.0 for k in range(3)}, normalize=True), unequal)
        code, rep = run(capsys, "certify", "--state", str(unequal))
        assert code == 1
        res = rep["result"]
        assert res["dense_evaluated"] is False
        assert res["overall"] is None and res["subsystems"] is None and res["failing"] is None
        assert (res["feasible"], res["reason"]) == (False, "unequal_dims")

        code, rep = run(capsys, "certify", "--state", over_budget, "--windows", "full")
        assert code == 2  # no window sizes on record
        assert "window sizes" in rep["error"]

    def test_method1_and_repair_modes(self, capsys, tmp_path):
        out = tmp_path / "m1.json"
        code, rep = run(
            capsys, "construct", "method1", "--n", "3", "--pairing", "injection_2a3b",
            "--bounds", "3,3,37", "--out", str(out),
        )
        assert code == 0
        assert rep["result"]["nnz"] == 13
        assert load_state(out).truncated_from_infinite

        fixed = tmp_path / "fixed.json"
        code, rep = run(
            capsys, "construct", "repair", "--paper", "spin1_two_term",
            "--delta", "0.1", "--out", str(fixed),
        )
        assert code == 0
        assert rep["result"]["repair"] == {"replaced": 1, "delta": 0.1}
        code, rep = run(capsys, "certify", "--state", str(fixed))
        assert code == 0

    @pytest.mark.parametrize("n, bounds", [
        ("3", "3000000000,3000000000,3000000000"),
        ("4", "60000,60000,60000,60000"),  # enumerating would run for minutes
    ])
    def test_method1_dims_past_int64_exit_two_before_enumerating(
        self, capsys, tmp_path, monkeypatch, n, bounds
    ):
        from hyperstate import construct

        def fold(pairing, rest):
            raise AssertionError("method1_build must not enumerate")

        monkeypatch.setattr(construct, "_fold", fold)
        out = tmp_path / "m1.json"
        code = run_cli(["construct", "method1", "--n", n, "--bounds", bounds, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        rep = json.loads(captured.out, parse_constant=refuse_constant)
        assert set(rep) == {"argv", "command", "error", "timing_ms"}
        assert rep["error"] == f"dims ({bounds.replace(',', ', ')}) span more than 2**63 - 1 positions"
        assert not out.exists()

    def test_repair_refuses_a_delta_too_small_to_certify(self, capsys, tmp_path):
        fixed = tmp_path / "fixed.json"
        code, rep = run(
            capsys, "construct", "repair", "--paper", "spin1_two_term",
            "--delta", "1e-8", "--out", str(fixed),
        )
        assert code == 2
        assert set(rep) == {"argv", "command", "error", "timing_ms"}
        assert rep["error"].endswith("use a delta above 1e-08")
        assert not fixed.exists()


class TestLibraryArgv:
    # A library caller may pass items that are not strings: run_cli parses
    # them as given, echoes each through str() and prints one strict JSON report.
    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "--paper", "bohm", "--tol", float("nan")],
            ["degree", "--paper", "bohm", "--tol", float("inf")],
            [{(1, 2): 3}],
            [b"certify", "--paper", "bohm"],
            ["certify", None],
            ["certify", "--state", GOLDEN / "state_method1_3_3_37.json"],
        ],
        ids=["nan", "inf", "tuple-key", "bytes", "none", "path"],
    )
    def test_non_string_items_give_one_strict_json_report(self, capsys, argv):
        code = run_cli(argv)
        captured = capsys.readouterr()
        assert code in (0, 1, 2)
        assert captured.err == ""
        report = json.loads(captured.out, parse_constant=refuse_constant)
        assert report["argv"] == [a if isinstance(a, str) else str(a) for a in argv]


class TestCertifyPrintsLibraryVerdict:
    """``certify`` exits 0 exactly when ``certify_state`` is positive, and prints its fields."""

    @staticmethod
    def check(capsys, source, v, windows=False):
        argv = ["certify", *source] + (["--windows", "full"] if windows else [])
        code, rep = run(capsys, *argv)
        verdict = certify_state(v, windows=windows)
        res, dense = rep["result"], verdict.dense
        assert code == (0 if verdict.positive else 1)
        assert (res["feasible"], res["reason"]) == (
            verdict.feasibility.feasible, verdict.feasibility.reason
        )
        assert res["dense_evaluated"] is (dense is not None)
        if dense is None:
            assert res["overall"] is res["subsystems"] is res["failing"] is None
        else:
            assert (res["overall"], res["failing"]) == (dense.overall, list(dense.failing))
            assert res["subsystems"] == [
                {
                    "index": c.subsystem.indices[0], "passed": c.passed,
                    "min_eigenvalue": c.min_eigenvalue, "rank": c.rank,
                    "full_dim": c.full_dim, "threshold": c.threshold,
                }
                for c in dense.checks
            ]
        if verdict.windows is None:
            assert res["windows"] is None
        else:
            assert res["windows"] == [
                {"axis": w.window.axis, "cube": w.window.size, "size": w.size,
                 "rank": w.rank, "passed": w.passed}
                for w in verdict.windows
            ]
        return verdict

    def test_catalog_states(self, capsys, tmp_path, corpus):
        for name, v in corpus.items():
            path = tmp_path / f"{name}.json"
            save_state(v, path)
            by_name = self.check(capsys, ["--paper", name], v)
            by_file = self.check(capsys, ["--state", str(path)], load_state(path))
            assert by_name == by_file
            assert by_name.positive is (name in ("bohm", "hardy2", "spin1_singlet")), name

    @pytest.mark.parametrize("stages", [1, 2, 3])
    def test_method2_windows(self, capsys, tmp_path, stages):
        path = tmp_path / "m2.json"
        save_state(method2_build(stages, (0.01, 0.005, 0.0025)[:stages]), path)
        verdict = self.check(capsys, ["--state", str(path)], load_state(path), windows=True)
        assert verdict.positive and len(verdict.windows) == 3 * stages
        assert (verdict.dense is None) is (stages == 3)  # 677**2-wide densities
        if stages == 3:  # without the windows, nothing decides it
            code, rep = run(capsys, "certify", "--state", str(path))
            assert code == 2 and re.search(r"budget.*--windows full", rep["error"])

    def test_method1_golden(self, capsys):
        path = GOLDEN / "state_method1_3_3_37.json"
        verdict = self.check(capsys, ["--state", str(path)], load_state(path))
        assert not verdict.positive and verdict.feasibility.reason == "unequal_dims"

    def test_beyond_dense_budget(self, capsys, tmp_path, over_budget):
        # feasible dims: certify refuses as certify_state does, with its message
        with pytest.raises(ValueError, match="2049x2049.*budget") as info:
            certify_state(load_state(over_budget))
        code, rep = run(capsys, "certify", "--state", over_budget)
        assert (code, rep["error"]) == (2, str(info.value))
        # infeasible dims: the verdict, without the checks
        path = tmp_path / "unequal.json"
        save_state(make_state((2049, 2050), {(k, k): 1.0 for k in range(3)}, normalize=True), path)
        verdict = self.check(capsys, ["--state", str(path)], load_state(path))
        assert verdict.dense is None and not verdict.positive

    def test_passing_windows_need_a_truncation(self, capsys, tmp_path):
        # windows vouch only for a truncation: a finite 2x2x2 state stays
        # infeasible by its dims, though every recorded window passes
        amp = 1.0 / math.sqrt(8.0)
        entries = {(i, j, k): amp for i in range(2) for j in range(2) for k in range(2)}
        v = make_state((2, 2, 2), entries, metadata={"window_sizes": [1]})
        direct = certify_state(v, windows=True)
        assert len(direct.windows) == 3 and all(w.passed for w in direct.windows)
        assert not direct.positive
        path = tmp_path / "flat.json"
        save_state(v, path)
        # check() pins the exit code to 1 and the printed overall to the library's
        verdict = self.check(capsys, ["--state", str(path)], load_state(path), windows=True)
        assert verdict == direct and verdict.dense.overall == "infeasible_dims"


class TestCliAnalysis:
    def test_schmidt(self, capsys):
        code, rep = run(capsys, "schmidt", "--paper", "hardy2", "--split", "0")
        assert code == 0
        coeffs = rep["result"]["coeffs"]
        assert coeffs[0] == pytest.approx(math.sqrt((3 + math.sqrt(5)) / 6))
        assert rep["result"]["rank"] == 2
        assert rep["result"]["split"] == {"s": [0], "s_prime": [1]}

    def test_100x100_state(self, capsys, tmp_path):
        # 10^4 total dims, beyond the old 4096 cap: a 160 kB unfolding
        v = random_state(np.random.default_rng(100), (100, 100))
        path = tmp_path / "wide.json"
        save_state(v, path)
        code, rep = run(capsys, "certify", "--state", str(path))
        assert code == 0
        assert rep["result"]["overall"] == "hyperentangled"
        code, rep = run(capsys, "schmidt", "--state", str(path))
        assert code == 0
        expect = np.linalg.svd(dense_tensor(v), compute_uv=False)
        np.testing.assert_allclose(rep["result"]["coeffs"], expect, rtol=0, atol=1e-14)
        assert rep["result"]["rank"] == 100
        code, rep = run(capsys, "degree", "--state", str(path), "--split", "0")
        assert code == 0
        assert rep["result"]["value"] == pytest.approx(1 - expect[0], abs=1e-14)

    def test_split_grammar(self, capsys):
        code, rep = run(capsys, "schmidt", "--paper", "ghz", "--split", "0|1,2")
        assert code == 0
        code, rep = run(capsys, "schmidt", "--paper", "ghz", "--split", "0|2")
        assert code == 2
        assert "complement" in rep["error"]
        for split, bad in (("0,1", "(0, 1)"), ("5", "(5,)"), ("1,1", "(1, 1)"), ("-1", "(-1,)")):
            code, rep = run(capsys, "schmidt", "--paper", "bohm", "--split", split)
            assert code == 2
            assert bad in rep["error"]

    def test_witness(self, capsys, tmp_path):
        w = rand_unit(np.random.default_rng(3), 2)
        p = Projector(subsystem=Subsystem((1,)), basis=w[None, :])
        ppath = tmp_path / "pp.json"
        save_projector(p, ppath)

        code, rep = run(capsys, "witness", "--paper", "bohm", "--pprime-file", str(ppath))
        assert code == 0
        assert rep["result"]["achieved"] >= 1 - 1e-9
        assert rep["result"]["warning"] is False
        assert rep["result"]["subsystem"] == [0]

        code, rep = run(capsys, "witness", "--paper", "bohm", "--pprime-file", str(tmp_path / "no.json"))
        assert code == 2

    def test_witness_warning_exit(self, capsys, tmp_path):
        v = make_state((2, 2), {(0, 0): 1.0})
        spath = tmp_path / "prod.json"
        save_state(v, spath)
        w = rand_unit(np.random.default_rng(4), 2)
        ppath = tmp_path / "pp.json"
        save_projector(Projector(subsystem=Subsystem((1,)), basis=w[None, :]), ppath)
        code, rep = run(capsys, "witness", "--state", str(spath), "--pprime-file", str(ppath))
        assert code == 1
        assert rep["result"]["warning"] is True

    def test_witness_on_near_deficient_state(self, capsys, tmp_path):
        # Schmidt coefficients proportional to (1, 1, 1e-14): certify and
        # schmidt see rank 2, and so does the witness, which warns (exit 1)
        v = make_state((3, 3), {(0, 0): 1.0, (1, 1): 1.0, (2, 2): 1e-14}, normalize=True)
        spath, ppath = tmp_path / "near.json", tmp_path / "pp.json"
        save_state(v, spath)
        save_projector(Projector(subsystem=Subsystem((1,)), basis=np.array([[0.0, 0.6, 0.8]])), ppath)
        code, rep = run(capsys, "certify", "--state", str(spath))
        assert code == 1
        code, rep = run(capsys, "schmidt", "--state", str(spath))
        assert rep["result"]["rank"] == 2
        code, rep = run(capsys, "witness", "--state", str(spath), "--pprime-file", str(ppath))
        assert code == 1
        assert rep["result"]["warning"] is True
        assert rep["result"]["achieved"] == pytest.approx(0.36, abs=1e-12)

    @pytest.mark.parametrize("tol", ["-1", "nan", "-0.5e-300", "inf"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "--paper", "spin1_two_term"],
            ["certify", "--state", "OVER_BUDGET"],  # checked although nothing dense runs
            ["schmidt", "--paper", "spin1_two_term"],
            ["construct", "repair", "--paper", "spin1_two_term", "--delta", "0.1"],
        ],
    )
    def test_bad_tol_exits_two(self, capsys, tmp_path, over_budget, argv, tol):
        argv = [over_budget if a == "OVER_BUDGET" else a for a in argv]
        if argv[0] == "construct":
            argv = argv + ["--out", str(tmp_path / "out.json")]
        code, rep = run(capsys, *argv, f"--tol={tol}")
        assert code == 2
        assert set(rep) == {"argv", "command", "error", "timing_ms"}
        assert "tol must be a number >= 0" in rep["error"]
        assert not (tmp_path / "out.json").exists()

    def test_zero_tol_is_valid(self, capsys):
        code, rep = run(capsys, "certify", "--paper", "spin1_two_term", "--tol", "0")
        assert code == 1
        assert rep["result"]["overall"] == "not_hyperentangled"
        code, rep = run(capsys, "certify", "--paper", "bohm", "--tol", "0")
        assert code == 0

    def test_impossible_stage_count_exits_two(self, capsys, tmp_path, monkeypatch):
        from hyperstate import construct

        def extend(v, params, *, normalize=False):
            raise AssertionError("method2_extend must not run")

        monkeypatch.setattr(construct, "method2_extend", extend)
        code, rep = run(
            capsys, "construct", "method2", "--stages", "5", "--eps", "0.01,0.01,0.01,0.01,0.01",
            "--out", str(tmp_path / "s5.json"),
        )
        assert code == 2
        assert "2**63" in rep["error"]

    @pytest.mark.parametrize("eps, message", [
        ("0.01,x", "--eps must be a comma-separated number list, got '0.01,x'"),
        ("0.01,nan", "--eps must be a list of finite numbers, got '0.01,nan'"),
        ("0.01,1e-323", "epsilon 1e-323 is too small"),  # stage 2: epsilon / 63 underflows to 0
    ])
    def test_bad_eps_exits_two(self, capsys, tmp_path, eps, message):
        out = tmp_path / "m2.json"
        code, rep = run(capsys, "construct", "method2", "--stages", "2", "--eps", eps, "--out", str(out))
        assert code == 2
        assert rep["error"].startswith(message)
        assert not out.exists()

    def test_degree_routes(self, capsys):
        code, rep = run(capsys, "degree", "--paper", "bohm", "--split", "0")
        assert code == 0
        assert rep["result"]["value"] == pytest.approx(1 - R2, abs=1e-12)
        assert rep["result"]["route"] == "bipartite"

        code, rep = run(capsys, "degree", "--paper", "ghz")
        assert code == 0
        assert rep["result"]["value"] == pytest.approx(1 - R2, abs=1e-6)
        assert rep["result"]["route"] == "multipartite"

    def test_degree_beyond_dense_budget_exits_two(self, capsys, tmp_path):
        path = tmp_path / "long.json"
        save_state(make_state((2**22, 2, 2), {(0, 0, 0): 0.6, (5, 1, 1): 0.8}), path)
        code, rep = run(capsys, "degree", "--state", str(path))
        assert code == 2
        assert set(rep) == {"argv", "command", "error", "timing_ms"}
        assert "budget" in rep["error"]

    def test_degree_needs_a_sweep(self, capsys):
        for value in ("0", "-1"):
            assert run_cli(["degree", "--paper", "ghz", "--max-iters", value]) == 2
            captured = capsys.readouterr()
            assert captured.err == ""
            rep = json.loads(captured.out)
            assert set(rep) == {"argv", "command", "error", "timing_ms"}
            assert "max_iters" in rep["error"]

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_degree_tol_checked_before_any_sweep(self, capsys, monkeypatch, tol):
        from hyperstate import degree

        monkeypatch.setattr(degree, "_als_sweep", lambda *a: pytest.fail("swept"))
        code, rep = run(capsys, "degree", "--paper", "hardy3", f"--tol={tol}")
        assert code == 2
        assert set(rep) == {"argv", "command", "error", "timing_ms"}
        assert rep["error"] == f"tol must be a number >= 0, got {float(tol)!r}"

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_degree_split_checks_tol_before_any_decomposition(self, capsys, monkeypatch, tol):
        # the bipartite route never reads --tol, but its report echoes it
        from hyperstate import degree

        monkeypatch.setattr(degree, "schmidt_decompose", lambda *a: pytest.fail("decomposed"))
        code, rep = run(capsys, "degree", "--paper", "bohm", "--split", "0", f"--tol={tol}")
        assert code == 2
        assert rep["error"] == f"tol must be a number >= 0, got {float(tol)!r}"

    @pytest.mark.parametrize("route", [[], ["--split", "0"]])
    def test_degree_negative_seed_names_the_seed(self, capsys, route):
        code, rep = run(capsys, "degree", "--paper", "bohm", "--seed", "-1", *route)
        assert code == 2
        assert set(rep) == {"argv", "command", "error", "timing_ms"}
        assert "seed" in rep["error"]


class TestCliContract:
    def test_error_report_shape(self, capsys):
        code, rep = run(capsys, "certify", "--state", "/nonexistent/state.json")
        assert code == 2
        assert set(rep) == {"argv", "command", "error", "timing_ms"}
        assert rep["command"] == "certify"

    def test_error_without_text_names_its_type(self, capsys, monkeypatch):
        import hyperstate.certify

        def out_of_memory(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(hyperstate.certify, "certify_state", out_of_memory)
        code, rep = run(capsys, "certify", "--paper", "bohm")
        assert code == 2
        assert set(rep) == {"argv", "command", "error", "timing_ms"}
        assert rep["command"] == "certify"
        assert rep["error"] == "MemoryError"

    def test_argparse_failures_exit_two(self, capsys):
        for argv, command, needle in (
            (["frobnicate"], None, "frobnicate"),
            ([], None, "required"),
            (["construct", "method1", "--n", "5", "--pairing", "injection_2a3b", "--bounds", "2,2,2,2,2"], "construct", "--n"),
            (["construct", "method1", "--pairing", "zzz", "--bounds", "2,2,2", "--out", "x.json"], "construct", "zzz"),
            (["certify", "--paper", "bohm", "--tol", "small"], "certify", "small"),
        ):
            assert run_cli(argv) == 2
            captured = capsys.readouterr()
            assert captured.err == ""
            rep = json.loads(captured.out)
            assert set(rep) == {"argv", "command", "error", "timing_ms"}
            assert rep["argv"] == argv
            assert rep["command"] == command
            assert needle in rep["error"]

    def test_help_exits_zero(self, capsys):
        assert run_cli(["--help"]) == 0
        capsys.readouterr()

    def test_unknown_catalog_name(self, capsys):
        # rejected by argv validation, reported like any other input error
        code = run_cli(["certify", "--paper", "nope"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        assert "nope" in json.loads(captured.out)["error"]

    def test_output_is_canonical(self, capsys):
        code = run_cli(["certify", "--paper", "bohm"])
        raw = capsys.readouterr().out
        assert raw == canonical_report_json(json.loads(raw))

    def test_thread_cap(self, monkeypatch):
        from hyperstate.cli import _apply_thread_cap

        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("HYPERSTATE_THREADS", "3")
        _apply_thread_cap()
        import os

        assert os.environ["OMP_NUM_THREADS"] == "3"
        assert os.environ["OPENBLAS_NUM_THREADS"] == "3"

    def test_thread_cap_respects_existing(self, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "7")
        monkeypatch.setenv("HYPERSTATE_THREADS", "2")
        from hyperstate.cli import _apply_thread_cap

        _apply_thread_cap()
        import os

        assert os.environ["OMP_NUM_THREADS"] == "7"

    def test_invalid_thread_cap_is_an_error(self, capsys, monkeypatch):
        for cap in ("zero", "0", "-2"):  # not an integer, then integers below 1
            monkeypatch.setenv("HYPERSTATE_THREADS", cap)
            assert run_cli(["certify", "--paper", "bohm"]) == 2
            captured = capsys.readouterr()
            assert captured.err == ""
            rep = json.loads(captured.out)
            assert set(rep) == {"argv", "command", "error", "timing_ms"}
            assert rep["argv"] == ["certify", "--paper", "bohm"]
            assert rep["command"] is None  # the cap is read before argv is parsed
            assert rep["error"] == f"HYPERSTATE_THREADS must be a positive integer, got {cap!r}"
        # and through a real process, where the cap has its effect
        proc = subprocess.run(
            [sys.executable, "-m", "hyperstate", "certify", "--paper", "bohm"],
            capture_output=True,
            text=True,
            env={**os.environ, "HYPERSTATE_THREADS": "0"},
        )
        assert proc.returncode == 2
        assert proc.stderr == ""
        rep = json.loads(proc.stdout)
        assert set(rep) == {"argv", "command", "error", "timing_ms"}
        assert "HYPERSTATE_THREADS" in rep["error"]

    def test_cli_importable_without_numpy(self):
        # the thread cap must land before any numerical backend loads
        script = "import sys, hyperstate.cli; sys.exit(1 if 'numpy' in sys.modules else 0)"
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True)
        assert proc.returncode == 0

    def test_console_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "hyperstate", "certify", "--paper", "bohm"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["result"]["overall"] == "hyperentangled"


class TestParserReuse:
    """The parser is built by the first ``run_cli`` call and reused after it."""

    def test_built_once(self, capsys, monkeypatch):
        argvs = (
            ["schmidt", "--paper", "hardy3", "--split", "0|1,2"],
            ["construct", "method1", "--n", "5", "--bounds", "2,2,2", "--out", "x.json"],
            ["certify", "--state", "x.json", "--paper", "bohm"],
            ["--help"],
            ["degree", "--help"],
        )
        monkeypatch.setenv("COLUMNS", "100")
        before = [masked_run(capsys, argv) for argv in argvs]
        assert [code for code, _, _ in before] == [0, 2, 2, 0, 0]

        def refuse(*args, **kwargs):
            raise RuntimeError("the parser was built again")

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", refuse)
        assert [masked_run(capsys, argv) for argv in argvs] == before

    def test_order_does_not_matter(self, capsys, monkeypatch):
        argvs = (
            ["certify", "--paper", "bohm"],
            ["certify", "--paper", "nope"],
            [],
            ["schmidt", "--paper", "ghz", "--frob"],
            ["--help"],
        )
        monkeypatch.setenv("COLUMNS", "100")
        forwards = [masked_run(capsys, argv) for argv in argvs]
        backwards = [masked_run(capsys, argv) for argv in reversed(argvs)]
        assert forwards == backwards[::-1]
        assert [code for code, _, _ in forwards] == [0, 2, 2, 2, 0]
        for argv, (code, out, err) in zip(argvs, forwards):
            proc = subprocess.run(
                [sys.executable, "-m", "hyperstate", *argv],
                capture_output=True,
                text=True,
                env={**os.environ, "COLUMNS": "100"},
            )
            fresh = (proc.returncode, TIMING_LINE.sub(r'\1"MASKED"\2', proc.stdout), proc.stderr)
            assert fresh == (code, out, err)

    def test_failed_first_call_caches_nothing(self):
        script = textwrap.dedent(
            """
            import contextlib, io, json, os, sys
            from hyperstate.cli import run_cli

            def call():
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = run_cli(["certify", "--paper", "bohm"])
                return code, json.loads(buf.getvalue())

            os.environ["HYPERSTATE_THREADS"] = "0"
            first = call()
            numpy_loaded = "numpy" in sys.modules
            os.environ["HYPERSTATE_THREADS"] = "1"
            print(json.dumps([first, numpy_loaded, call()]))
            """
        )
        env = {k: v for k, v in os.environ.items() if k != "HYPERSTATE_THREADS"}
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        (code1, rep1), numpy_loaded, (code2, rep2) = json.loads(proc.stdout)
        assert code1 == 2
        assert set(rep1) == {"argv", "command", "error", "timing_ms"}
        assert "HYPERSTATE_THREADS" in rep1["error"]
        assert not numpy_loaded  # nothing past the thread cap ran
        assert code2 == 0
        assert rep2["result"]["overall"] == "hyperentangled"
