"""State files byte for byte: the writer's layout, the loader's messages.

Golden files under ``golden/`` were written by the entry-by-entry writer
that ``save_state`` replaced; ``helpers.state_document`` rebuilds that
writer's document so any state can be checked against the stdlib encoder.
"""

import errno
import json
import math
import os
import pathlib
import resource
import signal
import stat
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import hyperstate.io
from helpers import state_document
from hyperstate import make_state, paper_state
from hyperstate.cli import run_cli
from hyperstate.io import StateFileError, load_state, save_state

TESTS = pathlib.Path(__file__).parent
GOLDEN = TESTS / "golden"
SRC = TESTS.parent / "src"
FILE_LIMIT = 4096  # bytes, RLIMIT_FSIZE of the child in run_with_file_limit


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


def mostly(common, rare):
    """``common`` in nine draws of ten and ``rare`` in the tenth, so that most
    drawn trees hold no fault or one."""
    return st.integers(0, 9).flatmap(lambda k: rare if k == 0 else common)


DIGITS = sys.get_int_max_str_digits()
any_scalar = mostly(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.integers(DIGITS - 3, DIGITS - 1).map(lambda k: -(10**k)),  # up to the limit
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([0.0, -0.0]),
        st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
        st.text(max_size=4),
    ),
    st.one_of(
        st.integers(DIGITS, DIGITS + 2).map(lambda k: 10**k),  # past the limit
        st.sampled_from([math.nan, math.inf, -math.inf]),
        st.floats().map(np.float64),
        st.integers(-3, 3).map(np.int64),
        st.booleans().map(np.bool_),
        st.fractions(max_denominator=5),
    ),
)
any_key = mostly(
    st.text(max_size=4), st.one_of(st.integers(-3, 3), st.booleans(), st.none(), st.floats())
)
any_metadata = st.dictionaries(
    any_key,
    st.recursive(
        any_scalar,
        lambda inner: mostly(
            st.lists(inner, max_size=3) | st.dictionaries(any_key, inner, max_size=3),
            st.lists(inner, max_size=3).map(tuple),
        ),
        max_leaves=6,
    ),
    max_size=3,
)


def json_gives_back(m) -> bool:
    """The oracle: the stdlib encoder writes ``m`` and its decoder reads back ``m``."""
    try:
        return json.loads(json.dumps(m, allow_nan=False, sort_keys=True)) == m
    except (TypeError, ValueError):
        return False


@given(m=any_metadata)
def test_metadata_builds_exactly_when_json_gives_it_back(tmp_path_factory, m):
    try:
        v = make_state((2, 2), {(0, 0): 1.0}, metadata=m)
    except ValueError as exc:
        assert not json_gives_back(m), exc
        assert str(exc).startswith("metadata") and "JSON" in str(exc), exc
        return
    assert json_gives_back(m)
    path = tmp_path_factory.mktemp("meta") / "v.json"
    save_state(v, path)
    assert load_state(path).metadata == v.metadata == m


def run_python(args: list[str], cwd: pathlib.Path, preexec_fn=None) -> subprocess.CompletedProcess:
    """``python *args`` in a child that imports this checkout's package."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=env,
        preexec_fn=preexec_fn,
        capture_output=True,
        text=True,
    )


def run_with_file_limit(args: list[str], cwd: pathlib.Path) -> subprocess.CompletedProcess:
    """``python *args`` in a child that cannot grow a file past ``FILE_LIMIT``
    bytes; SIGXFSZ is ignored, so such a write fails with EFBIG instead."""

    def limit():
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        resource.setrlimit(resource.RLIMIT_FSIZE, (FILE_LIMIT, FILE_LIMIT))

    return run_python(args, cwd, limit)


class TestReplacingSave:
    """A save replaces its file in one step; one that fails partway leaves the old file."""

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "v.json"
        save_state(paper_state("bohm"), path)
        before = path.read_bytes()
        script = (
            "import sys\n"
            "from hyperstate import make_state\n"
            "from hyperstate.io import save_state\n"
            "v = make_state((16, 16), {(i, j): 1.0 for i in range(16) for j in range(16)})\n"
            "try:\n"
            "    save_state(v, sys.argv[1])\n"
            "except OSError as exc:\n"
            "    print(exc)\n"
            "else:\n"
            "    sys.exit('saved past the file-size limit')\n"
        )
        proc = run_with_file_limit(["-c", script, str(path)], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert path.read_bytes() == before
        assert load_state(path) == paper_state("bohm")
        assert os.listdir(tmp_path) == ["v.json"]
        assert proc.stdout == f"[Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}: {str(path)!r}\n"

    def test_failed_cli_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "out.json"
        save_state(paper_state("bohm"), path)
        before = path.read_bytes()
        argv = ["construct", "method2", "--stages", "2", "--eps", "0.01,0.005", "--out", str(path)]
        proc = run_with_file_limit(["-m", "hyperstate", *argv], tmp_path)
        assert proc.returncode == 2
        assert proc.stderr == ""
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["out.json"]
        rep = json.loads(proc.stdout)
        assert set(rep) == {"argv", "command", "error", "timing_ms"}
        assert rep["error"] == f"[Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}: {str(path)!r}"

    def test_mode_and_symlink_kept(self, tmp_path):
        real = tmp_path / "real.json"
        save_state(paper_state("bohm"), real)
        real.chmod(0o604)  # a mode no usual umask gives a new file
        link = tmp_path / "link.json"
        link.symlink_to(real.name)
        save_state(paper_state("ghz"), link)
        assert link.is_symlink()
        assert load_state(real) == paper_state("ghz")
        assert stat.S_IMODE(real.stat().st_mode) == 0o604
        # a new file gets the mode that plain open() gives
        (tmp_path / "plain").write_text("")
        save_state(paper_state("ghz"), tmp_path / "new.json")
        modes = {stat.S_IMODE((tmp_path / name).stat().st_mode) for name in ("plain", "new.json")}
        assert len(modes) == 1
        assert sorted(os.listdir(tmp_path)) == ["link.json", "new.json", "plain", "real.json"]

    def test_write_protected_file_refused(self, tmp_path, monkeypatch):
        path = tmp_path / "v.json"
        save_state(paper_state("bohm"), path)
        path.chmod(0o444)
        before = path.read_bytes()
        if os.geteuid() == 0:  # root may write any file; answer as for a user who may not
            access = os.access
            monkeypatch.setattr(os, "access", lambda p, m: m != os.W_OK and access(p, m))
        with pytest.raises(PermissionError) as info:
            save_state(paper_state("ghz"), path)
        assert info.value.filename == str(path)
        assert path.read_bytes() == before
        assert stat.S_IMODE(path.stat().st_mode) == 0o444
        assert os.listdir(tmp_path) == ["v.json"]

    def test_failed_replace_removes_the_new_file(self, tmp_path, monkeypatch):
        path = tmp_path / "v.json"
        save_state(paper_state("bohm"), path)
        before = path.read_bytes()

        def refuse(src, dst):
            raise OSError(errno.EXDEV, os.strerror(errno.EXDEV), src)

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError) as info:
            save_state(paper_state("ghz"), path)
        assert (info.value.errno, info.value.filename) == (errno.EXDEV, str(path))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["v.json"]

    def test_interrupted_write_removes_the_new_file(self, tmp_path, monkeypatch):
        path = tmp_path / "v.json"
        save_state(paper_state("bohm"), path)
        before = path.read_bytes()
        interrupt = KeyboardInterrupt("mid-write")

        class HalfWritten:
            """A file that takes half of the text, then is interrupted."""

            def __init__(self, name, mode, encoding):
                self.file = open(name, mode, encoding=encoding)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.file.close()

            def write(self, text):
                self.file.write(text[: len(text) // 2])
                raise interrupt

        monkeypatch.setattr(hyperstate.io, "open", HalfWritten, raising=False)
        with pytest.raises(KeyboardInterrupt) as info:
            save_state(paper_state("ghz"), path)
        assert info.value is interrupt
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["v.json"]

    def test_fifo_written_in_place(self, tmp_path):
        fifo = tmp_path / "v.fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # lets the writer open it
        try:
            save_state(paper_state("bohm"), fifo)
            got = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(fifo.lstat().st_mode)
        save_state(paper_state("bohm"), tmp_path / "v.json")
        assert got == (tmp_path / "v.json").read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["v.fifo", "v.json"]

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
    def test_cli_out_to_stdout(self, tmp_path):
        argv = ["-m", "hyperstate", "construct", "method2", "--stages", "2", "--eps", "0.01,0.005"]
        (tmp_path / "out").mkdir()
        saved = run_python([*argv, "--out", "out/v.json"], tmp_path)
        piped = run_python([*argv, "--out", "/dev/stdout"], tmp_path)  # stdout is a pipe
        assert (saved.returncode, piped.returncode) == (0, 0), piped.stdout
        state = (tmp_path / "out" / "v.json").read_text()
        assert piped.stdout.startswith(state)
        assert json.loads(piped.stdout[len(state) :])["command"] == "construct"
        assert os.listdir(tmp_path) == ["out"]

    def test_error_names_the_given_path(self, tmp_path):
        path = tmp_path / "missing" / "v.json"
        with pytest.raises(FileNotFoundError) as info:
            save_state(paper_state("bohm"), path)
        assert info.value.filename == str(path)
        with pytest.raises(IsADirectoryError) as info:
            save_state(paper_state("bohm"), tmp_path)
        assert info.value.filename == str(tmp_path)
        assert os.listdir(tmp_path) == []


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
