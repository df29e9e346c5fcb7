"""The suite's own pytest configuration reports failures instead of aborting."""

import pathlib
import subprocess
import sys
import textwrap

PYPROJECT = pathlib.Path(__file__).parents[1] / "pyproject.toml"


def test_failing_hypothesis_test_is_reported(tmp_path):
    # Hypothesis's failure report imports modules that warn on import; with
    # warnings as errors that must not turn into an INTERNALERROR.
    (tmp_path / "test_sample.py").write_text(
        textwrap.dedent(
            """
            from hypothesis import given, strategies as st

            @given(st.integers())
            def test_fails(x):
                assert x < 5

            def test_passes():
                pass
            """
        )
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_sample.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
