"""The benchmark's checker must turn a wrong answer into a failed operation.

A deliberately wrong expected value has to show up as a failed op, a nonzero
error rate and ``"correct": false`` in the result line, never as a silent
pass.  Run from the repository root with

    python3 -m pytest -q perfbench/test_checker.py
"""

from __future__ import annotations

import numpy as np
import pytest

import run as bench
import workloads


@pytest.fixture(scope="module")
def hs():
    return workloads.import_program()


def catalog_pass(hs, workdir) -> workloads.Run:
    wl = workloads.CatalogCli(hs, np.random.default_rng(0), workdir)
    run = workloads.Run()
    wl.run_pass(run)
    assert run.attempted == len(wl.commands)
    return run


def test_catalog_pass_is_correct(hs, tmp_path):
    run = catalog_pass(hs, tmp_path)
    assert run.failed == 0, run.failures


def test_wrong_verdict_is_a_failed_op(hs, tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.VERDICTS, "bohm", "not_hyperentangled")
    run = catalog_pass(hs, tmp_path)
    # certify --paper bohm and certify --state bohm both disagree.
    assert run.failed == 2, run.failures
    assert run.error_rate > 0
    assert all("bohm" in f for f in run.failures)
    result = bench.outcome([{"attempted": run.attempted, "failed": run.failed}], {})
    assert result["correct"] is False and result["failed"] == 2


def test_wrong_nnz_is_a_failed_op(hs, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "METHOD1_SMALL_NNZ", 14)
    run = catalog_pass(hs, tmp_path)
    assert run.failed == 1
    assert "nnz = 13, expected 14" in run.failures[0]


def test_wrong_window_rank_is_a_failed_op(hs, tmp_path, monkeypatch):
    wl = workloads.WindowCertify(hs, np.random.default_rng(0), tmp_path)
    monkeypatch.setattr(workloads, "STAGE3_NNZ", workloads.STAGE3_NNZ + 1)
    run = workloads.Run()
    wl.run_stage3(run)
    assert run.attempted == 12 and run.failed == 1
    assert run.failures[0].startswith("method2_build stage 3: nnz = 2026")


def test_raising_op_is_a_failed_op():
    run = workloads.Run()
    run.op("boom", lambda: 1 / 0)
    run.op("fine", lambda: 1, lambda out: None if out == 1 else "wrong")
    assert (run.attempted, run.failed) == (2, 1)
    assert run.failures == ["boom: raised ZeroDivisionError: division by zero"]
    assert bench.outcome([{"attempted": 2, "failed": 1}], {})["correct"] is False
