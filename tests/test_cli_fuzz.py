"""Fuzzing of the CLI argv.

Token sequences are drawn from the real subcommands and flags, with hostile
values mixed in: NaN and infinities, 5000-digit integers, empty strings, a
NUL byte, flags with their value left out or given twice, and malformed
``--split`` strings.  Whatever the argv, ``run_cli`` must print one strict
JSON report (no ``NaN`` or ``Infinity`` token) on stdout, exit 0, 1 or 2
and leave stderr empty, with no warning raised on the way; a ``degree``
report that exits 0 echoes a finite ``tol`` >= 0 and a ``seed`` >= 0.
Every numeric value that sets an amount of work is capped (at most 3
restarts, 5 sweeps, method1 bounds of 6 and 2 stages), so no draw runs long.
``--help`` and ``HYPERSTATE_THREADS`` are never drawn.
"""

import contextlib
import io
import json
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import refuse_constant
from hyperstate import (
    PAIRING_NAMES,
    PAPER_STATE_NAMES,
    Projector,
    Subsystem,
    make_state,
    method2_build,
    paper_state,
)
from hyperstate.cli import run_cli
from hyperstate.io import save_projector, save_state

DIGITS = "7" * 5000
# Not one of these parses as an int; several parse as floats.
HOSTILE = ["nan", "NaN", "inf", "-inf", "1e309", "", " ", DIGITS, "-" + DIGITS, "\x00", "0x10"]


def pick(*values):
    return st.sampled_from(values)


def ints(lo, hi):
    return st.integers(lo, hi).map(str)


def lists(elements, lo, hi):
    return st.lists(elements, min_size=lo, max_size=hi).map(",".join)


# Per flag: (valid values, hostile values).  Every amount of work stays small
# either way, and no value token parses as a larger int than its cap.
TOL = (pick("1e-12", "1e-6", "0.01", "0"), st.floats().map(repr) | pick("1_000", "1e-400"))
OUT = (pick("out.json"), pick(".", "", "no/such/dir/out.json", "\x00", "bohm.json/x"))
STATES = ("bohm.json", "ghz.json", "stage2.json", "wide.json")
BAD_STATES = pick("junk.json", "missing.json", "pp.json", ".", "", "\x00")
SPLITS = ("0", "1", "0|1", "0|1,2", "0,1|2", "1|0,2")
BAD_SPLITS = pick("0|2", "|", "0|", "|1", "", "0,0", "-1", "5", "0|1|2", "a", "0,,1",
                  " 0 ", "1e3", "0,1,2", DIGITS, "0|" + DIGITS)
NAMES = (pick(*PAPER_STATE_NAMES), pick("nope", "", "BOHM"))


def sources(*states):
    return {"--paper": NAMES, "--state": (pick(*states), BAD_STATES)}


FLAGS = {
    ("construct", "method1"): {
        "--n": (pick("3", "4"), ints(-1, 5)),
        "--pairing": (pick(*PAIRING_NAMES), pick("zzz", "")),
        "--bounds": (lists(ints(1, 6), 3, 4), lists(ints(-1, 6), 0, 6) | pick("3,,3", "a,b", DIGITS)),
        "--out": OUT,
    },
    ("construct", "method2"): {
        "--stages": (pick("1", "2"), ints(-1, 0)),
        "--eps": (
            lists(pick("0.01", "0.005", "0.0025"), 1, 2),
            lists(pick("0", "-0.01", "1", "2", "0.01"), 0, 3) | pick("nan", "0.01,inf", "1e-400", DIGITS),
        ),
        "--seed-file": (
            pick("ghz.json", "hardy3.json"),
            BAD_STATES | pick("bohm.json", "stage2.json", "record.json"),
        ),
        "--out": OUT,
    },
    ("construct", "paper"): {"--name": NAMES, "--out": OUT},
    ("construct", "repair"): {
        **sources("bohm.json", "wide.json"),
        "--delta": (pick("0.1", "0.01", "0.5"), st.floats().map(repr)),
        "--subsystem": (pick("0", "1"), ints(-1, 2)),
        "--tol": TOL,
        "--out": OUT,
    },
    ("certify",): {
        **sources(*STATES),
        "--tol": TOL,
        "--windows": (pick("full"), pick("part", "")),
    },
    ("schmidt",): {
        **sources(*STATES),
        "--split": (pick(*SPLITS), BAD_SPLITS),
        "--tol": TOL,
    },
    ("witness",): {
        **sources(*STATES),
        "--pprime-file": (pick("pp.json"), BAD_STATES | pick("bohm.json")),
        "--epsilon": (pick("1e-9", "1e-3", "0.5"), st.floats().map(repr)),
    },
    ("degree",): {
        **sources(*STATES),
        "--split": (pick(*SPLITS), BAD_SPLITS),
        "--restarts": (ints(1, 3), ints(-1, 0)),
        "--seed": (ints(0, 2**70), ints(-(2**70), -1)),
        "--tol": TOL,
        "--max-iters": (ints(1, 5), ints(-1, 0)),
    },
}
REQUIRED = {
    ("construct", "method1"): ["--bounds", "--out"],
    ("construct", "method2"): ["--stages", "--eps", "--out"],
    ("construct", "paper"): ["--name", "--out"],
    ("construct", "repair"): ["--delta", "--out"],
    ("witness",): ["--pprime-file"],
}


def hostile(flags, flag):
    return flags[flag][1] | pick(*HOSTILE) if flag in flags else pick(*HOSTILE)


def value(draw, flag, flags):
    """Mostly a valid value for ``flag``, else a hostile one."""
    if flag in flags and draw(st.integers(0, 3)):
        return draw(flags[flag][0])
    return draw(hostile(flags, flag))


@st.composite
def argvs(draw):
    """A well-formed argv for a real subcommand, then up to three edits."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = FLAGS[command]
    required = REQUIRED.get(command, [])
    if "--paper" in flags:  # one of the exclusive pair --paper / --state is required
        required = [draw(pick("--paper", "--state"))] + required
    optional = draw(st.lists(pick(*sorted(flags)), max_size=3))
    pairs = [[flag, draw(flags[flag][0])] for flag in required]
    pairs += [[flag, value(draw, flag, flags)] for flag in optional]
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(pick("hostile", "repeat", "drop value", "drop flag", "unknown", "mode"))
        i = draw(st.integers(0, len(pairs)))
        if edit == "unknown":
            pairs.insert(i, [draw(pick("--bogus", "--out", "--tol", "--", "-x", "x"))])
        elif edit == "mode":
            command = draw(pick(("construct",), ("construct", "nope"), ("nope",), (), command[::-1]))
        elif i < len(pairs):
            flag = pairs[i][0]
            if edit == "hostile":
                pairs[i] = [flag, draw(hostile(flags, flag))]
            elif edit == "repeat":
                pairs.append([flag, value(draw, flag, flags)])
            elif edit == "drop value":
                pairs[i] = [flag]
            else:
                del pairs[i]
    return list(command) + [tok for pair in pairs for tok in pair]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory holding the files the drawn argvs name, made the cwd."""
    root = tmp_path_factory.mktemp("argv")
    save_state(paper_state("bohm"), root / "bohm.json")
    save_state(paper_state("ghz"), root / "ghz.json")  # a valid 2x2x2 --seed-file
    save_state(paper_state("hardy3"), root / "hardy3.json")  # valid too, with a zero origin
    record = {"stage_history": [{"p": 9, "m": 3, "epsilon": 0.5, "p_prime": 81}]}
    save_state(make_state((2, 2, 2), {(0, 0, 0): 1.0}, metadata=record), root / "record.json")
    save_state(method2_build(2, (0.01, 0.005)), root / "stage2.json")  # has window sizes
    # 100 x 100, beyond the old 4096-dim cap, with one zero Schmidt coefficient to repair
    wide = {(k, 3 * k % 100): 1.0 / (k + 1) for k in range(99)}
    save_state(make_state((100, 100), wide, normalize=True), root / "wide.json")
    w = np.array([0.6, 0.8j])
    save_projector(Projector(subsystem=Subsystem((1,)), basis=w[None, :]), root / "pp.json")
    (root / "junk.json").write_text("{not json")
    old = os.getcwd()
    os.chdir(root)  # relative --out paths land here
    yield root
    os.chdir(old)


@settings(max_examples=300)
@given(argv=argvs())
# Rare in the 300 draws: the bipartite route with a value it does not use.
@example(argv=["degree", "--paper", "bohm", "--split", "0", "--tol", "-1"])
@example(argv=["degree", "--state", "ghz.json", "--split", "0", "--seed", "-1"])
def test_every_argv_gives_one_json_report(workdir, argv):
    assert "--help" not in argv and "-h" not in argv
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli(argv)
    assert code in (0, 1, 2)
    assert err.getvalue() == ""
    assert [str(w.message) for w in caught] == []
    report = json.loads(out.getvalue(), parse_constant=refuse_constant)
    assert report["argv"] == argv
    assert ("error" in report) == (code == 2)
    if code == 0 and report["command"] == "degree":  # both routes echo what they were given
        tol, seed = report["tolerances"]["tol"], report["tolerances"]["seed"]
        assert math.isfinite(tol) and tol >= 0 and seed >= 0
