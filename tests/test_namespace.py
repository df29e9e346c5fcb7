"""Guards against drift between the name lists and the tables behind them."""

import argparse
import ast
import importlib
import pathlib
import pkgutil
import subprocess
import sys

import hyperstate
from hyperstate.cli import _build_parser
from hyperstate.construct import PAIRING_NAMES, PAPER_STATE_NAMES

SPANS = pathlib.Path(__file__).parents[1] / "perfbench" / "spans.py"
SUBMODULES = {
    info.name: importlib.import_module(f"hyperstate.{info.name}")
    for info in pkgutil.iter_modules(hyperstate.__path__)
    if not info.name.startswith("__")
}


def test_every_export_exists_once():
    owner = {}
    for modname, module in SUBMODULES.items():
        for name in module.__all__:
            assert hasattr(module, name), f"{modname}.{name}"
            assert name not in owner, f"{name} exported by {owner.get(name)} and {modname}"
            owner[name] = modname
            assert getattr(hyperstate, name) is getattr(module, name)


def test_package_namespace_is_the_union():
    union = sorted({name for module in SUBMODULES.values() for name in module.__all__})
    assert hyperstate.__all__ == union
    assert dir(hyperstate) == union


def test_import_and_dunder_probe_load_no_numpy():
    script = (
        "import sys, hyperstate\n"
        "assert not hasattr(hyperstate, '__wrapped__')\n"
        "hyperstate.run_cli\n"
        "sys.exit(1 if 'numpy' in sys.modules else 0)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _choices(parser: argparse.ArgumentParser):
    """(option, choices) for every option of every subcommand that has choices."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _choices(sub)
        elif action.choices is not None:
            yield action.option_strings[0], tuple(action.choices)


def test_cli_choices_come_from_construct():
    found = {}
    for option, choices in _choices(_build_parser()):
        found.setdefault(option, set()).add(choices)
    assert found["--paper"] == {PAPER_STATE_NAMES}
    assert found["--name"] == {PAPER_STATE_NAMES}
    assert found["--pairing"] == {PAIRING_NAMES}


def test_every_traced_name_is_bound():
    # the traced benchmark run wraps these by name; read its table, do not run it
    tree = ast.parse(SPANS.read_text())
    (traced,) = (
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "TRACED"
    )
    for modname, names in traced.items():
        for name in names:
            assert callable(getattr(SUBMODULES[modname], name, None)), f"{modname}.{name}"
