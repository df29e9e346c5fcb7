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
WORKLOADS = SPANS.with_name("workloads.py")
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


def test_a_resolved_name_is_stored_in_the_package():
    # later lookups are plain attribute reads, with no submodule search
    script = (
        "import hyperstate\n"
        "assert 'load_state' not in vars(hyperstate)\n"
        "f = hyperstate.load_state\n"
        "assert vars(hyperstate)['load_state'] is f is hyperstate.io.load_state\n"
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


def test_every_benchmark_name_is_bound():
    # the benchmark reads hs.<name> / self.hs.<name> off the package and
    # self.cli.<name> off hyperstate.cli; read its source, do not run it
    owners = {"hs": hyperstate, "cli": SUBMODULES["cli"]}
    used = set()
    for node in ast.walk(ast.parse(WORKLOADS.read_text())):
        if isinstance(node, ast.Attribute):
            owner = node.value
            if isinstance(owner, ast.Attribute) and getattr(owner.value, "id", None) == "self":
                used.add((owner.attr, node.attr))
            elif isinstance(owner, ast.Name):
                used.add((owner.id, node.attr))
    used = {(owner, name) for owner, name in used if owner in owners}
    assert {("hs", "CorrelationQuery"), ("cli", "run_cli")} <= used  # the walk found them
    for owner, name in sorted(used):
        assert hasattr(owners[owner], name), f"{owner}.{name}"


def test_io_states_one_json_layout():
    # every written document renders through canonical_report_json; the one
    # other json.dumps that lays text out with indent= is run_cli's error
    # report, which must render whatever argv a library caller passes
    owners = {}
    for path in sorted(pathlib.Path(hyperstate.__file__).parent.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, ast.FunctionDef):
                for node in ast.walk(func):
                    if (
                        isinstance(node, ast.Call)
                        and ast.unparse(node.func) == "json.dumps"
                        and any(kw.arg == "indent" for kw in node.keywords)
                    ):
                        keywords = {kw.arg: ast.unparse(kw.value) for kw in node.keywords}
                        owners.setdefault(f"{path.stem}.{func.name}", []).append(keywords)
    assert owners == {
        "cli.run_cli": [{"indent": "2", "sort_keys": "True", "default": "str"}],
        "io.canonical_report_json": [{"indent": "2", "sort_keys": "True", "allow_nan": "False"}],
    }, owners


def test_one_hex_decoder():
    # io._float_column is the one decoder of state-file entries, so the hex
    # companions are parsed in one place
    found = [
        (path.stem, node.lineno)
        for path in sorted(pathlib.Path(hyperstate.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and ast.unparse(node) == "float.fromhex"
    ]
    assert [stem for stem, _ in found] == ["io"], found


def test_one_freeze_rule():
    # state._immutable is the one way an array is made read-only: no flag is
    # cleared in place, where any holder of the array could set it back
    def freezes(node: ast.AST) -> bool:
        if isinstance(node, (ast.Attribute, ast.Subscript)) and isinstance(node.ctx, ast.Store):
            return ".flags" in ast.unparse(node)
        return isinstance(node, ast.Call) and ast.unparse(node.func).endswith(".setflags")

    found = [
        (path.stem, node.lineno)
        for path in sorted(pathlib.Path(hyperstate.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if freezes(node)
    ]
    assert found == [], found


def test_spectral_kernels_run_once_per_split():
    # a state keeps its Schmidt SVD and its density spectrum (state._memo), so
    # the one eigvalsh and bilinear's one reduced SVD run only inside a
    # computation, a lambda or a named function, passed to _memo; witness and
    # steering solve from that SVD, so no lstsq is left and witness.py's one SVD
    # is of the rank(P') x dim_S matrix `compressed`, which decides no rank
    found = []
    for path in sorted(pathlib.Path(hyperstate.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        computations = [
            node.args[2]
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "_memo"
        ]
        named = {c.id for c in computations if isinstance(c, ast.Name)}
        computations += [
            node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name in named
        ]
        memoized = {id(node) for c in computations for node in ast.walk(c)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = ast.unparse(node.func)
            reduced = any(
                kw.arg == "full_matrices" and getattr(kw.value, "value", None) is False
                for kw in node.keywords
            )
            if func == "np.linalg.eigvalsh" or (func.endswith("svd") and reduced):
                found.append((path.stem, func, id(node) in memoized))
            if func == "np.linalg.svd" and path.stem == "witness":
                assert [ast.unparse(arg) for arg in node.args] == ["compressed"], func
            assert not func.endswith("lstsq"), (path.stem, func)
    eigvalsh = [f for f in found if f[1] == "np.linalg.eigvalsh"]
    svd = [f for f in found if f[0] == "bilinear" and f[1] != "np.linalg.eigvalsh"]
    assert eigvalsh == [("bilinear", "np.linalg.eigvalsh", True)], found
    assert svd == [("bilinear", "np.linalg.svd", True)], found
    assert [f for f in found if f[0] == "witness"] == [("witness", "np.linalg.svd", False)], found


def test_one_home_for_the_cyclicity_rule():
    # bilinear keeps every spectrum (the one _memo caller) and pulls a vector
    # back through the kept SVD in one place; witness reads the rule from there,
    # and unfolds a split only for the probabilities P and P' are read off
    calls, pull_backs, unfolds = [], [], []
    for owner, node in _owned_nodes():
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "_memo":
            calls.append(owner.split(".")[0])
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "unfold":
            unfolds.append(owner)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            if ast.unparse(node.right) == "s[:r]":
                pull_backs.append(owner)
    assert set(calls) == {"bilinear"}, calls
    assert pull_backs == ["bilinear._pull_back"], pull_backs
    assert [o for o in unfolds if o.startswith("witness")] == ["witness._split"], unfolds
    tree = ast.parse(pathlib.Path(SUBMODULES["witness"].__file__).read_text())
    imported = {
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert not {name for module, name in imported if module == "certify"}, imported
    assert not {"_rank_report", "_kept_svd"} & {name for _, name in imported}, imported
    names = {getattr(node, "id", None) for node in ast.walk(tree)}
    assert not {"_rank_report", "_kept_svd", "cyclicity_test"} & names, names


def test_one_metadata_rule():
    # state._check_metadata checks the stage records of every state as it is
    # built, so io, which reads them from files, knows nothing of their schema
    package = pathlib.Path(hyperstate.__file__).parent
    found = [
        path.stem
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == "_check_metadata"
    ]
    assert found == ["state"], found
    io_text = (package / "io.py").read_text()
    assert "stage_history" not in io_text and "window_sizes" not in io_text
    # every state's metadata is JSON by construction, so io checks none of it,
    # and the package has one walker and copier of JSON trees, with a stack of
    # its own: no function calls itself, so no limit depends on the caller's stack
    assert "_check_round_trip" not in io_text and "_find_nonfinite" not in io_text
    recursive = []
    for path in sorted(package.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, ast.FunctionDef) and any(
                isinstance(node, ast.Call) and ast.unparse(node.func) == func.name
                for node in ast.walk(func)
            ):
                recursive.append(f"{path.stem}.{func.name}")
    assert recursive == [], recursive
    walker_users = [
        f"{path.stem}.{func.name}"
        for path in sorted(package.glob("*.py"))
        for func in ast.walk(ast.parse(path.read_text()))
        if isinstance(func, ast.FunctionDef)
        and func.name != "_json_nodes"
        and "_json_nodes(" in ast.unparse(func)
    ]
    want = ["io._read_document", "state._check_metadata", "state.metadata"]
    assert walker_users == want, walker_users
    save = next(
        func for func in ast.walk(ast.parse(io_text))
        if isinstance(func, ast.FunctionDef) and func.name == "save_state"
    )
    calls = {ast.unparse(node.func) for node in ast.walk(save) if isinstance(node, ast.Call)}
    assert not any("check" in name for name in calls), calls


def test_one_place_builds_a_state():
    # state._state_from_arrays computes each record's scale and norm and makes
    # its arrays immutable, so it is the one caller of StateTensor(...)
    def builds(tree):
        return [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "StateTensor"
        ]

    found = []
    for path in sorted(pathlib.Path(hyperstate.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {
            id(node): f"{path.stem}.{func.name}"
            for func in ast.walk(tree)
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in builds(func)
        }
        found += [owner.get(id(node), path.stem) for node in builds(tree)]
    assert found == ["state._state_from_arrays"], found


def _owned_nodes():
    """``(owner, node)`` for every node under ``src/hyperstate``; the owner is
    ``module.function`` of the innermost enclosing function, else ``module``."""
    for path in sorted(pathlib.Path(hyperstate.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {
            id(node): f"{path.stem}.{func.name}"
            for func in ast.walk(tree)
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(func)
        }
        for node in ast.walk(tree):
            yield owner.get(id(node), path.stem), node


def test_one_scale_rule():
    # a state's power-of-two scale is decided once, by state._scale_and_norm
    # when the state is built, and kept as StateTensor._scale; the norm is
    # summed under that exponent and every dense product reads that field
    frexps, named, peaks = [], [], []
    for owner, node in _owned_nodes():
        names = {getattr(node, k, None) for k in ("id", "attr", "name")}
        if "frexp" in names:  # math.frexp, or a name imported from math
            frexps.append(owner)
        if "_scale_exponent" in names:
            named.append((owner, node.lineno))
        if isinstance(node, ast.Attribute) and node.attr == "_peak":
            peaks.append((owner, node.lineno))
    assert frexps == ["state._scale_and_norm"], frexps
    assert named == [], named
    assert peaks == [], peaks


def test_one_reader_for_files():
    # io._read_document reads every state and projector file and checks its
    # top level and format_version, so both loaders share those rules
    def kind(node):
        if isinstance(node, ast.Constant) and node.value == "top level must be a JSON object":
            return "object check"
        if "_VERSION_PATTERN" in {getattr(node, "id", None), getattr(node, "attr", None)}:
            return "version check"
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "read_text":
            return "file read"
        return None

    found = {}
    for owner, node in _owned_nodes():
        if found_kind := kind(node):
            found.setdefault(found_kind, []).append(owner)
    assert found == {
        "object check": ["io._read_document"],
        "version check": ["io", "io._read_document"],  # "io": its module-level definition
        "file read": ["io._read_document"],
    }, found


def test_one_writer_for_files():
    # io._write_document writes every state and projector file: a temporary
    # file beside the target, moved over it in one step
    def kind(node):
        if not isinstance(node, ast.Call):
            return None
        func = ast.unparse(node.func)
        if func.split(".")[-1] in ("write_text", "write_bytes"):
            return "file write"
        if func in ("os.replace", "os.rename"):
            return "replace"
        if func.split(".")[-1] == "open":
            # builtin open(file, mode), or a path's .open(mode)
            modes = node.args[1:2] if func == "open" else node.args[:1]
            modes += [kw.value for kw in node.keywords if kw.arg == "mode"]
            if any(
                not isinstance(m, ast.Constant) or set(str(m.value)) & set("wxa+") for m in modes
            ):
                return "write-mode open"
        return None

    found = {}
    for owner, node in _owned_nodes():
        if found_kind := kind(node):
            found.setdefault(found_kind, set()).add(owner)
    assert found == {
        "write-mode open": {"io._write_document"},
        "replace": {"io._write_document"},
    }, found


def test_one_unit_rule():
    # StateTensor.is_normalized, within UNIT_NORM_TOL, is the only test of
    # whether a state is a unit state; degree and repair read it
    def one(node):
        return isinstance(node, ast.Constant) and node.value == 1 and node.value is not True

    def state_norm(node):
        if isinstance(node, ast.Attribute):
            return node.attr == "_norm"
        return isinstance(node, ast.Call) and ast.unparse(node.func) in ("norm", "state.norm")

    found = []
    for owner, node in _owned_nodes():
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
            sides = [node.left, node.right]
        elif isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
        elif isinstance(node, ast.Call) and ast.unparse(node.func).endswith("isclose"):
            sides = node.args[:2]
        else:
            continue
        if any(map(one, sides)) and any(map(state_norm, sides)):
            found.append(owner)
    assert found == ["state.is_normalized"], found


def test_runtime_imports_are_stdlib_or_numpy():
    # numpy is the one declared runtime dependency; scipy being installed must not matter
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    for path in sorted(pathlib.Path(hyperstate.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name} imports {name}"
