"""Checks on the package source itself."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import kneserdom

PACKAGE = Path(kneserdom.__file__).resolve().parent
SOURCES = sorted(PACKAGE.glob("*.py"))
# The modules whose references count as uses: not __init__.py, which only
# re-exports.
CALLERS = [path for path in SOURCES if path.name != "__init__.py"]


def _trees(paths):
    return [ast.parse(path.read_text(), str(path)) for path in paths]


def test_no_assert_statements():
    """Internal checks use internal_check, which python -O does not strip."""
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _definitions(body, prefix="", in_class=False):
    """(qualified name, name, whether a class member) of every function,
    method and class in `body`."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield prefix + node.name, node.name, in_class
            yield from _definitions(node.body, f"{prefix}{node.name}.",
                                    isinstance(node, ast.ClassDef))


def _references(tree):
    """(name, whether as an attribute) of every name a module uses: names
    and imported names are bare; attributes and the dotted parts of string
    constants, which monkeypatching refers by, are attributes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, True
        elif isinstance(node, ast.alias):
            for part in node.name.split("."):
                yield part, False
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            for part in node.value.split("."):
                yield part, True


def test_every_definition_is_used():
    """A function, method or class that no module of the package refers to
    is dead code. A class member counts as used only when referred to as an
    attribute, since a bare name of the same spelling, such as a local
    variable, does not reach it. Tests and re-exports do not count: code
    that only the tests call, such as an oracle, lives under tests/."""
    sources = _trees(SOURCES)
    refs = [ref for tree in _trees(CALLERS) for ref in _references(tree)]
    used = {name for name, _ in refs}
    as_attribute = {name for name, attribute in refs if attribute}
    dead = [
        f"{path.name}:{qualified}"
        for path, tree in zip(SOURCES, sources)
        for qualified, name, member in _definitions(tree.body)
        if name not in (as_attribute if member else used)
        and not (name.startswith("__") and name.endswith("__"))
    ]
    assert dead == []


def _imported_names(tree):
    """(name, line) of every name an import statement binds in `tree`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                yield name, node.lineno


def test_every_import_is_used():
    """A name a module imports and never refers to is a leftover. Only
    __init__.py imports to re-export."""
    unused = []
    for path, tree in zip(CALLERS, _trees(CALLERS)):
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line}:{name}"
                   for name, line in _imported_names(tree) if name not in used]
    assert unused == []


def test_capacity_is_checked_only_in_core():
    """The vertex ceiling is checked where the vertices are enumerated,
    in KneserParams.vertex_masks; no other module checks it."""
    outside = [
        path.name
        for path, tree in zip(SOURCES, _trees(SOURCES))
        if path.name != "core.py"
        and "check_capacity" in {name for name, _ in _references(tree)}
    ]
    assert outside == []


def test_certify_imports_no_solver_code():
    """The verifiers share no code with the searches they check: certify.py
    imports the standard library and, of the package, core alone."""
    tree = ast.parse((PACKAGE / "certify.py").read_text())
    outside = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module != "core":
                outside.append(f"{node.lineno}:.{node.module or ''}")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = ([node.module] if isinstance(node, ast.ImportFrom)
                     else [alias.name for alias in node.names])
            outside += [f"{node.lineno}:{name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_cli_import_leaves_out_fractions():
    """`fractions`, which loads `decimal`, is imported only by the LP that
    needs it, so a domination-only run never loads it."""
    src = str(Path(kneserdom.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, kneserdom.cli; print('fractions' in sys.modules)"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_generates_no_dataclass_code():
    """The records are plain classes, so a fresh import of the CLI loads
    neither `dataclasses` nor the `inspect` it pulls in."""
    src = str(Path(kneserdom.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, kneserdom.cli; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# One call of every argv shape that bench/workloads.py sends, and
# `construct --check`; the verify call reads its document from stdin.
_EXACT_FLAG_CALLS = """
import io, json, sys
import kneserdom.cli
calls = [
    ["compute", "--invariant", "rho2", "--n", "8", "--r", "3"],
    ["compute", "--invariant", "gamma_k", "--n", "5", "--r", "2", "--k", "1",
     "--timeout", "1.0", "--format", "json"],
    ["verify", "--invariant", "gamma_k", "--k", "1", "--input", "-",
     "--format", "json"],
    ["reproduce", "--table", "2", "--format", "json"],
    ["construct", "--name", "table3", "--r", "4", "--check"],
]
sys.stdin = io.StringIO(json.dumps({"n": 5, "r": 2,
                                    "sets": [[1, 2], [1, 3], [2, 3]]}))
sys.stdout = io.StringIO()
codes = [kneserdom.cli.main(argv) for argv in calls]
sys.stdout = sys.__stdout__
print(codes, sorted({"argparse", "gettext"} & set(sys.modules)))
"""


def test_cli_call_loads_no_argparse():
    """`cli` parses a call spelled with exact flags by its own rows, so a
    fresh import and such calls load neither `argparse` nor the `gettext`
    it pulls in; only help, usage errors and odd spellings load them."""
    src = str(Path(kneserdom.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _EXACT_FLAG_CALLS],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0] []"


# A code name in README.md: a backticked identifier, bare or dotted, or a
# call of one. A call of a one-letter name, as K(n,r), is notation.
_CODE_NAME = re.compile(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(\(.*\))?")


def _readme_names(text):
    text = re.sub(r"```.*?```", "", text, flags=re.S)
    for span in re.findall(r"`([^`\n]+)`", text):
        match = _CODE_NAME.fullmatch(span)
        if match and not (match[2] and len(match[1]) == 1):
            yield match[1]


def _stored_names(tree):
    """Every name a module defines or stores: its functions, classes and
    parameters, the names and attributes it assigns, and its strings."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.arg):
            yield node.arg
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                             ast.Store):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def _stdlib_imports(tree):
    """The names `tree` imports from standard-library modules."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] in sys.stdlib_module_names):
            yield from (alias.name for alias in node.names)


def test_readme_names_exist():
    """Every code name README.md gives exists. Each dotted part is a name
    the package defines or stores, a module or file of the package, a name
    defined in tests/helpers.py, or a standard-library module or a name
    imported from one."""
    helpers = ast.parse((Path(__file__).resolve().parent
                         / "helpers.py").read_text())
    trees = _trees(SOURCES)
    known = {name for tree in trees for name in _stored_names(tree)}
    known |= {PACKAGE.name} | {path.stem for path in PACKAGE.iterdir()}
    known |= {path.name for path in PACKAGE.iterdir()}
    known |= {name for _, name, _ in _definitions(helpers.body)}
    known |= set(sys.stdlib_module_names)
    known |= {name for tree in trees + [helpers]
              for name in _stdlib_imports(tree)}
    readme = (PACKAGE.parents[1] / "README.md").read_text()
    missing = sorted({
        name for name in _readme_names(readme)
        if name not in known
        and not all(part in known for part in name.split("."))
    })
    assert missing == []
