"""Importing the package: one BLAS thread, an unchanged environment, no BLAS
call, and public names imported only on first use; and a command line that
freezes the import heap, so that exit skips collecting it.

Each import test runs in a fresh interpreter whose environment holds none
of the thread variables unless the test sets one.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cascadecut import _THREAD_VARIABLES
from test_api import PUBLIC, REMOVED

SRC = Path(__file__).resolve().parents[1] / "src"

# Records every write to os.environ from here on, so a test can show that
# the import left the caller's environment alone.
RECORD_WRITES = """\
import os
writes = []
class Recording(type(os.environ)):
    def __setitem__(self, key, value):
        writes.append(key)
        super().__setitem__(key, value)
    def __delitem__(self, key):
        writes.append(key)
        super().__delitem__(key)
os.environ.__class__ = Recording
"""


def run_fresh(code: str, **variables: str) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON value, returned here."""
    env = {name: value for name, value in os.environ.items() if name not in _THREAD_VARIABLES}
    env["PYTHONPATH"] = str(SRC)
    env.update(variables)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_import_leaves_one_thread():
    if not Path("/proc/self/task").is_dir():
        pytest.skip("no /proc/self/task to count threads")
    code = "import json, os, cascadecut; print(json.dumps(len(os.listdir('/proc/self/task'))))"
    assert run_fresh(code) == 1


def test_import_loads_no_submodule_until_a_name_is_used():
    code = (
        "import json, sys, cascadecut\n"
        "before = sorted(m for m in sys.modules if m.startswith('cascadecut.'))\n"
        "cascadecut.save_plan\n"
        "print(json.dumps([before, 'cascadecut.deletion' in sys.modules]))"
    )
    assert run_fresh(code) == [[], True]


def test_star_import_binds_exactly_all_and_dir_lists_it():
    code = (
        "import json\nnames = set(dir())\nfrom cascadecut import *\nimport cascadecut\n"
        "bound = sorted(set(dir()) - names - {'names', 'cascadecut'})\n"
        "print(json.dumps([bound, sorted(cascadecut.__all__), sorted(set(PUBLIC) - set(dir(cascadecut)))]))"
    )
    bound, public, undir = run_fresh(f"PUBLIC = {sorted(PUBLIC)!r}\n" + code)
    assert bound == public == sorted(PUBLIC)
    assert undir == []


def test_removed_names_are_attribute_errors():
    gone = sorted({name for _, name in REMOVED} - PUBLIC)
    code = (
        "import json, cascadecut\nout = []\n"
        f"for name in {gone!r}:\n"
        "    try:\n        getattr(cascadecut, name)\n        out.append(name)\n"
        "    except AttributeError as exc:\n        out.append(str(exc))\n"
        "print(json.dumps(out))"
    )
    assert gone and run_fresh(code) == [f"module 'cascadecut' has no attribute {name!r}" for name in gone]


def test_import_restores_the_environment():
    code = "import json, os\nbefore = dict(os.environ)\nimport cascadecut\nprint(json.dumps([before, dict(os.environ)]))"
    before, after = run_fresh(code)
    assert before == after
    assert not set(_THREAD_VARIABLES) & set(after)


@pytest.mark.parametrize("name", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_a_callers_thread_variable_is_left_untouched(name):
    code = RECORD_WRITES + (
        "import json\nbefore = dict(os.environ)\nimport cascadecut\n"
        "print(json.dumps([before == dict(os.environ), os.environ.get(%r), writes]))" % name
    )
    assert run_fresh(code, **{name: "2"}) == [True, "2", []]


def test_numpy_imported_first_leaves_the_environment_untouched():
    code = RECORD_WRITES + (
        "import json, numpy\nbefore = dict(os.environ)\nimport cascadecut\n"
        "print(json.dumps([before == dict(os.environ), writes]))"
    )
    assert run_fresh(code) == [True, []]


def test_a_command_freezes_the_import_heap(tmp_path):
    (tmp_path / "summary.csv").write_text("", encoding="utf-8")
    code = (
        "import contextlib, gc, io, json\nfrom cascadecut.cli import main\nbefore = gc.get_freeze_count()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main(['gnuplot', '--out', {str(tmp_path)!r}])\n"
        "print(json.dumps([before, code, gc.get_freeze_count() > 0]))"
    )
    assert run_fresh(code) == [0, 0, True]


BLAS_NAMES = {"dot", "matmul", "linalg", "inner", "vdot", "tensordot", "einsum"}


def blas_uses(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, what) of every ``@`` and every call or attribute with a BLAS name."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in BLAS_NAMES:
            found.append((node.lineno, node.func.id))
    return found


def test_the_package_makes_no_blas_call():
    # numpy is loaded with one BLAS thread, so a BLAS call added here would
    # quietly run single-threaded.
    files = sorted((SRC / "cascadecut").glob("*.py"))
    assert files
    for path in files:
        assert blas_uses(ast.parse(path.read_text(encoding="utf-8"))) == [], path


def test_the_scan_sees_each_blas_form():
    source = "a @ b\na @= b\nnp.dot(a, b)\nnp.linalg.norm(a)\neinsum('i,i', a, b)\nx.inner\n"
    assert [what for _, what in sorted(blas_uses(ast.parse(source)))] == [
        "@", "@", "dot", "linalg", "einsum", "inner"
    ]


def unused_imports(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, name) of every name an import binds that the module never references.

    Names in string annotations count as references.
    """
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = [node.annotation for node in ast.walk(tree) if isinstance(node, (ast.arg, ast.AnnAssign))]
    annotations += [node.returns for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    for node in annotations:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.update(n.id for n in ast.walk(ast.parse(node.value, mode="eval")) if isinstance(n, ast.Name))
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_the_package_imports_no_unused_name():
    # __init__ imports to re-export; every other module imports only what it uses.
    files = sorted(path for path in (SRC / "cascadecut").glob("*.py") if path.name != "__init__.py")
    assert files
    for path in files:
        assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == [], path


def test_the_unused_import_scan_sees_each_form():
    source = (
        "from __future__ import annotations\nimport os\nimport os.path\nimport numpy as np\n"
        "from .graph import a, b as c, d, e\ndef f(x: 'd') -> None:\n    return a, 'e'\n"
    )
    assert unused_imports(ast.parse(source)) == [(2, "os"), (4, "np"), (5, "c"), (5, "e")]


def unreferenced_private_names(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """(module, line, name) of every private module-level function, class or
    constant of ``sources`` (module name -> source) that no module references.

    A reference is a name or an attribute read anywhere in any module, so a
    name imported by another module counts once that module uses it.
    """
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(module, node.lineno, name) for name in names if name[:1] == "_" and name[:2] != "__"]
        used.update(node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
        used.update(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))
    return sorted(entry for entry in defined if entry[2] not in used)


def test_the_package_defines_no_unreferenced_private_name():
    # A private helper that a change replaced is deleted with it.
    sources = {path.stem: path.read_text(encoding="utf-8") for path in (SRC / "cascadecut").glob("*.py")}
    assert sources
    assert unreferenced_private_names(sources) == []


def test_the_private_name_scan_sees_each_form():
    sources = {
        "a": (
            "_USED, _LEFT = 1, 2\n_ALONE = 3\n_TYPED: int = 4\n__dunder__ = 5\npublic = 6\n"
            "def _helper():\n    return _USED\nclass _Kept:\n    pass\nclass _Dropped:\n    _inner = 7\n"
            "def _elsewhere():\n    pass\n"
        ),
        "b": "from .a import _Kept, _elsewhere\nx = _Kept()\nimport a\na._helper()\n",
    }
    assert unreferenced_private_names(sources) == [
        ("a", 1, "_LEFT"), ("a", 2, "_ALONE"), ("a", 3, "_TYPED"), ("a", 10, "_Dropped"), ("a", 12, "_elsewhere"),
    ]
