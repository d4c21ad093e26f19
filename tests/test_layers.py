"""Layer rules of the package, read from its source with ``ast``.

The runtime keeps one implementation of each sweep, the generated kernel:
``Sweep.run`` and ``Sweep.explain`` (``vaknh._kernel``) are the one place
where a kernel failure becomes an error, and the interpreted sweeps are the
tests' oracle (``tests/oracles.py``).  Only ``system`` (``verify_linearity``)
and ``_kernel`` (``Sweep.explain``) use the hyper-dual interpreter.

The reduced equations have one implementation, ``vakonomic._stage`` and its
stacked twin ``_stage_lanes``, on the buffer of the ``field`` kernel: only
``vakonomic`` calls numpy's linear algebra, and the multiplier shift made
in numpy (``_shifted``) is the tests' oracle of that kernel.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import vaknh

PACKAGE = Path(vaknh.__file__).resolve().parent
AUTODIFF_USERS = {"system", "_kernel"}
LINALG = ("np.linalg.", "numpy.linalg.", "linalg.", "_umath_linalg.")


def _modules():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(), filename=str(path))


def _imports_autodiff(tree) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name == "vaknh.autodiff" for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module in ("autodiff", "vaknh.autodiff") or (
                    module in ("", "vaknh")
                    and any(alias.name == "autodiff" for alias in node.names)):
                return True
    return False


def _defined_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.alias):
            yield node.asname or node.name.split(".")[0]


def test_only_system_and_kernel_import_autodiff():
    users = {name for name, tree in _modules() if _imports_autodiff(tree)}
    assert "_kernel" in users and users <= AUTODIFF_USERS


def test_no_module_defines_an_interpreted_sweep():
    found = [(name, defined) for name, tree in _modules()
             for defined in _defined_names(tree) if defined.startswith("reference_")]
    assert found == []


def _dotted(node) -> str:
    """The dotted name an attribute chain spells, or '' for any other node."""
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return head and f"{head}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else ""


def test_only_vakonomic_calls_linear_algebra():
    callers = {name for name, tree in _modules() for node in ast.walk(tree)
               if isinstance(node, ast.Call) and _dotted(node.func).startswith(LINALG)}
    assert callers == {"vakonomic"}
    # Any other module imports no function of numpy.linalg by name.
    for name, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and "linalg" in (node.module or ""):
                assert name == "vakonomic", node.module


def test_no_module_defines_the_numpy_multiplier_shift():
    found = [name for name, tree in _modules() if "_shifted" in set(_defined_names(tree))]
    assert found == []


def test_loading_a_system_imports_no_kernel_generator():
    # ``import vaknh`` and ``load_system`` are the set-up of every command;
    # the kernel generator is imported by the commands that run a sweep.
    code = ("import sys, vaknh\n"
            "vaknh.load_system(vaknh.builtin_source('martinet'))\n"
            "print(sorted(m for m in sys.modules if m.startswith('vaknh.')))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    modules = ast.literal_eval(done.stdout)
    assert "vaknh.system" in modules
    assert "vaknh._kernel" not in modules and "vaknh._jets" not in modules
