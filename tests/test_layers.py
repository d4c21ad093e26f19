"""Layer rules of the package, read from its source with ``ast``.

The runtime keeps one implementation of each sweep, the generated kernel:
``Sweep.run`` and ``Sweep.explain`` (``vaknh._kernel``) are the one place
where a kernel failure becomes an error, and the interpreted sweeps are the
tests' oracle (``tests/oracles.py``).  Only ``system`` (``verify_linearity``)
and ``_kernel`` (``Sweep.explain``) use the hyper-dual interpreter.
"""

import ast
from pathlib import Path

import vaknh

PACKAGE = Path(vaknh.__file__).resolve().parent
AUTODIFF_USERS = {"system", "_kernel"}


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
