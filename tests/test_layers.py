"""Layer rules of the package, read from its source with ``ast``, and the
interpreter's place at run time.

The runtime keeps one implementation of each sweep, the generated kernel:
``Sweep.run`` and ``Sweep.explain`` (``vaknh._kernel``) are the one place
where a kernel failure becomes an error, and the interpreted sweeps are the
tests' oracle (``tests/oracles.py``).  Only ``system`` (``verify_linearity``)
and ``_kernel`` (``Sweep.explain``) use the interpreter, ``expr.evaluate``
and the hyper-dual ``autodiff``.  Once a system is loaded, ``integrate``,
``scan`` and ``compare`` evaluate through generated kernels alone: the
interpreter runs only inside ``Sweep.explain``, to raise the error of a
kernel that fails.

Generated kernels have one store, ``_jets._SWEEPS``: only ``_jets`` calls
the generator, ``compile_sweep`` and ``compile_gradients`` of ``_kernel``.

The reduced equations have one implementation, ``vakonomic._stage`` and its
stacked twin ``_stage_lanes``, on the buffer of the ``field`` kernel: only
``vakonomic`` calls numpy's linear algebra, and the multiplier shift made
in numpy (``_shifted``) is the tests' oracle of that kernel.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import vaknh
from vaknh import autodiff, expr, system
from vaknh._kernel import Sweep
from vaknh.cli import run
from vaknh.models import builtin

from conftest import LINEAR_MODELS

PACKAGE = Path(vaknh.__file__).resolve().parent
AUTODIFF_USERS = {"system", "_kernel"}
INTERPRETER = {"expr", "autodiff"}
GENERATORS = {"compile_sweep", "compile_gradients"}
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


def _references_evaluate(tree) -> bool:
    """Whether a module names ``vaknh.expr.evaluate``: imported by name, or
    as an attribute of a name the module binds to ``vaknh.expr``."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if node.module in ("expr", "vaknh.expr") and alias.name == "evaluate":
                    return True
                if (node.module or "") in ("", "vaknh") and alias.name == "expr":
                    aliases.add(alias.asname or "expr")
        elif isinstance(node, ast.Import):
            aliases.update(alias.asname or alias.name for alias in node.names
                           if alias.name == "vaknh.expr")
    return any(isinstance(node, ast.Attribute) and node.attr == "evaluate"
               and _dotted(node.value) in aliases for node in ast.walk(tree))


def test_only_system_and_kernel_reference_the_interpreter():
    users = {name for name, tree in _modules()
             if name not in INTERPRETER and _references_evaluate(tree)}
    assert users == {"system", "_kernel"}


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


def _generator_users(tree) -> bool:
    """Whether a module imports ``compile_sweep`` or ``compile_gradients``
    by name, or calls either through an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if any(alias.name in GENERATORS for alias in node.names):
                return True
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in GENERATORS:
                return True
    return False


def test_only_jets_calls_the_kernel_generator():
    # Generated kernels have one store, ``_jets._SWEEPS``.
    assert {name for name, tree in _modules() if _generator_users(tree)} == {"_jets"}
    for source in ("from ._kernel import compile_sweep as build\n",
                   "from . import _kernel\n_kernel.compile_gradients([], [], ())\n"):
        assert _generator_users(ast.parse(source))


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


def _fresh_modules(code):
    """The modules loaded after ``code`` runs in a new process."""
    done = subprocess.run([sys.executable, "-c", code + "\nprint(sorted(sys.modules))"],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    return ast.literal_eval(done.stdout.splitlines()[-1])


def test_loading_a_linear_catalog_model_samples_nothing():
    # The tree walk certifies each of them: no verification runs, so the
    # sampler's ``numpy.random`` is not imported.
    code = ("import sys, vaknh\n"
            "from vaknh import system\n"
            "def refused(*args):\n"
            "    raise AssertionError('verify_linearity ran')\n"
            "system.verify_linearity = refused\n"
            f"for name in {LINEAR_MODELS!r}:\n"
            "    assert vaknh.builtin(name).linear\n")
    assert "numpy.random" not in _fresh_modules(code)


def test_integrate_does_not_import_comparison():
    modules = _fresh_modules("import sys, vaknh.integrate")
    assert "vaknh.integrate" in modules and "vaknh.comparison" not in modules


def _interpreter_calls(argv):
    """Run the command ``argv`` and count the calls of ``expr.evaluate`` and
    of the code of ``autodiff`` by the frame they run under: "explain"
    (``Sweep.explain``), "verify" (``system.verify_linearity``) or
    "elsewhere".  Returns the exit code and the counts."""
    inside = {Sweep.explain.__code__: "explain", system.verify_linearity.__code__: "verify"}
    counts = Counter()

    def profile(frame, event, _arg):
        code = frame.f_code
        if event != "call" or not (code is expr.evaluate.__code__
                                   or code.co_filename == autodiff.__file__):
            return
        caller = frame.f_back
        while caller is not None and caller.f_code not in inside:
            caller = caller.f_back
        where = "elsewhere" if caller is None else inside[caller.f_code]
        counts[where, "evaluate" if code is expr.evaluate.__code__ else "autodiff"] += 1

    sys.setprofile(profile)
    try:
        code = run(argv)
    finally:
        sys.setprofile(None)
    return code, counts


_STATE = ["--q", "0,1,0", "--v", "0.8,-0.4", "--p", "1.2"]
_CANDIDATES = "C1 = x/3 + y^2*dx\nC2 = dx^2 + dy^2\nC3 = 2.5\n"


@pytest.mark.parametrize("command", [
    ["integrate", "martinet", "--dynamics", "vak", "--method", "rk45", "--t-end", "0.2"],
    ["integrate", "martinet", "--dynamics", "vak", "--method", "rk4", "--t-end", "0.2"],
    ["integrate", "martinet", "--dynamics", "nh", "--method", "rk45", "--t-end", "0.2"],
    ["integrate", "martinet", "--dynamics", "nh", "--method", "rk4", "--t-end", "0.2"],
    ["scan", "martinet", "--samples", "20"],
    ["scan", "martinet", "--samples", "20", "--p-mode", "legendre"],
    ["compare", "martinet"],
], ids=["integrate-vak-rk45", "integrate-vak-rk4", "integrate-nh-rk45", "integrate-nh-rk4",
        "scan-random", "scan-legendre", "compare"])
def test_commands_evaluate_only_through_kernels_after_load(command, tmp_path, capsys):
    # The command's own load is counted too: the tree walk certifies
    # martinet, so nothing is sampled.
    cands = tmp_path / "cands.txt"
    cands.write_text(_CANDIDATES + ("C4 = p_z*y\n" if "nh" not in command else ""))
    state = [] if command[0] == "scan" else _STATE[:4 if "nh" in command else 6]
    code, counts = _interpreter_calls([*command, *state, "--candidates", str(cands)])
    assert code == 0, capsys.readouterr().err
    assert counts == Counter()


def test_a_kernel_failure_is_explained_by_the_interpreter(tmp_path, capsys):
    cands = tmp_path / "cands.txt"
    cands.write_text("C = sqrt(0.3 - x)\n")
    code, counts = _interpreter_calls(
        ["integrate", "rolling_penny", "--dynamics", "nh", "--q=0,0,0.2,0.3", "--v=0.7,0.4",
         "--t-end", "5", "--candidates", str(cands)])
    assert code == 3 and "sqrt of negative value" in capsys.readouterr().err
    assert counts["explain", "evaluate"] > 0
    assert set(counts) <= {("explain", "evaluate"), ("explain", "autodiff")}
