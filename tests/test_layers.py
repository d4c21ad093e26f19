"""Layer rules of the package, read from its source with ``ast``, and the
interpreter's place at run time.

The runtime keeps one implementation of each sweep, the generated kernel,
and the interpreted sweeps are the tests' oracle (``tests/oracles.py``).  A
kernel failure becomes an error in one place, ``Sweep.error``
(``vaknh._kernel``): the interpreter's operation at the one node of the
failure site, on the operand values the kernel computed.  Only ``system``
(``verify_linearity``) evaluates trees with the interpreter,
``expr.evaluate``, and only ``system`` and ``_kernel`` import the
hyper-dual ``autodiff``.  Once a system is loaded, ``integrate``, ``scan``
and ``compare`` evaluate through generated kernels alone, where a kernel
fails too.

Generated kernels have one store, ``_jets._SWEEPS``: only ``_jets`` calls
the generator, ``compile_sweep`` and ``compile_gradients`` of ``_kernel``.

The reduced equations have one implementation, ``vakonomic._stage`` and its
stacked twin ``_stage_lanes``, on the buffer of the ``field`` kernel: only
``vakonomic`` calls numpy's linear algebra, and the multiplier shift made
in numpy (``_shifted``) is the tests' oracle of that kernel.  Only
``vakonomic`` builds a ``SingularMatrixError``: the error of both twins,
``_singular``, and that of ``compatibility_matrix``.  ``compile_sweep``
knows four kinds of sweep.

No module of the package, the tests or the tools imports a top-level name
that it never reads, unless the module exports it in ``__all__``, and each
private top-level name that one defines is read in its module or imported
elsewhere (the benchmark's scripts count as readers).
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from functools import cache
from pathlib import Path

import pytest

import vaknh
from vaknh import autodiff, expr, system
from vaknh.cli import run

from conftest import LINEAR_MODELS

PACKAGE = Path(vaknh.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent
AUTODIFF_USERS = {"system", "_kernel"}
INTERPRETER = {"expr", "autodiff"}
GENERATORS = {"compile_sweep", "compile_gradients"}
LINALG = ("np.linalg.", "numpy.linalg.", "linalg.", "_umath_linalg.")


def _modules():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(), filename=str(path))


def _unused_imports(tree):
    """The names that the top-level imports of a module bind and that the
    module never reads, less the names of its ``__all__``."""
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) \
                != "__future__":
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            exported.update(ast.literal_eval(node.value))
    return bound - read - exported


def test_no_module_imports_a_name_it_never_reads():
    paths = [*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py"), *(ROOT / "tools").glob("*.py")]
    unused = {path.relative_to(ROOT).as_posix(): sorted(_unused_imports(ast.parse(
        path.read_text(encoding="utf-8"), filename=str(path)))) for path in sorted(paths)}
    assert {path: names for path, names in unused.items() if names} == {}
    assert _unused_imports(ast.parse("import os, numpy.linalg as la\nfrom x import y\n"
                                     "__all__ = ['y']\nos.sep\n")) == {"la"}


def _private_names(tree):
    """The private names that the top-level statements of a module define:
    its functions, classes and assigned names that start with one
    underscore."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(name.id for name in ast.walk(target) if isinstance(name, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


@cache   # per tree: each module's tree is read once for all the others
def _taken(tree):
    """The names a module takes from others: imported by name, or read as
    an attribute."""
    return {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names} | {node.attr for node in ast.walk(tree)
                                        if isinstance(node, ast.Attribute)}


def _unread_private_names(trees, path):
    """The private top-level names of the module at ``path`` that it never
    reads and that no other module of ``trees`` (path -> tree) takes."""
    tree = trees[path]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    taken = set().union(*(_taken(other) for key, other in trees.items() if key != path))
    return _private_names(tree) - read - taken


def test_every_private_top_level_name_is_read():
    defining = [*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py"),
                *(ROOT / "tools").glob("*.py")]
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in [*defining, *(ROOT / "bench").glob("*.py")]}
    unread = {path.relative_to(ROOT).as_posix(): sorted(_unread_private_names(trees, path))
              for path in sorted(defining)}
    assert {path: names for path, names in unread.items() if names} == {}
    source = ("_A = 1\n_B, C = 2, 3\ndef _f():\n    return _A\nclass _K: pass\n"
              "def __dir__(): pass\n")
    trees = {"a": ast.parse(source), "b": ast.parse("from a import _K\n")}
    assert _unread_private_names(trees, "a") == {"_B", "_f"}
    trees["b"] = ast.parse("import a\na._f()\n")
    assert _unread_private_names(trees, "a") == {"_B", "_K"}


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


def test_only_system_references_the_interpreter():
    users = {name for name, tree in _modules()
             if name not in INTERPRETER and _references_evaluate(tree)}
    assert users == {"system"}


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


def _enclosing_functions(tree):
    """Map each node of ``tree`` to the name of the innermost function
    around it, or "<module>"."""
    where = {}

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            where[child] = name
            visit(child, child.name if isinstance(child, (ast.FunctionDef,
                                                          ast.AsyncFunctionDef)) else name)
    visit(tree, "<module>")
    return where


def test_only_vakonomic_builds_a_singular_matrix_error():
    builders = set()
    for name, tree in _modules():
        where = _enclosing_functions(tree)
        builders.update((name, where[node]) for node in ast.walk(tree)
                        if isinstance(node, ast.Call)
                        and _dotted(node.func).split(".")[-1] == "SingularMatrixError")
    assert builders == {("vakonomic", "_singular"), ("vakonomic", "compatibility_matrix")}


def test_compile_sweep_knows_four_kinds():
    (compile_sweep,) = [node for node in ast.walk(dict(_modules())["_kernel"])
                        if isinstance(node, ast.FunctionDef) and node.name == "compile_sweep"]
    kinds = [key.value for node in ast.walk(compile_sweep) if isinstance(node, ast.Dict)
             for key in node.keys if isinstance(key, ast.Constant)]
    assert sorted(kinds) == ["ambient", "field", "lift", "restricted"]


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
    of the code of ``autodiff`` by the frame they run under: "verify"
    (``system.verify_linearity``) or "elsewhere".  Returns the exit code and
    the counts."""
    inside = {system.verify_linearity.__code__: "verify"}
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
_PENNY = ["rolling_penny", "--dynamics", "nh", "--q=0,0,0.2,0.3", "--v=0.7,0.4", "--t-end", "5"]


@pytest.mark.parametrize("command, candidates, code, error", [
    (["integrate", "martinet", "--dynamics", "vak", "--method", "rk45", "--t-end", "0.2"],
     _CANDIDATES + "C4 = p_z*y\n", 0, ""),
    (["integrate", "martinet", "--dynamics", "vak", "--method", "rk4", "--t-end", "0.2"],
     _CANDIDATES + "C4 = p_z*y\n", 0, ""),
    (["integrate", "martinet", "--dynamics", "nh", "--method", "rk45", "--t-end", "0.2"],
     _CANDIDATES, 0, ""),
    (["integrate", "martinet", "--dynamics", "nh", "--method", "rk4", "--t-end", "0.2"],
     _CANDIDATES, 0, ""),
    (["scan", "martinet", "--samples", "20"], _CANDIDATES + "C4 = p_z*y\n", 0, ""),
    (["scan", "martinet", "--samples", "20", "--p-mode", "legendre"],
     _CANDIDATES + "C4 = p_z*y\n", 0, ""),
    (["compare", "martinet"], _CANDIDATES + "C4 = p_z*y\n", 0, ""),
    # Where a kernel fails, its failure site puts the failure into words.
    (["integrate", *_PENNY], "C = sqrt(0.3 - x)\n", 3,
     ": sqrt of negative value -0.06830998743549138 in 'sqrt(0.3 - x)'\n"),
    (["scan", "martinet", "--samples", "20", "--p-mode", "legendre"],
     _CANDIDATES + "K = 1/0\n", 0, ""),
    (["compare", "martinet"], _CANDIDATES + "K = 1/0\n", 3,
     "numeric error: division by zero in '1.0 / 0.0'\n"),
], ids=["integrate-vak-rk45", "integrate-vak-rk4", "integrate-nh-rk45", "integrate-nh-rk4",
        "scan-random", "scan-legendre", "compare", "integrate-failing-candidate",
        "scan-failing-candidate", "compare-failing-candidate"])
def test_commands_evaluate_only_through_kernels_after_load(command, candidates, code, error,
                                                           tmp_path, capsys):
    # The command's own load is counted too: the tree walk certifies
    # martinet and the penny, so nothing is sampled.
    cands = tmp_path / "cands.txt"
    cands.write_text(candidates)
    state = [] if command[0] == "scan" or "rolling_penny" in command else \
        _STATE[:4 if "nh" in command else 6]
    got, counts = _interpreter_calls([*command, *state, "--candidates", str(cands)])
    err = capsys.readouterr().err
    assert got == code and err.endswith(error) and bool(err) == bool(error), err
    assert counts == Counter()
