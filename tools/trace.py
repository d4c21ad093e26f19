"""Per-layer times of one ``vaknh`` command, traced from outside the package.

    python3 tools/trace.py scan martinet --samples 1000 --p-mode legendre

Runs ``vaknh.cli.run`` on the given arguments once, in this process, under
the span tracer of the benchmark (``bench/spans.py``), and discards what the
command writes to stdout.  Prints the command's exit code and wall time,
then one row per traced function that ran: its calls, its total time and
its self time (the total less the time of the traced functions it called),
the largest total first.  Then the command's evaluations by the
interpreter (top-level calls of ``expr.evaluate``) by the caller they run
under: ``system.verify_linearity``, or elsewhere; a kernel failure is put
into words from its failure site, with no evaluation.  Then one row per
generated sweep that ran, by ``Sweep.label``: its scalar runs
(``Sweep.run``, one state) and its stacked runs (``_jets.run_lanes``, one
batch of states).  For an ``integrate``
command, last, the stepper as a layer: the stage calls and their time
(the stage that ``integrate`` binds with ``vakonomic._bind_stage``: one
field run each, after one lift run in a nonholonomic stage), and the run
loop (``_run_rk45`` or ``_run_rk4``) with its own time, its total less the
stage time; then the calls of the LAPACK det gufunc, which a stage makes
only where it cannot certify its reduced matrix without it, and the
command's runs of ``system.verify_linearity``, which a load makes only for
a psi that the structural certificate leaves undecided.  The package is
not changed: the tracer wraps the functions of
``bench/spans.TARGETS``, and this script ``Sweep.run``, ``run_lanes``,
``integrate._bind_stage``, the run loops, numpy's ``_umath_linalg.det`` and
``expr.evaluate``, while the command runs.
"""

from __future__ import annotations

import contextlib
import io
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT / "bench", ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))


@contextlib.contextmanager
def counted_sweeps():
    """A ``Counter`` of the runs of each generated sweep while installed,
    keyed by (``Sweep.label``, "scalar" or "stacked"): ``Sweep.run`` is
    wrapped on its class, and ``_jets.run_lanes`` under every name a
    ``vaknh`` module binds it to."""
    from vaknh import _jets
    from vaknh._kernel import Sweep

    counts = Counter()
    run, run_lanes = Sweep.run, _jets.run_lanes

    def scalar(sweep, *args):
        counts[sweep.label, "scalar"] += 1
        return run(sweep, *args)

    def stacked(sweep, *blocks):
        counts[sweep.label, "stacked"] += 1
        return run_lanes(sweep, *blocks)

    bound = [(module, key) for name, module in list(sys.modules.items())
             if module is not None and name.split(".")[0] == "vaknh"
             for key, value in list(vars(module).items()) if value is run_lanes]
    Sweep.run = scalar
    for module, key in bound:
        setattr(module, key, stacked)
    try:
        yield counts
    finally:
        Sweep.run = run
        for module, key in bound:
            setattr(module, key, run_lanes)


@contextlib.contextmanager
def counted_evaluations():
    """A ``Counter`` of the interpreter's evaluations while installed, keyed
    by the caller they run under: "verify_linearity" or "elsewhere".  An
    evaluation is a call of ``expr.evaluate`` that is not made by
    ``expr.evaluate`` itself; it is wrapped under every name a ``vaknh``
    module binds it to."""
    import inspect

    from vaknh import expr, system

    counts = Counter()
    evaluate = expr.evaluate
    verify = inspect.unwrap(system.verify_linearity).__code__

    def counted(e, env):
        frame = sys._getframe(1)
        if frame.f_code is not evaluate.__code__:
            while frame is not None and frame.f_code is not verify:
                frame = frame.f_back
            counts["elsewhere" if frame is None else "verify_linearity"] += 1
        return evaluate(e, env)

    bound = [(module, key) for name, module in list(sys.modules.items())
             if module is not None and name.split(".")[0] == "vaknh"
             for key, value in list(vars(module).items()) if value is evaluate]
    for module, key in bound:
        setattr(module, key, counted)
    try:
        yield counts
    finally:
        for module, key in bound:
            setattr(module, key, evaluate)


@contextlib.contextmanager
def timed_stepper():
    """A ``Counter`` of the stepper's stage calls ("stage calls"), their
    time ("stage s"), its run loops ("loops"), their time ("loop s") and
    the calls of the LAPACK det gufunc ("det calls") while installed:
    ``integrate._bind_stage`` and the run loops are wrapped on their module,
    and ``det`` on numpy's ``_umath_linalg``, where a stage binds it."""
    from numpy.linalg import _umath_linalg
    from vaknh import integrate

    totals = Counter()
    det = _umath_linalg.det
    clock = time.perf_counter
    bind_stage = integrate._bind_stage
    loops = {name: getattr(integrate, name) for name in ("_run_rk45", "_run_rk4")}

    def timed_bind_stage(sys_, what):
        f = bind_stage(sys_, what)

        def stage(*args):
            start = clock()
            try:
                return f(*args)
            finally:
                totals["stage s"] += clock() - start
                totals["stage calls"] += 1
        return stage

    def counted_det(*args, **kwargs):
        totals["det calls"] += 1
        return det(*args, **kwargs)

    def timed_loop(run):
        def loop(*args):
            start = clock()
            try:
                return run(*args)
            finally:
                totals["loop s"] += clock() - start
                totals["loops"] += 1
        return loop

    integrate._bind_stage = timed_bind_stage
    _umath_linalg.det = counted_det
    for name, run in loops.items():
        setattr(integrate, name, timed_loop(run))
    try:
        yield totals
    finally:
        integrate._bind_stage = bind_stage
        _umath_linalg.det = det
        for name, run in loops.items():
            setattr(integrate, name, run)


def main(argv=None) -> int:
    from spans import Tracer
    from vaknh import cli

    argv = sys.argv[1:] if argv is None else list(argv)
    with Tracer() as tracer, counted_sweeps() as sweeps, timed_stepper() as stepper, \
            counted_evaluations() as evaluations, contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = cli.run(argv)
        wall = time.perf_counter() - start
    table = tracer.table()
    names = sorted((name for name in table.names if table.calls(name)),
                   key=table.total, reverse=True)
    print(f"vaknh {' '.join(argv)}: exit {code}, {wall * 1e3:.3f} ms")
    print(f"{'span':36s} {'calls':>7s} {'total ms':>10s} {'self ms':>10s}")
    for name in names:
        print(f"{name:36s} {table.calls(name):7d} {table.total(name) * 1e3:10.3f} "
              f"{table.self_total(name) * 1e3:10.3f}")
    print(f"{'interpreter':36s} {'calls':>7s}")
    for caller in ("verify_linearity", "elsewhere"):
        print(f"{caller:36s} {evaluations[caller]:7d}")
    labels = sorted({label for label, _ in sweeps})
    width = max([36, *map(len, labels)])
    print(f"{'sweep':{width}s} {'scalar':>7s} {'stacked':>7s}")
    for label in labels:
        print(f"{label:{width}s} {sweeps[label, 'scalar']:7d} {sweeps[label, 'stacked']:7d}")
    if stepper["loops"]:
        stage_ms, loop_ms = stepper["stage s"] * 1e3, stepper["loop s"] * 1e3
        print(f"{'stepper':36s} {'calls':>7s} {'total ms':>10s} {'self ms':>10s}")
        print(f"{'stage':36s} {stepper['stage calls']:7d} {stage_ms:10.3f} {stage_ms:10.3f}")
        print(f"{'run loop':36s} {stepper['loops']:7d} {loop_ms:10.3f} "
              f"{loop_ms - stage_ms:10.3f}")
        print(f"{'det':36s} {stepper['det calls']:7d}")
        print(f"{'verify_linearity':36s} {table.calls('system.verify_linearity'):7d}")
    return code


if __name__ == "__main__":
    sys.exit(main())
