"""Command-line front end.

Subcommands
-----------
check      load a system, verify admissibility and the linearity
           declaration, probe the symplectic and compatibility tests
integrate  integrate either dynamics and write the trajectory as CSV
compare    evaluate the comparison residuals at a single state (JSON)
scan       sample a state-space box and write a comparison report (JSON)
catalog    list the built-in models

Exit codes: 0 success, 1 usage/IO/parse error, 2 failed check,
3 numeric diagnostic (singular matrix, domain error, failed integration).

A state vector or a numeric option may start with a minus sign:
``--q -0.3,0.5`` and ``--q=-0.3,0.5`` are the same, and so are
``--atol -1e-9`` and ``--atol=-1e-9``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys as _sys

import numpy as np

from . import comparison, integrate as _integrate, models
from .errors import (AdmissibilityError, EvalError, IntegrationError, LinearityError,
                     SingularMatrixError, SystemFormatError, VaknhError)
from .models import builtin, builtin_names
from .system import (NhState, SystemDef, VakState, load_system,
                     verify_linearity)
from .vakonomic import compatibility_matrix, det_threshold, symplectic_check

__all__ = ["run", "main"]


class _UsageError(Exception):
    pass


# The options whose value is a number or a comma-separated vector.
_NUMBER_FLAGS = ("--q", "--v", "--p", "--t-end", "--dt", "--rtol", "--atol", "--tol")


def _join_vectors(argv):
    """Rewrite ``--q -0.3,0.5`` as ``--q=-0.3,0.5`` and ``--atol -1e-9`` as
    ``--atol=-1e-9``: argparse takes a value that starts with a minus sign
    and is not a plain decimal number, such as a vector, a number in
    exponent form or ``-inf`` (``float``'s ``inf`` and ``nan``, any case)."""
    out = []
    for arg in argv:
        if out and out[-1] in _NUMBER_FLAGS and re.match(r"-(\.?\d|inf|nan)", arg, re.I):
            arg = f"{out.pop()}={arg}"
        out.append(arg)
    return out


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="vaknh", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_system(p):
        p.add_argument("system", help="builtin model name or path to a system file")

    def add_state(p, p_required=False):
        p.add_argument("--q", help="comma-separated positions")
        p.add_argument("--v", help="comma-separated base velocities")
        p.add_argument("--p", help="comma-separated constraint multipliers",
                       required=p_required)

    p_check = sub.add_parser("check", help="structural and pointwise checks")
    add_system(p_check)
    add_state(p_check)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--samples", type=int, default=25)

    p_int = sub.add_parser("integrate", help="integrate a trajectory to CSV")
    add_system(p_int)
    add_state(p_int)
    p_int.add_argument("--dynamics", choices=("vak", "nh"), required=True)
    p_int.add_argument("--t-end", type=float, required=True)
    p_int.add_argument("--method", choices=("rk4", "rk45"), default="rk45")
    p_int.add_argument("--dt", type=float, default=_integrate.DEFAULT_DT)
    p_int.add_argument("--rtol", type=float, default=_integrate.DEFAULT_RTOL)
    p_int.add_argument("--atol", type=float, default=_integrate.DEFAULT_ATOL)
    p_int.add_argument("--max-steps", type=int, default=1_000_000)
    p_int.add_argument("--candidates", help="file of named candidate expressions")
    p_int.add_argument("--out", help="output CSV path (default: stdout)")

    p_cmp = sub.add_parser("compare", help="comparison residuals at one state")
    add_system(p_cmp)
    add_state(p_cmp, p_required=True)
    p_cmp.add_argument("--candidates")
    p_cmp.add_argument("--tol", type=float, default=1e-10)

    p_scan = sub.add_parser("scan", help="sampled comparison report")
    add_system(p_scan)
    p_scan.add_argument("--samples", type=int, default=100)
    p_scan.add_argument("--seed", type=int, default=0)
    p_scan.add_argument("--p-mode", choices=("random", "legendre"), default="random")
    p_scan.add_argument("--tol", type=float, default=1e-10)
    p_scan.add_argument("--candidates")
    p_scan.add_argument("--out", help="output JSON path (default: stdout)")

    sub.add_parser("catalog", help="list built-in models")
    return parser


_PARSER = _build_parser()   # built once per process


def _load(source: str) -> tuple[SystemDef, models.CatalogEntry | None]:
    """The system of ``source``, a file where one exists, else a builtin,
    and the builtin's catalog entry (None for a file)."""
    if os.path.exists(source):
        with open(source, "r", encoding="utf-8") as fh:
            return load_system(fh.read()), None
    if source in models.CATALOG:
        return builtin(source), models.CATALOG[source]
    raise SystemFormatError(
        f"{source!r} is neither a file nor a builtin; "
        f"builtins: {', '.join(builtin_names())}")


def _vector(text, length, what, default=None):
    if text is None:
        if default is None:
            raise _UsageError(f"--{what} is required here")
        return np.full(length, default)
    try:
        values = np.array([float(x) for x in text.split(",")])
    except ValueError:
        raise _UsageError(f"--{what} must be comma-separated numbers") from None
    if len(values) != length:
        raise _UsageError(f"--{what} needs {length} components, got {len(values)}")
    if not np.isfinite(values).all():
        raise _UsageError(f"--{what} must be finite numbers")
    return values


def _require_sampling(args):
    """Reject a ``--samples`` below 1 and a negative ``--seed`` before the
    command writes anything."""
    if args.samples < 1:
        raise _UsageError(f"--samples must be at least 1, got {args.samples}")
    if args.seed < 0:
        raise _UsageError(f"--seed must be non-negative, got {args.seed}")


def _load_candidates(path):
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        return comparison.parse_candidates(fh.read())


def _strict_json(dump):
    """Run ``dump``, a JSON serializer called with ``allow_nan=False``; a
    NaN or an infinity in the result is a numeric error, not output."""
    try:
        return dump()
    except ValueError as exc:
        raise EvalError(f"result is not finite: {exc}") from None


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        _sys.stdout.write(text)
        if not text.endswith("\n"):
            _sys.stdout.write("\n")


def _cmd_catalog(args) -> int:
    for name in builtin_names():
        entry = models.CATALOG[name]
        sysdef = builtin(name)
        kind = "linear" if sysdef.declared_linear else "nonlinear"
        print(f"{name:22s} n={sysdef.n} m={sysdef.m} {kind:9s} {entry.describe}")
    return 0


def _cmd_check(args) -> int:
    _require_sampling(args)
    try:
        sysdef, _ = _load(args.system)
    except AdmissibilityError as exc:
        print(f"admissibility: FAIL ({exc})")
        return 2
    except LinearityError as exc:
        print(f"linearity: FAIL ({exc})")
        return 2
    print(f"system: {sysdef.name} (n={sysdef.n}, m={sysdef.m})")
    print("admissibility: PASS")
    ok = True

    # A sample can refute linearity but not prove it: the samples seek a
    # witness against "linear true"; else the decision of scan and compare.
    linear = (verify_linearity(sysdef, samples=args.samples, seed=args.seed).linear
              if sysdef.declared_linear else sysdef.linear)
    match = linear == sysdef.declared_linear
    print(f"linearity: declared {str(sysdef.declared_linear).lower()}, "
          f"verified {str(linear).lower()}: {'PASS' if match else 'FAIL'}")
    ok &= match

    q = _vector(args.q, sysdef.n, "q", default=1.0)
    v = _vector(args.v, sysdef.n - sysdef.m, "v", default=0.5)
    p = _vector(args.p, sysdef.m, "p", default=1.0)
    probe = VakState(q, v, p)
    sym = symplectic_check(sysdef, probe)
    print(f"symplectic at probe: det = {sym.det!r}, "
          f"{'invertible: PASS' if sym.invertible else 'singular: FAIL'}")
    ok &= sym.invertible

    if linear:
        cmat = compatibility_matrix(sysdef, q)
        det, threshold = det_threshold(cmat, sysdef.m)
        invertible = abs(det) > threshold
        rows = "; ".join(", ".join(repr(float(x)) for x in row) for row in cmat)
        print(f"compatibility matrix at probe q: [{rows}]")
        print(f"compatibility at probe q: det = {det!r}, "
              f"{'invertible: PASS' if invertible else 'singular: FAIL'}")
        ok &= invertible
    else:
        print("compatibility: skipped (nonlinear constraints)")

    return 0 if ok else 2


def _cmd_integrate(args) -> int:
    sysdef, _ = _load(args.system)
    q = _vector(args.q, sysdef.n, "q")
    v = _vector(args.v, sysdef.n - sysdef.m, "v")
    candidates = _load_candidates(args.candidates)
    if args.dynamics == "vak":
        p = _vector(args.p, sysdef.m, "p")
        s0 = VakState(q, v, p)
    else:
        s0 = NhState(q, v)
    traj = _integrate.integrate(
        sysdef, args.dynamics, s0, t_end=args.t_end, method=args.method,
        dt=args.dt, rtol=args.rtol, atol=args.atol, max_steps=args.max_steps,
        candidates=candidates)
    _emit(_integrate.trajectory_to_csv(sysdef, traj), args.out)
    return 0


def _cmd_compare(args) -> int:
    comparison._require_tol(args.tol)
    sysdef, _ = _load(args.system)
    q = _vector(args.q, sysdef.n, "q")
    v = _vector(args.v, sysdef.n - sysdef.m, "v")
    p = _vector(args.p, sysdef.m, "p")
    payload = {
        "system": sysdef.name,
        "state": {"q": q.tolist(), "v": v.tolist(), "p": p.tolist()},
        "tol": args.tol,
        **comparison.compare_state(sysdef, VakState(q, v, p),
                                   _load_candidates(args.candidates)),
    }
    print(_strict_json(lambda: json.dumps(payload, indent=2, allow_nan=False)))
    return 0


def _cmd_scan(args) -> int:
    _require_sampling(args)
    sysdef, entry = _load(args.system)
    if entry is not None:
        box = entry.sample_box
    else:
        box = {"q": [(-1.0, 1.0)] * sysdef.n,
               "v": [(-1.0, 1.0)] * (sysdef.n - sysdef.m),
               "p": [(-1.0, 1.0)] * sysdef.m}
    sampler = comparison.Sampler(
        count=args.samples, seed=args.seed,
        q_bounds=tuple(box["q"]), v_bounds=tuple(box["v"]),
        p_bounds=tuple(box["p"]), p_mode=args.p_mode)
    report = comparison.scan(sysdef, sampler,
                             candidates=_load_candidates(args.candidates),
                             tol=args.tol)
    _emit(_strict_json(lambda: report.to_json(indent=2)), args.out)
    return 0


_COMMANDS = {
    "catalog": _cmd_catalog,
    "check": _cmd_check,
    "integrate": _cmd_integrate,
    "compare": _cmd_compare,
    "scan": _cmd_scan,
}


def run(argv=None) -> int:
    """Parse arguments and execute; returns the process exit code."""
    argv = _join_vectors(_sys.argv[1:] if argv is None else argv)
    try:
        args = _PARSER.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1
    try:
        # Overflow and the like are caught by the commands' own finiteness
        # checks and reported once; numpy's warnings would only repeat them.
        with np.errstate(all="ignore"):
            return _COMMANDS[args.command](args)
    except (SingularMatrixError, EvalError, IntegrationError, np.linalg.LinAlgError) as exc:
        print(f"numeric error: {exc}", file=_sys.stderr)
        return 3
    except (_UsageError, ValueError, VaknhError, OSError) as exc:
        # Any other ValueError is the library rejecting an argument, such
        # as a negative --t-end.
        print(f"error: {exc}", file=_sys.stderr)
        return 1


def main() -> None:
    _sys.exit(run())


if __name__ == "__main__":
    main()
