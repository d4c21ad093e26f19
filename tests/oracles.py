"""Independent reference implementations used as test oracles.

* ``reference_evaluate``: a direct recursive evaluator for the expression
  language, kept deliberately separate from the package evaluator but with
  identical operation order, so results must agree to 0 ULP.

* ``reference_psi_table``, ``reference_ambient_table`` and
  ``reference_ambient_velocity_gradient``: the interpreted sweeps, one pass
  of hyper-dual numbers through ``expr.evaluate``, which the package's
  kernels are generated from and must equal bit for bit.
  ``reference_restricted_table`` adds the jet of the restricted Lagrangian
  L~ to the jets of psi: the interpreted sweep of the tests' own kernel of
  psi and L~ (``test_kernel.lagrangian_table``), since no package kernel
  returns that jet on its own (the ``field`` kernel shifts it at once by
  the multipliers, and no package code reads it).  The package keeps no
  interpreted sweep: where a kernel fails, ``Sweep.error`` runs
  the interpreter's operation at the one node of the failure site, so
  these stay an independent oracle, of the error texts too.  Their Hessians
  need not be exactly symmetric: on the two sides of the diagonal, the
  product rule adds its two cross products in opposite orders, and the
  chain rule forms (f'' g_i) g_j on one side and (f'' g_j) g_i on the
  other.

* ``reference_complete_velocities``: the completed velocities with each
  psi evaluated through ``expr.evaluate`` on plain floats, the oracle of
  the values kernel of psi that the package completes velocities with.

* ``reference_lift``: those completed velocities, then
  ``reference_ambient_velocity_gradient`` at them, then L evaluated there
  by ``expr.evaluate`` on plain floats, the oracle of the ``lift`` kernel
  (the Legendre lift).

* ``reference_energy``: the mechanical energy v . dL/dv - L with L from
  ``expr.evaluate``, the formula the nonholonomic energy row used before it
  read L from the lift kernel.

* ``reference_det_threshold``: the determinant guard's det and threshold
  as the package formed them before the threshold moved to Python floats
  (``vakonomic._threshold``), with numpy's scalar power: the reference the
  threshold and the stage's certified skip of the det are checked against.

* ``_shifted``: the multiplier shift Lambda = L~ - mult . psi of a
  table of psi and L~, made in numpy on its rows: the oracle of the ``field``
  kernel, which the package's reduced equations (``vakonomic._stage`` and
  its stacked twin ``_stage_lanes``) read and which carries the same
  shift on in generated code.

* ``curvature``, ``g_residuals``, ``field_residual``,
  ``tangency_residuals``, ``evaluate_one`` and ``scan``: the comparison
  quantities evaluated state by state, the reference for the batched
  evaluation that ``compare`` and ``scan`` share.

* ``vak_dae_trajectory`` / ``nh_dae_trajectory``: brute-force solvers that
  integrate the *ambient* formulations of the two dynamics.  Each step
  solves an (n+m) x (n+m) linear system for the full accelerations and the
  multiplier unknowns, with the constraints imposed only through their time
  derivative -- a completely different route to the flow than the reduced
  equations in the package.  Integration is delegated to scipy's RK45, so
  the stepper is independent too.
"""

import math

import numpy as np
from numpy.linalg import _umath_linalg
from scipy.integrate import solve_ivp

from vaknh import _jets, expr as E
from vaknh._jets import Jet, RestrictedTable
from vaknh.autodiff import HyperDual, partial
from vaknh.comparison import ComparisonRecord, ComparisonReport, _draw
from vaknh.errors import EvalError, SingularMatrixError
from vaknh.nonholonomic import nh_rhs
from vaknh.system import NhState, VakState, check_state, require_linear, state_env
from vaknh.vakonomic import DET_RTOL, vak_rhs


# ---------------------------------------------------------------------------
# Expression reference evaluator
# ---------------------------------------------------------------------------


def reference_evaluate(e, env):
    if isinstance(e, E.Const):
        return e.value
    if isinstance(e, E.Var):
        return env[e.name]
    if isinstance(e, E.Unary):
        x = reference_evaluate(e.arg, env)
        if e.op == "neg":
            return -x
        if e.op == "sqrt":
            if x < 0:
                raise ValueError("sqrt domain")
            return math.sqrt(x)
        if e.op == "log":
            if x <= 0:
                raise ValueError("log domain")
            return math.log(x)
        return getattr(math, e.op)(x)
    if isinstance(e, E.Binary):
        a = reference_evaluate(e.left, env)
        b = reference_evaluate(e.right, env)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if b == 0:
            raise ZeroDivisionError("division by zero")
        return a / b
    if isinstance(e, E.Power):
        x = reference_evaluate(e.base, env)
        if e.integer:
            n = int(e.exponent)
            if n == 0:
                return 1.0
            result = x
            for _ in range(abs(n) - 1):
                result = result * x
            if n < 0:
                if result == 0:
                    raise ZeroDivisionError("zero base, negative exponent")
                return 1.0 / result
            return result
        if x <= 0:
            raise ValueError("pow domain")
        return math.pow(x, e.exponent)
    raise TypeError(e)


# ---------------------------------------------------------------------------
# Interpreted sweeps
# ---------------------------------------------------------------------------
#
# One sweep of HyperDual numbers with identity-seeded array channels through
# expr.evaluate: the interpreter the package's kernels are generated from.
# The generated kernels behind _jets.restricted_table, ambient_table and
# ambient_velocity_gradient (the lift), and the tests' kernel of psi and L~,
# are code under test.


def _seed_variables(values):
    """Map name -> HyperDual seeded so channel arrays broadcast into the
    (gradient, Hessian) of any function of these variables."""
    k = len(values)
    env = {}
    for i, (name, value) in enumerate(values):
        d1 = np.zeros((k, 1))
        d1[i, 0] = 1.0
        d2 = np.zeros((1, k))
        d2[0, i] = 1.0
        env[name] = HyperDual(float(value), d1, d2, 0.0)
    return env


def _parts(result, k):
    """Extract (value, gradient, hessian) from a hyper-dual sweep result."""
    if not isinstance(result, HyperDual):  # expression without seeded vars
        return float(result), np.zeros(k), np.zeros((k, k))
    value = float(result.value)
    grad = np.broadcast_to(np.asarray(result.d1, dtype=float), (k, 1))[:, 0].copy()
    hess = np.broadcast_to(np.asarray(result.d12, dtype=float), (k, k)).copy()
    return value, grad, hess


def _reference_table(sys, q, v, trees) -> RestrictedTable:
    """The jets of psi, then of ``trees``, in (positions, base velocities):
    each dependent velocity is substituted as the hyper-dual of its psi, so
    the later jets chain through the constraint completion."""
    n, m = sys.n, sys.m
    k = n + (n - m)
    names = list(sys.coords) + [sys.velocity_of(c) for c in sys.base]
    values = list(zip(names, list(q) + list(v)))
    env = _seed_variables(values)
    jets = []
    for c in sys.dependent:
        value = E.evaluate(sys.psi[c], env)
        jets.append(Jet(*_parts(value, k)))
        env[sys.velocity_of(c)] = value
    jets += [Jet(*_parts(E.evaluate(tree, env), k)) for tree in trees]
    rows = [np.concatenate([[jet.value], jet.grad, jet.hess.ravel()]) for jet in jets]
    return RestrictedTable(rows=np.array(rows), n=n, m=m)


def reference_psi_table(sys, q, v) -> RestrictedTable:
    """Interpreted :func:`restricted_table`: the jets of psi alone."""
    return _reference_table(sys, q, v, [])


def reference_restricted_table(sys, q, v) -> RestrictedTable:
    """The jets of psi, then of the restricted Lagrangian L~, m+1 rows: the
    interpreted sweep of the tests' kernel of psi and L~
    (``test_kernel.lagrangian_table``), whose rows the field kernel's
    oracle shifts."""
    return _reference_table(sys, q, v, [sys.lagrangian])


def reference_ambient_table(sys, q, v_full) -> Jet:
    """Interpreted :func:`ambient_table`: the jet of L in (positions, all
    velocities)."""
    names = list(sys.coords) + [sys.velocity_of(c) for c in sys.coords]
    values = list(zip(names, list(q) + list(v_full)))
    env = _seed_variables(values)
    return Jet(*_parts(E.evaluate(sys.lagrangian, env), 2 * sys.n))


def reference_ambient_velocity_gradient(sys, q, v_full) -> np.ndarray:
    """The interpreted gradient of L in the velocities at (q, v_full)."""
    n = sys.n
    vel_names = [sys.velocity_of(c) for c in sys.coords]
    values = list(zip(vel_names, v_full))
    env = _seed_variables(values)
    for i, c in enumerate(sys.coords):
        env[c] = float(q[i])
    result = E.evaluate(sys.lagrangian, env)
    _, grad, _ = _parts(result, n)
    return grad


def reference_complete_velocities(sys, s) -> np.ndarray:
    """The n velocities at the state ``s``: its base velocities, and each
    psi evaluated by the interpreter in declaration order."""
    env = state_env(sys, s)
    full = np.empty(sys.n)
    full[sys.base_positions] = s.v
    for c, pos in zip(sys.dependent, sys.dependent_positions):
        full[pos] = E.evaluate(sys.psi[c], env)
    return full


def reference_lift(sys, q, v) -> np.ndarray:
    """The interpreted :func:`ambient_velocity_gradient`: the completed
    velocities at (q, v), then the gradient of L in the velocities there,
    then the value of L there on plain floats."""
    full = reference_complete_velocities(sys, NhState(q, v))
    momenta = reference_ambient_velocity_gradient(sys, q, full)
    env = dict(zip(sys.coords, map(float, q)))
    env.update(zip(map(sys.velocity_of, sys.coords), full.tolist()))
    return np.concatenate([full, momenta, [E.evaluate(sys.lagrangian, env)]])


def reference_energy(sys, s) -> float:
    """The mechanical energy at the state ``s``: the dot product of the
    completed velocities with their momenta, less L evaluated by the
    interpreter at the completed velocities (``reference_lift``)."""
    n = sys.n
    lift = reference_lift(sys, s.q, s.v)
    return float(np.dot(lift[:n], lift[n:2 * n]) - lift[2 * n])


def reference_det_threshold(c, order):
    """det(c) and DET_RTOL * max|entry|^order, NaN where an entry is NaN,
    per matrix of a stack: each largest entry raised with numpy's scalar
    power, which rounds differently from its array power."""
    if c.ndim > 2:
        largest = np.abs(c).max(axis=(-2, -1)).tolist()
        return (_umath_linalg.det(c, signature="d->d"),
                DET_RTOL * np.array([np.float64(x) ** order for x in largest]))
    sizes = [abs(x) for row in c.tolist() for x in row]
    largest = math.nan if any(map(math.isnan, sizes)) else max(sizes)
    return (float(_umath_linalg.det(c, signature="d->d")),
            DET_RTOL * np.float64(largest) ** order)


def _shifted(tab, mult) -> Jet:
    """Jet of the shifted Lagrangian Lambda = L~ - mult . psi over the
    variables of the table of psi and L~ ``tab``: the one place where the
    multipliers enter the reduced equations, at one state."""
    rows = tab.rows
    row = rows[..., tab.m, :]
    for j in range(tab.m):
        row = row - mult[..., j, None] * rows[..., j, :]
    return tab.jet(row)


# ---------------------------------------------------------------------------
# Ambient DAE solvers
# ---------------------------------------------------------------------------


def _constraint_rows(sys, tab_r, qdot, mat, rhs, row0):
    """Time-derivative of the constraints: qddot_dep = d(psi)/dt."""
    nb = sys.n - sys.m
    for k, dpos in enumerate(sys.dependent_positions):
        row = row0 + k
        mat[row, dpos] = 1.0
        for a, apos in enumerate(sys.base_positions):
            mat[row, apos] = -tab_r.psi[k].grad[sys.n + a]
        rhs[row] = sum(qdot[big_a] * tab_r.psi[k].grad[big_a]
                       for big_a in range(sys.n))
    return nb


def _dphi_dvel(sys, tab_r, big_a):
    """d(constraint_k)/d(velocity_A) for constraints psi_k - dq_dep_k."""
    out = np.zeros(sys.m)
    dep = list(sys.dependent_positions)
    if big_a in dep:
        out[dep.index(big_a)] = -1.0
    else:
        a = list(sys.base_positions).index(big_a)
        for k in range(sys.m):
            out[k] = tab_r.psi[k].grad[sys.n + a]
    return out


def nh_dae_rhs(sys, q, qdot):
    """Accelerations and multipliers of the ambient nonholonomic equations."""
    n, m = sys.n, sys.m
    lag = reference_ambient_table(sys, q, qdot)
    v_base = np.array([qdot[pos] for pos in sys.base_positions])
    tab_r = reference_psi_table(sys, q, v_base)
    mat = np.zeros((n + m, n + m))
    rhs = np.zeros(n + m)
    for big_a in range(n):
        va = n + big_a
        for big_b in range(n):
            mat[big_a, big_b] = lag.hess[n + big_b, va]
        dphi = _dphi_dvel(sys, tab_r, big_a)
        for k in range(m):
            mat[big_a, n + k] = -dphi[k]
        rhs[big_a] = lag.grad[big_a] - sum(
            qdot[big_b] * lag.hess[big_b, va] for big_b in range(n))
    _constraint_rows(sys, tab_r, qdot, mat, rhs, n)
    sol = np.linalg.solve(mat, rhs)
    return sol[:n], sol[n:]


def vak_dae_rhs(sys, q, qdot, lam):
    """Accelerations and multiplier rates of the ambient vakonomic
    equations (extended multiplier form)."""
    n, m = sys.n, sys.m
    lag = reference_ambient_table(sys, q, qdot)
    v_base = np.array([qdot[pos] for pos in sys.base_positions])
    tab_r = reference_psi_table(sys, q, v_base)
    base_of = {pos: a for a, pos in enumerate(sys.base_positions)}
    mat = np.zeros((n + m, n + m))
    rhs = np.zeros(n + m)
    for big_a in range(n):
        va = n + big_a
        for big_b in range(n):
            mat[big_a, big_b] = lag.hess[n + big_b, va]
        if big_a in base_of:
            a = base_of[big_a]
            # -lam . d2(psi)/dv dv acts only on base velocity columns
            for b, bpos in enumerate(sys.base_positions):
                mat[big_a, bpos] -= sum(
                    lam[k] * tab_r.psi[k].hess[n + a, n + b]
                    for k in range(m))
        dphi = _dphi_dvel(sys, tab_r, big_a)
        for k in range(m):
            mat[big_a, n + k] = -dphi[k]
        total = lag.grad[big_a] - sum(
            qdot[big_b] * lag.hess[big_b, va] for big_b in range(n))
        for k in range(m):
            if big_a in base_of:
                a = base_of[big_a]
                total += lam[k] * sum(
                    qdot[big_b] * tab_r.psi[k].hess[big_b, n + a]
                    for big_b in range(n))
            total -= lam[k] * tab_r.psi[k].grad[big_a]
        rhs[big_a] = total
    _constraint_rows(sys, tab_r, qdot, mat, rhs, n)
    sol = np.linalg.solve(mat, rhs)
    return sol[:n], sol[n:]


def nh_dae_trajectory(sys, s0, t_eval, rtol=1e-10, atol=1e-12):
    """q(t) at the requested times from the ambient nonholonomic DAE."""
    qdot0 = reference_complete_velocities(sys, s0)
    y0 = np.concatenate([s0.q, qdot0])
    n = sys.n

    def f(_t, y):
        qddot, _ = nh_dae_rhs(sys, y[:n], y[n:])
        return np.concatenate([y[n:], qddot])

    sol = solve_ivp(f, (0.0, float(t_eval[-1])), y0, method="RK45",
                    t_eval=t_eval, rtol=rtol, atol=atol)
    assert sol.success, sol.message
    return sol.y[:n].T


def vak_dae_trajectory(sys, s0, t_eval, rtol=1e-10, atol=1e-12):
    """q(t) from the ambient vakonomic DAE.  The initial extended
    multipliers are lam = p_dep - Leg_dep, the conversion that makes the
    two formulations describe the same flow."""
    qdot0 = reference_complete_velocities(sys, s0)
    lift = reference_ambient_velocity_gradient(sys, s0.q, qdot0)
    lam0 = s0.p_dep - np.array([lift[pos] for pos in sys.dependent_positions])
    y0 = np.concatenate([s0.q, qdot0, lam0])
    n, m = sys.n, sys.m

    def f(_t, y):
        qddot, lamdot = vak_dae_rhs(sys, y[:n], y[n:2 * n], y[2 * n:])
        return np.concatenate([y[n:2 * n], qddot, lamdot])

    sol = solve_ivp(f, (0.0, float(t_eval[-1])), y0, method="RK45",
                    t_eval=t_eval, rtol=rtol, atol=atol)
    assert sol.success, sol.message
    return sol.y[:n].T


# ---------------------------------------------------------------------------
# Per-state comparison
# ---------------------------------------------------------------------------
#
# The comparison quantities evaluated one state at a time, as the package
# computed them before ``compare`` and ``scan`` shared one batched
# evaluation: on the scalar sweeps (``_jets.restricted_table``, which runs
# the scalar kernel), the package's ``vak_rhs``/``nh_rhs`` and the
# interpreted ``autodiff.partial``.  Each record keeps the first error in
# the order of the evaluation below.


def curvature(sys, q):
    require_linear(sys, "curvature")
    q = np.asarray(q, dtype=float)
    if len(q) != sys.n:
        raise ValueError(f"expected {sys.n} positions, got {len(q)}")
    n, m, base, dep = sys.n, sys.m, sys.base_positions, sys.dependent_positions
    tab = _jets.restricted_table(sys, q, np.zeros(n - m))
    psi_v = tab.grads[:, n:]
    h = tab.hessians[:, :n, n:]
    a_mat = h[:, base] + psi_v.T @ h[:, dep]
    return a_mat - a_mat.transpose(0, 2, 1)


def _leg_dep(sys, q, v):
    """Leg_dep: the Legendre momenta of the dependent velocities at (q, v),
    from the package's lift, unchecked."""
    return _jets.ambient_velocity_gradient(sys, q, v)[sys.n + sys.dependent_positions]


def g_residuals(sys, s):
    """g_b = v_a (p_dep - Leg_dep)_k R[k, a, b], summed over k, then a."""
    require_linear(sys, "g_residuals")
    check_state(sys, s)
    r = curvature(sys, s.q)
    delta = s.p_dep - _leg_dep(sys, s.q, s.v)
    g = np.zeros_like(s.v)
    for k in range(len(delta)):
        for a in range(len(s.v)):
            g = (s.v[a] * delta[k]) * r[k, a] + g
    return g


def field_residual(sys, s):
    check_state(sys, s)
    return vak_rhs(sys, s).dv - nh_rhs(sys, NhState(s.q, s.v)).dv


def _candidate_variables(sys):
    return (set(sys.coords) | {sys.velocity_of(c) for c in sys.base}
            | {"p_" + c for c in sys.dependent})


def tangency_residuals(sys, candidates, s):
    check_state(sys, s)
    allowed = _candidate_variables(sys)
    for name, g in candidates.items():
        extra = E.free_vars(g) - allowed
        if extra:
            raise EvalError(
                f"candidate {name!r} uses non-state variable(s) {sorted(extra)}")
    deriv = vak_rhs(sys, s)
    env = state_env(sys, s)
    flow = dict(zip(sys.coords, deriv.dq))
    flow.update(zip(map(sys.velocity_of, sys.base), deriv.dv))
    flow.update(zip(("p_" + c for c in sys.dependent), deriv.dp_dep))
    out = {}
    for name, g in candidates.items():
        total = 0.0
        variables = sorted(E.free_vars(g))
        if not variables:
            E.evaluate(g, env)   # a constant has residual 0 where it is defined
        for var in variables:
            total += partial(g, env, var) * flow[var]
        out[name] = float(total)
    return out


def evaluate_one(sys, i, q, v, p, candidates, linear):
    """The scan record of one sample; ``p`` is None in legendre mode."""
    try:
        if p is None:
            p = _leg_dep(sys, q, v)
        s = VakState(q, v, p)
        record = ComparisonRecord(index=i, q=list(map(float, q)), v=list(map(float, v)),
                                  p_dep=list(map(float, p)))
        if linear:
            record.g = [float(x) for x in g_residuals(sys, s)]
        record.delta_y = [float(x) for x in field_residual(sys, s)]
        if candidates:
            record.tangency = tangency_residuals(sys, candidates, s)
        return record
    except (EvalError, SingularMatrixError) as exc:
        return ComparisonRecord(index=i, q=list(map(float, q)), v=list(map(float, v)),
                                p_dep=[] if p is None else list(map(float, p)),
                                skipped=str(exc))


def scan(sys, sampler, candidates=None, tol=1e-10):
    """The report of ``comparison.scan``, evaluated sample by sample."""
    candidates = candidates or {}
    q, v, p = _draw(sys, sampler)
    records = [evaluate_one(sys, i, q[i], v[i], None if p is None else p[i],
                            candidates, sys.linear) for i in range(sampler.count)]
    evaluated = [r for r in records if r.skipped is None]

    def fraction(values):
        if not values or any(x is None for x in values):
            return None
        return sum(1 for x in values if x < tol) / len(values)

    summary = {
        "samples": sampler.count, "evaluated": len(evaluated),
        "skipped": len(records) - len(evaluated), "tol": tol, "seed": sampler.seed,
        "p_mode": sampler.p_mode,
        "fraction_g_below_tol": fraction(
            [None if r.g is None else max(map(abs, r.g)) for r in evaluated]),
        "fraction_deltay_below_tol": fraction(
            [max(map(abs, r.delta_y)) for r in evaluated]),
    }
    return ComparisonReport(system=sys.name, records=records, summary=summary)
