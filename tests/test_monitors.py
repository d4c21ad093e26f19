"""Monitor rows are read from the stage evaluations of the steppers.

Every recorded row must equal, bit for bit, a fresh evaluation of
``hamiltonian``/``w1_momenta``/``vak_rhs`` (vakonomic) or ``energy``
(nonholonomic) at the recorded state, the energy also the interpreter's
formula (``oracles.reference_energy``), and a row must make no jet sweep
beyond those of the stages.  Candidate values equal ``expr.evaluate`` at
the recorded state, from one run of a generated kernel per row.
"""

import ast

import sys

import numpy as np
import pytest

from vaknh import _jets, integrate as _integrate, nonholonomic, system, vakonomic
from vaknh._kernel import Sweep
from vaknh import expr as E
from vaknh.nonholonomic import energy
from vaknh.errors import EvalError, IntegrationError
from vaknh.system import NhState, VakState, state_env
from vaknh.vakonomic import hamiltonian, vak_rhs, w1_momenta

import oracles
from conftest import get_model, random_states

RUNS = [("rolling_penny", "rk45"), ("martinet", "rk45"), ("paramecium", "rk45"),
        ("constrained_particle", "rk45"), ("rolling_penny", "rk4"), ("martinet", "rk4")]


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _run(name, dynamics, method, index=0):
    sysdef = get_model(name)
    s = random_states(name, index + 1, 5)[index]
    s0 = s if dynamics == "vak" else NhState(s.q, s.v)
    traj = _integrate.integrate(sysdef, dynamics, s0, t_end=1.0, method=method, dt=0.05)
    return sysdef, traj


@pytest.mark.parametrize("name,method", RUNS)
def test_vak_rows_equal_fresh_evaluations(name, method):
    sysdef, traj = _run(name, "vak", method)
    assert len(traj.states) > 5
    for i, s in enumerate(traj.states):
        assert _bits(traj.monitors["H"][i]) == _bits(hamiltonian(sysdef, s))
        momenta = [traj.monitors[f"p_{c}"][i] for c in sysdef.base]
        assert _bits(momenta) == _bits(w1_momenta(sysdef, s))
        rates = [traj.monitors[f"dp_{c}"][i] for c in sysdef.dependent]
        assert _bits(rates) == _bits(vak_rhs(sysdef, s).dp_dep)


@pytest.mark.parametrize("name,method", RUNS)
def test_nh_rows_equal_fresh_energy(name, method):
    sysdef, traj = _run(name, "nh", method)
    assert len(traj.states) > 5
    for i, s in enumerate(traj.states):
        assert _bits(traj.monitors["E_L"][i]) == _bits(energy(sysdef, s))
        assert _bits(traj.monitors["E_L"][i]) == _bits(oracles.reference_energy(sysdef, s))


def _calls(fn, *targets):
    """Run fn() and count the calls of each target function's code.  The
    runs of a generated sweep (``Sweep.run``) count under the sweep's kind,
    such as "field"."""
    codes = {t.__code__: t.__name__ for t in targets}
    counts = dict.fromkeys(codes.values(), 0)

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code in codes:
            name = codes[frame.f_code]
            if frame.f_code is Sweep.run.__code__:
                name = frame.f_locals["self"].label.split()[0]
            counts[name] = counts.get(name, 0) + 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return counts


# A stage of the steppers is one call of the core, the stage that
# ``vakonomic._bind_stage`` binds once per run, on the packed state, and its
# one sweep is the fused field kernel (its ``Sweep.run``); a nonholonomic
# stage first runs its own lift kernel and appends Leg_dep from it.  Inside integrate
# no restricted table is built, and none of the per-state functions runs.


def _stage():
    """A bound stage: every binding runs the code of this one."""
    return vakonomic._bind_stage(get_model("martinet"), "vakonomic matrix")


@pytest.mark.parametrize("method", ["rk45", "rk4"])
def test_every_vak_sweep_belongs_to_a_stage(method):
    runs = []
    counts = _calls(lambda: runs.append(_run("rolling_penny", "vak", method)),
                    Sweep.run, _jets.field_sweep, _jets.restricted_table, _stage(),
                    vakonomic.vak_rhs, vakonomic.hamiltonian, vakonomic.w1_momenta)
    assert counts["stage"] > 20
    assert counts["field"] == counts["stage"] == runs[0][1].stats.evaluations
    assert counts["field_sweep"] == counts["restricted_table"] == 0
    assert counts["vak_rhs"] == counts["hamiltonian"] == counts["w1_momenta"] == 0


@pytest.mark.parametrize("method", ["rk45", "rk4"])
def test_every_nh_sweep_belongs_to_a_stage(method):
    # The stage is the bound nonholonomic stage at (q, v): one run of its
    # lift kernel, then the field kernel at (q, v, Leg_dep).
    runs = []
    counts = _calls(lambda: runs.append(_run("rolling_penny", "nh", method)),
                    Sweep.run, _jets.restricted_table,
                    _jets.ambient_velocity_gradient, _stage(),
                    nonholonomic.nh_rhs, nonholonomic.energy)
    assert counts["stage"] > 20
    assert counts["field"] == counts["lift"] == counts["stage"] == runs[0][1].stats.evaluations
    assert "gradients" not in counts   # no values kernel, of psi alone or else
    assert counts["restricted_table"] == counts["ambient_velocity_gradient"] == 0
    assert counts["energy"] == counts["nh_rhs"] == 0


@pytest.mark.parametrize("method", ["rk45", "rk4"])
def test_an_nh_run_evaluates_psi_only_in_generated_kernels(method):
    # Each stage runs one lift sweep, which completes the velocities, and
    # one field sweep: the interpreter never evaluates a psi tree.
    sysdef = get_model("rolling_penny")
    trees = list(sysdef.psi.values())
    stage = _stage().__code__
    counts = {"stage": 0, "psi": 0}

    def profile(frame, event, _arg):
        if event != "call":
            return
        if frame.f_code is stage:
            counts["stage"] += 1
        elif frame.f_code is Sweep.run.__code__:
            kind = frame.f_locals["self"].label.split()[0]
            counts[kind] = counts.get(kind, 0) + 1
        elif frame.f_code is E.evaluate.__code__ and any(
                frame.f_locals["e"] is tree for tree in trees):
            counts["psi"] += 1

    sys.setprofile(profile)
    try:
        _, traj = _run("rolling_penny", "nh", method)
    finally:
        sys.setprofile(None)
    assert traj.stats.evaluations > 20
    evaluations = traj.stats.evaluations
    assert counts == {"stage": evaluations, "lift": evaluations, "field": evaluations,
                      "psi": 0}


def test_rk45_evaluations_per_step():
    # One evaluation at the start, one for the initial step guess, then six
    # per attempted step: the row of an accepted state costs nothing more.
    sysdef = get_model("martinet")
    s0 = VakState([0, 1, 0], [0.8, -0.4], [1.2])
    counts = _calls(lambda: _integrate.integrate(sysdef, "vak", s0, t_end=0.5),
                    _stage(), vakonomic.vak_rhs)
    traj = _integrate.integrate(sysdef, "vak", s0, t_end=0.5)
    steps = len(traj.times) - 1
    assert counts["vak_rhs"] == 0
    assert (counts["stage"] - 2) % 6 == 0
    assert steps * 6 <= counts["stage"] - 2 < steps * 7
    stats = traj.stats
    assert stats.evaluations == counts["stage"]
    assert stats.accepted == steps
    assert stats.evaluations == 2 + 6 * (stats.accepted + stats.rejected)
    # A step moves t by h up to the rounding of t + h.
    h = np.diff(traj.times)
    assert stats.h_min <= stats.h_last <= stats.h_max
    assert np.allclose([stats.h_min, stats.h_max, stats.h_last],
                       [h.min(), h.max(), h[-1]], rtol=1e-12, atol=0)


def test_rows_bind_the_state_only_for_candidates():
    # Candidate values come from one run of the candidates' kernel per row;
    # no row builds an environment of the state.
    sysdef = get_model("martinet")
    s0 = VakState([0, 1, 0], [0.8, -0.4], [1.2])
    counts = _calls(lambda: _integrate.integrate(sysdef, "vak", s0, t_end=0.5),
                    system.state_env, Sweep.run)
    assert counts["state_env"] == 0 and "gradients" not in counts
    candidates = {"x": E.parse("x")}
    traj = []
    counts = _calls(lambda: traj.append(_integrate.integrate(
        sysdef, "vak", s0, t_end=0.5, candidates=candidates)), system.state_env, Sweep.run)
    assert counts["state_env"] == 0
    assert counts["gradients"] == len(traj[0].times)
    assert _bits(traj[0].monitors["G_x"]) == _bits([s.q[0] for s in traj[0].states])


CANDIDATES = {"C1": "p_z - (y^2/2)*dx", "C2": "dx^2 + dy^2", "D": "x/3 + dy/7 - 1/(y + 3)",
              "F": "exp(-x^2)*sin(dx) + sqrt(y^2 + 1)^1.5", "K": "2.5"}


@pytest.mark.parametrize("dynamics", ["vak", "nh"])
@pytest.mark.parametrize("method", ["rk45", "rk4"])
def test_candidate_rows_equal_the_interpreter(dynamics, method):
    sysdef = get_model("martinet")
    candidates = {name: E.parse(text) for name, text in CANDIDATES.items()
                  if dynamics == "vak" or "p_z" not in text}
    s0 = VakState([0, 1, 0], [0.8, -0.4], [1.2])
    traj = _integrate.integrate(sysdef, dynamics, s0 if dynamics == "vak" else NhState(
        s0.q, s0.v), t_end=1.0, method=method, dt=0.05, candidates=candidates)
    assert len(traj.states) > 5
    for name, tree in candidates.items():
        expected = [E.evaluate(tree, state_env(sysdef, s)) for s in traj.states]
        assert _bits(traj.monitors[f"G_{name}"]) == _bits(expected)


def test_a_failing_candidate_row_raises_the_interpreters_error():
    # The candidates in sorted order, the first that fails: at the start,
    # sqrt before log; mid-run, where x passes 0.3.
    sysdef = get_model("rolling_penny")
    s0 = NhState([0.0, 0.0, 0.2, 0.3], [0.7, 0.4])
    candidates = {"b": E.parse("log(x)"), "a": E.parse("sqrt(x - 1)")}
    with pytest.raises(EvalError) as expected:
        E.evaluate(candidates["a"], state_env(sysdef, s0))
    with pytest.raises(IntegrationError) as got:
        _integrate.integrate(sysdef, "nh", s0, t_end=1.0, candidates=candidates)
    assert str(got.value).endswith(f"t=0.0, q=[0.0, 0.0, 0.2, 0.3]: {expected.value}")
    tree = E.parse("sqrt(0.3 - x)")
    with pytest.raises(IntegrationError) as got:
        _integrate.integrate(sysdef, "nh", s0, t_end=5.0, candidates={"c": tree})
    assert got.value.t > 0.0
    q = ast.literal_eval(str(got.value).split("q=")[1].split("]")[0] + "]")
    with pytest.raises(EvalError) as expected:
        E.evaluate(tree, {"x": q[0]})
    assert str(got.value).endswith(f": {expected.value}")


@pytest.mark.parametrize("dynamics", ["vak", "nh"])
def test_rk4_stats_count_the_stages(dynamics):
    sysdef, traj = _run("martinet", dynamics, "rk4")
    stats = traj.stats
    steps = len(traj.times) - 1
    assert (stats.evaluations, stats.accepted, stats.rejected) == (1 + 4 * steps, steps, 0)
    assert stats.h_max == 0.05 and stats.h_min <= stats.h_last <= 0.05
