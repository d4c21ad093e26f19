"""Monitor rows are read from the stage evaluations of the steppers.

Every recorded row must equal, bit for bit, a fresh evaluation of
``hamiltonian``/``w1_momenta``/``vak_rhs`` (vakonomic) or ``energy``
(nonholonomic) at the recorded state, and a row must make no jet sweep
beyond those of the stages.
"""

import sys

import numpy as np
import pytest

from vaknh import _jets, integrate as _integrate, nonholonomic, system, vakonomic
from vaknh import expr as E
from vaknh.nonholonomic import energy
from vaknh.system import NhState, VakState
from vaknh.vakonomic import hamiltonian, vak_rhs, w1_momenta

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


def _calls(fn, *targets):
    """Run fn() and count the calls of each target function's code."""
    codes = {t.__code__: t.__name__ for t in targets}
    counts = dict.fromkeys(codes.values(), 0)

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code in codes:
            counts[codes[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return counts


# A stage of the steppers is one call of the core, ``vakonomic._stage``, from
# the packed state, and its one sweep is the fused field kernel
# (field_sweep); a nonholonomic stage appends Leg_dep from one Legendre lift
# (completion, then ambient_velocity_gradient).  Inside integrate no
# restricted table is built, and none of the per-state functions runs.


@pytest.mark.parametrize("method", ["rk45", "rk4"])
def test_every_vak_sweep_belongs_to_a_stage(method):
    counts = _calls(lambda: _run("rolling_penny", "vak", method),
                    _jets.field_sweep, _jets.restricted_table, vakonomic._stage,
                    vakonomic.vak_rhs, vakonomic.hamiltonian, vakonomic.w1_momenta)
    assert counts["_stage"] > 20
    assert counts["field_sweep"] == counts["_stage"]
    assert counts["restricted_table"] == 0
    assert counts["vak_rhs"] == counts["hamiltonian"] == counts["w1_momenta"] == 0


@pytest.mark.parametrize("method", ["rk45", "rk4"])
def test_every_nh_sweep_belongs_to_a_stage(method):
    # The stage is ``vakonomic._stage`` at (q, v, Leg_dep), with Leg_dep
    # from one Legendre lift.
    counts = _calls(lambda: _run("rolling_penny", "nh", method),
                    _jets.field_sweep, _jets.restricted_table,
                    _jets.ambient_velocity_gradient, vakonomic._stage,
                    nonholonomic.nh_rhs, nonholonomic.energy)
    assert counts["_stage"] > 20
    assert counts["field_sweep"] == counts["ambient_velocity_gradient"] \
        == counts["_stage"]
    assert counts["restricted_table"] == 0
    assert counts["energy"] == counts["nh_rhs"] == 0


@pytest.mark.parametrize("method", ["rk45", "rk4"])
def test_an_nh_run_evaluates_psi_only_in_generated_kernels(method):
    # Each stage runs one Legendre lift and one field sweep, and the
    # velocities are completed by the completion kernel: the interpreter
    # never evaluates a psi tree.
    sysdef = get_model("rolling_penny")
    trees = list(sysdef.psi.values())
    codes = {_jets.field_sweep.__code__: "field_sweep",
             _jets.ambient_velocity_gradient.__code__: "ambient_velocity_gradient"}
    counts = {"field_sweep": 0, "ambient_velocity_gradient": 0, "psi": 0}

    def profile(frame, event, _arg):
        if event != "call":
            return
        if frame.f_code in codes:
            counts[codes[frame.f_code]] += 1
        elif frame.f_code is E.evaluate.__code__ and any(
                frame.f_locals["e"] is tree for tree in trees):
            counts["psi"] += 1

    sys.setprofile(profile)
    try:
        _, traj = _run("rolling_penny", "nh", method)
    finally:
        sys.setprofile(None)
    assert traj.stats.evaluations > 20
    assert counts == {"field_sweep": traj.stats.evaluations,
                      "ambient_velocity_gradient": traj.stats.evaluations, "psi": 0}


def test_rk45_evaluations_per_step():
    # One evaluation at the start, one for the initial step guess, then six
    # per attempted step: the row of an accepted state costs nothing more.
    sysdef = get_model("martinet")
    s0 = VakState([0, 1, 0], [0.8, -0.4], [1.2])
    counts = _calls(lambda: _integrate.integrate(sysdef, "vak", s0, t_end=0.5),
                    vakonomic._stage, vakonomic.vak_rhs)
    traj = _integrate.integrate(sysdef, "vak", s0, t_end=0.5)
    steps = len(traj.times) - 1
    assert counts["vak_rhs"] == 0
    assert (counts["_stage"] - 2) % 6 == 0
    assert steps * 6 <= counts["_stage"] - 2 < steps * 7
    stats = traj.stats
    assert stats.evaluations == counts["_stage"]
    assert stats.accepted == steps
    assert stats.evaluations == 2 + 6 * (stats.accepted + stats.rejected)
    # A step moves t by h up to the rounding of t + h.
    h = np.diff(traj.times)
    assert stats.h_min <= stats.h_last <= stats.h_max
    assert np.allclose([stats.h_min, stats.h_max, stats.h_last],
                       [h.min(), h.max(), h[-1]], rtol=1e-12, atol=0)


def test_rows_bind_the_state_only_for_candidates():
    sysdef = get_model("martinet")
    s0 = VakState([0, 1, 0], [0.8, -0.4], [1.2])
    counts = _calls(lambda: _integrate.integrate(sysdef, "vak", s0, t_end=0.5),
                    system.state_env)
    assert counts["state_env"] == 0
    candidates = {"x": E.parse("x")}
    traj = []
    counts = _calls(lambda: traj.append(_integrate.integrate(
        sysdef, "vak", s0, t_end=0.5, candidates=candidates)), system.state_env)
    assert counts["state_env"] == len(traj[0].times)
    assert _bits(traj[0].monitors["G_x"]) == _bits([s.q[0] for s in traj[0].states])


@pytest.mark.parametrize("dynamics", ["vak", "nh"])
def test_rk4_stats_count_the_stages(dynamics):
    sysdef, traj = _run("martinet", dynamics, "rk4")
    stats = traj.stats
    steps = len(traj.times) - 1
    assert (stats.evaluations, stats.accepted, stats.rejected) == (1 + 4 * steps, steps, 0)
    assert stats.h_max == 0.05 and stats.h_min <= stats.h_last <= 0.05
