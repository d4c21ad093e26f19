"""Monitor rows are read from the stage evaluations of the steppers.

Every recorded row must equal, bit for bit, a fresh evaluation of
``hamiltonian``/``w1_momenta``/``vak_rhs`` (vakonomic) or ``energy``
(nonholonomic) at the recorded state, and a row must make no jet sweep
beyond those of the stages.
"""

import sys

import numpy as np
import pytest

from vaknh import _jets, integrate as _integrate, nonholonomic, vakonomic
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


# A stage's one sweep is the fused field kernel (field_sweep); inside
# integrate no restricted table is built.


@pytest.mark.parametrize("method", ["rk45", "rk4"])
def test_every_vak_sweep_belongs_to_a_stage(method):
    counts = _calls(lambda: _run("rolling_penny", "vak", method),
                    _jets.field_sweep, _jets.restricted_table, vakonomic.vak_rhs,
                    vakonomic.hamiltonian, vakonomic.w1_momenta)
    assert counts["vak_rhs"] > 20
    assert counts["field_sweep"] == counts["vak_rhs"]
    assert counts["restricted_table"] == 0
    assert counts["hamiltonian"] == counts["w1_momenta"] == 0


@pytest.mark.parametrize("method", ["rk45", "rk4"])
def test_every_nh_sweep_belongs_to_a_stage(method):
    counts = _calls(lambda: _run("rolling_penny", "nh", method),
                    _jets.field_sweep, _jets.restricted_table,
                    _jets.ambient_velocity_gradient, nonholonomic.nh_rhs,
                    nonholonomic.energy)
    assert counts["nh_rhs"] > 20
    assert counts["field_sweep"] == counts["ambient_velocity_gradient"] \
        == counts["nh_rhs"]
    assert counts["restricted_table"] == 0
    assert counts["energy"] == 0


def test_rk45_evaluations_per_step():
    # One evaluation at the start, one for the initial step guess, then six
    # per attempted step: the row of an accepted state costs nothing more.
    sysdef = get_model("martinet")
    s0 = VakState([0, 1, 0], [0.8, -0.4], [1.2])
    counts = _calls(lambda: _integrate.integrate(sysdef, "vak", s0, t_end=0.5),
                    vakonomic.vak_rhs)
    traj = _integrate.integrate(sysdef, "vak", s0, t_end=0.5)
    steps = len(traj.times) - 1
    assert (counts["vak_rhs"] - 2) % 6 == 0
    assert steps * 6 <= counts["vak_rhs"] - 2 < steps * 7
