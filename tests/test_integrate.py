import numpy as np
import pytest

from vaknh import expr as E
from vaknh.cli import run
from vaknh.errors import IntegrationError
from vaknh.integrate import (drift_report, integrate, trajectory_from_csv,
                             trajectory_to_csv)
from vaknh.system import NhState, VakState

from conftest import get_model


def test_particle_nh_straight_line():
    p = get_model("constrained_particle")
    traj = integrate(p, "nh", NhState([0, 0, 0], [1, 0]), t_end=5.0)
    for t, s in zip(traj.times, traj.states):
        assert np.max(np.abs(s.q - np.array([t, 0.0, 0.0]))) <= 1e-9
    rep = drift_report(p, traj)
    assert rep.maxima["E_L_drift"] <= 1e-12


def test_martinet_multiplier_constant():
    m = get_model("martinet")
    traj = integrate(m, "vak", VakState([0, 1, 0], [0.8, -0.4], [1.0]),
                     t_end=10.0)
    pz = np.array([s.p_dep[0] for s in traj.states])
    assert np.max(np.abs(pz - 1.0)) <= 1e-9


def test_times_strictly_increasing_and_monitors_aligned():
    m = get_model("martinet")
    traj = integrate(m, "vak", VakState([0, 1, 0], [1, 0], [1.0]), t_end=2.0,
                     candidates={"defect": E.parse("dx - (y^2/2)*p_z")})
    assert np.all(np.diff(traj.times) > 0)
    assert traj.times[-1] == 2.0
    for series in traj.monitors.values():
        assert len(series) == len(traj.times) == len(traj.states)
    # the candidate is the conserved eliminated momentum
    g = traj.monitors["G_defect"]
    assert np.max(np.abs(g - g[0])) <= 1e-8


def test_rk4_fourth_order_convergence():
    # Halving dt must shrink the endpoint error against a tight adaptive
    # reference by a factor within [12, 20].
    for name, s0 in (("constrained_particle", VakState([0, 1, 0], [1, 1], [0.7])),
                     ("martinet", VakState([0, 1, 0], [1, 0.3], [1.2]))):
        sysdef = get_model(name)
        ref = integrate(sysdef, "vak", s0, t_end=1.0, method="rk45",
                        rtol=1e-12, atol=1e-13)
        target = ref.states[-1]

        def endpoint_error(dt):
            traj = integrate(sysdef, "vak", s0, t_end=1.0, method="rk4", dt=dt)
            end = traj.states[-1]
            return max(np.max(np.abs(end.q - target.q)),
                       np.max(np.abs(end.v - target.v)),
                       np.max(np.abs(end.p_dep - target.p_dep)))

        ratio = endpoint_error(0.02) / endpoint_error(0.01)
        assert 12.0 <= ratio <= 20.0, f"{name}: convergence ratio {ratio}"


def test_time_reversal_regression():
    # The vakonomic flow of the particle is reversible under the reflection
    # (q, v, p) -> (q, -v, -p): integrating forward, reflecting, integrating
    # the same span and reflecting back recovers the start.
    p = get_model("constrained_particle")
    s0 = VakState([0.2, 0.8, -0.1], [0.9, 0.5], [1.4])
    fwd = integrate(p, "vak", s0, t_end=2.0, rtol=1e-11, atol=1e-13)
    end = fwd.states[-1]
    reflected = VakState(end.q, -end.v, -end.p_dep)
    back = integrate(p, "vak", reflected, t_end=2.0, rtol=1e-11, atol=1e-13)
    final = back.states[-1]
    recovered = VakState(final.q, -final.v, -final.p_dep)
    assert np.max(np.abs(recovered.q - s0.q)) <= 1e-6
    assert np.max(np.abs(recovered.v - s0.v)) <= 1e-6
    assert np.max(np.abs(recovered.p_dep - s0.p_dep)) <= 1e-6


def test_csv_round_trip_bitwise():
    pen = get_model("rolling_penny")
    traj = integrate(pen, "vak", VakState([0, 0, 0.3, 0.4], [1.0, 0.5],
                                          [0.7, -0.2]), t_end=1.0)
    text = trajectory_to_csv(pen, traj)
    header = text.splitlines()[0]
    assert header.startswith("t,x,y,theta,phi,dtheta,dphi,p_x,p_y")
    back = trajectory_from_csv(pen, text)
    assert np.array_equal(back.times, traj.times)
    for a, b in zip(back.states, traj.states):
        assert np.array_equal(a.q, b.q)
        assert np.array_equal(a.v, b.v)
        assert np.array_equal(a.p_dep, b.p_dep)
    for name in traj.monitors:
        assert np.array_equal(back.monitors[name], traj.monitors[name])
    assert traj.stats.accepted == len(traj.times) - 1
    assert back.stats is None


@pytest.mark.parametrize("rows", [
    "", "0,-0,4.9406564584124654e-324,1e+22,nan,-inf,6,7,8,9\n"])
def test_csv_reemits_header_only_and_one_row_byte_for_byte(rows):
    pen = get_model("rolling_penny")
    text = "t,x,y,theta,phi,dtheta,dphi,p_x,p_y,H\n" + rows
    assert trajectory_to_csv(pen, trajectory_from_csv(pen, text)) == text


def test_integration_halts_on_singular_matrix():
    # Drive the capital-growth model toward the degenerate multiplier:
    # its reduced matrix is proportional to the multiplier itself.
    vn = get_model("von_neumann2")
    with pytest.raises(IntegrationError):
        integrate(vn, "vak", VakState([1.5, 1.2], [0.3], [0.0]), t_end=1.0)


def test_max_steps_is_enforced():
    m = get_model("martinet")
    with pytest.raises(IntegrationError, match="max_steps"):
        integrate(m, "vak", VakState([0, 1, 0], [1, 0], [1.0]), t_end=10.0,
                  method="rk4", dt=1e-4, max_steps=50)


@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_max_steps_counts_the_step_that_reaches_t_end(method):
    m = get_model("martinet")
    s0 = VakState([0, 1, 0], [1, 0], [1.0])
    options = {"method": method, "dt": 0.01}
    steps = len(integrate(m, "vak", s0, t_end=1.0, **options).times) - 1
    traj = integrate(m, "vak", s0, t_end=1.0, max_steps=steps, **options)
    assert len(traj.times) == steps + 1 and traj.times[-1] == 1.0
    with pytest.raises(IntegrationError, match="max_steps"):
        integrate(m, "vak", s0, t_end=1.0, max_steps=steps - 1, **options)


def test_rk4_in_exactly_max_steps_exits_0(capsys):
    assert run(["integrate", "martinet", "--dynamics", "vak", "--q=0,1,0", "--v=1,0",
                "--p=1", "--t-end", "1", "--method", "rk4", "--dt", "0.01",
                "--max-steps", "100"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 101


def test_state_type_mismatch_rejected():
    m = get_model("martinet")
    with pytest.raises(TypeError):
        integrate(m, "vak", NhState([0, 1, 0], [1, 0]), t_end=1.0)
    with pytest.raises(TypeError):
        integrate(m, "nh", VakState([0, 1, 0], [1, 0], [1.0]), t_end=1.0)
