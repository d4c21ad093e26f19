import numpy as np
import pytest

from vaknh import expr as E
from vaknh.cli import run
from vaknh.errors import IntegrationError, VaknhError
from vaknh.integrate import (_initial_step, _require_finite, _rms, drift_report,
                             integrate, read_trajectory_csv, trajectory_from_csv,
                             trajectory_to_csv, write_trajectory_csv)
from vaknh.system import NhState, VakState
from vaknh.vakonomic import _bind_stage

from conftest import get_model
from test_linalg import _bits, _entries


def test_particle_nh_straight_line():
    p = get_model("constrained_particle")
    traj = integrate(p, "nh", NhState([0, 0, 0], [1, 0]), t_end=5.0)
    for t, s in zip(traj.times, traj.states):
        assert np.max(np.abs(s.q - np.array([t, 0.0, 0.0]))) <= 1e-9
    rep = drift_report(p, traj)
    assert rep.maxima["E_L_drift"] <= 1e-12


def test_drift_report_of_a_vak_run():
    # H and the eliminated momenta p_<base> drift from their first value; the
    # multiplier rates dp_<dep> are reported as they are.
    m = get_model("martinet")
    traj = integrate(m, "vak", VakState([0, 1, 0], [0.8, -0.4], [1.0]), t_end=2.0)
    rep = drift_report(m, traj)
    assert list(rep.series) == ["H_drift", "p_x_drift", "p_y_drift", "dp_z"]
    h = traj.monitors["H"]
    assert np.array_equal(rep.series["H_drift"], np.abs(h - h[0]))
    assert rep.maxima["H_drift"] <= 1e-9
    assert np.array_equal(rep.series["dp_z"], traj.monitors["dp_z"])
    assert rep.maxima["dp_z"] == float(np.max(np.abs(traj.monitors["dp_z"])))


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


_PENNY_HEADER = "t,x,y,theta,phi,dtheta,dphi,p_x,p_y,H"


@pytest.mark.parametrize("text, message", [
    (_PENNY_HEADER + ",H\n" + ",".join(map(str, range(11))) + "\n",
     "CSV header repeats the column 'H'"),
    (_PENNY_HEADER + "\n" + ",".join(map(str, range(12))) + "\n",
     "CSV line 2 has 12 fields, the header 10"),
    (_PENNY_HEADER + "\n" + ",".join(map(str, range(10))) + "\n"
     + ",".join(map(str, range(8))) + "\n",
     "CSV line 3 has 8 fields, the header 10"),
    ("", "CSV line 1 has no header"),
    (_PENNY_HEADER + "\n" + ",".join(map(str, range(9))) + ",abc\n",
     "CSV line 2: could not convert string to float: 'abc'"),
    (_PENNY_HEADER + "\n1" + ",0" * 9 + "\n0" + ",0" * 9 + "\n",
     "CSV line 3 has t = 0.0, not after 1.0"),
], ids=["repeated-column", "long-row", "short-row", "empty", "not-a-number",
        "time-goes-back"])
def test_csv_reader_rejects_what_no_trajectory_writes(text, message):
    # No column or field is dropped without a word, no bare StopIteration,
    # ValueError or IndexError, and times increase.
    pen = get_model("rolling_penny")
    with pytest.raises(VaknhError) as exc:
        trajectory_from_csv(pen, text)
    assert str(exc.value) == message


def test_write_and_read_trajectory_csv_round_trip(tmp_path):
    pen = get_model("rolling_penny")
    traj = integrate(pen, "nh", NhState([0, 0, 0.3, 0.4], [1.0, 0.5]), t_end=0.5,
                     candidates={"C": E.parse("x*dtheta")})
    path = tmp_path / "traj.csv"
    write_trajectory_csv(pen, traj, path)
    assert path.read_text(encoding="utf-8") == trajectory_to_csv(pen, traj)
    back = read_trajectory_csv(pen, path)
    assert back.dynamics == "nh" and back.stats is None
    assert _bits(back.times) == _bits(traj.times)
    assert _bits(back.packed) == _bits(traj.packed)
    assert list(back.monitors) == ["E_L", "G_C"]
    for name in traj.monitors:
        assert _bits(back.monitors[name]) == _bits(traj.monitors[name])


@pytest.mark.parametrize("options, message", [
    ({"dynamics": "both"}, "dynamics must be 'vak' or 'nh', got 'both'"),
    ({"method": "euler"}, "method must be 'rk4' or 'rk45', got 'euler'"),
])
def test_bad_dynamics_or_method_is_rejected(options, message):
    m = get_model("martinet")
    options = {"dynamics": "vak", **options}
    with pytest.raises(ValueError) as exc:
        integrate(m, s0=VakState([0, 1, 0], [1, 0], [1.0]), t_end=1.0, **options)
    assert str(exc.value) == message


def test_a_run_from_rest_starts_with_the_smallest_guess_and_stays_at_rest():
    # At v = 0 and p = 0 the field vanishes: both derivative norms of the
    # initial step guess are 0, so the guess is 1e-6, and each accepted step
    # has zero error and grows the step fivefold.
    m = get_model("martinet")
    y0 = np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    f = _bind_stage(m, "vakonomic matrix")
    f0, _ = f(y0.tolist(), np.empty(6))
    assert not f0.any()
    with np.errstate(all="ignore"):
        assert _initial_step(f, y0, f0, 1.0, 1e-9, 1e-11) == 1e-6
    traj = integrate(m, "vak", VakState(y0[:3], y0[3:5], y0[5:]), t_end=1.0)
    assert (traj.packed == y0).all()
    steps = np.diff(traj.times)
    assert steps[0] == traj.stats.h_min == 1e-6
    assert np.allclose(steps[1:-1], steps[:-2] * 5.0, rtol=1e-9, atol=0.0)
    assert traj.stats.rejected == 0


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


def _with_non_finite(rng, length):
    """``test_linalg._entries``, with about one entry in five NaN or +-inf."""
    v = _entries(rng, length)
    special = np.array([np.nan, np.inf, -np.inf])[rng.integers(0, 3, length)]
    return np.where(rng.random(length) < 0.2, special, v)


def test_plain_float_step_control_equals_numpy_bit_for_bit():
    # The stepper's norm, step factor and finiteness check on plain floats
    # against the numpy forms they replace.
    rng = np.random.default_rng(67)
    sysdef = get_model("martinet")
    names = [f"y{i}" for i in range(12)]
    rejected = 0
    with np.errstate(all="ignore"):
        for length in range(1, 13):
            for _ in range(1000):
                err, scale = _with_non_finite(rng, length), _with_non_finite(rng, length)
                e = err / scale
                expected = np.sqrt(np.mean((err / scale) ** 2))
                norm = _rms(e)
                assert type(norm) is float and _bits(norm) == _bits(expected)
                if norm != 0.0:
                    assert _bits(max(0.2, 0.9 * norm ** -0.2)) \
                        == _bits(max(0.2, 0.9 * expected ** -0.2))
                finite = bool(np.isfinite(e).all())
                try:
                    _require_finite(sysdef, e.tolist(), names, 0.0)
                except IntegrationError as exc:
                    rejected += 1
                    assert not finite
                    first = int(np.flatnonzero(~np.isfinite(e))[0])
                    assert f": {names[first]} = " in str(exc)
                else:
                    assert finite
    assert 0 < rejected < 12 * 1000
