import json

import jsonschema
import numpy as np
import pytest

from vaknh import expr as E
from vaknh.cli import run
from vaknh.comparison import (REPORT_SCHEMA, Sampler, curvature, field_residual,
                              g_residuals, parse_candidates, scan, tangency_residuals)
from vaknh.errors import EvalError, NonlinearSystemError, VaknhError
from vaknh.integrate import integrate
from vaknh.maps import vg_residual
from vaknh.models import CATALOG
from vaknh.nonholonomic import euler_lagrange_residual, nh_rhs
from vaknh.system import NhState, VakState, load_system
from vaknh.vakonomic import cbar

from conftest import LINEAR_MODELS, get_model, random_states


def test_curvature_particle():
    r = curvature(get_model("constrained_particle"), [0, 1, 0])
    assert r[0, 0, 1] == -1.0 and r[0, 1, 0] == 1.0
    assert r[0, 0, 0] == 0.0 and r[0, 1, 1] == 0.0


def test_curvature_holonomic_vanishes():
    r = curvature(get_model("holonomic_demo"), [0.3, -0.8, 0.5])
    assert np.all(r == 0.0)


def test_curvature_martinet():
    for y in (2.0, -0.7, 0.0):
        r = curvature(get_model("martinet"), [0.1, y, 0.4])
        assert abs(r[0, 0, 1] - (-y)) <= 1e-15
        assert r[0, 1, 0] == -r[0, 0, 1]


# The constrained particle's psi with a regular Lagrangian that is not
# twice differentiable at zero velocity, where the curvature is taken.
STIFF = """\
name stiff
coords x y z
dependent z
linear true
lagrangian 0.5*(dx^2 + dy^2 + dz^2) + 0.1*(dx^2 + dy^2)^1.5
psi z = y*dx
"""


def test_psi_alone_gives_the_curvature_and_vg_residual():
    stiff, particle = load_system(STIFF), get_model("constrained_particle")
    for q in ([0.1, 0.2, 0.3], [0.0, 1.0, 0.0], [-0.7, -0.0, 0.4]):
        assert curvature(stiff, q).tobytes() == curvature(particle, q).tobytes()
    at_rest = NhState([0.1, 0.2, 0.3], [0.0, 0.0])
    for sysdef in (stiff, particle):
        assert vg_residual(sysdef, [1.0, 2.0, 3.0], at_rest).tolist() == [1.6, 2.0]


def test_compare_and_scan_evaluate_a_lagrangian_singular_at_rest(tmp_path, capsys):
    path = tmp_path / "stiff.sys"
    path.write_text(STIFF, encoding="utf-8")
    assert run(["compare", str(path), "--q", "0.1,0.2,0.3", "--v", "1,0.5", "--p", "0.3"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    s = VakState([0.1, 0.2, 0.3], [1.0, 0.5], [0.3])
    assert json.loads(captured.out)["g"] == g_residuals(load_system(STIFF), s).tolist()
    for p_mode in ("random", "legendre"):
        assert run(["scan", str(path), "--samples", "200", "--p-mode", p_mode]) == 0
        summary = json.loads(capsys.readouterr().out)["summary"]
        assert (summary["evaluated"], summary["skipped"]) == (200, 0)


def test_curvature_rejects_nonlinear():
    with pytest.raises(NonlinearSystemError):
        curvature(get_model("von_neumann2"), [1.0, 1.0])


@pytest.mark.parametrize("name", LINEAR_MODELS)
def test_curvature_exactly_antisymmetric(name):
    sysdef = get_model(name)
    rng = np.random.default_rng(17)
    for _ in range(100):
        r = curvature(sysdef, rng.uniform(-1, 1, sysdef.n))
        assert np.array_equal(r, -np.transpose(r, (0, 2, 1)))


def test_g_residuals_particle():
    p = get_model("constrained_particle")
    g = g_residuals(p, VakState([0, 1, 0], [1, 1], [2]))
    assert np.allclose(g, [1.0, -1.0], atol=1e-15)


def test_g_residuals_zero_on_legendre_multipliers():
    for name in LINEAR_MODELS:
        sysdef = get_model(name)
        for s in random_states(name, 20, seed=18, legendre=True):
            assert np.max(np.abs(g_residuals(sysdef, s))) <= 1e-14


def test_g_residuals_holonomic_always_zero():
    h = get_model("holonomic_demo")
    for s in random_states("holonomic_demo", 50, seed=19):
        assert np.all(g_residuals(h, s) == 0.0)


def test_field_residual_particle():
    p = get_model("constrained_particle")
    dy = field_residual(p, VakState([0, 1, 0], [1, 1], [2]))
    assert np.allclose(dy, [0.5, -1.0], atol=1e-15)


def test_field_residual_zero_where_g_zero():
    # particle: multiplier equal to the completed dependent velocity
    p = get_model("constrained_particle")
    rng = np.random.default_rng(20)
    for _ in range(20):
        q = rng.uniform(-1, 1, 3)
        v = rng.uniform(-1, 1, 2)
        s = VakState(q, v, [q[1] * v[0]])
        assert np.max(np.abs(g_residuals(p, s))) <= 1e-15
        assert np.max(np.abs(field_residual(p, s))) <= 1e-14
    # penny: p proportional to (cos phi, sin phi) kills the shared factor
    pen = get_model("rolling_penny")
    for _ in range(20):
        q = rng.uniform(-1, 1, 4)
        v = rng.uniform(-1, 1, 2)
        beta = rng.uniform(-2, 2)
        s = VakState(q, v, [beta * np.cos(q[3]), beta * np.sin(q[3])])
        assert np.max(np.abs(g_residuals(pen, s))) <= 1e-14
        assert np.max(np.abs(field_residual(pen, s))) <= 1e-13


@pytest.mark.parametrize("name", LINEAR_MODELS)
def test_sign_linked_equivalence(name):
    # Cbar . deltaY = +g with the base-coordinate indexing used throughout.
    sysdef = get_model(name)
    for s in random_states(name, 30, seed=21):
        lhs = cbar(sysdef, s) @ field_residual(sysdef, s)
        assert np.max(np.abs(lhs - g_residuals(sysdef, s))) <= 1e-10


# ---------------------------------------------------------------------------
# Tangency
# ---------------------------------------------------------------------------


def _flow_derivative_oracle(sysdef, s, expr_text, h=1e-4):
    """Second-order one-sided finite difference of a candidate value along
    the integrated vakonomic flow."""
    traj = integrate(sysdef, "vak", s, t_end=2 * h, method="rk4", dt=h,
                     candidates={"G": E.parse(expr_text)})
    g = traj.monitors["G_G"]
    return (-3 * g[0] + 4 * g[1] - g[2]) / (2 * h)


def test_tangency_particle_candidate_not_invariant_off_locus():
    p = get_model("constrained_particle")
    s = VakState([0, 1, 0], [1, 1], [1])  # G = p_z - y*dx = 0 here
    res = tangency_residuals(p, {"C1": E.parse("p_z - y*dx")}, s)
    assert abs(res["C1"] - (-0.5)) <= 1e-14
    assert abs(res["C1"] - _flow_derivative_oracle(p, s, "p_z - y*dx")) <= 1e-6


def test_tangency_particle_candidate_invariant_on_straight_lines():
    p = get_model("constrained_particle")
    s = VakState([0, 1, 0], [1, 0], [1])
    res = tangency_residuals(p, {"C1": E.parse("p_z - y*dx")}, s)
    assert abs(res["C1"]) <= 1e-15


def test_tangency_penny_c12_candidate():
    pen = get_model("rolling_penny")
    g = E.parse("2*dtheta - p_x*cos(phi) - p_y*sin(phi)")
    rng = np.random.default_rng(22)
    for _ in range(20):
        q = rng.uniform(-1, 1, 4)
        v = rng.uniform(-1, 1, 2)
        p = [2 * v[0] * np.cos(q[3]), 2 * v[0] * np.sin(q[3])]
        s = VakState(q, v, p)
        res = tangency_residuals(pen, {"C12": g}, s)
        assert abs(res["C12"]) <= 1e-14


def test_tangency_rejects_non_state_variables():
    p = get_model("constrained_particle")
    with pytest.raises(EvalError, match="candidate"):
        tangency_residuals(p, {"bad": E.parse("dz + 1")},
                           VakState([0, 0, 0], [1, 1], [0]))


def test_parse_candidates():
    cands = parse_candidates("# comment\nC1 = p_z - y*dx\n\nvy = dy\n")
    assert set(cands) == {"C1", "vy"}
    assert cands["vy"] == E.Var("dy")


# ---------------------------------------------------------------------------
# Euler-Lagrange residual
# ---------------------------------------------------------------------------


def test_el_residual_free_straight_line():
    p = get_model("constrained_particle")
    s = NhState([0.4, -1.1, 0.9], [1, 0])
    res = euler_lagrange_residual(p, s, nh_rhs(p, s))
    assert np.max(np.abs(res)) <= 1e-15


def test_el_residual_detects_constraint_force():
    p = get_model("constrained_particle")
    s = NhState([0, 1, 0], [1, 1])
    res = euler_lagrange_residual(p, s, nh_rhs(p, s))
    assert abs(res[2] - 0.5) <= 1e-15  # z component: the constraint force
    # the whole residual is the multiplier times the constraint-force
    # direction (y, 0, -1)
    assert np.allclose(res, [-0.5, 0.0, 0.5], atol=1e-15)


def test_el_residual_stationary():
    pen = get_model("rolling_penny")
    s = NhState([0.1, 0.2, 0.3, 0.4], [0.0, 0.0])
    res = euler_lagrange_residual(pen, s, nh_rhs(pen, s))
    assert np.max(np.abs(res)) <= 1e-15


# ---------------------------------------------------------------------------
# Scan
# ---------------------------------------------------------------------------


def _sampler(name, count, seed, p_mode="random"):
    box = CATALOG[name].sample_box
    return Sampler(count=count, seed=seed, q_bounds=tuple(box["q"]),
                   v_bounds=tuple(box["v"]), p_bounds=tuple(box["p"]),
                   p_mode=p_mode)


def test_scan_holonomic_all_agree():
    rep = scan(get_model("holonomic_demo"), _sampler("holonomic_demo", 50, 23))
    assert rep.summary["fraction_g_below_tol"] == 1.0
    assert rep.summary["fraction_deltay_below_tol"] == 1.0
    assert rep.summary["skipped"] == 0


def test_scan_particle_legendre_mode_all_agree():
    rep = scan(get_model("constrained_particle"),
               _sampler("constrained_particle", 50, 24, p_mode="legendre"))
    assert rep.summary["fraction_deltay_below_tol"] == 1.0


def test_scan_particle_random_p_generic_box_never_agrees():
    box = CATALOG["constrained_particle"].sample_box
    sampler = Sampler(count=100, seed=25, q_bounds=tuple(box["q"]),
                      v_bounds=((0.5, 1.5), (0.5, 1.5)),
                      p_bounds=((-1.0, 1.0),), p_mode="random")
    rep = scan(get_model("constrained_particle"), sampler)
    assert rep.summary["fraction_g_below_tol"] == 0.0


def test_scan_nonlinear_system_reports_no_g():
    rep = scan(get_model("von_neumann2"), _sampler("von_neumann2", 10, 26))
    assert rep.summary["fraction_g_below_tol"] is None
    assert all(r.g is None for r in rep.records)


def test_scan_skips_domain_errors():
    vn = get_model("von_neumann2")
    sampler = Sampler(count=40, seed=27, q_bounds=((0.05, 1.5), (0.05, 1.5)),
                      v_bounds=((-1.5, 1.5),), p_bounds=((0.5, 1.0),))
    rep = scan(vn, sampler)
    assert rep.summary["skipped"] > 0
    assert rep.summary["evaluated"] + rep.summary["skipped"] == 40
    skipped = [r for r in rep.records if r.skipped is not None]
    assert all(r.delta_y is None for r in skipped)


def test_scan_report_schema_and_candidates():
    p = get_model("constrained_particle")
    rep = scan(p, _sampler("constrained_particle", 12, 28),
               candidates=parse_candidates("C1 = p_z - y*dx"))
    payload = json.loads(rep.to_json())
    jsonschema.validate(payload, REPORT_SCHEMA)
    assert all("C1" in r["tangency"] for r in payload["records"])
    assert [r["index"] for r in payload["records"]] == list(range(12))


@pytest.mark.parametrize("text, line", [("C = x\nno equals sign\n", 2), ("= x\n", 1)])
def test_a_candidate_line_needs_a_name_and_an_equals_sign(text, line):
    with pytest.raises(VaknhError, match=f"^candidates line {line}: expected 'name = expression'$"):
        parse_candidates(text)


def test_scan_rejects_bad_p_mode():
    with pytest.raises(ValueError):
        scan(get_model("martinet"),
             Sampler(count=1, seed=0, q_bounds=((0, 1),) * 3,
                     v_bounds=((0, 1),) * 2, p_bounds=((0, 1),),
                     p_mode="fixed"))


def _penny_divergence(s):
    """The largest difference of the (q, v) columns of rk4 runs (dt 0.01 to
    t = 5) of the vak flow from ``s`` and the nh flow from its (q, v),
    relative to the largest entry of the nh columns."""
    pen = get_model("rolling_penny")
    vak = integrate(pen, "vak", s, t_end=5.0, method="rk4", dt=0.01)
    nh = integrate(pen, "nh", NhState(s.q, s.v), t_end=5.0, method="rk4", dt=0.01)
    assert np.array_equal(vak.times, nh.times) and vak.times[-1] == 5.0
    nh_qv = nh.packed
    return np.max(np.abs(vak.packed[:, :6] - nh_qv)) / np.max(np.abs(nh_qv))


@pytest.mark.parametrize("seed", [81, 82])
def test_penny_vak_flow_projects_on_nh_flow_from_invariant_sets(seed):
    # The paper's comparison at the trajectory level: on the sets {p = 0}
    # and {dphi = 0, p = c (cos phi, sin phi)}, which the vak flow leaves
    # invariant, the vak flow projects onto the nh flow.  The lift
    # p = 2 dtheta (cos phi, sin phi) of criterion 4 makes g vanish
    # pointwise, but the set is not invariant, so the flows part.
    rng = np.random.default_rng(seed)
    pen = get_model("rolling_penny")
    for s in random_states("rolling_penny", 2, seed):
        phi, c = s.q[3], rng.uniform(-2.0, 2.0)
        rest = VakState(s.q, [s.v[0], 0.0], [c * np.cos(phi), c * np.sin(phi)])
        assert _penny_divergence(VakState(s.q, s.v, [0.0, 0.0])) <= 1e-12
        assert _penny_divergence(rest) <= 1e-12
        lift = VakState(s.q, s.v, [2 * s.v[0] * np.cos(phi), 2 * s.v[0] * np.sin(phi)])
        assert np.max(np.abs(g_residuals(pen, lift))) <= 1e-15
        assert _penny_divergence(lift) >= 1e-3
