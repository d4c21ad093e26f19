"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is calibrated elsewhere.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vaknh import expr as E
from vaknh.autodiff import partial, second_partial
from vaknh.comparison import (Sampler, curvature, field_residual, g_residuals, scan,
                              tangency_residuals)
from vaknh.integrate import integrate
from vaknh.maps import mu_to_lambda, upsilon
from vaknh.models import CATALOG
from vaknh.nonholonomic import ctilde, euler_lagrange_residual, legendre_lift, nh_rhs
from vaknh.system import NhState, VakState, completed_env, verify_linearity
from vaknh.vakonomic import cbar, compatibility_matrix, symplectic_check, vak_rhs

from conftest import LINEAR_MODELS, get_model, random_states
from oracles import nh_dae_trajectory, vak_dae_trajectory


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"criterion {num:2d} ({name}): {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_paramecium_closed_form():
    pa = get_model("paramecium")
    s0 = VakState([0.0, 0.0, 0.0], [1.0, 0.0], [8.0])
    traj = integrate(pa, "vak", s0, t_end=2 * np.pi, method="rk45",
                     rtol=1e-10, atol=1e-12)
    k1 = np.array([s.q[0] for s in traj.states])
    k2 = np.array([s.q[1] for s in traj.states])
    err = max(np.max(np.abs(k1 - np.sin(traj.times))),
              np.max(np.abs(k2 - (np.cos(traj.times) - 1.0))))
    dp_max = np.max(np.abs(traj.monitors["dp_x"]))
    _report(1, "paramecium closed form", err <= 1e-7 and dp_max <= 1e-12,
            f"sup err {err:.2e}, max |dp| {dp_max:.2e}")


def test_criterion_2_martinet_conservation():
    m = get_model("martinet")
    traj = integrate(m, "vak", VakState([0.0, 1.0, 0.0], [1.0, 0.3], [1.2]),
                     t_end=10.0)
    pz = np.array([s.p_dep[0] for s in traj.states])
    pz_drift = np.max(np.abs(pz - pz[0]))
    # dx - (y^2/2) p_z is the eliminated x-momentum, recorded as a monitor
    px = traj.monitors["p_x"]
    px_drift = np.max(np.abs(px - px[0]))
    _report(2, "martinet conserved quantities",
            pz_drift <= 1e-9 and px_drift <= 1e-7,
            f"p_z drift {pz_drift:.2e}, momentum drift {px_drift:.2e}")


_DAE_STARTS = {
    "constrained_particle": VakState([0.0, 0.5, 0.0], [0.9, 0.4], [0.7]),
    "rolling_penny": VakState([0.1, -0.3, 0.7, 0.4], [0.8, -0.6], [1.1, -0.5]),
    "martinet": VakState([0.2, 0.9, -0.1], [0.7, 0.3], [1.4]),
}


def test_criterion_3_dae_oracle_equivalence():
    worst = 0.0
    details = []
    for name, s0 in _DAE_STARTS.items():
        sysdef = get_model(name)
        traj = integrate(sysdef, "vak", s0, t_end=1.0, rtol=1e-10, atol=1e-12)
        ours = np.array([s.q for s in traj.states])
        oracle = vak_dae_trajectory(sysdef, s0, traj.times)
        err_vak = np.max(np.abs(ours - oracle))

        nh0 = upsilon(sysdef, s0)
        traj = integrate(sysdef, "nh", nh0, t_end=1.0, rtol=1e-10, atol=1e-12)
        ours = np.array([s.q for s in traj.states])
        oracle = nh_dae_trajectory(sysdef, nh0, traj.times)
        err_nh = np.max(np.abs(ours - oracle))

        worst = max(worst, err_vak, err_nh)
        details.append(f"{name} vak {err_vak:.1e} nh {err_nh:.1e}")
    _report(3, "ambient DAE oracle equivalence", worst <= 1e-6,
            "; ".join(details))


def test_criterion_4_penny():
    pen = get_model("rolling_penny")

    # (a) closed-form agreement functions, sign recorded once: the engine's
    # (g_theta, g_phi) equals -1 times (dphi*S, -dtheta*S) where
    # S = p_x sin(phi) - p_y cos(phi).
    sign = -1.0
    worst_a = 0.0
    for s in random_states("rolling_penny", 100, seed=41):
        phi = s.q[3]
        srot = s.p_dep[0] * np.sin(phi) - s.p_dep[1] * np.cos(phi)
        printed = np.array([s.v[1] * srot, -s.v[0] * srot])
        worst_a = max(worst_a, np.max(np.abs(g_residuals(pen, s) - sign * printed)))

    # (b) lift a nonholonomic trajectory with p = 2*dtheta*(cos phi, sin phi)
    traj = integrate(pen, "nh", NhState([0.0, 0.0, 0.2, 0.3], [0.9, 0.5]),
                     t_end=5.0)
    c12 = {"C12": E.parse("2*dtheta - p_x*cos(phi) - p_y*sin(phi)")}
    worst_field, worst_tan, worst_c = 0.0, 0.0, 0.0
    for s in traj.states:
        theta_dot, phi = s.v[0], s.q[3]
        p = [2 * theta_dot * np.cos(phi), 2 * theta_dot * np.sin(phi)]
        lifted = VakState(s.q, s.v, p)
        worst_field = max(worst_field,
                          np.max(np.abs(field_residual(pen, lifted))))
        worst_tan = max(worst_tan,
                        abs(tangency_residuals(pen, c12, lifted)["C12"]))
        # (c) multiplier conversion along the same lift
        lam = mu_to_lambda(pen, lifted)
        expect = np.array([-theta_dot * np.cos(phi), -theta_dot * np.sin(phi)])
        worst_c = max(worst_c, np.max(np.abs(lam - expect)))

    ok = worst_a <= 1e-12 and worst_field <= 1e-8 and worst_tan <= 1e-8 \
        and worst_c <= 1e-12
    _report(4, "rolling penny results", ok,
            f"g {worst_a:.1e}, field {worst_field:.1e}, "
            f"tangency {worst_tan:.1e}, lambda {worst_c:.1e}")


def test_criterion_5_constrained_particle():
    p = get_model("constrained_particle")
    box = CATALOG["constrained_particle"].sample_box

    random_scan = scan(p, Sampler(
        count=200, seed=42, q_bounds=tuple(box["q"]),
        v_bounds=((0.5, 1.5), (0.5, 1.5)), p_bounds=((-1.0, 1.0),),
        p_mode="random"), tol=1e-10)
    frac_g = random_scan.summary["fraction_g_below_tol"]

    legendre_scan = scan(p, Sampler(
        count=200, seed=43, q_bounds=tuple(box["q"]),
        v_bounds=tuple(box["v"]), p_bounds=(), p_mode="legendre"), tol=1e-10)
    frac_dy = legendre_scan.summary["fraction_deltay_below_tol"]

    # candidate submanifolds, sampled exactly on their defining loci
    delta = "p_z - y*dx"
    loci = {
        "C11": ({"delta": E.parse(delta), "vy": E.parse("dy")},
                lambda rng: _particle_locus_state(rng, vy=0.0)),
        "C12": ({"delta": E.parse(delta), "vx": E.parse("dx")},
                lambda rng: _particle_locus_state(rng, vx=0.0)),
        "C2": ({"vx": E.parse("dx"), "vy": E.parse("dy")},
               lambda rng: _particle_locus_state(rng, vx=0.0, vy=0.0)),
    }
    worst_tan = 0.0
    rng = np.random.default_rng(44)
    for cands, make in loci.values():
        for _ in range(50):
            s = make(rng)
            res = tangency_residuals(p, cands, s)
            worst_tan = max(worst_tan, max(abs(v) for v in res.values()))

    ok = frac_g == 0.0 and frac_dy == 1.0 and worst_tan <= 1e-10
    _report(5, "constrained particle agreement sets", ok,
            f"random-p fraction {frac_g}, legendre fraction {frac_dy}, "
            f"locus tangency {worst_tan:.1e}")


def _particle_locus_state(rng, vx=None, vy=None):
    q = rng.uniform(-1, 1, 3)
    v = np.array([rng.uniform(0.5, 1.5) if vx is None else vx,
                  rng.uniform(0.5, 1.5) if vy is None else vy])
    return VakState(q, v, [q[1] * v[0]])  # p_z = completed dz puts it on C1


def test_criterion_6_holonomic():
    h = get_model("holonomic_demo")
    worst = 0.0
    for s in random_states("holonomic_demo", 1000, seed=45):
        worst = max(worst,
                    np.max(np.abs(curvature(h, s.q))),
                    np.max(np.abs(g_residuals(h, s))),
                    np.max(np.abs(field_residual(h, s))))
    _report(6, "holonomic comparison trivial", worst <= 1e-12, f"max {worst:.1e}")


@pytest.mark.parametrize("seed", [61, 62, 63])
def test_criterion_6_holonomic_trajectories_agree(seed):
    # R = 0: the vakonomic flow from (q, v, p) at any p projects onto the
    # nonholonomic flow from (q, v).  The same rk4 steps must give the same
    # (q, v) columns to within 1e-12 of their largest entry.
    h = get_model("holonomic_demo")
    for s in random_states("holonomic_demo", 3, seed):
        vak = integrate(h, "vak", s, t_end=2.0, method="rk4", dt=0.01)
        nh = integrate(h, "nh", NhState(s.q, s.v), t_end=2.0, method="rk4", dt=0.01)
        assert np.array_equal(vak.times, nh.times) and len(vak.times) == 201
        vak_qv = np.array([np.concatenate([x.q, x.v]) for x in vak.states])
        nh_qv = np.array([np.concatenate([x.q, x.v]) for x in nh.states])
        assert np.max(np.abs(vak_qv - nh_qv)) <= 1e-12 * np.max(np.abs(nh_qv))


def test_criterion_7_structural_identities():
    worst_c, worst_sign = 0.0, 0.0
    verdicts_agree = True
    for name in LINEAR_MODELS:
        sysdef = get_model(name)
        for s in random_states(name, 100, seed=46):
            diff = cbar(sysdef, s) - ctilde(sysdef, NhState(s.q, s.v))
            worst_c = max(worst_c, np.max(np.abs(diff)))
        for s in random_states(name, 100, seed=47):
            lhs = cbar(sysdef, s) @ field_residual(sysdef, s)
            worst_sign = max(worst_sign,
                             np.max(np.abs(lhs - g_residuals(sysdef, s))))
        for s in random_states(name, 100, seed=48):
            sym = symplectic_check(sysdef, s)
            cmat = compatibility_matrix(sysdef, s.q)
            det = float(np.linalg.det(cmat))
            inv = abs(det) > 1e-12 * max(np.max(np.abs(cmat)), 0.0) ** sysdef.m
            verdicts_agree &= (sym.invertible == inv)
    ok = worst_c <= 1e-14 and worst_sign <= 1e-10 and verdicts_agree
    _report(7, "structural identities", ok,
            f"|Cbar-Ctilde| {worst_c:.1e}, |Cbar dY - g| {worst_sign:.1e} "
            f"(global sign +1), verdicts agree: {verdicts_agree}")


def test_criterion_8_free_solutions():
    p = get_model("constrained_particle")
    s_candidate = {"S": E.parse("p_z - y*dx")}
    rng = np.random.default_rng(49)
    worst_el, worst_field, worst_tan = 0.0, 0.0, 0.0
    for _ in range(50):
        q = rng.uniform(-1, 1, 3)
        v = np.array([rng.uniform(-1.5, 1.5), 0.0])  # dy = 0 keeps the line in M
        nh_state = NhState(q, v)
        accel = nh_rhs(p, nh_state)
        worst_el = max(worst_el, np.max(np.abs(euler_lagrange_residual(p, nh_state, accel))))
        lift = legendre_lift(p, nh_state)
        s = VakState(q, v, [lift[2]])
        worst_field = max(worst_field, np.max(np.abs(field_residual(p, s))))
        worst_tan = max(worst_tan,
                        abs(tangency_residuals(p, s_candidate, s)["S"]))
    ok = worst_el <= 1e-9 and worst_field <= 1e-9 and worst_tan <= 1e-9
    _report(8, "free solutions solve both problems", ok,
            f"EL {worst_el:.1e}, field {worst_field:.1e}, tangency {worst_tan:.1e}")


def test_criterion_9_autodiff():
    worst_rel = 0.0
    exact_symmetry = True
    for name in tuple(LINEAR_MODELS) + ("von_neumann2",):
        sysdef = get_model(name)
        exprs = [sysdef.lagrangian] + [sysdef.psi[c] for c in sysdef.dependent]
        for s in random_states(name, 100, seed=50):
            env = completed_env(sysdef, s.q, s.v)
            for e in exprs:
                names = sorted(E.free_vars(e))
                for v in names:
                    h = 1e-6 * (abs(env[v]) + 1.0)
                    up, dn = dict(env), dict(env)
                    up[v] = env[v] + h
                    dn[v] = env[v] - h
                    fd = (E.evaluate(e, up) - E.evaluate(e, dn)) / (2 * h)
                    exact = partial(e, env, v)
                    rel = abs(exact - fd) / (1.0 + abs(exact))
                    worst_rel = max(worst_rel, rel)
                if len(names) >= 2:
                    v1, v2 = names[0], names[-1]
                    exact_symmetry &= (second_partial(e, env, v1, v2)
                                       == second_partial(e, env, v2, v1))
    # the nonlinear model really is nonlinear (witness exists)
    vn_report = verify_linearity(get_model("von_neumann2"), samples=10, seed=51)
    ok = worst_rel <= 1e-6 and exact_symmetry and not vn_report.linear \
        and vn_report.witness is not None
    _report(9, "derivative correctness", ok,
            f"max rel err vs central differences {worst_rel:.1e}, "
            f"mixed partials exactly symmetric: {exact_symmetry}")


# Largest drift of H along the vakonomic flow and of E_L along the
# nonholonomic flow, relative to 1 + |initial value|, from rk45 at its
# default tolerances to t = 10.  At most 4.3e-9 was seen over 1200 random
# states of the models whose H moves at all.
_CONSERVATION_TOL = 2e-8


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_criterion_10_conservation(seed):
    worst = 0.0
    details = []
    for name in LINEAR_MODELS:
        sysdef = get_model(name)
        (s,) = random_states(name, 1, seed)
        drifts = []
        for dynamics, s0, monitor in (("vak", s, "H"), ("nh", NhState(s.q, s.v), "E_L")):
            values = integrate(sysdef, dynamics, s0, t_end=10.0).monitors[monitor]
            drifts.append(float(np.max(np.abs(values - values[0]))) / (1.0 + abs(values[0])))
        worst = max(worst, *drifts)
        details.append(f"{name} H {drifts[0]:.1e} E {drifts[1]:.1e}")
    _report(10, "conservation along both flows", worst <= _CONSERVATION_TOL,
            "; ".join(details))
