import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgsym.fields import Grid, sample_evaluator, sample_trajectory
from dgsym.linearize import (NotLinearizable, gauge_act_field, heat_pair_to_dg,
                             linearization_data, z_flow_heat, z_flow_se,
                             z_flow_se_from_zero)
from dgsym.params import (GaugeElement, gauge_act_params, gauge_compose,
                          make_ehr_sub, reference_points)
from dgsym.pde import (HJSimilaritySolution, ScaleSimilaritySolution,
                       convergence, heat_solution, residual, se_gaussian,
                       se_residual)

F = Fraction

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)
nonzero = rationals.filter(lambda q: q != 0)


def refinement(p, sol, n=1, slices=9):
    """The DG residual's order-2 study on 48 points per axis, t in [0, 0.2]."""
    return convergence(lambda traj: residual(p, traj), sol,
                       Grid.make(n=n, npts=48, extent=(-4.0, 4.0)),
                       np.linspace(0.0, 0.2, slices))


class Profile:
    """A t-independent (r, s) evaluator with the given profiles of x."""

    def __init__(self, r_of, s_of):
        self.r_of, self.s_of = r_of, s_of

    def rs(self, xs, t):
        x = np.asarray(xs[0])
        return self.r_of(x), self.s_of(x)


def make_pair(p, amp_fwd=0.8, amp_bwd=0.6):
    data = linearization_data(p)
    fwd = "forward" if p.nu1 > 0 else "backward"
    bwd = "backward" if p.nu1 > 0 else "forward"
    fp = heat_solution(data.diffusion, fwd, amplitude=amp_fwd,
                       focus_time=1.0, offset=0.5)
    fm = heat_solution(data.diffusion, bwd, amplitude=amp_bwd,
                       focus_time=-0.3, offset=0.4)
    return fp, fm


# ---------------------------------------------------------------------------
# branch data

def test_linearization_data_heat_branch(pts):
    data = linearization_data(pts["sym1b"])
    assert data.branch == "real"
    assert data.lambda_sq == F(1, 2)
    assert data.diffusion == pytest.approx(math.sqrt(2.0))
    assert data.gamma == 0.0


def test_linearization_data_se_branch(pts):
    data = linearization_data(pts["sym1c"])
    assert data.branch == "imaginary"
    assert data.LambdaCap == pytest.approx(math.sqrt(2.0))
    assert data.se_coefficient == pytest.approx(math.sqrt(2.0))
    assert data.gamma == 0.0


def test_linearization_data_linear_se_point(pts):
    """The linear point itself: the connecting gauge is trivial."""
    data = linearization_data(pts["linear-se"])
    assert data.LambdaCap == pytest.approx(1.0)
    assert data.gamma == 0.0


def test_linearization_data_rejects_other_classes(pts):
    for key in ("generic", "sym3", "infasub", "expsub"):
        with pytest.raises(NotLinearizable):
            linearization_data(pts[key])


@given(nonzero, rationals, rationals)
@settings(max_examples=100, deadline=None)
def test_lambda_sq_identity(nu1, nu2, mu2):
    """Exact branch identity: lambda^2 (4 nu2^2 - 2 nu1 mu2) = nu1^2."""
    if mu2 == 2 * nu2 ** 2 / nu1:
        return
    p = make_ehr_sub(1, nu1, nu2, mu2)
    data = linearization_data(p)
    assert data.lambda_sq * (4 * p.nu2 ** 2 - 2 * p.nu1 * p.mu2) == p.nu1 ** 2


# ---------------------------------------------------------------------------
# gauge action on evaluators, sampled

GAUGE_GRID = Grid.make(npts=32, extent=(-1, 1))


def test_gauge_field_identity_and_density(pts):
    src = Profile(lambda x: -x ** 2, lambda x: 0.4 * x)
    f = sample_evaluator(src, GAUGE_GRID, 0.0)
    out = sample_evaluator(gauge_act_field(GaugeElement(1, 0), src), GAUGE_GRID, 0.0)
    np.testing.assert_array_equal(out.r, f.r)
    np.testing.assert_array_equal(out.s, f.s)
    out = sample_evaluator(gauge_act_field(GaugeElement(F(-3, 2), F(5, 7)), src),
                           GAUGE_GRID, 0.0)
    np.testing.assert_array_equal(out.r, f.r)  # density untouched


def test_gauge_field_composition():
    src = Profile(lambda x: 0.3 * np.sin(x), lambda x: 10.0 * x)  # unwrapped phase
    g1, g2 = GaugeElement(2, 1), GaugeElement(F(1, 3), -2)
    two = gauge_act_field(g1, gauge_act_field(g2, src))
    direct = gauge_act_field(gauge_compose(g1, g2), src)
    np.testing.assert_allclose(sample_evaluator(two, GAUGE_GRID, 0.0).s,
                               sample_evaluator(direct, GAUGE_GRID, 0.0).s, atol=1e-12)


def test_gauge_field_inverse_exact():
    src = Profile(lambda x: 0.2 * np.cos(x), lambda x: 0.7 * x)
    L, c = math.sqrt(2.0), -0.5
    back = gauge_act_field((L, c), gauge_act_field((1 / L, -c / L), src))
    f, out = (sample_evaluator(e, GAUGE_GRID, 0.0) for e in (src, back))
    np.testing.assert_allclose(out.r, f.r, atol=1e-14)
    np.testing.assert_allclose(out.s, f.s, atol=1e-13)


@pytest.mark.parametrize("g", [GaugeElement(F(1, 10 ** 400)), GaugeElement(10 ** 400),
                               GaugeElement(2, 10 ** 400), (math.inf, 0.0),
                               (1.0, math.nan)],
                         ids=["lambda-1e-400", "lambda-1e400", "gamma-1e400",
                              "pair-lambda-inf", "pair-gamma-nan"])
def test_gauge_field_refuses_a_pair_without_finite_nonzero_floats(g):
    """A Lambda whose float is 0.0 would erase the phase, and one past the
    float range has no float at all; both input forms are refused."""
    traj = sample_trajectory(Profile(lambda x: -x ** 2, lambda x: 0.4 * x),
                             GAUGE_GRID, [0.0, 0.1])
    with pytest.raises(ValueError, match="Lambda|gamma"):
        gauge_act_field(g, traj)


# ---------------------------------------------------------------------------
# heat branch

def test_heat_pair_constant_pair_is_stationary(pts):
    p = pts["sym1b"]
    data = linearization_data(p)
    one = heat_solution(data.diffusion, "forward", amplitude=0.0, offset=1.0)
    two = heat_solution(data.diffusion, "backward", amplitude=0.0, offset=1.0)
    sol = heat_pair_to_dg(one, two, p)
    g = Grid.make(npts=32, extent=(-2, 2))
    traj = sample_trajectory(sol, g, np.linspace(0.0, 0.3, 5))
    assert residual(p, traj).linf < 1e-14
    r, s = sol.rs(g.coords(), 0.1)
    np.testing.assert_allclose(r, 0.0, atol=1e-14)
    np.testing.assert_allclose(s, 0.0, atol=1e-14)


def test_heat_pair_residual_order(pts):
    p = pts["sym1b"]
    sol = heat_pair_to_dg(*make_pair(p), p)
    assert refinement(p, sol).passed


def test_heat_pair_residual_order_with_drift(pts):
    p = pts["sym1b-nu2"]
    sol = heat_pair_to_dg(*make_pair(p), p)
    assert refinement(p, sol).passed


def test_heat_pair_negative_nu1():
    p = make_ehr_sub(1, -1, 0, F(1, 2))  # iota1 = -1/2 < 0 with nu1 < 0
    data = linearization_data(p)
    assert data.branch == "real"
    fp = heat_solution(data.diffusion, "backward", amplitude=0.5,
                       focus_time=-0.3, offset=0.4)
    fm = heat_solution(data.diffusion, "forward", amplitude=0.7,
                       focus_time=1.0, offset=0.5)
    sol = heat_pair_to_dg(fp, fm, p)
    assert refinement(p, sol).passed


def test_heat_pair_direction_and_diffusion_validation(pts):
    p = pts["sym1b"]
    data = linearization_data(p)
    fwd = heat_solution(data.diffusion, "forward", offset=0.5)
    bwd = heat_solution(data.diffusion, "backward", offset=0.5)
    with pytest.raises(ValueError):
        heat_pair_to_dg(bwd, fwd, p)  # roles swapped for nu1 > 0
    wrong = heat_solution(1.0, "forward", offset=0.5)
    with pytest.raises(ValueError):
        heat_pair_to_dg(wrong, bwd, p)
    with pytest.raises(NotLinearizable):
        heat_pair_to_dg(fwd, bwd, pts["sym1c"])


def test_heat_pair_nu2_zero_special_form(pts):
    """With nu2 = 0 the map reduces to the symmetric square-root form."""
    p = pts["sym1b"]
    fp, fm = make_pair(p)
    sol = heat_pair_to_dg(fp, fm, p)
    g = Grid.make(npts=32, extent=(-2, 2))
    xs = g.coords()
    r, s = sol.rs(xs, 0.1)
    P, M = fp.value(xs, 0.1), fm.value(xs, 0.1)
    al = linearization_data(p).abs_lambda
    np.testing.assert_allclose(r, 0.5 * np.log(P * M), atol=1e-14)
    np.testing.assert_allclose(s, np.log(M / P) / (2 * al), atol=1e-14)


def test_z_flow_heat_identity_and_derivative(pts):
    p = pts["sym1b"]
    fp, fm = make_pair(p)
    g = Grid.make(npts=32, extent=(-2, 2))
    src = Profile(lambda x: 0.2 * np.sin(x), lambda x: 0.1 * np.cos(x))
    f0 = sample_evaluator(src, g, 0.05)

    def flowed(eps):
        return sample_evaluator(z_flow_heat(fp, fm, eps, src, p), g, f0.t)

    out0 = flowed(0.0)
    np.testing.assert_allclose(out0.r, f0.r, atol=1e-14)
    np.testing.assert_allclose(out0.s, f0.s, atol=1e-14)

    # d/de e^{2 r(e)} at e=0 equals 2 e^{r} |lam| (P e^{|lam| w} + M e^{-|lam| w})
    data = linearization_data(p)
    al = data.abs_lambda
    h = 1e-6
    plus, minus = flowed(h), flowed(-h)
    druck = (np.exp(2 * plus.r) - np.exp(2 * minus.r)) / (2 * h)
    xs = g.coords()
    P, M = fp.value(xs, f0.t), fm.value(xs, f0.t)
    w = (2 * float(p.nu2) / float(p.nu1)) * f0.r + f0.s
    want = 2 * np.exp(f0.r) * al * (P * np.exp(al * w) + M * np.exp(-al * w))
    np.testing.assert_allclose(druck, want, rtol=1e-6)


def test_z_flow_heat_from_constant_solution(pts):
    """Flowing the constant solution produces genuinely new solutions."""
    p = pts["sym1b"]
    fp, fm = make_pair(p)

    class One:
        def rs(self, xs, t):
            z = np.zeros_like(np.asarray(xs[0], dtype=float))
            return z, z

    moved = z_flow_heat(fp, fm, 0.7, One(), p)
    assert refinement(p, moved).passed


def test_z_flow_heat_zero_limit_matches_rescaled_pair(pts):
    """Started from psi = 0 (r so low that e^r is 0.0, s = 0; nu2 = 0 at
    sym1b), the flow is the heat pair map on both kernels scaled by
    2 |lam| eps; at eps = 0 it stays at psi = 0, which has no logarithm."""
    p = pts["sym1b"]
    fp, fm = make_pair(p)
    eps = 0.5
    zero = Profile(lambda x: np.full_like(x, -1000.0), np.zeros_like)
    data = linearization_data(p)
    c = 2 * data.abs_lambda * eps
    g = Grid.make(npts=32, extent=(-2, 2))
    xs = g.coords()
    r1, s1 = z_flow_heat(fp, fm, eps, zero, p).rs(xs, 0.1)
    scaled_p = heat_solution(data.diffusion, "forward", amplitude=c * 0.8,
                             focus_time=1.0, offset=c * 0.5)
    scaled_m = heat_solution(data.diffusion, "backward", amplitude=c * 0.6,
                             focus_time=-0.3, offset=c * 0.4)
    r2, s2 = heat_pair_to_dg(scaled_p, scaled_m, p).rs(xs, 0.1)
    np.testing.assert_allclose(r1, r2, atol=1e-13)
    np.testing.assert_allclose(s1, s2, atol=1e-13)
    with pytest.raises(ValueError, match="logarithm argument"):
        z_flow_heat(fp, fm, 0.0, zero, p).rs(xs, 0.1)


def test_z_flow_heat_branch_failure(pts):
    p = pts["sym1b"]
    fp, fm = make_pair(p)
    g = Grid.make(npts=32, extent=(-2, 2))
    zero = Profile(np.zeros_like, np.zeros_like)
    with pytest.raises(ValueError, match="logarithm argument"):
        sample_evaluator(z_flow_heat(fp, fm, -5.0, zero, p), g, 0.05)


# ---------------------------------------------------------------------------
# Schroedinger branch

def test_z_flow_se_identity_and_errors(pts):
    p = pts["sym1c"]
    data = linearization_data(p)
    psi = se_gaussian(data.se_coefficient, b0=-0.3)
    g = Grid.make(npts=32, extent=(-2, 2))
    src = Profile(lambda x: 0.1 * np.sin(x), lambda x: 0.2 * np.cos(x))
    f0 = sample_evaluator(src, g, 0.05)
    out0 = sample_evaluator(z_flow_se(psi, 0.0, src, p), g, 0.05)
    np.testing.assert_allclose(out0.r, f0.r, atol=1e-12)
    np.testing.assert_allclose(out0.s, f0.s, atol=1e-12)
    with pytest.raises(NotLinearizable):
        z_flow_se(psi, 0.1, src, pts["sym1b"])
    with pytest.raises(ValueError):
        z_flow_se_from_zero(psi, -0.5, p)


def test_z_flow_se_zero_limit_solves(pts):
    p = pts["sym1c"]
    data = linearization_data(p)
    psi = se_gaussian(data.se_coefficient, b0=-0.3, k=(0.4,))
    sol = z_flow_se_from_zero(psi, 0.5, p)
    assert refinement(p, sol).passed


def test_z_flow_se_moves_solutions_to_solutions(pts):
    p = pts["sym1c"]
    data = linearization_data(p)
    psi = se_gaussian(data.se_coefficient, b0=-0.3)
    base = z_flow_se_from_zero(se_gaussian(data.se_coefficient, b0=-0.22,
                                           center=(0.4,)), 0.5, p)
    moved = z_flow_se(psi, 0.35, base, p)
    assert refinement(p, moved).passed


def test_se_round_trip_gauge(pts):
    """DG-side solution gauges to a Schroedinger solution and back exactly."""
    p = pts["sym1c"]
    data = linearization_data(p)
    psi = se_gaussian(data.se_coefficient, b0=-0.3)
    dg_sol = z_flow_se_from_zero(psi, 0.5, p)
    se_side = gauge_act_field(data.gauge_to_linear(), dg_sol)
    g1 = Grid.make(npts=64, extent=(-4, 4))
    assert convergence(lambda traj: se_residual(data.se_coefficient, traj),
                       se_side, g1, np.linspace(0, 0.2, 9)).passed

    f0 = sample_evaluator(dg_sol, g1, 0.1)
    back = sample_evaluator(gauge_act_field(data.gauge_from_linear(), se_side), g1, 0.1)
    np.testing.assert_allclose(back.r, f0.r, atol=1e-14)
    np.testing.assert_allclose(back.s, f0.s, atol=1e-13)


# ---------------------------------------------------------------------------
# gauge covariance of the dynamics

COVARIANCE_CASES = [
    ("sym1b", GaugeElement(F(3, 2), F(1, 3))),
    ("sym1c", GaugeElement(F(1, 2), F(-2, 5))),
    ("sym3", GaugeElement(F(2), F(1))),
    ("infasub", GaugeElement(F(-1), F(1, 2))),
]


@pytest.mark.parametrize("key,g", COVARIANCE_CASES)
def test_gauge_covariance_of_dynamics(pts, key, g):
    """If T solves the system at p, the gauged field solves it at g.p."""
    p = pts[key]
    if key in ("sym1b", "sym1c"):
        data = linearization_data(p)
        if data.branch == "real":
            sol = heat_pair_to_dg(*make_pair(p), p)
        else:
            sol = z_flow_se_from_zero(
                se_gaussian(data.se_coefficient, b0=-0.3), 0.5, p)
    elif key == "sym3":
        sol = ScaleSimilaritySolution(p, bump=0.4)
    else:
        sol = HJSimilaritySolution(p, bump=0.4)
    q = gauge_act_params(g, p)
    moved = gauge_act_field(g, sol)
    before, after = refinement(p, sol), refinement(q, moved)
    assert after.passed
    assert after.coarse.l2 < 10 * before.coarse.l2 + 1e-9


# ---------------------------------------------------------------------------
# two-dimensional dynamics

def test_heat_pair_residual_order_2d():
    p = reference_points(2)["sym1b"]
    data = linearization_data(p)
    fp = heat_solution(data.diffusion, "forward", n=2, amplitude=0.8,
                       focus_time=1.0, offset=0.5)
    fm = heat_solution(data.diffusion, "backward", n=2, amplitude=0.6,
                       focus_time=-0.3, offset=0.4)
    assert refinement(p, heat_pair_to_dg(fp, fm, p), n=2, slices=7).passed
