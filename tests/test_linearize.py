import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgsym.cli import _bundled_solution
from dgsym.fields import Grid, sample_evaluator, sample_trajectory
from dgsym.kernels import boundary_ring
from dgsym.linearize import (NotLinearizable, gauge_act_field, heat_pair_directions,
                             heat_pair_to_dg, linearization_data, z_flow_se_from_zero)
from dgsym.params import (GaugeElement, gauge_act_params, gauge_compose,
                          make_ehr_sub, reference_points)
from dgsym.pde import (HJSimilaritySolution, ResidualReport, ScaleSimilaritySolution,
                       _norms, convergence, heat_solution, residual, se_gaussian,
                       se_residual)
from tests.conftest import grid_rhs

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


# ---------------------------------------------------------------------------
# Schroedinger branch

def test_z_flow_se_from_zero_refusals(pts):
    psi = se_gaussian(linearization_data(pts["sym1c"]).se_coefficient, b0=-0.3)
    with pytest.raises(ValueError, match="eps > 0"):
        z_flow_se_from_zero(psi, -0.5, pts["sym1c"])
    with pytest.raises(NotLinearizable):
        z_flow_se_from_zero(psi, 0.5, pts["sym1b"])


def test_z_flow_se_zero_limit_solves(pts):
    p = pts["sym1c"]
    data = linearization_data(p)
    psi = se_gaussian(data.se_coefficient, b0=-0.3, k=(0.4,))
    sol = z_flow_se_from_zero(psi, 0.5, p)
    assert refinement(p, sol).passed


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
# the linearizing generators through their characteristic

def characteristic_residual(p, Q):
    """``residual_of`` for ``convergence``: Q_t - F'[u] Q on a sampled
    solution u, over the inner time slices and grid points, where F is the
    right-hand side at p and ``Q(r, s, xs, t)`` the characteristic of a
    vertical generator.  X is a symmetry iff this vanishes on solutions
    (Olver 1986, sections 2.3 and 5.1).  F is quadratic in the jets, so
    F'[u] Q = (F(u + Q) - F(u - Q))/2 exactly, both terms from the one
    stencil; Q_t is the central difference of the uniform stamps."""
    coeffs = p.system_floats

    def residual_of(traj):
        grid, times = traj.grid, traj.times
        col = times.reshape((-1,) + (1,) * grid.n)
        q = np.stack(Q(traj.r, traj.s, grid.coords(), col))
        u = np.stack((traj.r, traj.s))
        lin = 0.5 * (grid_rhs(u + q, grid, coeffs) - grid_rhs(u - q, grid, coeffs))
        q_t = (q[:, 2:] - q[:, :-2]) / (col[2:] - col[:-2])
        res = (q_t - lin[:, 1:-1])[(slice(None), slice(None)) + boundary_ring(grid)[1]]
        return ResidualReport(*_norms(res[0]), *_norms(res[1]))

    return residual_of


def zheat(p, P, M):
    """Zheat's characteristic from a heat pair (P, M) = (phi+, phi-): with
    w = (2 nu2/nu1) r + s, a = M e^(-r - |lam| w) and b = P e^(-r + |lam| w),
    Q_r = |lam| (a + b) and Q_s = (a - b) - (2 nu2/nu1) Q_r."""
    al, ratio = linearization_data(p).abs_lambda, 2 * float(p.nu2) / float(p.nu1)

    def Q(r, s, xs, t):
        w = ratio * r + s
        a = M.value(xs, t) * np.exp(-r - al * w)
        b = P.value(xs, t) * np.exp(-r + al * w)
        q_r = al * (a + b)
        return q_r, (a - b) - ratio * q_r

    return Q


def zse(p, Psi):
    """Zse's characteristic from a nowhere-zero solution Psi = e^(m + i theta)
    of i Psi_t = nu1 Lambda lap Psi: with chi = w/Lambda - theta and
    z = (2i/Lambda) e^(m - r - i chi), Q_r = Re z and
    Q_s = Lambda Im z - (2 nu2/nu1) Q_r."""
    L, ratio = linearization_data(p).LambdaCap, 2 * float(p.nu2) / float(p.nu1)

    def Q(r, s, xs, t):
        m, theta = Psi.rs(xs, t)
        z = (2j / L) * np.exp(m - r - 1j * ((ratio * r + s) / L - theta))
        return z.real, L * z.imag - ratio * z.real

    return Q


def second_pair(p, wrong_direction=False):
    """A heat pair (phi+, phi-) at p besides the bundled one: amplitudes 0.5
    and 0.7, offsets 0.3 and 0.2, a forward kernel focused at t = 1.2 and a
    backward one at -0.5.  ``wrong_direction`` gives phi+ the direction of
    phi-."""
    D = linearization_data(p).diffusion
    plus, minus = heat_pair_directions(p)

    def kernel(direction, amplitude, offset):
        focus = 1.2 if direction == "forward" else -0.5
        return heat_solution(D, direction, n=p.n, amplitude=amplitude,
                             focus_time=focus, offset=offset)

    return kernel(minus if wrong_direction else plus, 0.5, 0.3), kernel(minus, 0.7, 0.2)


def second_packet(p, sign=1):
    """A packet besides the bundled one, of p's Schroedinger coefficient
    times ``sign``: b0 = -0.22, centred at 0.4 on every axis."""
    return se_gaussian(sign * linearization_data(p).se_coefficient, n=p.n,
                       b0=-0.22, center=(0.4,) * p.n)


def characteristic_study(p, Q, residual_point=None):
    """The order-2 verdict on Q along the bundled solution at p, with the
    residual of ``residual_point`` (p by default): 65 -> 129 points on
    [-4, 4] at n = 1, 33 -> 65 per axis at n = 2, 9 -> 17 stamps on
    [0.02, 0.18]."""
    grid = Grid.make(n=p.n, npts=65 if p.n == 1 else 33, extent=(-4.0, 4.0))
    return convergence(characteristic_residual(residual_point or p, Q),
                       _bundled_solution(p), grid, np.linspace(0.02, 0.18, 9))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("key", ["sym1b", "sym1b-nu2", "sym1c", "sym1c-nu2", "linear-se"])
def test_linearizing_generator_characteristic_is_a_symmetry(key, n):
    """Zheat at the Sym1b points and Zse at the Sym1c ones: Q_t = F'[u] Q on
    the bundled solution at order 2 (ratios 3.44-4.02), well above the
    rounding floor, so Q is no zero field."""
    p = reference_points(n)[key]
    Q = (zheat(p, *second_pair(p)) if key.startswith("sym1b")
         else zse(p, second_packet(p)))
    study = characteristic_study(p, Q)
    assert study.passed and study.fine.l2 > 1e6 * study.floor, study.ratio_l2


@pytest.mark.parametrize("case", ["zse-wrong-sign", "zheat-wrong-direction",
                                  "zse-mu3", "zheat-mu3"])
def test_characteristic_check_fails_on_a_non_symmetry(pts, case):
    """Controls that are no symmetry read a ratio near 1: Zse from a packet
    of the wrong-sign coefficient (0.96), Zheat from a pair whose phi+ runs
    the wrong way (1.00), and each generator against the residual of its
    point with mu3 moved by 1/10 (1.06 at sym1c, 1.28 at sym1b)."""
    generator, control = case.split("-", 1)
    p = pts["sym1c" if generator == "zse" else "sym1b"]
    residual_point = p.replace(mu3=p.mu3 + F(1, 10)) if control == "mu3" else p
    if generator == "zse":
        Q = zse(p, second_packet(p, sign=-1 if control == "wrong-sign" else 1))
    else:
        Q = zheat(p, *second_pair(p, wrong_direction=control == "wrong-direction"))
    study = characteristic_study(p, Q, residual_point)
    assert not study.passed and study.ratio_l2 < 1.5, study.ratio_l2


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
