from fractions import Fraction

import numpy as np
import pytest

from dgsym.fields import Grid, Trajectory, sample_evaluator, sample_trajectory
from dgsym.flows import closed_flow_map, verify_symmetry_flow
from dgsym.linearize import heat_pair_to_dg, linearization_data
from dgsym.params import GaugeElement
from dgsym.pde import (HJSimilaritySolution, ScaleSimilaritySolution,
                       convergence, heat_solution, residual)
from dgsym.symmetry import basis_generator
from tests.conftest import Junk, flow

ALL_CLOSED = ["H", "P:1", "D", "C", "A", "B:1", "E", "R"]
# the grid and time stamp the flowed evaluators are sampled at
GRID, T = Grid.make(npts=48, extent=(-3, 3)), 0.07


class Smooth:
    """A smooth (r, s) evaluator that drifts linearly in t."""

    def rs(self, xs, t):
        x = np.asarray(xs[0])
        return (0.3 * np.sin(x) - 0.1 + 0.1 * t,
                0.2 * np.cos(2 * x) + 0.05 * x - 0.2 * t)


class Still:
    """A smooth (r, s) evaluator constant in t."""

    def rs(self, xs, t):
        x = np.asarray(xs[0])
        return 0.3 * np.sin(x) - 0.1, 0.2 * np.cos(2 * x) + 0.05 * x


def sampled(evaluator, t=T):
    return sample_evaluator(evaluator, GRID, t)


@pytest.fixture(scope="module")
def heat_sol(pts):
    p = pts["sym1b"]
    data = linearization_data(p)
    fp = heat_solution(data.diffusion, "forward", amplitude=0.8,
                       focus_time=1.2, offset=0.5)
    fm = heat_solution(data.diffusion, "backward", amplitude=0.6,
                       focus_time=-0.3, offset=0.4)
    return heat_pair_to_dg(fp, fm, p)


def max_diff(f1, f2):
    return max(np.max(np.abs(f1.r - f2.r)), np.max(np.abs(f1.s - f2.s)))


# ---------------------------------------------------------------------------
# identities and explicit formulas

@pytest.mark.parametrize("gen", ALL_CLOSED + ["F", "Yf:z^2"])
def test_zero_epsilon_is_identity(pts, gen):
    key = {"F": "expsub", "Yf:z^2": "infasub"}.get(gen, "sym3-nu2")
    moved = flow(gen, 0.0, Smooth(), pts[key])
    assert max_diff(sampled(moved), sampled(Smooth())) < 1e-14


def test_phase_shift_flow(pts):
    p = pts["generic"]
    out, src = sampled(flow("E", 1.0, Still(), p)), sampled(Still())
    np.testing.assert_allclose(out.s, src.s - 1.0 / (2 * float(p.nu1)), atol=1e-14)
    np.testing.assert_array_equal(out.r, src.r)


def test_modulus_scaling_flow(pts):
    out = sampled(flow("R", np.log(2.0), Still(), pts["generic"]))
    src = sampled(Still())
    np.testing.assert_allclose(np.exp(out.r), 2 * np.exp(src.r), rtol=1e-13)
    np.testing.assert_array_equal(out.s, src.s)


def test_scaling_flow_formula(pts):
    """Values at (x, t) come from (x*exp(-eps), t*exp(-2 eps)), with the
    printed modulus and phase shifts."""
    p = pts["sym3-nu2"]
    eps = 0.25

    class Src:
        def rs(self, xs, t):
            return 0.1 * np.asarray(xs[0]) ** 2 + t, 0.3 * np.asarray(xs[0])

    moved = flow("D", eps, Src(), p)
    x = np.linspace(-1, 1, 7)
    t = 0.3
    r, s = moved.rs((x,), t)
    r0, s0 = Src().rs((x * np.exp(-eps),), t * np.exp(-2 * eps))
    nu1, mu1 = float(p.nu1), float(p.mu1)
    np.testing.assert_allclose(r, r0 - eps * 0.5, atol=1e-14)
    np.testing.assert_allclose(s, s0 + eps * mu1 / (2 * nu1), atol=1e-14)


def test_expansion_flow_singularity(pts):
    moved = flow("C", 0.5, Smooth(), pts["sym3-nu2"])
    with pytest.raises(ValueError, match="singular"):
        moved.rs((np.linspace(-1, 1, 5),), -3.0)  # 1 + eps*t <= 0 at t=-3


def test_exponential_flow_domain_error(pts):
    moved = flow("F", -30.0, Still(), pts["expsub"])
    with pytest.raises(ValueError, match="left its domain"):
        sampled(moved)


def test_yf_closed_flow_needs_commutative_case(pts):
    with pytest.raises(ValueError, match="commutative case"):
        flow("Yf:z", 0.1, Still(), pts["infsub"])


def test_constant_yf_flow_is_a_shift_everywhere(pts):
    """Y_f with constant f is admissible off InfSub, and its flow is the
    shift of (r, s) along (1, -2 nu2/nu1) even where z is not conserved."""
    p = pts["generic"]
    out, src = sampled(flow("Yf:3", 0.1, Still(), p)), sampled(Still())
    np.testing.assert_allclose(out.r, src.r + 0.3, atol=1e-15)
    np.testing.assert_allclose(out.s, src.s - 0.3 * 2 * float(p.nu2 / p.nu1),
                               atol=1e-15)


def test_yf_flow_conserves_z(pts):
    p = pts["infasub"]
    out, src = sampled(flow("Yf:1+z^2", 0.4, Still(), p)), sampled(Still())
    mu1, nu1 = float(p.mu1), float(p.nu1)
    np.testing.assert_allclose(mu1 * src.r + nu1 * src.s,
                               mu1 * out.r + nu1 * out.s, atol=1e-12)


@pytest.mark.parametrize("gen, key", [("Zheat", "sym1b"), ("Zse", "sym1c")])
def test_flow_closed_refuses_infinite_generators(pts, gen, key):
    """Zheat and Zse flows carry a linear-side solution, which a generator
    name does not give: closed_flow_map refuses them and says so."""
    with pytest.raises(ValueError, match=f"{gen}: .*solution of the linear equation"):
        closed_flow_map(gen, 0.2, pts[key])


# ---------------------------------------------------------------------------
# group laws

@pytest.mark.parametrize("key,gen", [
    ("generic", "E"), ("generic", "R"), ("finsub", "A"),
    ("expsub", "F"), ("expsub-nu2", "F"), ("infasub", "Yf:1+z^2"),
])
def test_vertical_group_law(pts, key, gen):
    p = pts[key]
    two = flow(gen, 0.2, flow(gen, 0.15, Still(), p), p)
    assert max_diff(sampled(two), sampled(flow(gen, 0.35, Still(), p))) < 1e-10


@pytest.mark.parametrize("gen", ["D", "C", "B:1", "H", "P:1"])
def test_relocating_group_law_on_evaluators(pts, gen):
    p = pts["sym3-nu2"]

    class Src:
        def rs(self, xs, t):
            x = np.asarray(xs[0])
            return 0.2 * np.sin(x) + 0.1 * t, 0.1 * x ** 2 - 0.2 * t

    ab = flow(gen, 0.1, flow(gen, 0.2, Src(), p), p)
    tot = flow(gen, 0.3, Src(), p)
    x = np.linspace(-1.5, 1.5, 11)
    r1, s1 = ab.rs((x,), 0.2)
    r2, s2 = tot.rs((x,), 0.2)
    np.testing.assert_allclose(r1, r2, atol=1e-11)
    np.testing.assert_allclose(s1, s2, atol=1e-11)


# ---------------------------------------------------------------------------
# each closed form is exp(eps X): a one-parameter group whose eps-derivative
# at 0 is the generator X

# the times the infinitesimal check samples at, t = 0 included, where B:1
# moves no point and acts by its phase ramp alone
GENERATOR_TIMES = [0.0, T, 0.13]


def generator_error(X, moved, h=1e-5):
    """max |(T_h u - T_{-h} u)/(2h) - Q| / max |Q| for u = Smooth on GRID at
    GENERATOR_TIMES, with ``moved(eps)`` the flowed evaluator T_eps u and
    Q = (phi, sigma) - xi u_x - tau u_t the characteristic of X at u."""
    plus, minus, u = (sample_trajectory(f, GRID, GENERATOR_TIMES)
                      for f in (moved(h), moved(-h), Smooth()))
    x, t = GRID.coords()[0], u.times[:, None]
    values = {"x1": x, "t": t, "r": u.r, "s": u.s}
    xi, tau, phi, sigma = (np.broadcast_to(c.evaluate(values), u.r.shape)
                           for c in X.components())
    ux = (0.3 * np.cos(x), -0.4 * np.sin(2 * x) + 0.05)  # Smooth's derivatives
    ut = (0.1, -0.2)
    q = np.stack([phi - xi * ux[0] - tau * ut[0], sigma - xi * ux[1] - tau * ut[1]])
    diff = np.stack([(plus.r - minus.r) / (2 * h), (plus.s - minus.s) / (2 * h)])
    return np.max(np.abs(diff - q)) / np.max(np.abs(q))


@pytest.mark.parametrize("key,gen,eps", [
    ("finsub", "A", 0.3), ("expsub-nu2", "F", 0.2), ("generic", "E", 1.0),
    ("generic", "R", 0.4), ("sym1b", "D", 0.2), ("sym1b", "C", 0.25),
    ("infasub", "Yf:z^2", 0.2), ("sym1b", "H", 0.3), ("sym1b", "P:1", 0.5),
    ("sym1b", "B:1", 0.3),
])
def test_closed_flow_is_the_exponential_of_its_generator(pts, key, gen, eps):
    """The central eps-difference of the flow at 0 is the characteristic Q of
    basis_generator(gen, p) to 1e-6 of max|Q| (the worst case, F at
    expsub-nu2, reads about 3e-8; the error falls as h^2), and the flow is a
    one-parameter group: T_{eps/3} T_{2 eps/3} = T_eps.  The same flow run 1 %
    fast, whose generator is 1.01 X, reads 1e-2 and fails the first check."""
    p = pts[key]
    X = basis_generator(gen, p)
    assert generator_error(X, lambda e: flow(gen, e, Smooth(), p)) < 1e-6
    assert generator_error(X, lambda e: flow(gen, 1.01 * e, Smooth(), p)) > 1e-3
    two = flow(gen, eps / 3, flow(gen, 2 * eps / 3, Smooth(), p), p)
    one = flow(gen, eps, Smooth(), p)
    assert max_diff(sample_trajectory(two, GRID, GENERATOR_TIMES),
                    sample_trajectory(one, GRID, GENERATOR_TIMES)) < 1e-12


# ---------------------------------------------------------------------------
# numeric checks of the closed forms away from eps = 0

def stacked_rs(evaluator, x, t):
    """(r, s) of an evaluator at points x (N,) and times t (T, 1) as one
    (2, T, N) array."""
    shape = (len(t), len(x))
    return np.stack([np.broadcast_to(c, shape) for c in evaluator.rs((x,), t)])


def flow_equation_error(X, moved, eps, h=1e-5):
    """max |d/de T_e u - Q[T_eps u]| / max |Q| at e = eps for u = Smooth on
    GRID at GENERATOR_TIMES: the closed flow solves the flow equation
    dv/de = Q[v] along its path, with every derivative a central difference
    of the evaluators (steps h)."""
    x, t = GRID.coords()[0], np.asarray(GENERATOR_TIMES)[:, None]
    v = moved(eps)
    here = stacked_rs(v, x, t)
    vx = (stacked_rs(v, x + h, t) - stacked_rs(v, x - h, t)) / (2 * h)
    vt = (stacked_rs(v, x, t + h) - stacked_rs(v, x, t - h)) / (2 * h)
    values = {"x1": x, "t": t, "r": here[0], "s": here[1]}
    xi, tau, phi, sigma = (np.broadcast_to(c.evaluate(values), here[0].shape)
                           for c in X.components())
    q = np.stack([phi, sigma]) - xi * vx - tau * vt
    de = (stacked_rs(moved(eps + h), x, t) - stacked_rs(moved(eps - h), x, t)) / (2 * h)
    return np.max(np.abs(de - q)) / np.max(np.abs(q))


@pytest.mark.parametrize("key,gen,eps", [
    ("finsub", "A", 0.3), ("expsub-nu2", "F", 0.2), ("generic", "E", 1.0),
    ("generic", "R", 0.4), ("sym1b", "D", 0.2), ("sym1b", "C", 0.25),
    ("infasub", "Yf:z^2", 0.2), ("sym1b", "H", 0.3), ("sym1b", "P:1", 0.5),
    ("sym1b", "B:1", 0.3),
])
def test_numeric_matches_closed(pts, key, gen, eps):
    """Away from eps = 0 the closed flow still integrates its generator: the
    numeric eps-derivative of T_e u at e = eps equals the characteristic Q of
    basis_generator(gen, p) evaluated at the moved field T_eps u, whose x- and
    t-derivatives are numeric too, to 1e-6 of max|Q|.  The same flow run 1 %
    fast fails."""
    p = pts[key]
    X = basis_generator(gen, p)
    assert flow_equation_error(X, lambda e: flow(gen, e, Smooth(), p), eps) < 1e-6
    assert flow_equation_error(X, lambda e: flow(gen, 1.01 * e, Smooth(), p), eps) > 1e-3


def test_numeric_boost_vertical_part(pts):
    """At t = 0 the boost does not move x (xi = t, tau = 0), so its flow there
    is the pointwise ODE (r, s)' = (phi, sigma) at fixed x; RK4 on that ODE
    matches the closed boost's phase ramp."""
    p = pts["sym1b"]
    X = basis_generator("B:1", p)
    xi, tau, phi, sigma = X.components()
    x = GRID.coords()[0]
    u0 = sampled(Smooth(), 0.0)

    def rhs(r, s):
        values = {"x1": x, "t": 0.0, "r": r, "s": s}
        assert not np.any(xi.evaluate(values)) and not np.any(tau.evaluate(values))
        return (np.broadcast_to(phi.evaluate(values), x.shape),
                np.broadcast_to(sigma.evaluate(values), x.shape))

    r, s, steps = u0.r, u0.s, 64
    dt = 0.3 / steps
    for _ in range(steps):
        k1 = rhs(r, s)
        k2 = rhs(r + dt / 2 * k1[0], s + dt / 2 * k1[1])
        k3 = rhs(r + dt / 2 * k2[0], s + dt / 2 * k2[1])
        k4 = rhs(r + dt * k3[0], s + dt * k3[1])
        r = r + dt / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        s = s + dt / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    fc = sampled(flow("B:1", 0.3, Smooth(), p), 0.0)
    assert max(np.max(np.abs(fc.r - r)), np.max(np.abs(fc.s - s))) < 1e-12
    assert np.max(np.abs(fc.s - u0.s)) > 0.1


# ---------------------------------------------------------------------------
# flows map solutions to solutions (residual stays order-2 convergent)

@pytest.mark.parametrize("gen,eps", [
    ("P:1", 0.5), ("B:1", 0.3), ("H", 0.05), ("D", 0.15), ("C", 0.3),
])
def test_flow_residual_on_linearizable_point(pts, heat_sol, gen, eps):
    p = pts["sym1b"]
    grid = Grid.make(npts=64, extent=(-4, 4))
    rep = verify_symmetry_flow(p, gen, eps, heat_sol, grid, (0.02, 0.18))
    assert 3.0 <= rep.ratio_l2 <= 5.0
    assert rep.after.l2 < 4 * rep.baseline.l2 + 1e-3


def test_flow_residual_affine_on_special_point(pts):
    p = pts["sym3"]
    sol = ScaleSimilaritySolution(p, t0=-1.0, bump=0.5)
    grid = Grid.make(npts=64, extent=(-4, 4))
    rep = verify_symmetry_flow(p, "A", 0.2, sol, grid, (0.02, 0.18))
    assert 3.0 <= rep.ratio_l2 <= 5.0


def test_flow_residual_infinite_commutative(pts):
    p = pts["infasub"]
    sol = HJSimilaritySolution(p, t0=-1.0, bump=0.4)
    moved = flow("Yf:z+1/2*z^2", 0.3, sol, p)
    study = convergence(lambda traj: residual(p, traj), moved,
                        Grid.make(npts=64, extent=(-4, 4)), np.linspace(0.0, 0.2, 9))
    assert study.passed


def test_flow_verification_gates_admissibility(pts, heat_sol):
    """The order-2 verdict is the gate: A is no symmetry at sym1b, so the
    bundled heat pair passes its baseline and its image under A fails."""
    p = pts["sym1b"]
    grid = Grid.make(npts=64, extent=(-4, 4))
    good = verify_symmetry_flow(p, "D", 0.15, heat_sol, grid, (0.02, 0.18))
    rep = verify_symmetry_flow(p, "A", 0.3, heat_sol, grid, (0.02, 0.18))
    assert good.passed and rep.baseline.linf <= 0.05
    assert not rep.passed, rep.ratio_l2
    assert rep.after.l2 >= 1e6 * rep.floor


@pytest.mark.parametrize("name", ["nu1", "nu2", "mu1", "mu2", "mu3", "mu4", "mu5"])
def test_order_two_verdict_fails_mutated_coefficients(pts, heat_sol, name):
    """The heat pair solves the system at sym1b and no system with one model
    parameter moved by 1/10 (mu0 does not enter the dynamics): the verdict
    fails each, with the residual far above the rounding floor."""
    p = pts["sym1b"]
    q = p.replace(**{name: getattr(p, name) + Fraction(1, 10)})
    grid, times = Grid.make(npts=64, extent=(-4, 4)), np.linspace(0.02, 0.18, 9)
    assert convergence(lambda traj: residual(p, traj), heat_sol, grid, times).passed
    study = convergence(lambda traj: residual(q, traj), heat_sol, grid, times)
    assert not study.passed, study.ratio_l2
    assert study.coarse.l2 >= 1e6 * study.floor


def test_flow_verification_passes_a_residual_at_rounding_level(pts, heat_sol):
    """P:1 at eps = 30 moves the heat pair's packets off the grid: the
    moved field is the constant offset, its residual is rounding on both
    grids, and no l2 ratio is meaningful, so the floor decides."""
    p = pts["sym1b"]
    rep = verify_symmetry_flow(p, "P:1", 30.0, heat_sol,
                               Grid.make(npts=64, extent=(-4, 4)), (0.02, 0.18))
    assert max(rep.after.l2, rep.after_fine.l2) <= rep.floor < 1e-12
    assert not 3.0 <= rep.ratio_l2 <= 5.0 and rep.passed


@pytest.mark.parametrize("half", ["r", "s-first-slice"])
def test_flow_verification_refuses_nan_baseline(pts, heat_sol, half):
    """A source that is NaN at one grid point has a NaN baseline residual,
    which is refused with the generator named, not studied.  A NaN in s at
    the first time stamp reaches only the s residual; the sup norm of the
    report is NaN then too."""
    class Holed:
        def rs(self, xs, t):
            r, s = heat_sol.rs(xs, t)
            hole = np.asarray(xs[0]) == xs[0][20]
            if half == "r":
                return np.where(hole, np.nan, r), s
            return r, np.where(hole & (t == 0.02), np.nan, s)

    grid = Grid.make(npts=64, extent=(-4, 4))
    with pytest.raises(ValueError, match="baseline residual nan .* that P:1 at"):
        verify_symmetry_flow(pts["sym1b"], "P:1", 0.5, Holed(), grid, (0.02, 0.18))


def test_flow_verification_rejects_non_solution(pts):
    p = pts["sym1b"]
    grid = Grid.make(npts=64, extent=(-4, 4))
    with pytest.raises(ValueError):
        verify_symmetry_flow(p, "P:1", 0.3, Junk(), grid, (0.02, 0.18))


def test_rotation_flow_residual_2d(pts):
    from dgsym.params import reference_points
    p = reference_points(2)["sym1b"]
    data = linearization_data(p)
    fp = heat_solution(data.diffusion, "forward", n=2, amplitude=0.8,
                       focus_time=1.2, offset=0.5)
    fm = heat_solution(data.diffusion, "backward", n=2, amplitude=0.6,
                       focus_time=-0.3, offset=0.4)
    sol = heat_pair_to_dg(fp, fm, p)
    grid = Grid.make(n=2, npts=48, extent=(-4, 4))
    rep = verify_symmetry_flow(p, "L:1,2", 0.4, sol, grid, (0.02, 0.18))
    assert 3.0 <= rep.ratio_l2 <= 5.0


def test_translation_of_gauged_packet(pts):
    """Translating a gauged packet keeps the residual at baseline scale."""
    from dgsym.linearize import gauge_act_field
    from dgsym.pde import se_gaussian
    p = pts["sym1c"]
    data = linearization_data(p)
    sol = gauge_act_field(data.gauge_from_linear(),
                          se_gaussian(data.se_coefficient, b0=-0.3))
    grid = Grid.make(npts=64, extent=(-4, 4))
    rep = verify_symmetry_flow(p, "P:1", 0.5, sol, grid, (0.02, 0.18))
    assert rep.after.l2 <= 2 * rep.baseline.l2 + 1e-12
    assert 3.0 <= rep.ratio_l2 <= 5.0


@pytest.mark.parametrize("g", [GaugeElement(Fraction(2), Fraction(-1, 3)),
                               (0.7, -1.3)], ids=["gauge-element", "gauge-pair"])
def test_field_and_evaluator_adapters_agree(heat_sol, g):
    """The gauge's two inputs agree: on a Trajectory it is (r, gamma r +
    Lambda s) on the stacks, bit for bit, and equals sampling the gauged
    evaluator."""
    from dgsym.linearize import _gauge_pair, gauge_act_field

    L, c = _gauge_pair(g)
    traj = sample_trajectory(heat_sol, GRID, [0.02, 0.07, 0.11])
    moved = gauge_act_field(g, traj)
    assert isinstance(moved, Trajectory) and moved.grid == GRID
    assert np.array_equal(moved.times, traj.times)
    assert np.array_equal(moved.r, traj.r) and not np.shares_memory(moved.r, traj.r)
    assert np.array_equal(moved.s, c * traj.r + L * traj.s)
    lazy = sample_trajectory(gauge_act_field(g, heat_sol), GRID, traj.times)
    assert np.array_equal(moved.r, lazy.r) and np.array_equal(moved.s, lazy.s)


def test_vertical_group_law_random_eps(pts):
    from hypothesis import given, settings
    from hypothesis import strategies as st

    p = pts["expsub-nu2"]

    @given(st.floats(min_value=0.01, max_value=0.5),
           st.floats(min_value=0.01, max_value=0.5))
    @settings(max_examples=25, deadline=None)
    def check(e1, e2):
        two = flow("F", e2, flow("F", e1, Still(), p), p)
        assert max_diff(sampled(two), sampled(flow("F", e1 + e2, Still(), p))) < 1e-10

    check()


def test_exponential_flow_structure_identity(pts):
    """At the simplest exponential point the flow acts on u = exp(2r) by
    u -> u + 2 eps while conserving r + s, an exact structural check of the
    vertical coefficients."""
    class Balanced:  # the r + s = 0 family
        def rs(self, xs, t):
            r = 0.2 * np.sin(np.asarray(xs[0]))
            return r, -r

    p = pts["expsub"]
    grid = Grid.make(npts=32, extent=(-2, 2))
    out = sample_evaluator(flow("F", 0.4, Balanced(), p), grid, 0.0)
    np.testing.assert_allclose(out.r + out.s, 0.0, atol=1e-12)
    np.testing.assert_allclose(np.exp(2 * out.r),
                               np.exp(2 * 0.2 * np.sin(grid.coords()[0])) + 0.8,
                               rtol=1e-12)
