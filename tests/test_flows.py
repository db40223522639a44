from fractions import Fraction

import numpy as np
import pytest

from dgsym.fields import Grid, Trajectory, sample_evaluator, sample_trajectory
from dgsym.flows import closed_flow_map, flow_numeric, verify_symmetry_flow
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
    """Zheat and Zse flows need a linear-side solution; closed_flow_map
    refuses them and names the two functions that take it."""
    with pytest.raises(ValueError, match="z_flow_heat.*z_flow_se"):
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
# numeric exponentiation agrees with the closed forms

@pytest.mark.parametrize("key,gen,eps", [
    ("finsub", "A", 0.3), ("expsub-nu2", "F", 0.2), ("generic", "E", 1.0),
    ("generic", "R", 0.4), ("sym1b", "D", 0.2), ("sym1b", "C", 0.25),
    ("infasub", "Yf:z^2", 0.2), ("sym1b", "H", 0.3), ("sym1b", "P:1", 0.5),
    ("sym1b", "B:1", 0.3),
])
def test_numeric_matches_closed(pts, key, gen, eps):
    """Both flows act on one evaluator; they agree at a scalar t and on a
    (T, 1) time column."""
    p = pts[key]
    X = basis_generator(gen, p)
    fc = flow(gen, eps, Smooth(), p)
    fn = flow_numeric(X, eps, Smooth(), steps=128)
    assert max_diff(sampled(fc), sampled(fn)) < 1e-8
    assert max_diff(sample_trajectory(fc, GRID, [T, 0.13]),
                    sample_trajectory(fn, GRID, [T, 0.13])) < 1e-8


def test_numeric_boost_vertical_part(pts):
    """At t = 0 the boost does not move x; its phase ramp must match."""
    p = pts["sym1b"]
    X = basis_generator("B:1", p)
    fc = flow("B:1", 0.3, Smooth(), p)
    fn = flow_numeric(X, 0.3, Smooth(), steps=64)
    assert max_diff(sampled(fc, 0.0), sampled(fn, 0.0)) < 1e-12


def test_numeric_step_validation(pts):
    X = basis_generator("E", pts["generic"])
    with pytest.raises(ValueError):
        flow_numeric(X, 0.1, Smooth(), steps=0)


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


def test_numeric_flow_overflow_guard(pts):
    # r ~ 700 overflows the exp(eta*r + lambda*s) coefficient (eta = 13/2)
    class Big:
        def rs(self, xs, t):
            r, s = Smooth().rs(xs, t)
            return r + 700.0, s

    X = basis_generator("F", pts["expsub-nu2"])
    moved = flow_numeric(X, 1.0, Big(), steps=4)
    with pytest.raises(OverflowError), np.errstate(over="ignore", invalid="ignore"):
        sampled(moved, 0.0)


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
