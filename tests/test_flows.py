import numpy as np
import pytest

from dgsym.fields import (Grid, LogPolarField, sample_evaluator,
                          sample_trajectory)
from dgsym.flows import (TransformedSolution, closed_flow_map, flow_closed,
                         flow_numeric, verify_symmetry_flow)
from dgsym.linearize import heat_pair_to_dg, linearization_data
from dgsym.pde import (HJSimilaritySolution, ScaleSimilaritySolution,
                       convergence, heat_solution, residual)
from dgsym.symmetry import GeneratorNotAdmissible, basis_generator
from tests.conftest import Junk

ALL_CLOSED = ["H", "P:1", "D", "C", "A", "B:1", "E", "R"]


class Smooth:
    """A smooth (r, s) evaluator; at t = 0.07 it is close to smooth_field."""

    def rs(self, xs, t):
        x = np.asarray(xs[0])
        return (0.3 * np.sin(x) - 0.1 + 0.1 * t,
                0.2 * np.cos(2 * x) + 0.05 * x - 0.2 * t)


@pytest.fixture()
def smooth_field():
    grid = Grid.make(npts=48, extent=(-3, 3))
    x = grid.coords()[0]
    return LogPolarField(grid, 0.07, 0.3 * np.sin(x) - 0.1,
                         0.2 * np.cos(2 * x) + 0.05 * x)


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
def test_zero_epsilon_is_identity(pts, smooth_field, gen):
    """On an evaluator for every flow, and on a slice for the flows that
    leave x in place."""
    key = {"F": "expsub", "Yf:z^2": "infasub"}.get(gen, "sym3-nu2")
    p = pts[key]
    grid, t = smooth_field.grid, smooth_field.t
    moved = flow_closed(gen, 0.0, Smooth(), p, require_admissible=False)
    assert max_diff(sample_evaluator(moved, grid, t),
                    sample_evaluator(Smooth(), grid, t)) < 1e-14
    if not closed_flow_map(gen, 0.0, p).relocates:
        out = flow_closed(gen, 0.0, smooth_field, p, require_admissible=False)
        assert max_diff(out, smooth_field) < 1e-14
        assert out.t == pytest.approx(smooth_field.t)


def test_phase_shift_flow(pts, smooth_field):
    p = pts["generic"]
    out = flow_closed("E", 1.0, smooth_field, p)
    np.testing.assert_allclose(out.s, smooth_field.s - 1.0 / (2 * float(p.nu1)),
                               atol=1e-14)
    np.testing.assert_array_equal(out.r, smooth_field.r)


def test_modulus_scaling_flow(pts, smooth_field):
    out = flow_closed("R", np.log(2.0), smooth_field, pts["generic"])
    np.testing.assert_allclose(np.exp(out.r), 2 * np.exp(smooth_field.r),
                               rtol=1e-13)
    np.testing.assert_array_equal(out.s, smooth_field.s)


def test_scaling_flow_formula(pts):
    """Slice transform: values at x come from x*exp(-eps), with the printed
    modulus and phase shifts; time stamp scales by exp(2 eps)."""
    p = pts["sym3-nu2"]
    eps = 0.25

    class Src:
        def rs(self, xs, t):
            return 0.1 * np.asarray(xs[0]) ** 2 + t, 0.3 * np.asarray(xs[0])

    moved = flow_closed("D", eps, Src(), p)
    x = np.linspace(-1, 1, 7)
    t = 0.3
    r, s = moved.rs((x,), t)
    r0, s0 = Src().rs((x * np.exp(-eps),), t * np.exp(-2 * eps))
    nu1, mu1 = float(p.nu1), float(p.mu1)
    np.testing.assert_allclose(r, r0 - eps * 0.5, atol=1e-14)
    np.testing.assert_allclose(s, s0 + eps * mu1 / (2 * nu1), atol=1e-14)


def test_time_map_round_trips(pts):
    p = pts["sym3-nu2"]
    for gen, eps in [("H", 0.3), ("D", 0.2), ("C", 0.25), ("A", 0.4)]:
        fmap = closed_flow_map(gen, eps, p)
        for t0 in (0.0, 0.17, 0.5):
            assert fmap.source_time(fmap.time_map(t0)) == pytest.approx(t0)


def test_expansion_flow_singularity(pts):
    moved = flow_closed("C", 0.5, Smooth(), pts["sym3-nu2"])
    with pytest.raises(ValueError, match="singular"):
        moved.rs((np.linspace(-1, 1, 5),), -3.0)  # 1 + eps*t <= 0 at t=-3


def test_exponential_flow_domain_error(pts, smooth_field):
    with pytest.raises(ValueError):
        flow_closed("F", -30.0, smooth_field, pts["expsub"])


def test_yf_closed_flow_needs_commutative_case(pts, smooth_field):
    with pytest.raises(ValueError):
        flow_closed("Yf:z", 0.1, smooth_field, pts["infsub"])


def test_constant_yf_flow_is_a_shift_everywhere(pts, smooth_field):
    """Y_f with constant f is admissible off InfSub, and its flow is the
    shift of (r, s) along (1, -2 nu2/nu1) even where z is not conserved."""
    p = pts["generic"]
    out = flow_closed("Yf:3", 0.1, smooth_field, p)
    np.testing.assert_allclose(out.r, smooth_field.r + 0.3, atol=1e-15)
    np.testing.assert_allclose(
        out.s, smooth_field.s - 0.3 * 2 * float(p.nu2 / p.nu1), atol=1e-15)


def test_yf_flow_conserves_z(pts, smooth_field):
    p = pts["infasub"]
    out = flow_closed("Yf:1+z^2", 0.4, smooth_field, p)
    mu1, nu1 = float(p.mu1), float(p.nu1)
    z0 = mu1 * smooth_field.r + nu1 * smooth_field.s
    z1 = mu1 * out.r + nu1 * out.s
    np.testing.assert_allclose(z0, z1, atol=1e-12)


@pytest.mark.parametrize("gen", ["P:1", "B:1", "D", "C"])
def test_relocating_map_on_slice_is_refused(pts, smooth_field, gen):
    with pytest.raises(ValueError, match="flow the evaluator, then sample it"):
        flow_closed(gen, 0.1, smooth_field, pts["sym3-nu2"],
                    require_admissible=False)


@pytest.mark.parametrize("gen, key", [("Zheat", "sym1b"), ("Zse", "sym1c")])
def test_flow_closed_refuses_infinite_generators(pts, smooth_field, heat_sol,
                                                 gen, key):
    """Zheat and Zse flows need a linear-side solution; flow_closed names the
    two functions that take it, on slices and evaluators alike."""
    for psi in (smooth_field, heat_sol):
        with pytest.raises(ValueError, match="z_flow_heat.*z_flow_se"):
            flow_closed(gen, 0.2, psi, pts[key])


# ---------------------------------------------------------------------------
# group laws

@pytest.mark.parametrize("key,gen", [
    ("generic", "E"), ("generic", "R"), ("finsub", "A"),
    ("expsub", "F"), ("expsub-nu2", "F"), ("infasub", "Yf:1+z^2"),
])
def test_vertical_group_law(pts, smooth_field, key, gen):
    p = pts[key]
    one = flow_closed(gen, 0.15, smooth_field, p, require_admissible=False)
    two = flow_closed(gen, 0.2, one, p, require_admissible=False)
    tot = flow_closed(gen, 0.35, smooth_field, p, require_admissible=False)
    assert max_diff(two, tot) < 1e-10


@pytest.mark.parametrize("gen", ["D", "C", "B:1", "H", "P:1"])
def test_relocating_group_law_on_evaluators(pts, gen):
    p = pts["sym3-nu2"]

    class Src:
        def rs(self, xs, t):
            x = np.asarray(xs[0])
            return 0.2 * np.sin(x) + 0.1 * t, 0.1 * x ** 2 - 0.2 * t

    a = flow_closed(gen, 0.2, Src(), p, require_admissible=False)
    ab = TransformedSolution(closed_flow_map(gen, 0.1, p), a)
    tot = flow_closed(gen, 0.3, Src(), p, require_admissible=False)
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
def test_numeric_matches_closed(pts, smooth_field, key, gen, eps):
    """Both flows act on one evaluator; they agree at a scalar t and on a
    (T, 1) time column."""
    p = pts[key]
    X = basis_generator(gen, p, require_admissible=False)
    fc = flow_closed(gen, eps, Smooth(), p, require_admissible=False)
    fn = flow_numeric(X, eps, Smooth(), steps=128)
    grid, t = smooth_field.grid, smooth_field.t
    assert max_diff(sample_evaluator(fc, grid, t),
                    sample_evaluator(fn, grid, t)) < 1e-8
    assert max_diff(sample_trajectory(fc, grid, [t, 0.13]),
                    sample_trajectory(fn, grid, [t, 0.13])) < 1e-8


def test_numeric_boost_vertical_part(pts, smooth_field):
    """At t = 0 the boost does not move x; its phase ramp must match."""
    p = pts["sym1b"]
    X = basis_generator("B:1", p)
    fc = flow_closed("B:1", 0.3, Smooth(), p)
    fn = flow_numeric(X, 0.3, Smooth(), steps=64)
    grid = smooth_field.grid
    assert max_diff(sample_evaluator(fc, grid, 0.0),
                    sample_evaluator(fn, grid, 0.0)) < 1e-12


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
    moved = flow_closed("Yf:z+1/2*z^2", 0.3, sol, p)
    study = convergence(lambda traj: residual(p, traj), moved,
                        Grid.make(npts=64, extent=(-4, 4)), np.linspace(0.0, 0.2, 9))
    assert study.passed


def test_flow_verification_gates_admissibility(pts, heat_sol):
    grid = Grid.make(npts=64, extent=(-4, 4))
    with pytest.raises(GeneratorNotAdmissible):
        verify_symmetry_flow(pts["generic"], "C", 0.2, heat_sol, grid, (0.02, 0.18))


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


def test_numeric_flow_overflow_guard(pts, smooth_field):
    # r ~ 700 overflows the exp(eta*r + lambda*s) coefficient (eta = 13/2)
    class Big:
        def rs(self, xs, t):
            r, s = Smooth().rs(xs, t)
            return r + 700.0, s

    X = basis_generator("F", pts["expsub-nu2"])
    moved = flow_numeric(X, 1.0, Big(), steps=4)
    with pytest.raises(OverflowError), np.errstate(over="ignore", invalid="ignore"):
        sample_evaluator(moved, smooth_field.grid, 0.0)


def _vertical_cases(pts, heat_sol):
    """(field adapter, evaluator adapter) pairs of one vertical flow each."""
    from fractions import Fraction

    from dgsym.linearize import gauge_act_field, z_flow_heat, z_flow_se
    from dgsym.params import GaugeElement
    from dgsym.pde import se_gaussian

    pb, pc = pts["sym1b"], pts["sym1c"]
    fp, fm = heat_sol.phi_plus, heat_sol.phi_minus
    psi = se_gaussian(linearization_data(pc).se_coefficient, b0=-0.3)
    both = {
        "gauge-element": lambda f: gauge_act_field(
            GaugeElement(Fraction(2), Fraction(-1, 3)), f),
        "gauge-pair": lambda f: gauge_act_field((0.7, -1.3), f),
        "Zheat": lambda f: z_flow_heat(fp, fm, 0.3, f, pb),
        "Zse": lambda f: z_flow_se(psi, 0.2, f, pc),
    }
    cases = {label: (f, f) for label, f in both.items()}
    for gen, key in (("F", "expsub-nu2"), ("Yf:1+z^2", "infasub")):
        p = pts[key]
        cases[gen] = (lambda f, gen=gen, p=p: flow_closed(gen, 0.4, f, p),
                      lambda ev, gen=gen, p=p: flow_closed(gen, 0.4, ev, p))
    return cases


@pytest.mark.parametrize("case", ["gauge-element", "gauge-pair", "Zheat",
                                  "Zse", "F", "Yf:1+z^2"])
def test_field_and_evaluator_adapters_agree(pts, heat_sol, case):
    """Flowing a sampled slice and sampling the flowed evaluator give the
    same bits: both adapters run one vertical FlowMap through apply_flow."""
    on_field, on_evaluator = _vertical_cases(pts, heat_sol)[case]
    grid = Grid.make(npts=48, extent=(-3, 3))
    for t in (0.02, 0.11):
        a = on_field(sample_evaluator(heat_sol, grid, t))
        b = sample_evaluator(on_evaluator(heat_sol), grid, t)
        assert a.t == b.t == t
        assert np.array_equal(a.r, b.r) and np.array_equal(a.s, b.s)


def test_vertical_group_law_random_eps(pts, smooth_field):
    from hypothesis import given, settings
    from hypothesis import strategies as st

    p = pts["expsub-nu2"]

    @given(st.floats(min_value=0.01, max_value=0.5),
           st.floats(min_value=0.01, max_value=0.5))
    @settings(max_examples=25, deadline=None)
    def check(e1, e2):
        one = flow_closed("F", e1, smooth_field, p)
        two = flow_closed("F", e2, one, p)
        tot = flow_closed("F", e1 + e2, smooth_field, p)
        assert max_diff(two, tot) < 1e-10

    check()


def test_exponential_flow_structure_identity(pts):
    """At the simplest exponential point the flow acts on u = exp(2r) by
    u -> u + 2 eps while conserving r + s, an exact structural check of the
    vertical coefficients."""
    p = pts["expsub"]
    grid = Grid.make(npts=32, extent=(-2, 2))
    x = grid.coords()[0]
    r = 0.2 * np.sin(x)
    f0 = LogPolarField(grid, 0.0, r, -r + 0.0)  # r + s = 0 family
    out = flow_closed("F", 0.4, f0, p)
    np.testing.assert_allclose(out.r + out.s, 0.0, atol=1e-12)
    np.testing.assert_allclose(np.exp(2 * out.r), np.exp(2 * r) + 0.8,
                               rtol=1e-12)
