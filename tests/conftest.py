import numpy as np
import pytest

from dgsym.params import reference_points


@pytest.fixture(scope="session")
def pts():
    return reference_points()


class Junk:
    """An (r, s) evaluator that solves no equation of the family."""

    def rs(self, xs, t):
        x = np.asarray(xs[0])
        return 0.5 * np.sin(3 * x) * (1 + t), 0.4 * np.cos(2 * x)


def flow(name, eps, source, p):
    """The closed-form flow of generator ``name`` composed with an (r, s)
    evaluator, whether or not the generator is admissible at p."""
    from dgsym.flows import TransformedSolution, closed_flow_map

    return TransformedSolution(closed_flow_map(name, eps, p), source)


def stack_fields(grid, fields):
    """One trajectory from time-ordered slices on ``grid``."""
    from dgsym.fields import Trajectory

    return Trajectory(grid, [f.t for f in fields], [f.r for f in fields],
                      [f.s for f in fields])


def padded(u, grid, fill=0.0):
    """The grid-layout state ``u``, ``(2, *lead, *grid.shape)``, inside a new
    ghost-padded state whose ghost layer holds ``fill``: the one layout
    ``kernels.evolution_rhs`` and ``kernels._derivative_bundle`` take."""
    from dgsym.kernels import padded_layout

    shape, _, inner = padded_layout(grid)
    out = np.full(u.shape[:u.ndim - grid.n] + shape, fill)
    out[inner] = u
    return out


def grid_rhs(u, grid, coeffs):
    """``evolution_rhs`` of the grid-layout state ``u`` through ``padded``,
    as the grid view of its padded result."""
    from dgsym.kernels import evolution_rhs, padded_layout

    return evolution_rhs(padded(u, grid), grid, coeffs)[padded_layout(grid)[2]]


def heat_residual(sol, grid, times):
    """L2 finite-difference residual of d_t phi + sign D lap phi = 0, sign +1
    for a forward kernel: the r residual of coefficients (-sign D, 0, ..., 0)
    on r = phi, s = 0.  Refuses, like ``residual``, time stamps a three-point
    derivative cannot use before it evaluates the kernel at them."""
    from dgsym import pde
    from dgsym.fields import Trajectory

    times = np.asarray(times, dtype=float)
    pde._check_times(times)
    vals = np.array([sol.value(grid.coords(), t) for t in times])
    sign = 1.0 if sol.direction == "forward" else -1.0
    coeffs = (-sign * sol.D,) + (0.0,) * 8
    return pde._residual_report(coeffs, Trajectory(grid, times, vals,
                                                   np.zeros_like(vals))).r_l2


def reference_bracket(X, Y):
    """[X, Y] through directional derivatives: [X,Y]^u = X(Y^u) - Y(X^u),
    with V(f) = sum_v V^v d_v f built from SymExpr products and
    ``differentiate``.  The formula ``lie_bracket`` computed before it became
    one pass over term pairs, kept to test that pass against."""
    from dgsym.symexpr import SymExpr, VectorFieldSpec, var_names

    if X.n != Y.n:
        raise ValueError("arity mismatch between vector fields")
    n = X.n

    def apply(V, f):
        return sum((coeff * f.differentiate(name)
                    for name, coeff in zip(var_names(n), V.components())),
                   SymExpr.zero(n))

    comps = [apply(X, yu) - apply(Y, xu)
             for xu, yu in zip(X.components(), Y.components())]
    return VectorFieldSpec(n=n, xi=tuple(comps[:n]), tau=comps[n],
                           phi=comps[n + 1], sigma=comps[n + 2])


def _reference_row(label, got, want):
    """A row that passes when got and want have the same normal form; a
    failing row's detail maps each component where they differ to got - want."""
    from dgsym.symmetry import CheckRow

    if got == want:
        return CheckRow(label, True)
    diff = {u: c for u, c in (got - want).component_map().items() if not c.is_zero}
    return CheckRow(label, False, f"mismatch: {diff}")


def _reference_combo(terms, fields, n):
    """Sum of c * fields[g] over the (c, g) terms, by ``SymExpr.lincomb``."""
    from dgsym.symexpr import SymExpr, VectorFieldSpec

    comps = [SymExpr.lincomb(n, ((c, fields[g].components()[u]) for c, g in terms))
             for u in range(n + 3)]
    return VectorFieldSpec(n=n, xi=tuple(comps[:n]), tau=comps[n],
                           phi=comps[n + 1], sigma=comps[n + 2])


def reference_commutator_table(p, n=None):
    """``verify_commutator_table`` in SymExpr arithmetic: each bracket by
    ``reference_bracket``, each expected side by ``lincomb``, and rows
    compared by normal form.  The table is read from the module at call
    time, so a patched ``_expected_bracket`` reaches both."""
    from dgsym import symmetry

    if n is not None:
        p = p.replace(n=n)
    n = p.n
    names = [symmetry.parse_generator(g) for g in symmetry.admissible_generators(p)
             if g not in ("F", "Zheat", "Zse")]
    fields = {g: symmetry.basis_generator(g, p) for g in names}
    rows = []
    for ia, a in enumerate(names):
        for b in names[ia + 1:]:
            expected = symmetry._expected_bracket(a, b, p)
            sign = 1
            if expected is None:
                flipped = symmetry._expected_bracket(b, a, p)
                expected = [] if flipped is None else flipped
                sign = -1
            want = _reference_combo([(sign * c, g) for c, g in expected], fields, n)
            rows.append(_reference_row(f"[{a},{b}]",
                                       reference_bracket(fields[a], fields[b]), want))
    return rows


def reference_infinite_relations(p):
    """``verify_infinite_relations`` in SymExpr arithmetic: every expected
    side c Y_h built as its own field from the polynomial c h, brackets by
    ``reference_bracket`` and rows compared by normal form."""
    from fractions import Fraction

    from dgsym import symmetry

    if not symmetry.predicate_report(p)["InfSub"]:
        raise symmetry.GeneratorNotAdmissible("Y_f relations require the infinite subfamily")
    top = symmetry._MAX_DEGREE
    mono = lambda d: (0,) * d + (Fraction(1),)

    def Y(f, c=1):
        return symmetry.infsub_poly_generator(p, [c * a for a in f])

    Ys = [Y(mono(d)) for d in range(top + 1)]
    R = symmetry.basis_generator("R", p)
    E = symmetry.basis_generator("E", p)
    diff = symmetry._poly_diff
    rows = []
    for d1, Yf in enumerate(Ys):
        fp = diff(mono(d1))
        rows.append(_reference_row(f"[Y_z^{d1},R]", reference_bracket(Yf, R),
                                   Y(fp, -p.mu1)))
        rows.append(_reference_row(f"[Y_z^{d1},E]", reference_bracket(Yf, E),
                                   Y(fp, Fraction(1, 2))))
        for d2 in range(d1, top + 1):
            h = symmetry._poly_vf_bracket(mono(d1), mono(d2))
            rows.append(_reference_row(f"[Y_z^{d1},Y_z^{d2}]",
                                       reference_bracket(Yf, Ys[d2]),
                                       Y(h, p.mu1 - 2 * p.nu2)))
    if p.mu1 == 2 * p.nu2:
        A = symmetry.basis_generator("A", p)
        for d, Yf in enumerate(Ys):
            zfp = symmetry._poly_mul(symmetry._Z, diff(mono(d)))
            rows.append(_reference_row(f"[A,Y_z^{d}]", reference_bracket(A, Yf), Y(zfp)))
    return rows
