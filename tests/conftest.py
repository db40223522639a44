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
