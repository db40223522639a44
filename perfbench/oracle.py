"""Independent references the benchmark checks dgsym's outputs against.

Nothing here calls dgsym's classifier or invariant code: the invariants are
recomputed from their defining formulas, the class tag is decided from the
invariants alone, and the subfamily containment table follows from the
subfamily conditions and the classifier's priority order.
"""

from __future__ import annotations

import numpy as np

# Classes a point built by each constructor can be tagged with.  A class
# "contains" a subfamily when the subfamily's condition holds on it; the
# tables follow from the constructors' equations (e.g. an ExpSub point with
# mu3 = -2 nu1 is also an InfSub point with mu1 != 2 nu2, hence Sym0a).
CONTAINS = {
    "GalSub": {"Sym1", "Sym3", "Sym1b", "Sym1c"},
    "FinSub": {"Sym2", "Sym3", "Sym2a"},
    "InfSub": {"Sym0a", "Sym2a"},
    "InfaSub": {"Sym2a"},
    "EhrSub": {"Sym1b", "Sym1c"},
    "Sym3": {"Sym3"},
    "ExpSub": {"Sym4", "Sym0a"},
    "generic": {"Sym0", "Sym0a", "Sym1", "Sym1b", "Sym1c", "Sym2", "Sym2a",
                "Sym3", "Sym4"},
}


def invariants(p) -> tuple:
    """iota0..iota5 of a parameter point with exact attributes nu1 .. mu5."""
    nu1, nu2 = p.nu1, p.nu2
    mu0, mu1, mu2, mu3, mu4, mu5 = (getattr(p, f"mu{i}") for i in range(6))
    return (
        nu1 * mu0,
        nu1 * mu2 - nu2 * mu1,
        mu1 - 2 * nu2,
        1 + mu3 / nu1,
        mu4 - mu1 * mu3 / nu1,
        nu1 * (mu2 + 2 * mu5) - nu2 * (mu1 + 2 * mu4) + 2 * nu2 ** 2 * mu3 / nu1,
    )


def tag_from_invariants(inv: tuple) -> str:
    """Symmetry class from the orbit coordinates alone."""
    _, i1, i2, i3, i4, i5 = inv
    if (i2, i3, i4, i5) == (0, 0, 0, 0) and i1 != 0:
        return "Sym1b" if i1 < 0 else "Sym1c"
    if i1 == 0 and i5 == 0 and i3 == -1 and i4 == i2:
        return "Sym2a" if i2 == 0 else "Sym0a"
    gal = i3 == 0 and i4 == 0
    fin = (i1, i2, i4, i5) == (0, 0, 0, 0)
    if gal and fin:
        return "Sym3"
    if gal:
        return "Sym1"
    if fin:
        return "Sym2"
    if (i2 != 0 and i3 != 0 and i4 == (1 - i3) * i2 / 2
            and i1 == (i3 ** 2 - 1) * i2 ** 2 / (8 * i3 ** 2)
            and i5 == i1 * i3):
        return "Sym4"
    return "Sym0"


def mass(traj) -> np.ndarray:
    """Integral of |psi|^2 = e^(2r) at every slice of a trajectory."""
    cell = float(np.prod(traj.grid.spacings))
    return np.array([np.sum(np.exp(2.0 * f.r)) * cell for f in traj.fields])


def bracket_properties(lie_bracket, fields: list) -> list:
    """Names of the Lie-bracket identities that fail on three vector fields:
    antisymmetry of every pair and the Jacobi identity of the triple."""
    x, y, z = fields
    bad = []
    for a, b, label in ((x, y, "xy"), (y, z, "yz"), (z, x, "zx")):
        if not (lie_bracket(a, b) + lie_bracket(b, a)).is_zero:
            bad.append(f"antisymmetry[{label}]")
    jac = (lie_bracket(x, lie_bracket(y, z)) + lie_bracket(y, lie_bracket(z, x))
           + lie_bracket(z, lie_bracket(x, y)))
    if not jac.is_zero:
        bad.append("jacobi")
    return bad
