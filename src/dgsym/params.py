"""Parameter space of the Doebner-Goldin family and its nonlinear gauge structure.

The free family is coordinatized by eight real model parameters
(nu1, nu2, mu0..mu5) with nu1 != 0, plus the spatial dimension n.  A
two-parameter group of nonlinear gauge transformations (Lambda, gamma),
isomorphic to Aff(1), acts on wavefunctions and on the parameter space; six
rational invariants iota0..iota5 coordinatize the orbit space.  Each
subfamily is one condition on iota0..iota5, so it is gauge invariant by
construction, and the maximal Lie-symmetry class of a parameter point is
decided from the invariants alone.

Everything here is exact: parameters are ``fractions.Fraction`` and no
floating point enters any predicate.  Every subfamily condition is
homogeneous in (nu, mu), so the predicates are decided on Python integers:
the eight denominators are cleared once (``DGParams.cleared``) and each
condition is one integer relation among the cleared numerators I0..I5 of
the invariants.  ``compute_invariants`` is the rational view of the same
integers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Union

RationalLike = Union[Fraction, int, str]

PARAM_NAMES = ("nu1", "nu2", "mu0", "mu1", "mu2", "mu3", "mu4", "mu5")

# Structure of the maximal symmetry algebra carried by each class tag.
ALGEBRA_STRUCTURE = {
    "Sym0": "(aff(1) |x e(n)) (+) t(2)",
    "Sym1": "sch_e(n) (+) t(1)",
    "Sym2": "(aff(1) |x (aff(1) |x e(n))) (+) t(1)",
    "Sym3": "(aff(1) |x sch(n)) (+) t(1)",
    "Sym4": "(t(2) |x t(1)) (+) (aff(1) |x e(n))",
    "Sym0a": "(aff(1) |x e(n)) (+) (t(1) |x a_inf) (+) t(1)",
    "Sym2a": "(aff(1) |x ((aff(1) |x e(n)) (+) a_inf)) (+) t(1)",
    "Sym1b": "(sch_e(n) (+) t(1)) |x b_inf",
    "Sym1c": "(sch_e(n) (+) t(1)) |x c_inf",
}


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction or 'p/q' string to an exact Fraction.

    Floats are rejected on purpose: the gauge algebra must stay exact.

    The exact type is tested first: a Fraction is returned as it is, and a
    str whose stripped text is 'p' or 'p/q' in decimal digits (p with an
    optional '-', q nonzero) is parsed with int(), which is faster than
    Fraction's own parser.  Any other string goes to Fraction(), so every
    string is accepted or refused exactly as Fraction(value.strip()) would.
    Every other type takes the isinstance chain: bool is refused, a
    Fraction subclass is returned as it is, and int and str subclasses
    coerce as int and str do.
    """
    kind = type(value)
    if kind is Fraction:
        return value
    if kind is not str:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, bool):
            raise TypeError("bool is not a rational parameter")
        if isinstance(value, int):
            return Fraction(value)
        if not isinstance(value, str):
            raise TypeError(f"expected int, Fraction or 'p/q' string, "
                            f"got {type(value).__name__}")
    text = value.strip()
    num, slash, den = text.partition("/")
    if num.removeprefix("-").isdecimal():
        if not slash:
            return Fraction(int(num))
        if den.isdecimal():
            q = int(den)
            if q:
                return Fraction(int(num), q)
    return Fraction(text)


def rational_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _shown(value) -> str:
    """A JSON value as a file writes it, cut to 40 characters for a message."""
    return json.dumps(value, default=str)[:40]


@dataclass(frozen=True)
class DGParams:
    """One point of the family: dimension n and the eight model parameters."""

    n: int
    nu1: Fraction
    nu2: Fraction = Fraction(0)
    mu0: Fraction = Fraction(0)
    mu1: Fraction = Fraction(0)
    mu2: Fraction = Fraction(0)
    mu3: Fraction = Fraction(0)
    mu4: Fraction = Fraction(0)
    mu5: Fraction = Fraction(0)

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"spatial dimension must be a positive integer, got {self.n!r}")
        for name in PARAM_NAMES:
            object.__setattr__(self, name, as_rational(getattr(self, name)))
        if self.nu1 == 0:
            raise ValueError("nu1 must be nonzero")

    def replace(self, **kw) -> "DGParams":
        return replace(self, **kw)

    @cached_property
    def cleared(self) -> tuple:
        """``(D, A, I0, ..., I5)``: the invariants with denominators cleared.

        D is the lcm of the eight denominators and A = nu1 D, B = nu2 D,
        Mi = mui D are integers; the invariants are iota0..iota5 =
        I0/D^2, I1/D^2, I2/D, I3/A, I4/(A D), I5/(A D^2).
        """
        qs = [getattr(self, name) for name in PARAM_NAMES]
        D = math.lcm(*(q.denominator for q in qs))
        A, B, M0, M1, M2, M3, M4, M5 = (q.numerator * (D // q.denominator) for q in qs)
        return (D, A, A * M0, A * M2 - B * M1, M1 - 2 * B, A + M3,
                A * M4 - M1 * M3,
                A * (A * (M2 + 2 * M5) - B * (M1 + 2 * M4)) + 2 * B * B * M3)

    @cached_property
    def system_floats(self) -> tuple:
        """``dg_system(self)`` as floats, each coefficient rounded once;
        computed on first use and kept with the point, so the residuals and
        evolutions of one point convert its system once."""
        return tuple(map(float, dg_system(self)))

    def to_json_dict(self) -> dict:
        d = {"n": self.n}
        d.update({name: rational_str(getattr(self, name)) for name in PARAM_NAMES})
        return d

    @classmethod
    def from_json_dict(cls, d) -> "DGParams":
        """The point a parameter file's JSON holds.  Every malformed input is
        a ValueError (a ZeroDivisionError for a 'p/0' string): a value that
        is not an object, an unknown or missing key, an 'n' that is not an
        integer, and a parameter that is neither an integer nor a string,
        such as a float or a bool."""
        if type(d) is not dict:
            raise ValueError(f"parameter file must hold a JSON object, got {_shown(d)}")
        unknown = set(d) - set(PARAM_NAMES) - {"n"}
        if unknown:
            raise ValueError(f"unknown parameter keys: {sorted(unknown)}")
        if "n" not in d or "nu1" not in d:
            raise ValueError("parameter file must define at least 'n' and 'nu1'")
        if type(d["n"]) is not int:
            raise ValueError(f"'n' must be a JSON integer, got {_shown(d['n'])}")
        kw = {}
        for name in PARAM_NAMES:
            if name in d:
                if type(d[name]) not in (int, str):
                    raise ValueError(f"{name!r} must be an integer or a 'p/q' string, "
                                     f"got {_shown(d[name])}")
                kw[name] = d[name]
        return cls(n=d["n"], **kw)

    @classmethod
    def load(cls, path) -> "DGParams":
        """The point of a parameter file, read as bytes and decoded as strict
        UTF-8: undecodable bytes are a UnicodeDecodeError and a leading BOM
        a JSONDecodeError, both ValueErrors."""
        with open(path, "rb") as fh:
            raw = fh.read()
        return cls.from_json_dict(json.loads(raw.decode("utf-8")))

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")


@dataclass(frozen=True)
class GaugeElement:
    """Element (Lambda, gamma) of the gauge group, Lambda != 0."""

    Lambda: Fraction
    gamma: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "Lambda", as_rational(self.Lambda))
        object.__setattr__(self, "gamma", as_rational(self.gamma))
        if self.Lambda == 0:
            raise ValueError("Lambda must be nonzero")


@dataclass(frozen=True)
class GaugeInvariants:
    iota0: Fraction
    iota1: Fraction
    iota2: Fraction
    iota3: Fraction
    iota4: Fraction
    iota5: Fraction

    def as_tuple(self):
        return (self.iota0, self.iota1, self.iota2, self.iota3, self.iota4, self.iota5)

    def to_json_dict(self) -> dict:
        return {f"iota{i}": rational_str(v) for i, v in enumerate(self.as_tuple())}


@dataclass(frozen=True)
class SymmetryClass:
    """Classification result: class tag, algebra structure, predicate report
    and the invariants they were decided from."""

    tag: str
    algebra: str
    predicates: dict
    invariants: GaugeInvariants

    def __str__(self):
        return self.tag


def gauge_identity() -> GaugeElement:
    return GaugeElement(Fraction(1), Fraction(0))


def gauge_compose(g1: GaugeElement, g2: GaugeElement) -> GaugeElement:
    """Group law: (L1, c1) o (L2, c2) = (L1*L2, L1*c2 + c1)."""
    return GaugeElement(g1.Lambda * g2.Lambda, g1.Lambda * g2.gamma + g1.gamma)


def gauge_inverse(g: GaugeElement) -> GaugeElement:
    inv = 1 / g.Lambda
    return GaugeElement(inv, -inv * g.gamma)


def gauge_act_params(g: GaugeElement, p: DGParams) -> DGParams:
    """Left action of the gauge group on the parameter space, exact."""
    L, c = g.Lambda, g.gamma
    return DGParams(
        n=p.n,
        nu1=p.nu1 / L,
        nu2=-c / (2 * L) * p.nu1 + p.nu2,
        mu0=L * p.mu0,
        mu1=-c / L * p.nu1 + p.mu1,
        mu2=c * c / (2 * L) * p.nu1 - c * p.nu2 - c / 2 * p.mu1 + L * p.mu2,
        mu3=p.mu3 / L,
        mu4=-c / L * p.mu3 + p.mu4,
        mu5=c * c / (4 * L) * p.mu3 - c / 2 * p.mu4 + L * p.mu5,
    )


def dg_system(p: DGParams) -> tuple:
    """The evolution system of p, exact: the Fractions (a1..a4, b1..b5) of
    r_t = a . (lap r, lap s, |grad r|^2, grad r . grad s) and
    s_t = b . (lap r, lap s, |grad r|^2, grad r . grad s, |grad s|^2),
    psi = exp(r + i s), in the order ``kernels.evolution_rhs`` takes.  The
    Laplacian block M = [[a1, a2], [b1, b2]] has det 2 iota1, trace -iota2."""
    return (2 * p.nu2, p.nu1, 4 * p.nu2, 2 * p.nu1,
            -2 * p.mu2, -p.mu1, -4 * (p.mu2 + p.mu5), -2 * (p.mu1 + p.mu4), -p.mu3)


def compute_invariants(p: DGParams) -> GaugeInvariants:
    """The six exact gauge invariants of a parameter point: the rational
    view of ``p.cleared``."""
    D, A, I0, I1, I2, I3, I4, I5 = p.cleared
    D2 = D * D
    return GaugeInvariants(Fraction(I0, D2), Fraction(I1, D2), Fraction(I2, D),
                           Fraction(I3, A), Fraction(I4, A * D), Fraction(I5, A * D2))


@dataclass(frozen=True)
class Stability:
    """The kind of the evolution problem at a point and rho, the spectral
    radius of its principal symbol."""

    kind: str
    rho: float

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "rho": self.rho}


def stability_report(p: DGParams) -> Stability:
    """The kind and rho of p's principal symbol M = [[2 nu2, nu1], [-2 mu2,
    -mu1]], the Laplacian block of ``dg_system``, read from its trace -iota2
    and determinant 2 iota1, so both are gauge invariant.

    The linear part u_t = M lap u is well-posed iff no eigenvalue of M has
    a negative real part, that is iff iota2 <= 0 <= iota1.  The kind is
    'ill-posed' (backward-parabolic) otherwise; 'degenerate' where iota1 =
    iota2 = 0, M nilpotent (not zero, since nu1 != 0); 'dispersive' where
    iota2 = 0 < iota1, eigenvalues +-i sqrt(2 iota1); and 'parabolic' in
    the rest.  rho = (|tr| + sqrt(tr^2 - 4 det))/2 where tr^2 >= 4 det and
    sqrt(det) where the eigenvalues are complex, from the exact discriminant.
    """
    D, _, _, I1, I2, *_ = p.cleared
    iota1, iota2 = Fraction(I1, D * D), Fraction(I2, D)
    if I1 < 0 or I2 > 0:
        kind = "ill-posed"
    elif I2 == 0:
        kind = "degenerate" if I1 == 0 else "dispersive"
    else:
        kind = "parabolic"
    disc = iota2 * iota2 - 8 * iota1
    if disc >= 0:
        rho = (abs(float(iota2)) + math.sqrt(disc)) / 2
    else:
        rho = math.sqrt(2 * iota1)
    return Stability(kind, rho)


def canonical_gauge(p: DGParams) -> GaugeElement:
    """Gauge element (nu1, mu1); gauge_act_params with it gives nu1' = 1, mu1' = 0."""
    return GaugeElement(p.nu1, p.mu1)


# ---------------------------------------------------------------------------
# Subfamilies: each one condition on the invariants, decided on the cleared
# integers (D > 0 and A != 0, so every relation below is the invariant one
# multiplied through by a nonzero integer).

def _exp_relations(iota2: Fraction, iota3: Fraction) -> tuple:
    """(iota1, iota4, iota5) of the exponential subfamily, iota2, iota3 != 0;
    ``make_exp_sub`` solves the invariant definitions with them."""
    iota1 = (iota3 ** 2 - 1) * iota2 ** 2 / (8 * iota3 ** 2)
    return iota1, (1 - iota3) * iota2 / 2, iota1 * iota3


def _subfamilies(cleared: tuple) -> dict:
    """Every subfamily condition evaluated on the cleared integers of a point.

    GalSub: Galilei-invariant.  FinSub: the extra finite generator A.
    InfSub: the infinite vector-field symmetry Y_f; InfaSub its commutative
    case.  EhrSub: linearizable (heat pair for iota1 < 0, free SE for
    iota1 > 0).  ExpSub: the exponential vertical generator F, where
    iota2, iota3 != 0 and (iota1, iota4, iota5) = ``_exp_relations``.
    """
    _, A, _, I1, I2, I3, I4, I5 = cleared
    inf = I1 == 0 and I5 == 0 and I3 == -A and I4 == A * I2
    return {
        "GalSub": I3 == 0 and I4 == 0,
        "FinSub": I1 == 0 and I2 == 0 and I4 == 0 and I5 == 0,
        "InfSub": inf,
        "InfaSub": inf and I2 == 0,
        "EhrSub": I2 == 0 and I3 == 0 and I4 == 0 and I5 == 0 and I1 != 0,
        "ExpSub": I2 != 0 and I3 != 0
        and 8 * I3 * I3 * I1 == (I3 * I3 - A * A) * I2 * I2
        and 2 * I4 == (A - I3) * I2 and I5 == I1 * I3,
    }


def predicate_report(p: DGParams) -> dict:
    """Every subfamily predicate evaluated at p (for inspecting ambiguous points)."""
    return _subfamilies(p.cleared)


def classify(p: DGParams) -> SymmetryClass:
    """Most-special symmetry class of p, by fixed priority over exact predicates.

    Priority: linearizable branch first, then the infinite vector-field
    subfamilies, then the finite special classes, then the exponential class,
    and the generic class last.  Degenerate overlaps resolve toward the more
    symmetric class.
    """
    report = _subfamilies(p.cleared)
    if report["EhrSub"]:
        tag = "Sym1b" if p.cleared[3] < 0 else "Sym1c"  # the sign of iota1
    elif report["InfSub"]:
        tag = "Sym2a" if report["InfaSub"] else "Sym0a"
    elif report["GalSub"] and report["FinSub"]:
        tag = "Sym3"
    elif report["GalSub"]:
        tag = "Sym1"
    elif report["FinSub"]:
        tag = "Sym2"
    elif report["ExpSub"]:
        tag = "Sym4"
    else:
        tag = "Sym0"
    return SymmetryClass(tag=tag, algebra=ALGEBRA_STRUCTURE[tag],
                         predicates=report, invariants=compute_invariants(p))


# ---------------------------------------------------------------------------
# Constructors for subfamily representatives (free parameters -> full point).

def make_gal_sub(n, nu1, nu2, mu1, mu2, mu5, mu0=0) -> DGParams:
    nu1 = as_rational(nu1)
    mu1 = as_rational(mu1)
    return DGParams(n=n, nu1=nu1, nu2=nu2, mu0=mu0, mu1=mu1, mu2=mu2,
                    mu3=-nu1, mu4=-mu1, mu5=mu5)


def make_fin_sub(n, nu1, nu2, mu3, mu0=0) -> DGParams:
    nu1, nu2, mu3 = map(as_rational, (nu1, nu2, mu3))
    return DGParams(n=n, nu1=nu1, nu2=nu2, mu0=mu0, mu1=2 * nu2,
                    mu2=2 * nu2 ** 2 / nu1, mu3=mu3,
                    mu4=2 * mu3 * nu2 / nu1, mu5=mu3 * nu2 ** 2 / nu1 ** 2)


def make_inf_sub(n, nu1, nu2, mu1, mu0=0) -> DGParams:
    nu1, nu2, mu1 = map(as_rational, (nu1, nu2, mu1))
    return DGParams(n=n, nu1=nu1, nu2=nu2, mu0=mu0, mu1=mu1,
                    mu2=nu2 * mu1 / nu1, mu3=-2 * nu1,
                    mu4=-2 * nu2 - mu1, mu5=-nu2 * mu1 / nu1)


def make_infa_sub(n, nu1, nu2, mu0=0) -> DGParams:
    nu2 = as_rational(nu2)
    return make_inf_sub(n, nu1, nu2, 2 * nu2, mu0=mu0)


def make_ehr_sub(n, nu1, nu2, mu2, mu0=0) -> DGParams:
    nu1, nu2, mu2 = map(as_rational, (nu1, nu2, mu2))
    if mu2 == 2 * nu2 ** 2 / nu1:
        raise ValueError("mu2 = 2 nu2^2/nu1 lies outside the linearizable subfamily")
    return DGParams(n=n, nu1=nu1, nu2=nu2, mu0=mu0, mu1=2 * nu2, mu2=mu2,
                    mu3=-nu1, mu4=-2 * nu2, mu5=-mu2 / 2)


def make_sym3(n, nu1, nu2, mu0=0) -> DGParams:
    """GalSub and FinSub at once: the FinSub point with mu3 = -nu1."""
    nu1 = as_rational(nu1)
    return make_fin_sub(n, nu1, nu2, -nu1, mu0=mu0)


def make_exp_sub(n, nu1, nu2, mu1, mu3, mu0=0) -> DGParams:
    nu1, nu2, mu1, mu3 = map(as_rational, (nu1, nu2, mu1, mu3))
    if mu1 == 2 * nu2 or mu3 == -nu1:
        raise ValueError("exponential subfamily needs mu1 != 2 nu2 and mu3 != -nu1")
    # solve the definitions of iota1, iota4, iota5 for mu2, mu4, mu5
    iota1, iota4, iota5 = _exp_relations(mu1 - 2 * nu2, 1 + mu3 / nu1)
    mu2 = (iota1 + nu2 * mu1) / nu1
    mu4 = iota4 + mu1 * mu3 / nu1
    mu5 = ((iota5 + nu2 * (mu1 + 2 * mu4) - 2 * nu2 ** 2 * mu3 / nu1) / nu1 - mu2) / 2
    return DGParams(n=n, nu1=nu1, nu2=nu2, mu0=mu0, mu1=mu1, mu2=mu2, mu3=mu3,
                    mu4=mu4, mu5=mu5)


def reference_points(n: int = 1) -> dict:
    """Named exact representatives of each subfamily, used by tests and the CLI."""
    F = Fraction
    return {
        # free linear SE written in family coordinates: i psi_t = -Lap psi
        "linear-se": DGParams(n=n, nu1=F(-1), mu2=F(-1, 2), mu3=F(1), mu5=F(1, 4)),
        "sym1b": DGParams(n=n, nu1=F(1), mu2=F(-1), mu3=F(-1), mu5=F(1, 2)),
        "sym1c": DGParams(n=n, nu1=F(1), mu2=F(1), mu3=F(-1), mu5=F(-1, 2)),
        "sym1b-nu2": make_ehr_sub(n, 1, F(1, 2), F(-1, 2)),
        "sym1c-nu2": make_ehr_sub(n, 1, F(1, 2), F(3, 2)),
        "galsub": make_gal_sub(n, 1, F(1, 3), F(1, 5), F(2, 7), F(3, 11)),
        "finsub": make_fin_sub(n, 1, F(1, 2), F(2, 3)),
        "sym3": make_sym3(n, 1, 0),
        "sym3-nu2": make_sym3(n, 1, F(1, 2)),
        "infsub": make_inf_sub(n, 1, F(1, 4), 1),
        "infasub": make_infa_sub(n, 1, F(1, 2)),
        "expsub": make_exp_sub(n, 1, 0, 1, 0),
        "expsub-nu2": make_exp_sub(n, 1, F(1, 3), 1, F(1, 2)),
        "generic": DGParams(n=n, nu1=F(1), nu2=F(1, 5), mu1=F(1, 2), mu2=F(1, 3),
                            mu3=F(1, 7), mu4=F(2, 3), mu5=F(5)),
    }
