"""Symmetry generators, the commutator table, and the determining equations.

Generators are built per parameter point (their coefficients carry nu and mu
values) as exact :class:`~dgsym.symexpr.VectorFieldSpec` objects.  Whether a
named generator actually generates a symmetry at a point is decided by the
subfamilies of :func:`dgsym.params.classify`, each a condition on the gauge
invariants iota0..iota5, and can be re-derived from scratch here:
:func:`determining_residuals` substitutes a candidate field into the full set
of determining equations and returns each residual in normal form, so a field
is a symmetry generator iff every residual is zero.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import lcm

import numpy as np

from .params import DGParams, SymmetryClass, classify, predicate_report
from .symexpr import (ScaledField, SymExpr, VectorFieldSpec, field_denominators,
                      lie_bracket, scale_rational, scaled_derivatives, unscale)

__all__ = [
    "GeneratorName", "parse_generator", "parse_poly", "basis_names", "basis_generator",
    "is_admissible", "admissible_generators", "check_indices", "exp_rate_coefficients",
    "infsub_poly_generator", "verify_commutator_table", "verify_infinite_relations",
    "determining_residuals", "residuals_all_zero",
    "GeneratorNotAdmissible", "NoClosedForm", "CheckRow",
]


class GeneratorNotAdmissible(ValueError):
    """Requested generator does not generate a symmetry at this point."""


class NoClosedForm(GeneratorNotAdmissible):
    """Zheat and Zse: the field and the flow carry a solution of the linear
    equation, so neither has a closed form in the exact expression class."""


@dataclass(frozen=True)
class GeneratorName:
    """Parsed generator name: kind plus optional indices or polynomial payload."""

    kind: str
    i: int = 0
    j: int = 0
    poly: tuple = ()

    def __str__(self):
        if self.kind == "L":
            return f"L:{self.i},{self.j}"
        if self.kind in ("P", "B"):
            return f"{self.kind}:{self.i}"
        if self.kind == "Yf":
            return "Yf:" + ("+".join(f"({c})*z^{k}" for k, c in enumerate(self.poly) if c)
                            or "0")
        return self.kind


_SIMPLE_KINDS = ("H", "D", "C", "E", "R", "A", "F", "Zheat", "Zse")


def parse_generator(text) -> GeneratorName:
    """Accepts "H", "L:1,2", "P:1", "B:2", "Yf:1+z^2", "F", ... ."""
    if isinstance(text, GeneratorName):
        return text
    text = text.strip()
    if ":" in text:
        head, payload = text.split(":", 1)
        head = head.strip()
        if head == "L":
            i, j = (int(v) for v in payload.split(","))
            return GeneratorName(kind="L", i=i, j=j)
        if head in ("P", "B"):
            return GeneratorName(kind=head, i=int(payload))
        if head == "Yf":
            return GeneratorName(kind="Yf", poly=parse_poly(payload))
        raise ValueError(f"unknown generator {text!r}")
    if text in _SIMPLE_KINDS:
        return GeneratorName(kind=text)
    raise ValueError(f"unknown generator {text!r}")


def exp_rate_coefficients(p: DGParams) -> tuple:
    """Exact (lambda, eta, kappa) of the exponential generator F.

    lambda = 2(mu3+nu1)/(mu1-2nu2) and eta = (mu1/nu1) lambda - (mu3+2nu1)/nu1.
    kappa is fixed by the determining equations to
    (mu3+2nu1)/(nu1 lambda) + 2nu2/nu1; with this value lambda*kappa - eta = 2
    identically, which is what makes the closed-form flow of F consistent.
    """
    if p.mu1 - 2 * p.nu2 == 0 or p.mu3 + p.nu1 == 0:
        raise GeneratorNotAdmissible(
            "F needs mu1 != 2 nu2 and mu3 != -nu1 for its exponent rates")
    lam = 2 * (p.mu3 + p.nu1) / (p.mu1 - 2 * p.nu2)
    eta = p.mu1 / p.nu1 * lam - (p.mu3 + 2 * p.nu1) / p.nu1
    kappa = (p.mu3 + 2 * p.nu1) / (p.nu1 * lam) + 2 * p.nu2 / p.nu1
    return lam, eta, kappa


def _admissibility(name: GeneratorName, cls: SymmetryClass) -> bool:
    kind = name.kind
    if kind in ("H", "P", "L", "D", "E", "R"):
        return True
    if kind in ("C", "B"):
        return cls.predicates["GalSub"]
    if kind == "A":
        return cls.predicates["FinSub"]
    if kind == "F":
        return cls.predicates["ExpSub"]
    if kind == "Yf":  # constant f: R plus a multiple of E, a symmetry everywhere
        return cls.predicates["InfSub"] or not any(name.poly[1:])
    if kind == "Zheat":
        return cls.tag == "Sym1b"
    if kind == "Zse":
        return cls.tag == "Sym1c"
    raise ValueError(f"unknown generator kind {kind!r}")


def is_admissible(name, p: DGParams) -> bool:
    """Whether name generates a symmetry at p; an index outside 1..n is a
    ValueError, as in basis_generator."""
    name = parse_generator(name)
    check_indices(name, p.n)
    return _admissibility(name, classify(p))


def basis_names(n: int) -> list:
    """Names of the basis generators at spatial dimension n (indices expanded)."""
    names = ["H", "D", "E", "R"]
    names += [f"P:{j}" for j in range(1, n + 1)]
    names += [f"L:{j},{k}" for j in range(1, n + 1) for k in range(j + 1, n + 1)]
    names.append("C")
    names += [f"B:{j}" for j in range(1, n + 1)]
    return names + ["A", "F", "Zheat", "Zse"]


def admissible_generators(p: DGParams) -> list:
    """Names of the basis generators admissible at p (indices expanded)."""
    cls = classify(p)
    return [name for name in basis_names(p.n)
            if _admissibility(parse_generator(name), cls)]


# ---------------------------------------------------------------------------
# Y_f payloads: polynomials in z, as coefficient tuples (c0, c1, ..., cd) of
# Fractions with no trailing zeros, (0,) for the zero polynomial.

def _poly_trim(f):
    while len(f) > 1 and not f[-1]:
        f = f[:-1]
    return f


def _poly_add(f, g, sign=1):
    """f + sign * g."""
    return _poly_trim(tuple(a + sign * b for a, b in zip_longest(f, g, fillvalue=0)))


def _poly_mul(f, g):
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    terms = [(j, b) for j, b in enumerate(g) if b]
    for i, a in enumerate(f):
        if a:
            for j, b in terms:
                out[i + j] += a * b
    return _poly_trim(tuple(out))


def _poly_diff(f):
    return tuple(k * c for k, c in enumerate(f))[1:] or (Fraction(0),)


MAX_DEGREE = 64
MAX_NESTING = 32

_POLY_TOKEN = re.compile(r"\d+|\w+|\S")
_Z = (Fraction(0), Fraction(1))


def _bounded(value: int, limit: int, what: str) -> int:
    if value > limit:
        raise ValueError(f"payload {what} exceeds {limit}")
    return value


class _PolyReader:
    """Recursive descent over one payload's tokens.  Each rule returns the
    coefficients and a degree bound, the degree with the base of every power
    counted as degree >= 1.  The bound is checked before a product or power
    is expanded, and the depth before parentheses or unary minus recurse."""

    def __init__(self, text: str):
        self.tokens = _POLY_TOKEN.findall(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ValueError("payload ends early")
        self.pos += 1
        return tok

    def integer(self) -> int:
        tok = self.take()
        if not tok.isdecimal():
            raise ValueError(f"expected an integer literal, found {tok!r}")
        return int(tok)

    def sum(self, depth: int):
        c, d = self.product(depth)
        while self.peek() in ("+", "-"):
            sign = 1 if self.take() == "+" else -1
            c2, d2 = self.product(depth)
            c, d = _poly_add(c, c2, sign), max(d, d2)
        return c, d

    def product(self, depth: int):
        c, d = self.factor(depth)
        while self.peek() == "*":
            self.take()
            c2, d2 = self.factor(depth)
            d = _bounded(d + d2, MAX_DEGREE, "degree")
            c = _poly_mul(c, c2)
        return c, d

    def factor(self, depth: int):
        """Unary minus applies to the power after it: -z^2 is -(z^2)."""
        if self.peek() == "-":
            self.take()
            c, d = self.factor(_bounded(depth + 1, MAX_NESTING, "nesting"))
            return tuple(-a for a in c), d
        c, d = self.atom(depth)
        if self.peek() == "^":
            self.take()
            k = self.integer()
            d = _bounded(k * max(d, 1), MAX_DEGREE, "degree")
            base, c = c, (Fraction(1),)
            for _ in range(k):
                c = _poly_mul(c, base)
        return c, d

    def atom(self, depth: int):
        tok = self.take()
        if tok == "(":
            out = self.sum(_bounded(depth + 1, MAX_NESTING, "nesting"))
            if self.take() != ")":
                raise ValueError("unbalanced parenthesis in payload")
            return out
        if tok == "z":
            return _Z, 1
        if tok.isdecimal():  # p/q binds tighter than ^: 3/2^2 is 9/4
            num, den = int(tok), 1
            if self.peek() == "/":
                self.take()
                den = self.integer()
                if not den:
                    raise ValueError("zero denominator in payload")
            return (Fraction(num, den),), 0
        raise ValueError(f"unexpected {tok!r} in payload: it is a polynomial in z")


def parse_poly(text: str) -> tuple:
    """Coefficients (c0, c1, ..., cd) of a Y_f payload, a polynomial in z.

    The payload holds integers, p/q literals, z, + - * ^ and parentheses; ^
    takes an integer literal.  Trailing zeros are trimmed, and the zero
    polynomial is (0,).  A ValueError, raised before any expansion, refuses
    anything else, a zero denominator, a degree bound above MAX_DEGREE (the
    base of a power counts as degree >= 1, so 2^65 is refused too) and
    parentheses or unary minus nested deeper than MAX_NESTING.
    """
    reader = _PolyReader(text)
    coeffs, _ = reader.sum(0)
    if reader.peek() is not None:
        raise ValueError(f"unexpected {reader.peek()!r} in payload {text!r}")
    return coeffs


def _z_powers(p: DGParams, k: int) -> list:
    """z^0, ..., z^k with z = mu1 r + nu1 s, each product expanded once."""
    n = p.n
    z = p.mu1 * SymExpr.var(n, "r") + p.nu1 * SymExpr.var(n, "s")
    powers = [SymExpr.const(n, 1)]
    for _ in range(k):
        powers.append(powers[-1] * z)
    return powers


def _poly_field(p: DGParams, coeffs, powers: list) -> VectorFieldSpec:
    """Y_f for f = sum_k coeffs[k] z^k, with z^k read from ``powers``."""
    n = p.n
    f = SymExpr.lincomb(n, ((c, powers[k]) for k, c in enumerate(coeffs) if c))
    zero = SymExpr.zero(n)
    return VectorFieldSpec(n=n, xi=(zero,) * n, tau=zero, phi=f,
                           sigma=-(2 * p.nu2 / p.nu1) * f)


def infsub_poly_generator(p: DGParams, coeffs) -> VectorFieldSpec:
    """Y_f with polynomial f: f(mu1 r + nu1 s) (d/dr - (2 nu2/nu1) d/ds)."""
    return _poly_field(p, coeffs, _z_powers(p, len(coeffs) - 1))


def basis_generator(name, p: DGParams) -> VectorFieldSpec:
    """Exact vector field of a named basis generator at parameter point p.

    The field is built whether or not it is a symmetry at p (ask
    :func:`is_admissible`); F needs its exponent rates, Zheat and Zse raise.
    """
    name = parse_generator(name)
    n = p.n
    check_indices(name, n)
    zero = SymExpr.zero(n)
    kind = name.kind

    def xvar(j):
        return SymExpr.var(n, f"x{j}")

    t = SymExpr.var(n, "t")
    r = SymExpr.var(n, "r")
    s = SymExpr.var(n, "s")
    xi = [zero] * n

    if kind == "H":
        return VectorFieldSpec(n=n, xi=tuple(xi), tau=SymExpr.const(n, 1),
                               phi=zero, sigma=zero)
    if kind == "P":
        xi[name.i - 1] = SymExpr.const(n, 1)
        return VectorFieldSpec(n=n, xi=tuple(xi), tau=zero, phi=zero, sigma=zero)
    if kind == "L":
        j, k = name.i, name.j
        xi[k - 1] = xvar(j)
        xi[j - 1] = -xvar(k)
        return VectorFieldSpec(n=n, xi=tuple(xi), tau=zero, phi=zero, sigma=zero)
    if kind == "D":
        return VectorFieldSpec(
            n=n, xi=tuple(xvar(j) for j in range(1, n + 1)), tau=2 * t,
            phi=SymExpr.const(n, Fraction(-n, 2)),
            sigma=SymExpr.const(n, n * p.mu1 / (2 * p.nu1)))
    if kind == "C":
        x_sq = sum((xvar(j) ** 2 for j in range(1, n + 1)), zero)
        return VectorFieldSpec(
            n=n, xi=tuple(xvar(j) * t for j in range(1, n + 1)), tau=t * t,
            phi=Fraction(-n, 2) * t,
            sigma=-(Fraction(1) / (4 * p.nu1)) * x_sq + (n * p.mu1 / (2 * p.nu1)) * t)
    if kind == "B":
        xi[name.i - 1] = t
        return VectorFieldSpec(n=n, xi=tuple(xi), tau=zero, phi=zero,
                               sigma=-(Fraction(1) / (2 * p.nu1)) * xvar(name.i))
    if kind == "E":
        return VectorFieldSpec(n=n, xi=tuple(xi), tau=zero, phi=zero,
                               sigma=SymExpr.const(n, Fraction(-1) / (2 * p.nu1)))
    if kind == "R":
        return VectorFieldSpec(n=n, xi=tuple(xi), tau=zero,
                               phi=SymExpr.const(n, 1), sigma=zero)
    if kind == "A":
        return VectorFieldSpec(n=n, xi=tuple(xi), tau=-t, phi=zero,
                               sigma=(2 * p.nu2 / p.nu1) * r + s)
    if kind == "F":
        lam, eta, kappa = exp_rate_coefficients(p)
        e = SymExpr.exp_rs(n, eta, lam)
        return VectorFieldSpec(n=n, xi=tuple(xi), tau=zero, phi=e, sigma=-kappa * e)
    if kind == "Yf":
        if not name.poly:
            raise ValueError("Yf needs a polynomial payload, e.g. 'Yf:z^2'")
        return infsub_poly_generator(p, name.poly)
    if kind in ("Zheat", "Zse"):
        raise NoClosedForm(
            f"{kind} has no exact coefficients in this expression class: they "
            "carry a solution of the linear equation")
    raise ValueError(f"unknown generator kind {kind!r}")


def check_indices(name: GeneratorName, n: int):
    """P:j and B:j need 1 <= j <= n, L:j,k needs 1 <= j < k <= n."""
    indices = {"P": (name.i,), "B": (name.i,), "L": (name.i, name.j)}
    for j in indices.get(name.kind, ()):
        if not 1 <= j <= n:
            raise ValueError(f"index {j} out of range for n={n}")
    if name.kind == "L" and not name.i < name.j:
        raise ValueError("rotation indices must satisfy j < k")


# ---------------------------------------------------------------------------
# Commutator table.

@dataclass(frozen=True)
class CheckRow:
    label: str
    passed: bool
    detail: str = ""


def _expected_bracket(a: GeneratorName, b: GeneratorName, p: DGParams):
    """Expected [a, b] as a list of (coeff, GeneratorName); None means 'swap'."""
    ka, kb = a.kind, b.kind
    G = GeneratorName

    if (ka, kb) == ("D", "H"):
        return [(-2, G("H"))]
    if (ka, kb) == ("H", "C"):
        return [(1, G("D"))]
    if (ka, kb) == ("D", "C"):
        return [(2, G("C"))]
    if (ka, kb) == ("H", "B"):
        return [(1, G("P", i=b.i))]
    if (ka, kb) == ("D", "P"):
        return [(-1, G("P", i=b.i))]
    if (ka, kb) == ("D", "B"):
        return [(1, G("B", i=b.i))]
    if (ka, kb) == ("C", "P"):
        return [(-1, G("B", i=b.i))]
    if (ka, kb) == ("P", "B"):
        return [(1, G("E"))] if a.i == b.i else []
    if (ka, kb) == ("A", "H"):
        return [(1, G("H"))]
    if (ka, kb) == ("A", "C"):
        return [(-1, G("C"))]
    if (ka, kb) == ("A", "E"):
        return [(-1, G("E"))]
    if (ka, kb) == ("A", "R"):
        return [(4 * p.nu2, G("E"))]
    if (ka, kb) == ("A", "B"):
        return [(-1, G("B", i=b.i))]
    if (ka, kb) == ("L", "P"):
        j, k, l = a.i, a.j, b.i
        out = []
        if k == l:
            out.append((1, G("P", i=j)))
        if j == l:
            out.append((-1, G("P", i=k)))
        return out
    if (ka, kb) == ("L", "B"):
        j, k, l = a.i, a.j, b.i
        out = []
        if k == l:
            out.append((1, G("B", i=j)))
        if j == l:
            out.append((-1, G("B", i=k)))
        return out
    if (ka, kb) == ("L", "L"):
        j, k = a.i, a.j
        l, m = b.i, b.j
        out = []
        # delta_kl L_jm + delta_jm L_kl - delta_jl L_km - delta_km L_jl
        for d, (u, v) in (((k == l), (j, m)), ((j == m), (k, l)),
                          (-(j == l), (k, m)), (-(k == m), (j, l))):
            if d:
                if u == v:
                    continue
                if u < v:
                    out.append((d, G("L", i=u, j=v)))
                else:
                    out.append((-d, G("L", i=v, j=u)))
        return out
    return None


def _scaled_combo(terms, scaled: dict, n: int, L: int) -> ScaledField:
    """Sum of c * fields[g] over the (c, g) terms, from the fields ``scaled``
    holds per name at both scales L, with coefficient scale L^3 like a
    bracket of two of them: a scaled coefficient times c L times L."""
    out = [{} for _ in range(n + 3)]
    for c, g in terms:
        m = scale_rational(c, L) * L
        if not m:
            continue
        for acc, comp in zip(out, scaled[g].comps):
            get = acc.get
            for key, v in comp.items():
                acc[key] = get(key, 0) + m * v
    return ScaledField(n, L, L ** 3, tuple({key: v for key, v in acc.items() if v}
                                           for acc in out))


def _bracket_rows(checks, fields: dict, n: int) -> list:
    """One row per (label, x, y, terms) check: it passes when [fields[x],
    fields[y]] equals the sum of c * fields[g] over the (c, g) terms.

    Both sides are ScaledFields at one scale: L is the lcm of every
    denominator of the fields and of the coefficients c, and each field is
    scaled once.  A failing row's detail maps each component where the sides
    differ to the difference as an expression.
    """
    L = lcm(*(d for X in fields.values() for d in field_denominators(X)),
            *(c.denominator for *_, terms in checks for c, _ in terms))
    scaled = {g: ScaledField.of(X, L) for g, X in fields.items()}
    rows = []
    for label, x, y, terms in checks:
        got = lie_bracket(scaled[x], scaled[y])
        want = _scaled_combo(terms, scaled, n, L)
        if got == want:
            rows.append(CheckRow(label, True))
            continue
        diff = {u: c for u, c in (got.field() - want.field()).component_map().items()
                if not c.is_zero}
        rows.append(CheckRow(label, False, f"mismatch: {diff}"))
    return rows


def verify_commutator_table(p: DGParams, n: int | None = None) -> list:
    """Check every pairwise bracket of the generators admissible at p.

    F, Zheat and Zse, which the table does not cover, are left out.  All
    listed nontrivial brackets plus closure (unlisted pairs commute) are
    verified as exact identities, in Python integers.
    """
    if n is not None:
        p = p.replace(n=n)
    n = p.n
    names = [parse_generator(g) for g in admissible_generators(p)
             if g not in ("F", "Zheat", "Zse")]
    fields = {g: basis_generator(g, p) for g in names}
    checks = []
    for ia, a in enumerate(names):
        for b in names[ia + 1:]:
            expected = _expected_bracket(a, b, p)
            sign = 1
            if expected is None:
                flipped = _expected_bracket(b, a, p)
                expected = [] if flipped is None else flipped
                sign = -1
            checks.append((f"[{a},{b}]", a, b, [(sign * c, g) for c, g in expected]))
    return _bracket_rows(checks, fields, n)


# ---------------------------------------------------------------------------
# Infinite-family bracket relations (polynomial payloads).

def _poly_vf_bracket(f, g):
    """[f, g](z) = f g' - g f'."""
    return _poly_add(_poly_mul(f, _poly_diff(g)), _poly_mul(g, _poly_diff(f)), -1)


_MAX_DEGREE = 4  # the Y_f relations are checked on monomials z^0 .. z^4


def verify_infinite_relations(p: DGParams) -> list:
    """Bracket relations of the polynomial Y_f family at an InfSub point.

    Checks [Y_f, Y_g] = (mu1 - 2 nu2) Y_{fg'-gf'} for monomials up to
    degree ``_MAX_DEGREE``, plus [Y_f, R] = -mu1 Y_{f'} and [Y_f, E] = (1/2) Y_{f'}.
    When the commutative condition mu1 = 2 nu2 holds, A exists as well and
    [A, Y_f] = Y_{z f'} is checked.  Y_f is linear in f, so c Y_f is the
    combination of the monomial fields Y_{z^k} with coefficients c f_k.
    """
    if not predicate_report(p)["InfSub"]:
        raise GeneratorNotAdmissible("Y_f relations require the infinite subfamily")
    mono = lambda d: (0,) * d + (Fraction(1),)
    # every Y_f below has degree <= 2 _MAX_DEGREE - 1, the degree of fg' - gf'
    top = 2 * _MAX_DEGREE - 1
    powers = _z_powers(p, top)
    fields = {d: _poly_field(p, mono(d), powers) for d in range(top + 1)}
    fields["R"] = basis_generator("R", p)
    fields["E"] = basis_generator("E", p)

    def Y(f, c=1):  # c Y_f as (coefficient, monomial degree) terms
        return [(c * a, k) for k, a in enumerate(f) if a]

    checks = []
    for d1 in range(_MAX_DEGREE + 1):
        f = mono(d1)
        fp = _poly_diff(f)
        checks.append((f"[Y_z^{d1},R]", d1, "R", Y(fp, -p.mu1)))
        checks.append((f"[Y_z^{d1},E]", d1, "E", Y(fp, Fraction(1, 2))))
        for d2 in range(d1, _MAX_DEGREE + 1):
            checks.append((f"[Y_z^{d1},Y_z^{d2}]", d1, d2,
                           Y(_poly_vf_bracket(f, mono(d2)), p.mu1 - 2 * p.nu2)))

    if p.mu1 == 2 * p.nu2:
        fields["A"] = basis_generator("A", p)
        for d in range(_MAX_DEGREE + 1):
            checks.append((f"[A,Y_z^{d}]", "A", d, Y(_poly_mul(_Z, _poly_diff(mono(d))))))
    return _bracket_rows(checks, fields, p.n)


# ---------------------------------------------------------------------------
# Determining equations.

# Each family is linear in X: a sum of (coefficient, derivative) pairs.  A
# coefficient is an integer vector over the parameter basis (1, nu1, nu2,
# mu1..mu5).  A derivative names a component of X (xi, tau, phi, sig) and the
# variables it is differentiated by, with x the family's axis x_j and xi its
# component xi_j; lap_u is the Laplacian sum_k u_{x_k x_k}.  The per-axis
# families are emitted once per axis j, the scalar ones once.

_ONE, _NU1, _NU2, _MU1, _MU2, _MU3, _MU4, _MU5 = np.eye(8, dtype=np.int64)
_M14, _M25 = _MU1 + _MU4, _MU2 + _MU5

_AXIS_FAMILIES = (
    ("det01", ((-_ONE, "xi_t"), (-_MU1, "lap_xi"), (2 * _M14, "phi_x"),
               (4 * _MU2, "phi_xs"), (2 * _MU3, "sig_x"), (2 * _MU1, "sig_xs"))),
    ("det02", ((-_NU1, "lap_xi"), (2 * _NU1, "phi_x"), (4 * _NU2, "phi_xs"),
               (2 * _NU1, "sig_xs"))),
    ("det03", ((-_MU2, "lap_xi"), (4 * _M25, "phi_x"), (2 * _MU2, "phi_xr"),
               (_M14, "sig_x"), (_MU1, "sig_xr"))),
    ("det04", ((_ONE, "xi_t"), (-2 * _NU2, "lap_xi"), (8 * _NU2, "phi_x"),
               (4 * _NU2, "phi_xr"), (2 * _NU1, "sig_x"), (2 * _NU1, "sig_xr"))),
    ("det07", ((2 * _M14, "phi_s"), (2 * _MU2, "phi_ss"), (_MU3, "sig_s"),
               (_MU1, "sig_ss"), (_MU3, "tau_t"), (-2 * _MU3, "xi_x"))),
    ("det08", ((2 * _MU2, "phi_s"), (_NU1, "sig_r"), (_MU1, "tau_t"),
               (-2 * _MU1, "xi_x"))),
    ("det09", ((_MU1 + 2 * _NU2, "phi_s"), (-_NU1, "phi_r"), (_NU1, "sig_s"),
               (_NU1, "tau_t"), (-2 * _NU1, "xi_x"))),
    ("det10", ((4 * _M25, "phi_s"), (_M14, "phi_r"), (2 * _MU2, "phi_rs"),
               (_MU3 + _NU1, "sig_r"), (_MU1, "sig_rs"), (_M14, "tau_t"),
               (-2 * _M14, "xi_x"))),
    ("det11", ((2 * _MU2, "phi_r"), (-2 * _MU2, "sig_s"), (_MU1 + 2 * _NU2, "sig_r"),
               (2 * _MU2, "tau_t"), (-4 * _MU2, "xi_x"))),
    ("det12", ((2 * _MU2, "phi_s"), (_NU1, "sig_r"), (2 * _NU2, "tau_t"),
               (-4 * _NU2, "xi_x"))),
    ("det13", ((_M14 + 4 * _NU2, "phi_s"), (2 * _NU2, "phi_rs"), (_NU1, "sig_s"),
               (_NU1, "sig_rs"), (_NU1, "tau_t"), (-2 * _NU1, "xi_x"))),
    ("det14", ((8 * _M25, "phi_r"), (2 * _MU2, "phi_rr"), (-4 * _M25, "sig_s"),
               (2 * (_M14 + 2 * _NU2), "sig_r"), (_MU1, "sig_rr"),
               (4 * _M25, "tau_t"), (-8 * _M25, "xi_x"))),
    ("det15", ((4 * _M25, "phi_s"), (4 * _NU2, "phi_r"), (2 * _NU2, "phi_rr"),
               (2 * _NU1, "sig_r"), (_NU1, "sig_rr"), (4 * _NU2, "tau_t"),
               (-8 * _NU2, "xi_x"))),
)

_SCALAR_FAMILIES = (
    ("det05", ((_ONE, "sig_t"), (_MU1, "lap_sig"), (2 * _MU2, "lap_phi"))),
    ("det06", ((-_ONE, "phi_t"), (2 * _NU2, "lap_phi"), (_NU1, "lap_sig"))),
    ("det16", ((_MU3 + 2 * _NU1, "phi_s"), (2 * _NU2, "phi_ss"), (_NU1, "sig_ss"))),
)


def _derivative_targets(name: str, j: int, n: int) -> list:
    """(component index, variable indices) pairs that a derivative name sums,
    in the order of X.components() and var_names(n)."""
    head, _, tail = name.partition("_")
    comp = {"xi": j - 1, "tau": n, "phi": n + 1, "sig": n + 2}
    if head == "lap":
        return [(comp[tail], (k, k)) for k in range(n)]
    var = {"x": j - 1, "t": n, "r": n + 1, "s": n + 2}
    return [(comp[head], tuple(var[v] for v in tail))]


@lru_cache(maxsize=None)
def _determining_index(n: int) -> tuple:
    """Row labels; the distinct coefficient vectors, sparse as (basis index,
    int) pairs; and, per derivative as a tuple of variable indices, the rows
    each component of X enters by it, as ((row, vector number), ...) per
    component in the order of X.components()."""
    labels, vecs = [], {}
    index = {}

    def enter(vec, u, wrt):
        sparse = tuple((i, int(c)) for i, c in enumerate(vec) if c)
        rows = index.setdefault(wrt, [[] for _ in range(n + 3)])[u]
        rows.append((len(labels), vecs.setdefault(sparse, len(vecs))))

    for j in range(1, n + 1):
        for label, row in _AXIS_FAMILIES:
            for vec, name in row:
                for u, wrt in _derivative_targets(name, j, n):
                    enter(vec, u, wrt)
            labels.append(f"{label}[{j}]")
    for label, row in _SCALAR_FAMILIES:
        for vec, name in row:
            for u, wrt in _derivative_targets(name, 0, n):
                enter(vec, u, wrt)
        labels.append(label)
    for j in range(1, n + 1):  # rot[j,k] = xi_j,x_k + xi_k,x_j
        for k in range(j + 1, n + 1):
            enter(_ONE, j - 1, (k - 1,))
            enter(_ONE, k - 1, (j - 1,))
            labels.append(f"rot[{j},{k}]")
    return (tuple(labels), tuple(vecs),
            tuple((wrt, tuple(map(tuple, comps))) for wrt, comps in index.items()))


def determining_residuals(p: DGParams, X: VectorFieldSpec) -> list:
    """Left-hand sides of the determining equations with X substituted.

    X must already satisfy the reduction coming from the trivial equations:
    xi independent of (r, s) and tau a function of t alone.  Returns
    (label, SymExpr) pairs; X generates a symmetry at p iff all are zero.
    The sixteen equation families are labeled det01..det16.  The thirteen
    per-axis ones come first, axis by axis (``det01[1]``, ..., ``det15[1]``,
    ``det01[2]``, ...), then det05, det06 and det16, then the rotation
    condition ``rot[j,k]`` once per index pair j < k.  Every residual is
    linear in X.

    One pass in Python integers: L is the lcm of the denominators of the
    seven parameters, of every coefficient of X and of every exp rate in X.
    X is scaled by L (:meth:`ScaledField.of`) and differentiated by
    :func:`~dgsym.symexpr.scaled_derivatives`, once for the first
    derivatives in every variable (:attr:`ScaledField.derivatives`) and
    once more, per variable, for the second, so a second derivative has
    coefficient scale L^3 and a first one, times one more L, too.  With the family coefficients scaled by L
    every contribution is an integer numerator over L^4, which
    :func:`~dgsym.symexpr.unscale` divides back.
    """
    n = X.n
    if n != p.n:
        raise ValueError("vector field arity differs from parameter dimension")
    qs = (p.nu1, p.nu2, p.mu1, p.mu2, p.mu3, p.mu4, p.mu5)
    L = lcm(*(q.denominator for q in qs), *field_denominators(X))
    scaled_X = ScaledField.of(X, L)
    ir, is_ = n + 1, n + 2
    for j, terms in enumerate(scaled_X.comps[:n], start=1):
        if any(a or b or powers[ir] or powers[is_] for a, b, powers in terms):
            raise ValueError(f"xi{j} must not depend on (r, s)")
    if any(a or b or any(powers[:n]) or powers[ir] or powers[is_]
           for a, b, powers in scaled_X.comps[n]):
        raise ValueError("tau must depend on t only")

    labels, vecs, index = _determining_index(n)
    first = scaled_X.derivatives
    second = {}  # v -> the derivatives of first[v], each v taken once
    scaled = (L, *(scale_rational(q, L) for q in qs))
    coef = [None] * len(vecs)  # scaled family coefficients, filled on first use
    sums = [{} for _ in labels]
    for wrt, comp_rows in index:
        v = wrt[0]
        if len(wrt) == 1:
            terms, pad = first[v], L  # one more L, to the second derivatives' L^3
        else:
            if v not in second:
                second[v] = scaled_derivatives(first[v], n, L)
            terms, pad = second[v][wrt[1]], 1
        for u, a, b, powers, m in terms:
            key = (a, b, powers)
            for row, vid in comp_rows[u]:
                f = coef[vid]
                if f is None:
                    f = coef[vid] = sum(c * scaled[i] for i, c in vecs[vid])
                if f:
                    acc = sums[row]
                    acc[key] = acc.get(key, 0) + f * pad * m

    L4 = L ** 4
    zero = SymExpr.zero(n)  # immutable, so shared by the rows that vanish
    return [(label, unscale(n, acc, L, L4) if acc else zero)
            for label, acc in zip(labels, sums)]


def residuals_all_zero(residuals) -> bool:
    return all(expr.is_zero for _, expr in residuals)
