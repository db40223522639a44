"""Minimal exact expression engine for vector-field coefficients.

Expressions are finite sums of terms

    coeff * x1^p1 ... xn^pn * t^pt * r^pr * s^ps * exp(a*r + b*s)

with rational ``coeff``, ``a``, ``b`` and nonnegative integer powers.  This
class is closed under the operations the symmetry analysis needs: addition,
multiplication, exact partial differentiation, and Lie brackets of first-order
vector fields on (x1..xn, t, r, s).  Zero testing is decidable: the normal
form has merged, nonzero terms, so an expression is zero iff its term dict is
empty.  The module has no text syntax: the one payload read from text, the
polynomial f(z) of a Y_f generator name, is read by
:func:`dgsym.symmetry.parse_poly`.

Normal form.  ``_terms`` maps ``(a, b, powers)`` to a nonzero ``Fraction``;
each key occurs once (terms are merged), and a zero exp rate is stored as the
int ``0``, never as ``Fraction(0)`` (the two are equal and hash alike, so this
only spares dict lookups the ``Fraction`` hash).  The public constructor
``SymExpr(n, terms)`` establishes this from any dict; the internal ``_make``
trusts it, and every operation below builds its result dict in normal form
and hands it to ``_make``, so a result is normalized once.  The sorted term
tuple that fixes ``repr`` and ``hash`` is built lazily, on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from operator import add

import numpy as np

from .params import as_rational

__all__ = ["SymExpr", "VectorFieldSpec", "ScaledField", "lie_bracket",
           "field_denominators", "scale_rational", "scaled_derivatives", "unscale"]


@lru_cache(maxsize=None)
def var_names(n: int) -> tuple:
    return tuple(f"x{j}" for j in range(1, n + 1)) + ("t", "r", "s")


@lru_cache(maxsize=None)
def var_index(n: int) -> dict:
    return {name: i for i, name in enumerate(var_names(n))}


def _is_scalar(x) -> bool:
    t = type(x)
    return t is Fraction or t is int or isinstance(x, (int, Fraction))


def _rate(a):
    """Exp rate in normal form: exact, with zero stored as the int 0."""
    a = as_rational(a)
    return a if a else 0


def _mul_into(terms: dict, left, right) -> None:
    """Accumulate the product of two term dicts into ``terms``."""
    get = terms.get
    right = right.items()
    for (a1, b1, p1), c1 in left.items():
        for (a2, b2, p2), c2 in right:
            # a rate sum that cancels is stored as the int 0
            key = (a2 if not a1 else a1 if not a2 else a1 + a2 or 0,
                   b2 if not b1 else b1 if not b2 else b1 + b2 or 0,
                   tuple(map(add, p1, p2)))
            old = get(key)
            terms[key] = c1 * c2 if old is None else old + c1 * c2


def _nonzero(terms: dict) -> dict:
    """Drop the entries that cancelled, keeping the order of the rest."""
    for c in terms.values():
        if not c:
            return {k: c for k, c in terms.items() if c}
    return terms


class SymExpr:
    """Exact symbolic expression in (x1..xn, t, r, s); immutable."""

    __slots__ = ("n", "_terms", "_key")

    def __init__(self, n: int, terms=None):
        self.n = n
        clean = {}
        if terms:
            for (a, b, powers), coeff in terms.items():
                if coeff:
                    key = (a or 0, b or 0, powers)
                    clean[key] = clean.get(key, Fraction(0)) + coeff
                    if not clean[key]:
                        del clean[key]
        self._terms = clean
        self._key = None

    @classmethod
    def _make(cls, n: int, terms: dict) -> "SymExpr":
        """Wrap a dict already in normal form (see the module docstring)."""
        self = object.__new__(cls)
        self.n = n
        self._terms = terms
        self._key = None
        return self

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "SymExpr":
        return cls._make(n, {})

    @classmethod
    def const(cls, n: int, value) -> "SymExpr":
        value = as_rational(value)
        if not value:
            return cls._make(n, {})
        return cls._make(n, {(0, 0, (0,) * (n + 3)): value})

    @classmethod
    def var(cls, n: int, name: str) -> "SymExpr":
        idx = var_index(n)
        if name not in idx:
            raise KeyError(f"unknown variable {name!r} for n={n}")
        powers = [0] * (n + 3)
        powers[idx[name]] = 1
        return cls._make(n, {(0, 0, tuple(powers)): Fraction(1)})

    @classmethod
    def exp_rs(cls, n: int, a, b) -> "SymExpr":
        """exp(a*r + b*s) with exact rational a, b."""
        return cls._make(n, {(_rate(a), _rate(b), (0,) * (n + 3)): Fraction(1)})

    @classmethod
    def lincomb(cls, n: int, pairs) -> "SymExpr":
        """Sum of c * e over (c, e) pairs with rational c, built in one pass."""
        terms = {}
        get = terms.get
        for c, e in pairs:
            if type(e) is not SymExpr:
                raise TypeError(f"expected SymExpr, got {type(e).__name__}")
            if e.n != n:
                raise ValueError("arity mismatch between expressions")
            if type(c) is not int and type(c) is not Fraction:
                c = as_rational(c)
            if not c or not e._terms:
                continue
            items = e._terms.items()
            if c != 1:
                items = [(key, coeff * c) for key, coeff in items]
            for key, coeff in items:
                old = get(key)
                terms[key] = coeff if old is None else old + coeff
        return cls._make(n, _nonzero(terms))

    # -- normal form --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def _sorted(self) -> tuple:
        if self._key is None:
            self._key = tuple(sorted(self._terms.items()))
        return self._key

    def __eq__(self, other):
        return (type(other) is SymExpr and self.n == other.n
                and self._terms == other._terms)

    def __hash__(self):
        return hash((self.n, self._sorted()))

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other):
        if self.n != other.n:
            raise ValueError("arity mismatch between expressions")

    def __add__(self, other):
        if type(other) is not SymExpr:
            if not _is_scalar(other):
                return NotImplemented
            other = SymExpr.const(self.n, other)
        self._check(other)
        terms = dict(self._terms)
        get = terms.get
        for key, coeff in other._terms.items():
            old = get(key)
            if old is None:
                terms[key] = coeff
            else:
                coeff = old + coeff
                if coeff:
                    terms[key] = coeff
                else:
                    del terms[key]
        return SymExpr._make(self.n, terms)

    __radd__ = __add__

    def __neg__(self):
        return SymExpr._make(self.n, {k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        if type(other) is not SymExpr and not _is_scalar(other):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if not _is_scalar(other):
            return NotImplemented
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not SymExpr:
            if not _is_scalar(other):
                return NotImplemented
            if not other:
                return SymExpr._make(self.n, {})
            return SymExpr._make(self.n, {k: c * other for k, c in self._terms.items()})
        self._check(other)
        terms = {}
        _mul_into(terms, self._terms, other._terms)
        return SymExpr._make(self.n, _nonzero(terms))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers are supported")
        out = SymExpr.const(self.n, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- calculus ------------------------------------------------------------

    def differentiate(self, name: str) -> "SymExpr":
        """Exact partial derivative; exp factors use the product rule."""
        idx = var_index(self.n)
        if name not in idx:
            raise KeyError(f"unknown variable {name!r} for n={self.n}")
        i = idx[name]
        terms = {}
        get = terms.get
        for key, coeff in self._terms.items():
            a, b, powers = key
            if powers[i] > 0:
                lowered = list(powers)
                lowered[i] -= 1
                lkey = (a, b, tuple(lowered))
                old = get(lkey)
                dc = coeff * powers[i]
                terms[lkey] = dc if old is None else old + dc
            rate = a if name == "r" else b if name == "s" else 0
            if rate:
                old = get(key)
                dc = coeff * rate
                terms[key] = dc if old is None else old + dc
        return SymExpr._make(self.n, _nonzero(terms))

    def evaluate(self, values: dict):
        """Numeric value at a point; accepts floats or numpy arrays."""
        names = var_names(self.n)
        total = 0.0
        for (a, b, powers), coeff in self._terms.items():
            term = float(coeff)
            for name, power in zip(names, powers):
                if power:
                    term = term * np.asarray(values[name]) ** power
            if a or b:
                term = term * np.exp(float(a) * np.asarray(values["r"])
                                     + float(b) * np.asarray(values["s"]))
            total = total + term
        return total

    # -- display -------------------------------------------------------------

    def __repr__(self):
        if self.is_zero:
            return "0"
        names = var_names(self.n)
        parts = []
        for (a, b, powers), coeff in self._sorted():
            factors = []
            if coeff != 1 or (not any(powers) and not (a or b)):
                factors.append(str(coeff))
            for name, power in zip(names, powers):
                if power == 1:
                    factors.append(name)
                elif power > 1:
                    factors.append(f"{name}^{power}")
            if a or b:
                inner = []
                if a:
                    inner.append(f"{a}*r")
                if b:
                    inner.append(f"{b}*s")
                factors.append(f"exp({' + '.join(inner)})")
            parts.append("*".join(factors))
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# Vector fields on (x1..xn, t, r, s).

@dataclass(frozen=True)
class VectorFieldSpec:
    """First-order vector field: xi_j d/dx_j + tau d/dt + phi d/dr + sigma d/ds."""

    n: int
    xi: tuple
    tau: SymExpr
    phi: SymExpr
    sigma: SymExpr

    def __post_init__(self):
        if len(self.xi) != self.n:
            raise ValueError("xi must have one component per spatial variable")
        for comp in (*self.xi, self.tau, self.phi, self.sigma):
            if comp.n != self.n:
                raise ValueError("component arity mismatch")

    def components(self) -> tuple:
        return (*self.xi, self.tau, self.phi, self.sigma)

    def component_map(self) -> dict:
        return dict(zip(var_names(self.n), self.components()))

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.components())

    def __add__(self, other: "VectorFieldSpec") -> "VectorFieldSpec":
        if self.n != other.n:
            raise ValueError("arity mismatch")
        return VectorFieldSpec(
            n=self.n,
            xi=tuple(a + b for a, b in zip(self.xi, other.xi)),
            tau=self.tau + other.tau,
            phi=self.phi + other.phi,
            sigma=self.sigma + other.sigma,
        )

    def __sub__(self, other: "VectorFieldSpec") -> "VectorFieldSpec":
        return self + other.scale(-1)

    def scale(self, c) -> "VectorFieldSpec":
        return VectorFieldSpec(
            n=self.n,
            xi=tuple(comp * c for comp in self.xi),
            tau=self.tau * c,
            phi=self.phi * c,
            sigma=self.sigma * c,
        )


def field_denominators(X: VectorFieldSpec):
    """Denominators of every coefficient and exp rate of X, e.g. for the
    rate scale of :meth:`ScaledField.of`."""
    return (x.denominator for comp in X.components()
            for (a, b, _), c in comp._terms.items() for x in (a, b, c))


def scale_rational(q, L: int) -> int:
    """The int q*L, for L a multiple of the denominator of q."""
    return q.numerator * (L // q.denominator)


# ---------------------------------------------------------------------------
# Scaled term dicts: the integer form of an expression.  An entry
# ``(a, b, powers): c`` stands for ``(c / C) * x^powers * exp((a r + b s) / L)``
# at rate scale L and coefficient scale C.  The bracket and the determining
# residuals compute in this form, with the derivative rule and the unscaling
# below.

def scaled_derivatives(terms, n: int, L: int) -> list:
    """Per variable v, the terms of d/dv of scaled terms at rate scale L,
    with one more factor L in the coefficient scale.

    ``terms`` are (w, a, b, powers, coeff) tuples, a scaled term dict's
    entries tagged with their component w (see :meth:`ScaledField.terms`);
    v indexes ``var_names(n)``.  A term whose power k of v is > 0 gives its
    power step, the power lowered and the coefficient times k L; a term with
    an exp rate in v (v is r or s) gives its rate step, the coefficient
    times that scaled rate.  Terms that do not depend on v are left out.
    Each derivative is a list of tuples of the same form, one pass and no
    merging (a key may occur twice in a component), so the rule applies to
    it again for a second derivative.
    """
    index = [[] for _ in range(n + 3)]
    ir, is_ = n + 1, n + 2
    for w, a, b, powers, d in terms:
        for v, k in enumerate(powers):
            if k:
                index[v].append((w, a, b, powers[:v] + (k - 1,) + powers[v + 1:], d * k * L))
        if a:
            index[ir].append((w, a, b, powers, d * a))
        if b:
            index[is_].append((w, a, b, powers, d * b))
    return index


def unscale(n: int, terms: dict, rate_scale: int, coeff_scale: int) -> SymExpr:
    """The expression of a scaled term dict: each exp rate divided by
    rate_scale and each coefficient by coeff_scale; zero entries dropped."""
    L, C = rate_scale, coeff_scale
    return SymExpr._make(n, {(a and Fraction(a, L), b and Fraction(b, L), powers):
                             Fraction(c, C) for (a, b, powers), c in terms.items() if c})


@dataclass(frozen=True)
class ScaledField:
    """A vector field as scaled term dicts, one per component.

    Each component is a scaled term dict at rate scale ``rate_scale`` and
    coefficient scale ``coeff_scale``; a rate sum that cancels is the int 0
    and zero entries are dropped, so two ScaledFields at the same scales are
    the same field iff they are equal.  :func:`lie_bracket` brackets two of
    them without leaving the integers, reading each one's
    :attr:`derivatives`.
    """

    n: int
    rate_scale: int
    coeff_scale: int
    comps: tuple

    @classmethod
    def of(cls, X: VectorFieldSpec, L: int) -> "ScaledField":
        """X with every coefficient and exp rate times L, both scales L.  L
        must be a multiple of every denominator in X (see
        :func:`field_denominators`)."""
        q = scale_rational
        return cls(X.n, L, L, tuple(
            {(a and q(a, L), b and q(b, L), powers): q(c, L)
             for (a, b, powers), c in comp._terms.items()}
            for comp in X.components()))

    def terms(self):
        """Every entry as a (component, a, b, powers, coeff) tuple, the form
        :func:`scaled_derivatives` takes."""
        return ((w, a, b, powers, c) for w, comp in enumerate(self.comps)
                for (a, b, powers), c in comp.items())

    @cached_property
    def derivatives(self) -> list:
        """Per variable, the terms of the derivative of every component:
        :func:`scaled_derivatives` of :meth:`terms` in every variable, at
        rate scale ``rate_scale``.  Computed once, on first use, and kept
        with the field, so every bracket it takes part in reads the same
        index; the lists are shared and are not to be modified."""
        return scaled_derivatives(self.terms(), self.n, self.rate_scale)

    def field(self) -> VectorFieldSpec:
        """The field as exact expressions, each component unscaled."""
        n = self.n
        comps = [unscale(n, terms, self.rate_scale, self.coeff_scale)
                 for terms in self.comps]
        return VectorFieldSpec(n=n, xi=tuple(comps[:n]), tau=comps[n],
                               phi=comps[n + 1], sigma=comps[n + 2])


def _bracket_half(out: list, xs: tuple, index: list, sign: int) -> None:
    """Accumulate sign * sum_v X^v d_v Y^w into out[w], with xs the term
    dicts of X and index the derivatives of Y per variable."""
    for xterms, dterms in zip(xs, index):
        if not xterms or not dterms:
            continue
        for (a1, b1, p1), c in xterms.items():
            if sign < 0:
                c = -c
            for w, a2, b2, p2, d in dterms:
                key = (a1 + a2, b1 + b2, tuple(map(add, p1, p2)))
                acc = out[w]
                acc[key] = acc.get(key, 0) + c * d


def _bracket_scaled(X: ScaledField, Y: ScaledField) -> ScaledField:
    """[X, Y] at rate scale L and coefficient scale X.coeff_scale *
    Y.coeff_scale * L, for X and Y at the one rate scale L.  The derivatives
    are each field's :attr:`ScaledField.derivatives`, computed once per
    field; ``_bracket_half`` reads only the variables in which the other
    field has terms."""
    L = X.rate_scale
    out = [{} for _ in X.comps]
    _bracket_half(out, X.comps, Y.derivatives, 1)
    _bracket_half(out, Y.comps, X.derivatives, -1)
    return ScaledField(X.n, L, X.coeff_scale * Y.coeff_scale * L,
                       tuple(_nonzero(acc) for acc in out))


def lie_bracket(X, Y):
    """[X, Y] with component [X,Y]^w = X(Y^w) - Y(X^w), exact.

    X and Y are both VectorFieldSpec or both ScaledField, and the bracket
    comes back in the same form.  Two ScaledFields must share their rate
    scale L; their bracket has rate scale L and coefficient scale
    X.coeff_scale * Y.coeff_scale * L.  Two VectorFieldSpecs are scaled by
    the lcm of their denominators, bracketed as ScaledFields, and each
    output term is divided back once.

    One pass over term pairs: a term c*m of X^v times a term of d/dv Y^w
    (from Y's :attr:`ScaledField.derivatives`, the index of
    :func:`scaled_derivatives` that each ScaledField computes once) adds to
    component w, then the same with X and Y swapped and the sign flipped.
    No intermediate expression is built, and every product is of Python
    integers.  A field scaled once and bracketed with many others, as in a
    commutator table, is differentiated once.
    """
    if type(X) is not type(Y):
        raise TypeError("lie_bracket needs two VectorFieldSpecs or two ScaledFields")
    if X.n != Y.n:
        raise ValueError("arity mismatch between vector fields")
    if isinstance(X, ScaledField):
        if X.rate_scale != Y.rate_scale:
            raise ValueError("ScaledFields at different rate scales")
        return _bracket_scaled(X, Y)
    L = lcm(*field_denominators(X), *field_denominators(Y))
    return _bracket_scaled(ScaledField.of(X, L), ScaledField.of(Y, L)).field()
