from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgsym.symexpr import (ScaledField, SymExpr, VectorFieldSpec, field_denominators,
                           lie_bracket, scaled_derivatives, unscale, var_names)
from dgsym.symmetry import parse_poly
from tests.conftest import reference_bracket

F = Fraction


def v(name, n=1):
    return SymExpr.var(n, name)


def c(value, n=1):
    return SymExpr.const(n, value)


# ---------------------------------------------------------------------------
# arithmetic and differentiation

def test_differentiate_power():
    e = v("x1") ** 2 * v("t")
    assert e.differentiate("x1") == 2 * v("x1") * v("t")


def test_differentiate_exponential():
    e = SymExpr.exp_rs(1, 2, 1)
    assert e.differentiate("r") == 2 * e
    assert e.differentiate("s") == e


def test_differentiate_mixed():
    e = v("x1") * SymExpr.exp_rs(1, 1, -1) + v("s") ** 2
    got = e.differentiate("s")
    want = -1 * v("x1") * SymExpr.exp_rs(1, 1, -1) + 2 * v("s")
    assert got == want


def test_is_zero():
    assert (v("x1") - v("x1")).is_zero
    assert (SymExpr.exp_rs(1, 1, 0) * SymExpr.exp_rs(1, 0, 1)
            - SymExpr.exp_rs(1, 1, 1)).is_zero
    assert not (2 * v("r") + v("s")).is_zero


def test_unknown_variable():
    with pytest.raises(KeyError):
        v("x1").differentiate("x2")
    with pytest.raises(KeyError):
        SymExpr.var(1, "y")


def test_pow_errors():
    with pytest.raises(ValueError):
        v("x1") ** -1


def test_evaluate_arrays():
    e = 3 * v("x1") ** 2 - F(1, 2) * v("s") + SymExpr.exp_rs(1, 1, 0)
    x = np.array([0.0, 1.0, 2.0])
    vals = {"x1": x, "t": 0.0, "r": np.log(2.0) * np.ones(3), "s": 4.0 * np.ones(3)}
    np.testing.assert_allclose(e.evaluate(vals), 3 * x ** 2 - 2.0 + 2.0)


# ---------------------------------------------------------------------------
# Y_f payloads, read by dgsym.symmetry.parse_poly

_Z64 = (F(0),) * 64 + (F(1),)
PAYLOADS = [  # (text, coefficients); None marks a refused payload
    ("1 + z^2 - 3/2*z", (F(1), F(-3, 2), F(1))),
    ("z^3", (F(0), F(0), F(0), F(1))),
    ("-(z - 2)^2", (F(-4), F(4), F(-1))),
    ("(1+z)^3", (F(1), F(3), F(3), F(1))),
    ("2*-z", (F(0), F(-2))),
    ("--z", (F(0), F(1))),
    ("-z^2", (F(0), F(0), F(-1))),
    ("z+-z^2", (F(0), F(1), F(-1))),
    ("(-3/2)*z^0+(1/7)*z^3", (F(-3, 2), F(0), F(0), F(1, 7))),
    ("3/2^2", (F(9, 4),)),
    ("-2^2", (F(-4),)),
    ("z^0", (F(1),)),
    ("0", (F(0),)),
    ("z-z", (F(0),)),
    ("2 * ( z + 1 ) ^ 2 - 4*z", (F(2), F(0), F(2))),
    ("(2*z)^2*3/4", (F(0), F(0), F(3))),
    ("z+1/2*z^2", (F(0), F(1), F(1, 2))),
    ("1+z+z^2+z^3+z^4", (F(1),) * 5),
    ("z^64", _Z64),
    ("(z^8)^8", _Z64),
    ("exp(z)", None), ("x1", None), ("foo", None), ("z2", None),
    ("r^2", None),  # r is no alias of z
    ("z +", None), ("z $ 2", None), ("", None), ("z/2", None), ("2z", None),
    ("(z", None), ("z)", None),
    ("1/0", None), ("z^-1", None), ("z^z", None), ("z^(2)", None),
    ("z^65", None), ("z^1000000000000", None), ("z" + "*z" * 64, None),
    ("(9^64)^64", None),  # a power's base counts as degree >= 1
    ("(" * 400 + "z" + ")" * 400, None), ("-" * 400 + "z", None),
]


def test_parse_poly():
    for text, want in PAYLOADS:
        if want is None:
            with pytest.raises(ValueError):
                parse_poly(text)
        else:
            got = parse_poly(text)
            assert got == want and all(type(c) is F for c in got), text


# ---------------------------------------------------------------------------
# properties

terms = st.lists(
    st.tuples(
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2),
        st.fractions(min_value=-2, max_value=2, max_denominator=2),
    ),
    min_size=1, max_size=4)


def build(ts):
    e = SymExpr.zero(1)
    for coeff, px, pr, ps, a in ts:
        e = e + coeff * v("x1") ** px * v("r") ** pr * v("s") ** ps \
            * SymExpr.exp_rs(1, a, 0)
    return e


@given(terms)
@settings(max_examples=80, deadline=None)
def test_derivatives_commute(ts):
    e = build(ts) * v("t")
    assert e.differentiate("x1").differentiate("t") == \
        e.differentiate("t").differentiate("x1")
    assert e.differentiate("r").differentiate("s") == \
        e.differentiate("s").differentiate("r")


@given(terms)
@settings(max_examples=60, deadline=None)
def test_normalization_sound(ts):
    """Different construction orders reach the same normal form and value."""
    e1 = build(ts)
    e2 = build(list(reversed(ts)))
    assert e1 == e2
    rng = np.random.default_rng(0)
    for _ in range(5):
        vals = {"x1": rng.uniform(-2, 2), "t": rng.uniform(-2, 2),
                "r": rng.uniform(-1, 1), "s": rng.uniform(-1, 1)}
        assert abs(e1.evaluate(vals) - e2.evaluate(vals)) < 1e-9


def _field(phi, sigma, xi=None, tau=None, n=1):
    z = SymExpr.zero(n)
    return VectorFieldSpec(n=n, xi=tuple(xi or [z] * n), tau=tau or z,
                           phi=phi, sigma=sigma)


def test_bracket_antisymmetry_and_bilinearity():
    X = _field(v("r") * v("s"), SymExpr.exp_rs(1, 1, 0))
    Y = _field(v("s") ** 2, v("r"))
    Z = _field(c(1), v("s"))
    assert (lie_bracket(X, X)).is_zero
    assert (lie_bracket(X, Y) + lie_bracket(Y, X)).is_zero
    lhs = lie_bracket(X, Y + Z.scale(F(3, 2)))
    rhs = lie_bracket(X, Y) + lie_bracket(X, Z).scale(F(3, 2))
    assert (lhs - rhs).is_zero


def test_jacobi_identity():
    X = _field(v("r"), v("s"), xi=[v("x1")], tau=v("t"))
    Y = _field(v("s"), c(1), xi=[v("t")], tau=c(0, 1))
    Z = _field(SymExpr.exp_rs(1, 1, 1), v("r") * v("s"))
    total = lie_bracket(X, lie_bracket(Y, Z)) \
        + lie_bracket(Y, lie_bracket(Z, X)) \
        + lie_bracket(Z, lie_bracket(X, Y))
    assert total.is_zero


# rates include opposite pairs, so products of exp terms meet rate sums that
# cancel to 0
_RATES = st.sampled_from([0, 1, -1, F(1, 2), F(-1, 2), F(3, 2)])


@st.composite
def _fields(draw, n):
    """A vector field on (x1..xn, t, r, s) whose components are sums of up
    to two terms coeff * monomial * exp(a r + b s), most of them zero."""
    def component():
        terms = {}
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            powers = tuple(draw(st.lists(st.integers(min_value=0, max_value=2),
                                         min_size=n + 3, max_size=n + 3)))
            terms[(draw(_RATES), draw(_RATES), powers)] = draw(
                st.fractions(min_value=-3, max_value=3, max_denominator=4))
        return SymExpr(n, terms)

    comps = [component() for _ in range(n + 3)]
    return VectorFieldSpec(n=n, xi=tuple(comps[:n]), tau=comps[n],
                           phi=comps[n + 1], sigma=comps[n + 2])


def _assert_normal_form(field):
    """Nonzero Fraction coefficients, and every zero exp rate the int 0."""
    for comp in field.components():
        for (a, b, _), coeff in comp._terms.items():
            assert type(coeff) is F and coeff
            assert all(rate or type(rate) is int for rate in (a, b))


@given(st.integers(min_value=1, max_value=3).flatmap(
    lambda n: st.tuples(_fields(n), _fields(n))))
@settings(max_examples=150, deadline=None)
def test_bracket_matches_reference(pair):
    """The one-pass bracket equals X(Y^u) - Y(X^u) built from products and
    derivatives, in the same normal form."""
    X, Y = pair
    got, want = lie_bracket(X, Y), reference_bracket(X, Y)
    assert got == want
    assert repr(got.component_map()) == repr(want.component_map())
    _assert_normal_form(got)


def test_bracket_rate_sum_that_cancels_is_int_zero():
    """exp(r/2 - s) d_r and r exp(-r/2 + s) d_r bracket to (1 - r) d_r."""
    X = _field(SymExpr.exp_rs(1, F(1, 2), -1), c(0))
    Y = _field(v("r") * SymExpr.exp_rs(1, F(-1, 2), 1), c(0))
    got = lie_bracket(X, Y)
    assert got == reference_bracket(X, Y) == _field(1 - v("r"), c(0))
    assert {(a, b) for a, b, _ in got.phi._terms} == {(0, 0)}
    _assert_normal_form(got)


def test_bracket_arity_mismatch():
    with pytest.raises(ValueError):
        lie_bracket(_field(c(1), c(1)), _field(c(1, 2), c(1, 2), n=2))


@given(st.integers(min_value=1, max_value=3).flatmap(
    lambda n: st.tuples(_fields(n), _fields(n))), st.integers(min_value=1, max_value=6))
@settings(max_examples=100, deadline=None)
def test_bracket_of_scaled_fields_matches_reference(pair, k):
    """At any common multiple L of the denominators, ScaledField.of keeps a
    field exactly, and the bracket of two ScaledFields stays in integers, at
    coefficient scale L^3, and is the reference bracket once divided back."""
    X, Y = pair
    L = k * lcm(*field_denominators(X), *field_denominators(Y))
    SX, SY = ScaledField.of(X, L), ScaledField.of(Y, L)
    assert SX.field() == X and SY.field() == Y
    got = lie_bracket(SX, SY)
    assert (got.rate_scale, got.coeff_scale) == (L, L ** 3)
    for comp in got.comps:
        for (a, b, _), coeff in comp.items():
            assert type(a) is type(b) is type(coeff) is int and coeff
    assert got.field() == reference_bracket(X, Y)
    _assert_normal_form(got.field())


@given(st.integers(min_value=1, max_value=3).flatmap(
    lambda n: st.tuples(_fields(n), _fields(n), _fields(n))))
@settings(max_examples=60, deadline=None)
def test_bracket_reads_a_cached_index_as_a_fresh_one(fields):
    """A ScaledField differentiates itself once, on its first bracket, and
    keeps the index: brackets of fields whose index is already computed
    equal those of fresh copies, and the reference bracket divided back."""
    X, Y, Z = fields
    L = lcm(*(d for V in fields for d in field_denominators(V)))
    SX, SY, SZ = (ScaledField.of(V, L) for V in fields)
    lie_bracket(SX, SZ), lie_bracket(SZ, SY)  # both indices computed here
    index = SX.derivatives
    for (A, SA), (B, SB) in (((X, SX), (Y, SY)), ((Y, SY), (X, SX))):
        got = lie_bracket(SA, SB)
        assert got == lie_bracket(ScaledField.of(A, L), ScaledField.of(B, L))
        assert got.field() == reference_bracket(A, B)
    assert SX.derivatives is index


def test_bracket_refuses_mixed_forms_and_scales():
    X, Y = _field(c(1), v("r")), _field(v("t"), c(F(1, 2)))
    with pytest.raises(TypeError):
        lie_bracket(X, ScaledField.of(Y, 2))
    with pytest.raises(ValueError):
        lie_bracket(ScaledField.of(X, 2), ScaledField.of(Y, 4))


@given(st.integers(min_value=1, max_value=3).flatmap(_fields),
       st.integers(min_value=1, max_value=6))
@settings(max_examples=100, deadline=None)
def test_scaled_derivatives_match_differentiate(X, k):
    """The derivative rule on scaled terms, divided back, is
    SymExpr.differentiate in every variable, exp rates included: at
    coefficient scale L^2 once and L^3 applied twice."""
    n = X.n
    L = k * lcm(*field_denominators(X))

    def unscaled(terms, scale):  # merged per component, then divided back
        comps = [{} for _ in range(n + 3)]
        for w, a, b, powers, coeff in terms:
            assert type(a) is type(b) is type(coeff) is int
            comps[w][(a, b, powers)] = comps[w].get((a, b, powers), 0) + coeff
        return [unscale(n, acc, L, scale) for acc in comps]

    first = scaled_derivatives(ScaledField.of(X, L).terms(), n, L)
    for v, name in enumerate(var_names(n)):
        want = [comp.differentiate(name) for comp in X.components()]
        assert unscaled(first[v], L ** 2) == want
        second = scaled_derivatives(first[v], n, L)
        for v2, name2 in enumerate(var_names(n)):
            assert unscaled(second[v2], L ** 3) == [e.differentiate(name2) for e in want]


def test_normalization_exact_at_rational_points():
    """Two construction orders give the same exact normal form."""
    from fractions import Fraction as Q
    a = (3 * v("x1") ** 2 - Q(1, 3) * v("t")) * (v("r") + 2 * v("s"))
    b = v("r") * (3 * v("x1") ** 2) + 2 * v("s") * (3 * v("x1") ** 2) \
        - Q(1, 3) * v("t") * v("r") - Q(2, 3) * v("t") * v("s")
    assert a == b


# ---------------------------------------------------------------------------
# fast paths: one-pass linear combinations and the trusted normal form

def assert_normal_form(e):
    """Merged terms, nonzero Fraction coefficients, zero rates stored as int 0."""
    for (a, b, powers), coeff in e._terms.items():
        assert type(coeff) is Fraction and coeff != 0
        for rate in (a, b):
            assert rate != 0 or type(rate) is int
    assert e == SymExpr(e.n, dict(e._terms))


@pytest.mark.parametrize("other", [1.5, None, "1", [1]])
def test_unsupported_operands_raise_type_error(other):
    e = v("r")
    for op in (lambda: e + other, lambda: other + e, lambda: e - other,
               lambda: other - e, lambda: e * other, lambda: other * e):
        with pytest.raises(TypeError):
            op()


def test_lincomb_rejects_inexact_coefficients():
    with pytest.raises(TypeError):
        SymExpr.lincomb(1, [(0.5, v("r"))])
    with pytest.raises(TypeError):
        SymExpr.lincomb(1, [(1, 2)])
    with pytest.raises(ValueError):
        SymExpr.lincomb(1, [(1, v("r", n=2))])


scaled_terms = st.lists(
    st.tuples(st.fractions(min_value=-3, max_value=3, max_denominator=4), terms),
    min_size=0, max_size=4)


@given(scaled_terms)
@settings(max_examples=60, deadline=None)
def test_lincomb_equals_naive_sum(pairs):
    exprs = [(coeff, build(ts)) for coeff, ts in pairs]
    naive = SymExpr.zero(1)
    for coeff, e in exprs:
        naive = naive + coeff * e
    got = SymExpr.lincomb(1, exprs)
    assert got == naive
    assert hash(got) == hash(naive) and repr(got) == repr(naive)
    assert_normal_form(got)


@given(terms, terms)
@settings(max_examples=60, deadline=None)
def test_no_zero_coefficient_after_any_operation(ts1, ts2):
    e, f = build(ts1), build(ts2)
    results = [e + f, e - f, -e, e * f, e * F(-2, 3), e * 0, e + 1, 1 - e,
               e + (-e), e - e, (e + f) - f, e.differentiate("r"),
               e.differentiate("x1"), (e * f).differentiate("s"),
               SymExpr.lincomb(1, [(1, e), (-1, e)]),
               SymExpr.lincomb(1, [(F(1, 2), e), (2, f), (-1, e * F(1, 2))])]
    for r in results:
        assert_normal_form(r)
    assert (e + (-e)).is_zero and (e - e).is_zero
    assert SymExpr.lincomb(1, [(1, e), (-1, e)]).is_zero
    assert (e + f) - f == e


@pytest.mark.parametrize("n", [0, 1, 3])
def test_cancelled_exp_rate_is_constant(n):
    prod = SymExpr.exp_rs(n, 1, 0) * SymExpr.exp_rs(n, -1, 0)
    one = SymExpr.const(n, 1)
    assert prod == one and hash(prod) == hash(one) and repr(prod) == "1"
    assert_normal_form(prod)
    mixed = SymExpr.exp_rs(n, F(1, 2), 2) * SymExpr.exp_rs(n, F(-1, 2), -2)
    assert mixed == one and hash(mixed) == hash(one)


@given(terms)
@settings(max_examples=60, deadline=None)
def test_trusted_normal_form_matches_public_constructor(ts):
    e = build(ts) * v("t") - build(list(reversed(ts)))
    public = SymExpr(1, dict(e._terms))
    assert public == e and hash(public) == hash(e) and repr(public) == repr(e)
    # Fraction(0) rates and zero coefficients given to the public constructor
    # reach the same normal form.
    raw = {(F(a) if a == 0 else a, F(b) if b == 0 else b, p): c
           for (a, b, p), c in e._terms.items()}
    raw[(F(0), F(0), (0, 0, 0, 7))] = F(0)
    assert SymExpr(1, raw) == e and hash(SymExpr(1, raw)) == hash(e)
    assert_normal_form(SymExpr(1, raw))
