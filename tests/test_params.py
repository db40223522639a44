import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dgsym.params import (DGParams, GaugeElement, as_rational, canonical_gauge,
                          classify, compute_invariants, gauge_act_params,
                          gauge_compose, gauge_identity, gauge_inverse,
                          make_ehr_sub, make_exp_sub, make_fin_sub,
                          make_gal_sub, make_inf_sub, make_infa_sub, make_sym3,
                          predicate_report, rational_str, reference_points)

F = Fraction

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=8)
nonzero = rationals.filter(lambda q: q != 0)


def generic_params(n=1):
    return st.builds(
        lambda nu1, nu2, mu0, mu1, mu2, mu3, mu4, mu5: DGParams(
            n=n, nu1=nu1, nu2=nu2, mu0=mu0, mu1=mu1, mu2=mu2, mu3=mu3,
            mu4=mu4, mu5=mu5),
        nonzero, *[rationals] * 7)


def subfamily_params():
    """Stratified strategy: generic points plus every subfamily."""
    return st.one_of(
        generic_params(),
        st.builds(lambda a, b, c, d, e: make_gal_sub(1, a, b, c, d, e),
                  nonzero, rationals, rationals, rationals, rationals),
        st.builds(lambda a, b, c: make_fin_sub(1, a, b, c),
                  nonzero, rationals, rationals),
        st.builds(lambda a, b, c: make_inf_sub(1, a, b, c),
                  nonzero, rationals, rationals),
        st.builds(lambda a, b: make_infa_sub(1, a, b), nonzero, rationals),
        st.builds(lambda a, b: make_sym3(1, a, b), nonzero, rationals),
        ehr_params(),
        exp_params(),
    )


def ehr_params():
    return st.builds(
        lambda nu1, nu2, mu2: (nu1, nu2, mu2),
        nonzero, rationals, rationals,
    ).filter(lambda t: t[2] != 2 * t[1] ** 2 / t[0]).map(
        lambda t: make_ehr_sub(1, *t))


def exp_params():
    return st.builds(
        lambda nu1, nu2, mu1, mu3: (nu1, nu2, mu1, mu3),
        nonzero, rationals, rationals, rationals,
    ).filter(lambda t: t[2] != 2 * t[1] and t[3] != -t[0]).map(
        lambda t: make_exp_sub(1, *t))


def gauges():
    return st.builds(GaugeElement, nonzero, rationals)


# ---------------------------------------------------------------------------
# rationals and construction

def test_as_rational():
    assert as_rational("3/4") == F(3, 4)
    assert as_rational(-2) == F(-2)
    assert as_rational(F(1, 3)) == F(1, 3)
    for value in (0.5, True, False, None, b"1/2"):
        with pytest.raises(TypeError):
            as_rational(value)
    assert rational_str(F(-3, 7)) == "-3/7"
    assert rational_str(F(4)) == "4"


def test_invalid_params():
    with pytest.raises(ValueError):
        DGParams(n=1, nu1=0)
    with pytest.raises(ValueError):
        DGParams(n=0, nu1=1)
    with pytest.raises(ValueError):
        GaugeElement(0, 1)


def test_json_round_trip(tmp_path):
    p = reference_points()["linear-se"]
    path = tmp_path / "p.json"
    p.dump(path)
    assert DGParams.load(path) == p
    with pytest.raises(ValueError):
        DGParams.from_json_dict({"n": 1, "nu1": "1", "bogus": "2"})
    with pytest.raises(ValueError):
        DGParams.from_json_dict({"nu1": "1"})


@pytest.mark.parametrize("d,key", [
    (5, "JSON object"), (None, "JSON object"), (["n", "nu1"], "JSON object"),
    ({"n": 1, "nu1": 1.5}, "'nu1'"), ({"n": 1, "nu1": True}, "'nu1'"),
    ({"n": 1, "nu1": "1", "mu3": None}, "'mu3'"),
    ({"n": 1.7, "nu1": "1"}, "'n'"), ({"n": True, "nu1": "1"}, "'n'"),
    ({"n": "2", "nu1": "1"}, "'n'")])
def test_from_json_dict_refuses_malformed_values(d, key):
    """Each is a ValueError naming the key: no TypeError, and no float or
    bool n truncated to an integer."""
    with pytest.raises(ValueError, match=key):
        DGParams.from_json_dict(d)


def load_value(text):
    """The mu2 that from_json_dict reads from ``text``, or the exception type."""
    try:
        return DGParams.from_json_dict({"n": 1, "nu1": "1", "mu2": text}).mu2
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


def fraction_value(text):
    try:
        return F(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


def small_exponent(text):
    """At most three exponent digits: Fraction('1e99999999') builds 10**99999999."""
    return sum(c.isdigit() for c in text.lower().partition("e")[2]) <= 3


@given(st.text(alphabet="0123456789-+/ ._e", max_size=12).filter(small_exponent))
@settings(max_examples=400, deadline=None)
def test_loader_agrees_with_fraction(text):
    got = load_value(text)
    assert got == fraction_value(text)
    assert type(got) is type(fraction_value(text))


@pytest.mark.parametrize("text,want", [
    ("0.5", F(1, 2)), (" 3/4 ", F(3, 4)), ("+3", F(3)), ("1_0", F(10)),
    ("-0", F(0)), ("007/010", F(7, 10)), ("-12/8", F(-3, 2)),
    ("1/0", ZeroDivisionError), ("-3/00", ZeroDivisionError),
    ("3/ 4", ValueError), ("-3/-4", ValueError), ("abc", ValueError),
    ("", ValueError), ("4/", ValueError),
])
def test_loader_edge_strings(text, want):
    assert load_value(text) == want == fraction_value(text)


def outcome(parse, value):
    """``parse(value)`` with its type, or the type of the exception it raises."""
    try:
        got = parse(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        return type(exc)
    return got, type(got)


class IntSub(int):
    pass


class FractionSub(F):
    pass


class StrSub(str):
    pass


# ASCII digits, Arabic-Indic three and zero (decimal digits int() reads),
# the signs, separators and exponent letters Fraction knows, space and tab
RATIO_CHARS = "0123456789\u0663\u0660-+/_.eE \t"


@given(st.text(alphabet=RATIO_CHARS, max_size=12).filter(small_exponent))
@example("-\u0663/\u0663\u0660")
@example("\t-12/8 ")
@example("--1")
@example("-+1")
@example("1/-2")
@example("1__0")
@example("_1")
@example("1/2_0")
@example("-/2")
@example("3/\u0660")
@example("1e3")
@settings(max_examples=600, deadline=None)
def test_as_rational_str_path_equals_fraction(text):
    """Every string is accepted with Fraction(text.strip())'s value, or
    refused with the exception type Fraction raises."""
    assert outcome(as_rational, text) == outcome(F, text.strip())
    assert outcome(as_rational, StrSub(text)) == outcome(F, text.strip())


@given(st.fractions())
def test_as_rational_returns_a_fraction_itself(q):
    assert as_rational(q) is q
    sub = FractionSub(q)
    assert as_rational(sub) is sub


@given(st.integers())
def test_as_rational_coerces_int_and_int_subclass(k):
    assert outcome(as_rational, k) == (F(k), F)
    assert outcome(as_rational, IntSub(k)) == (F(k), F)


def test_loader_keeps_the_error_message():
    for text in ("1/0", "3/ 4", "abc"):
        with pytest.raises((ValueError, ZeroDivisionError)) as got:
            DGParams.from_json_dict({"n": 1, "nu1": "1", "mu2": text})
        with pytest.raises((ValueError, ZeroDivisionError)) as want:
            F(text.strip())
        assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# invariants

def defining_invariants(p):
    """iota0..iota5 from their defining rational formulas."""
    return (p.nu1 * p.mu0,
            p.nu1 * p.mu2 - p.nu2 * p.mu1,
            p.mu1 - 2 * p.nu2,
            1 + p.mu3 / p.nu1,
            p.mu4 - p.mu1 * p.mu3 / p.nu1,
            p.nu1 * (p.mu2 + 2 * p.mu5) - p.nu2 * (p.mu1 + 2 * p.mu4)
            + 2 * p.nu2 ** 2 * p.mu3 / p.nu1)


@given(subfamily_params())
@settings(max_examples=150, deadline=None)
def test_invariants_equal_defining_formulas(p):
    assert compute_invariants(p).as_tuple() == defining_invariants(p)


def test_invariants_trivial_point():
    p = DGParams(n=1, nu1=1)
    inv = compute_invariants(p)
    assert inv.as_tuple() == (F(0), F(0), F(0), F(1), F(0), F(0))


def test_invariants_linear_se_point():
    p = reference_points()["linear-se"]
    inv = compute_invariants(p)
    assert inv.iota1 == F(1, 2)
    assert (inv.iota2, inv.iota3, inv.iota4, inv.iota5) == (0, 0, 0, 0)


def test_invariants_sym1c_point():
    p = reference_points()["sym1c"]
    inv = compute_invariants(p)
    assert inv.iota1 == 1
    assert (inv.iota2, inv.iota3, inv.iota4, inv.iota5) == (0, 0, 0, 0)


# ---------------------------------------------------------------------------
# gauge group

def test_compose_example():
    g = gauge_compose(GaugeElement(2, 1), GaugeElement(3, 5))
    assert (g.Lambda, g.gamma) == (6, 11)


def test_identity_and_inverse():
    g = GaugeElement(-2, 7)
    e = gauge_identity()
    assert gauge_compose(g, e) == g
    assert gauge_compose(e, g) == g
    assert gauge_compose(g, gauge_inverse(g)) == e
    assert gauge_inverse(GaugeElement(2, 4)) == GaugeElement(F(1, 2), -2)
    assert gauge_inverse(GaugeElement(-1, 3)) == GaugeElement(-1, 3)


@given(gauges(), gauges(), gauges())
@settings(max_examples=60, deadline=None)
def test_associativity(g1, g2, g3):
    assert gauge_compose(gauge_compose(g1, g2), g3) == \
        gauge_compose(g1, gauge_compose(g2, g3))


def test_gauge_act_example():
    p = reference_points()["sym1c"]
    q = gauge_act_params(GaugeElement(2, 3), p)
    assert q.nu1 == F(1, 2)
    assert q.nu2 == F(-3, 4)
    assert q.mu1 == F(-3, 2)
    assert q.mu2 == F(17, 4)
    assert compute_invariants(q).iota1 == compute_invariants(p).iota1 == 1


def test_gauge_act_identity():
    p = reference_points()["generic"]
    assert gauge_act_params(gauge_identity(), p) == p


@given(gauges(), gauges(), generic_params())
@settings(max_examples=60, deadline=None)
def test_left_action_law(g1, g2, p):
    lhs = gauge_act_params(g1, gauge_act_params(g2, p))
    rhs = gauge_act_params(gauge_compose(g1, g2), p)
    assert lhs == rhs


@given(gauges(), subfamily_params())
@settings(max_examples=120, deadline=None)
def test_gauge_invariance(g, p):
    q = gauge_act_params(g, p)
    assert compute_invariants(q) == compute_invariants(p)
    assert classify(q).tag == classify(p).tag


@given(gauges(), exp_params())
@settings(max_examples=60, deadline=None)
def test_gauge_invariance_exp_subfamily(g, p):
    assert classify(p).tag in ("Sym4", "Sym0a")
    q = gauge_act_params(g, p)
    assert classify(q).tag == classify(p).tag


wide = st.fractions(min_value=-50, max_value=50, max_denominator=10 ** 6)


@given(st.builds(GaugeElement, wide.filter(lambda q: q != 0), wide),
       st.builds(GaugeElement, wide.filter(lambda q: q != 0), wide),
       subfamily_params())
@settings(max_examples=80, deadline=None)
def test_invariants_constant_on_gauge_orbits(g1, g2, p):
    q1 = gauge_act_params(g1, p)
    q2 = gauge_act_params(g2, q1)
    assert compute_invariants(q1) == compute_invariants(q2) == compute_invariants(p)
    assert compute_invariants(gauge_act_params(gauge_compose(g2, g1), p)) == \
        compute_invariants(p)


# ---------------------------------------------------------------------------
# canonical gauge

def test_canonical_gauge_examples():
    p = DGParams(n=1, nu1=1, mu2=F(1, 3))
    g = canonical_gauge(p)
    assert g == gauge_identity() and gauge_act_params(g, p) == p

    p = reference_points()["linear-se"]
    g = canonical_gauge(p)
    assert (g.Lambda, g.gamma) == (-1, 0)
    q = gauge_act_params(g, p)
    assert q.nu1 == 1 and q.mu1 == 0


@given(generic_params())
@settings(max_examples=60, deadline=None)
def test_canonical_gauge_normalizes(p):
    q = gauge_act_params(canonical_gauge(p), p)
    assert q.nu1 == 1 and q.mu1 == 0
    assert compute_invariants(q) == compute_invariants(p)


# ---------------------------------------------------------------------------
# classification

def test_classify_examples(pts):
    assert classify(pts["linear-se"]).tag == "Sym1c"
    assert classify(pts["sym1b"]).tag == "Sym1b"
    # degenerate all-zero point: the affine predicate holds with mu3 = 0,
    # so the more symmetric class wins over the generic one
    assert classify(DGParams(n=1, nu1=1)).tag == "Sym2"


def test_classify_reference_points(pts):
    expected = {
        "linear-se": "Sym1c", "sym1b": "Sym1b", "sym1c": "Sym1c",
        "sym1b-nu2": "Sym1b", "sym1c-nu2": "Sym1c", "galsub": "Sym1",
        "finsub": "Sym2", "sym3": "Sym3", "sym3-nu2": "Sym3",
        "infsub": "Sym0a", "infasub": "Sym2a", "expsub": "Sym4",
        "expsub-nu2": "Sym4", "generic": "Sym0",
    }
    for key, tag in expected.items():
        assert classify(pts[key]).tag == tag, key


def test_predicate_report_exposed(pts):
    cls = classify(pts["sym3"])
    assert cls.predicates["GalSub"] and cls.predicates["FinSub"]
    assert not cls.predicates["EhrSub"]


@given(ehr_params())
@settings(max_examples=60, deadline=None)
def test_ehr_subfamily_invariant_form(p):
    inv = compute_invariants(p)
    assert inv.iota1 != 0
    assert (inv.iota2, inv.iota3, inv.iota4, inv.iota5) == (0, 0, 0, 0)
    assert classify(p).tag == ("Sym1b" if inv.iota1 < 0 else "Sym1c")


@given(st.builds(lambda a, b, c: make_inf_sub(1, a, b, c),
                 nonzero, rationals, rationals))
@settings(max_examples=60, deadline=None)
def test_inf_subfamily_invariant_form(p):
    inv = compute_invariants(p)
    assert inv.iota1 == 0 and inv.iota5 == 0
    assert inv.iota3 == -1
    assert inv.iota4 == inv.iota2


@given(st.builds(lambda a, b, c, d, e: make_gal_sub(1, a, b, c, d, e),
                 nonzero, rationals, rationals, rationals, rationals))
@settings(max_examples=60, deadline=None)
def test_gal_subfamily_invariant_form(p):
    inv = compute_invariants(p)
    assert inv.iota3 == 0 and inv.iota4 == 0


@given(st.builds(lambda a, b, c: make_fin_sub(1, a, b, c),
                 nonzero, rationals, rationals))
@settings(max_examples=60, deadline=None)
def test_fin_subfamily_invariant_form(p):
    inv = compute_invariants(p)
    assert (inv.iota1, inv.iota2, inv.iota4, inv.iota5) == (0, 0, 0, 0)


@given(exp_params())
@settings(max_examples=60, deadline=None)
def test_exp_subfamily_invariant_form(p):
    """Dual route: the raw conditions are equivalent to invariant relations."""
    i = compute_invariants(p)
    assert i.iota2 != 0 and i.iota3 != 0
    assert i.iota4 == (1 - i.iota3) * i.iota2 / 2
    assert i.iota1 == (i.iota3 ** 2 - 1) * i.iota2 ** 2 / (8 * i.iota3 ** 2)
    assert i.iota5 == i.iota1 * i.iota3


def test_exp_predicate_rejects_perturbation(pts):
    p = pts["expsub-nu2"]
    assert predicate_report(p)["ExpSub"]
    q = p.replace(mu2=p.mu2 + F(1, 1000))
    assert not predicate_report(q)["ExpSub"]


# ---------------------------------------------------------------------------
# reference oracle: the subfamily conditions written on the raw parameters

def raw_report(p):
    """Each subfamily condition in raw (nu, mu) form, independent of params."""
    nu1, nu2, mu1, mu2, mu3, mu4, mu5 = (p.nu1, p.nu2, p.mu1, p.mu2, p.mu3,
                                         p.mu4, p.mu5)
    gal = mu1 + mu4 == 0 and mu3 + nu1 == 0
    fin = (mu1 == 2 * nu2
           and mu2 == 2 * nu2 ** 2 / nu1
           and mu4 == 2 * mu3 * nu2 / nu1
           and mu5 == mu3 * nu2 ** 2 / nu1 ** 2)
    inf = (mu2 == nu2 * mu1 / nu1
           and mu3 == -2 * nu1
           and mu4 == -2 * nu2 - mu1
           and mu5 == -nu2 * mu1 / nu1)
    ehr = (mu1 == 2 * nu2
           and mu3 == -nu1
           and mu4 == -2 * nu2
           and mu5 == -mu2 / 2
           and mu2 != 2 * nu2 ** 2 / nu1)
    exp = (mu1 - 2 * nu2 != 0 and mu3 + nu1 != 0
           and mu2 == (mu3 * (mu1 + 2 * nu2) ** 2 * (mu3 + 2 * nu1)
                       + 8 * mu1 * nu1 ** 2 * nu2) / (8 * nu1 * (mu3 + nu1) ** 2)
           and mu4 == mu3 * (mu1 + 2 * nu2) / (2 * nu1)
           and mu5 == mu3 / (2 * nu1) * mu2)
    return {"GalSub": gal, "FinSub": fin, "InfSub": inf,
            "InfaSub": inf and mu1 == 2 * nu2, "EhrSub": ehr, "ExpSub": exp}


def raw_classify(p):
    """Class tag from the raw report, by the priority classify documents."""
    rep = raw_report(p)
    if rep["EhrSub"]:
        return "Sym1b" if p.nu1 * p.mu2 - p.nu2 * p.mu1 < 0 else "Sym1c"
    if rep["InfSub"]:
        return "Sym2a" if rep["InfaSub"] else "Sym0a"
    if rep["GalSub"] and rep["FinSub"]:
        return "Sym3"
    if rep["GalSub"]:
        return "Sym1"
    if rep["FinSub"]:
        return "Sym2"
    if rep["ExpSub"]:
        return "Sym4"
    return "Sym0"


def assert_matches_oracle(p):
    cls = classify(p)
    assert list(cls.predicates.items()) == list(raw_report(p).items())
    assert predicate_report(p) == cls.predicates
    assert cls.invariants == compute_invariants(p)
    assert cls.tag == raw_classify(p)


P1, P2, P3, P4 = 999983, 1000003, 999979, 1000033  # primes near 10^6


@pytest.mark.parametrize("p", [
    DGParams(1, F(7, P1), F(-3, P2), F(5, P3), F(1, P4), F(2, P1 * P2),
             F(-9, P3), F(4, P4), F(11, P2)),
    make_gal_sub(1, F(7, P1), F(-3, P2), F(5, P3), F(1, P4), F(2, P1)),
    make_fin_sub(1, F(7, P1), F(-3, P2), F(5, P3)),
    make_inf_sub(1, F(7, P1), F(-3, P2), F(5, P3)),
    make_infa_sub(1, F(7, P1), F(-3, P2)),
    make_sym3(1, F(7, P1), F(-3, P2)),
    make_ehr_sub(1, F(7, P1), F(-3, P2), F(5, P3)),
    make_ehr_sub(1, F(-7, P1), F(-3, P2), F(5, P3)),
    make_exp_sub(1, F(7, P1), F(-3, P2), F(5, P3), F(1, P4)),
], ids=["generic", "gal", "fin", "inf", "infa", "sym3", "ehr+", "ehr-", "exp"])
@pytest.mark.parametrize("g", [gauge_identity(), GaugeElement(F(P2, P4), F(-P3, P1))],
                         ids=["id", "moved"])
def test_classify_large_coprime_denominators(p, g):
    q = gauge_act_params(g, p)
    assert q.cleared[0] > 10 ** 12  # the cleared denominator D
    assert classify(q).tag == raw_classify(p)
    assert_matches_oracle(q)
    perturbed = q.replace(mu5=q.mu5 + F(1, P1 * P4))
    assert_matches_oracle(perturbed)


@given(subfamily_params())
@settings(max_examples=150, deadline=None)
def test_classifier_agrees_with_invariant_route(p):
    assert_matches_oracle(p)


@given(gauges(), subfamily_params())
@settings(max_examples=80, deadline=None)
def test_invariant_route_after_gauge(g, p):
    assert_matches_oracle(gauge_act_params(g, p))


def test_invariant_corners_match_oracle():
    """Every point whose iota1..iota5 lie in {-1, 0, 1, 2}, gauge-moved.

    The subfamily conditions are relations among the invariants with small
    constants, so this grid lands on each of them and on their overlaps,
    where a dropped or extra condition changes the report.  Each point is
    built at the canonical gauge nu1 = 1, mu1 = 0 and then moved.
    """
    gs = (GaugeElement(F(-2, 3), F(5, 2)), GaugeElement(3, -1))
    for i1, i2, i3, i4, i5 in itertools.product((-1, 0, 1, 2), repeat=5):
        nu2, mu3 = F(-i2, 2), F(i3 - 1)
        p = DGParams(1, 1, nu2=nu2, mu2=i1, mu3=mu3, mu4=i4,
                     mu5=(i5 - i1 + 2 * nu2 * i4 - 2 * nu2 ** 2 * mu3) / 2)
        assert compute_invariants(p).as_tuple() == (0, i1, i2, i3, i4, i5)
        for g in gs:
            assert_matches_oracle(gauge_act_params(g, p))

