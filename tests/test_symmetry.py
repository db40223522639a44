import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dgsym import symmetry
from dgsym.cli import _exact_basis
from dgsym.params import (DGParams, GaugeElement, gauge_act_params, make_ehr_sub,
                          make_exp_sub, make_fin_sub, make_gal_sub, make_inf_sub,
                          make_infa_sub, make_sym3, reference_points)
from dgsym.symexpr import SymExpr, VectorFieldSpec, lie_bracket
from dgsym.symmetry import (GeneratorName, GeneratorNotAdmissible,
                            admissible_generators, basis_generator, basis_names,
                            determining_residuals,
                            exp_rate_coefficients, infsub_poly_generator,
                            is_admissible, parse_generator, residuals_all_zero,
                            verify_commutator_table, verify_infinite_relations)
from tests.conftest import (reference_bracket, reference_commutator_table,
                            reference_infinite_relations)

F = Fraction


# ---------------------------------------------------------------------------
# names and construction

def test_parse_generator():
    g = parse_generator("L:1,2")
    assert (g.kind, g.i, g.j) == ("L", 1, 2)
    assert parse_generator("P:2").i == 2
    assert parse_generator("Yf:1+z^2").poly == (F(1), F(0), F(1))
    for bad in ("Q", "L:1", "P:x", "Zfoo"):
        with pytest.raises(ValueError):
            parse_generator(bad)


def _trimmed(coeffs):
    """A payload as parse_poly returns it: no trailing zeros, (0,) for zero."""
    while coeffs and not coeffs[-1]:
        coeffs = coeffs[:-1]
    return tuple(coeffs) or (F(0),)


generator_names = st.one_of(
    st.sampled_from(["H", "D", "C", "E", "R", "A", "F", "Zheat", "Zse"]).map(
        lambda kind: GeneratorName(kind=kind)),
    st.builds(lambda kind, i: GeneratorName(kind=kind, i=i),
              st.sampled_from(["P", "B"]), st.integers(1, 9)),
    st.builds(lambda i, d: GeneratorName(kind="L", i=i, j=i + d),
              st.integers(1, 8), st.integers(1, 8)),
    st.lists(st.fractions(min_value=-100, max_value=100, max_denominator=50),
             max_size=9).map(
        lambda coeffs: GeneratorName(kind="Yf", poly=_trimmed(coeffs))))


@given(generator_names)
@example(GeneratorName(kind="Yf", poly=(F(0),)))  # printed as Yf:0
@settings(max_examples=100, deadline=None)
def test_generator_name_round_trip(g):
    assert parse_generator(str(g)) == g


def test_basis_time_translation(pts):
    X = basis_generator("H", pts["generic"])
    assert X.tau == SymExpr.const(1, 1)
    assert X.phi.is_zero and X.sigma.is_zero and X.xi[0].is_zero


def test_basis_scaling_coefficients(pts):
    p = pts["sym3-nu2"]  # nu1=1, nu2=1/2, mu1=1
    X = basis_generator("D", p)
    n = 1
    assert X.xi[0] == SymExpr.var(1, "x1")
    assert X.tau == 2 * SymExpr.var(1, "t")
    assert X.phi == SymExpr.const(1, F(-n, 2))
    assert X.sigma == SymExpr.const(1, F(n, 2))  # n*mu1/(2*nu1) = 1/2


def test_basis_affine_generator(pts):
    p = pts["finsub"]
    X = basis_generator("A", p)
    assert X.tau == -1 * SymExpr.var(1, "t")
    want = (2 * p.nu2 / p.nu1) * SymExpr.var(1, "r") + SymExpr.var(1, "s")
    assert X.sigma == want
    assert X.phi.is_zero


def test_exp_rates_simple_point(pts):
    lam, eta, kap = exp_rate_coefficients(pts["expsub"])
    assert (lam, eta) == (2, 0)
    # kappa is pinned by the determining equations (which also force
    # lam*kappa - eta = 2); the value 0 would leave nonzero residuals.
    assert kap == 1


def test_exp_rates_generic_point(pts):
    lam, eta, kap = exp_rate_coefficients(pts["expsub-nu2"])
    assert (lam, eta, kap) == (9, F(13, 2), F(17, 18))


@given(st.fractions(min_value=-3, max_value=3, max_denominator=6).filter(lambda q: q != 0),
       st.fractions(min_value=-2, max_value=2, max_denominator=4),
       st.fractions(min_value=-2, max_value=2, max_denominator=4),
       st.fractions(min_value=-2, max_value=2, max_denominator=4))
@settings(max_examples=60, deadline=None)
def test_exp_rate_identity(nu1, nu2, mu1, mu3):
    """lambda*kappa - eta = 2 on the whole exponential subfamily."""
    if mu1 == 2 * nu2 or mu3 == -nu1:
        return
    p = make_exp_sub(1, nu1, nu2, mu1, mu3)
    lam, eta, kap = exp_rate_coefficients(p)
    assert lam * kap - eta == 2


def test_admissibility_gate(pts):
    assert not is_admissible("C", pts["generic"])
    assert not is_admissible("A", pts["galsub"])
    X = basis_generator("C", pts["generic"])
    assert not X.tau.is_zero
    assert is_admissible("C", pts["galsub"])
    assert not is_admissible("F", pts["galsub"])


def test_z_generators_have_no_exact_coefficients(pts):
    with pytest.raises(ValueError):
        basis_generator("Zheat", pts["sym1b"])


def test_index_validation(pts):
    with pytest.raises(ValueError):
        basis_generator("P:2", pts["generic"])
    with pytest.raises(ValueError):
        basis_generator("L:2,1", reference_points(2)["generic"])


# ---------------------------------------------------------------------------
# commutator table

@pytest.mark.parametrize("n", [1, 2, 3])
def test_commutator_table_full(pts, n):
    rows = verify_commutator_table(pts["sym3-nu2"], n=n)
    failures = [r for r in rows if not r.passed]
    assert not failures, failures[:3]


def test_specific_brackets(pts):
    p = pts["sym3-nu2"]
    D = basis_generator("D", p)
    H = basis_generator("H", p)
    C = basis_generator("C", p)
    A = basis_generator("A", p)
    R = basis_generator("R", p)
    E = basis_generator("E", p)
    assert (lie_bracket(D, H) - H.scale(-2)).is_zero
    assert (lie_bracket(H, C) - D).is_zero
    assert (lie_bracket(D, C) - C.scale(2)).is_zero
    assert (lie_bracket(A, R) - E.scale(4 * p.nu2)).is_zero
    P1 = basis_generator("P:1", p)
    B1 = basis_generator("B:1", p)
    assert (lie_bracket(C, P1) + B1).is_zero
    assert (lie_bracket(P1, B1) - E).is_zero


def test_rotation_brackets():
    p = reference_points(3)["sym3-nu2"]
    L12 = basis_generator("L:1,2", p)
    L23 = basis_generator("L:2,3", p)
    L13 = basis_generator("L:1,3", p)
    assert (lie_bracket(L12, L23) - L13).is_zero
    P2 = basis_generator("P:2", p)
    P1 = basis_generator("P:1", p)
    assert (lie_bracket(L12, P2) - P1).is_zero


def test_exponential_generator_brackets(pts):
    p = pts["expsub-nu2"]
    lam, eta, _ = exp_rate_coefficients(p)
    Fgen = basis_generator("F", p)
    E = basis_generator("E", p)
    R = basis_generator("R", p)
    assert (lie_bracket(Fgen, E) - Fgen.scale(lam / (2 * p.nu1))).is_zero
    assert (lie_bracket(Fgen, R) - Fgen.scale(-eta)).is_zero


def test_infinite_relations(pts):
    for key in ("infsub", "infasub"):
        rows = verify_infinite_relations(pts[key])
        assert all(r.passed for r in rows), [r for r in rows if not r.passed]
    with pytest.raises(GeneratorNotAdmissible):
        verify_infinite_relations(pts["generic"])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bracket_matches_reference_on_basis_generators(n):
    """Every pair of exact basis generators, F where its rates exist and a
    Y_f included, at every reference point."""
    import itertools
    for key, p in reference_points(n).items():
        fields = [basis_generator(g, p) for g in _exact_basis(p)]
        for X, Y in itertools.combinations_with_replacement(fields, 2):
            assert lie_bracket(X, Y) == reference_bracket(X, Y), key


def test_commutator_table_differentiates_each_field_once(monkeypatch):
    """The n = 3 table at a Sym3 point brackets its 15 generators pairwise,
    105 brackets, and runs the derivative rule once per field, not twice
    per bracket."""
    from dgsym import symexpr

    calls = []
    real = symexpr.scaled_derivatives

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(symexpr, "scaled_derivatives", counted)
    monkeypatch.setattr(symmetry, "scaled_derivatives", counted)
    p = reference_points(3)["sym3"]
    rows = verify_commutator_table(p, n=3)
    assert len(admissible_generators(p)) == 15 and len(rows) == 105
    assert all(r.passed for r in rows)
    assert len(calls) == 15


def test_wrong_table_entry_fails_exactly_its_row(pts, monkeypatch):
    """[D, H] = -H in place of -2H: only the [H,D] row fails, and its detail
    names the one component where got - want is nonzero."""
    real = symmetry._expected_bracket

    def wrong(a, b, p):
        if (a.kind, b.kind) == ("D", "H"):
            return [(-1, GeneratorName("H"))]
        return real(a, b, p)

    monkeypatch.setattr(symmetry, "_expected_bracket", wrong)
    rows = verify_commutator_table(pts["sym3-nu2"], n=2)
    failed = [r for r in rows if not r.passed]
    assert [(r.label, r.detail) for r in failed] == [("[H,D]", "mismatch: {'t': 1}")]
    assert all(r.detail == "" for r in rows if r.passed)


def test_wrong_poly_bracket_fails_the_yf_rows(pts, monkeypatch):
    """gf' - fg' in place of fg' - gf' fails every [Y_z^i,Y_z^j] row with
    i < j, naming the r and s components, and nothing else."""
    real = symmetry._poly_vf_bracket
    monkeypatch.setattr(symmetry, "_poly_vf_bracket", lambda f, g: real(g, f))
    p = pts["infsub"]
    rows = verify_infinite_relations(p)
    failed = {r.label: r.detail for r in rows if not r.passed}
    assert set(failed) == {f"[Y_z^{i},Y_z^{j}]" for i in range(5) for j in range(i + 1, 5)}
    # got - want = 2 (mu1 - 2 nu2) (j - i) Y_{z^(i+j-1)}
    c = 2 * (p.mu1 - 2 * p.nu2)
    want = infsub_poly_generator(p, (F(0),) * 4 + (c * 3,))
    assert failed["[Y_z^1,Y_z^4]"] == f"mismatch: {{'r': {want.phi}, 's': {want.sigma}}}"


# ---------------------------------------------------------------------------
# determining equations

SUBFAMILY_GENERATORS = [
    ("galsub", ["H", "D", "C", "P:1", "B:1", "E", "R"]),
    ("sym1b-nu2", ["H", "D", "C", "P:1", "B:1", "E", "R"]),
    ("finsub", ["H", "D", "A", "P:1", "E", "R"]),
    ("sym3-nu2", ["H", "D", "C", "A", "P:1", "B:1", "E", "R"]),
    ("expsub", ["H", "D", "P:1", "E", "R", "F"]),
    ("expsub-nu2", ["H", "D", "P:1", "E", "R", "F"]),
    ("infsub", ["H", "D", "P:1", "E", "R", "F", "Yf:1+z^2+z^3"]),
    ("infasub", ["H", "D", "A", "P:1", "E", "R", "Yf:z^4"]),
]


@pytest.mark.parametrize("key,gens", SUBFAMILY_GENERATORS)
def test_determining_zero_on_subfamily(pts, key, gens):
    p = pts[key]
    exact = {g for g in admissible_generators(p) if g not in ("Zheat", "Zse")}
    assert {g for g in gens if not g.startswith("Yf")} == exact
    for gname in gens:
        X = basis_generator(gname, p)
        res = determining_residuals(p, X)
        assert residuals_all_zero(res), \
            (key, gname, [(lbl, str(e)) for lbl, e in res if not e.is_zero][:3])


def test_determining_zero_n2(pts):
    p = reference_points(2)["galsub"]
    for gname in ("C", "B:2", "L:1,2"):
        assert residuals_all_zero(
            determining_residuals(p, basis_generator(gname, p)))


def test_determining_nonzero_generic(pts):
    p = pts["generic"]
    for gname in ("C", "B:1", "A", "F"):
        X = basis_generator(gname, p)
        res = determining_residuals(p, X)
        assert not residuals_all_zero(res), gname


def test_translations_always_admissible(pts):
    for key in ("generic", "galsub", "expsub-nu2"):
        p = pts[key]
        assert residuals_all_zero(
            determining_residuals(p, basis_generator("P:1", p)))
        assert residuals_all_zero(
            determining_residuals(p, basis_generator("H", p)))


def test_expansion_residual_identifies_conditions(pts):
    """Outside the Galilei subfamily the expansion generator leaves the
    residual -x (1 + mu3/nu1) in the first equation family."""
    p = pts["generic"]
    X = basis_generator("C", p)
    res = dict(determining_residuals(p, X))
    want = SymExpr.var(1, "x1") * (-(1 + p.mu3 / p.nu1))
    assert res["det01[1]"] == want


def test_determining_precondition_errors(pts):
    p = pts["generic"]
    z = SymExpr.zero(1)
    from dgsym.symexpr import VectorFieldSpec
    bad_xi = VectorFieldSpec(n=1, xi=(SymExpr.var(1, "r"),), tau=z, phi=z, sigma=z)
    with pytest.raises(ValueError):
        determining_residuals(p, bad_xi)
    bad_tau = VectorFieldSpec(n=1, xi=(z,), tau=SymExpr.var(1, "x1"), phi=z, sigma=z)
    with pytest.raises(ValueError):
        determining_residuals(p, bad_tau)


def test_residual_count(pts):
    p = reference_points(2)["generic"]
    res = determining_residuals(p, basis_generator("P:1", p))
    # 13 per-axis families x 2 axes + 3 scalar families + 1 rotation pair
    assert len(res) == 13 * 2 + 3 + 1


def test_infsub_poly_generator_matches_name(pts):
    p = pts["infasub"]
    X = infsub_poly_generator(p, (F(1), F(0), F(1)))
    Y = basis_generator("Yf:1+z^2", p)
    assert (X - Y).is_zero


@given(st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(lambda q: q != 0),
       st.fractions(min_value=-2, max_value=2, max_denominator=4),
       st.fractions(min_value=-2, max_value=2, max_denominator=4),
       st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=3),
                min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_poly_generator_is_symmetry_on_random_infsub(nu1, nu2, mu1, coeffs):
    from dgsym.params import make_inf_sub
    p = make_inf_sub(1, nu1, nu2, mu1)
    X = infsub_poly_generator(p, coeffs)
    assert residuals_all_zero(determining_residuals(p, X))


@given(st.sampled_from([1, 2]),
       st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(lambda q: q != 0),
       st.fractions(min_value=-2, max_value=2, max_denominator=4),
       st.fractions(min_value=-2, max_value=2, max_denominator=4))
@settings(max_examples=40, deadline=None)
def test_exponential_generator_is_a_yf_on_infsub(n, nu1, nu2, mu1):
    """At every InfSub point with mu1 != 2 nu2, F is the vertical field
    f(z) (d_r - (2 nu2/nu1) d_s) with f = exp(-2z/(mu1 - 2 nu2)) and
    z = mu1 r + nu1 s, so F lies inside the infinite Y_f family there."""
    assume(mu1 != 2 * nu2)
    p = make_inf_sub(n, nu1, nu2, mu1)
    rate = -2 / (mu1 - 2 * nu2)
    f = SymExpr.exp_rs(n, rate * mu1, rate * nu1)
    zero = SymExpr.zero(n)
    Y = VectorFieldSpec(n=n, xi=(zero,) * n, tau=zero, phi=f,
                        sigma=f * (-2 * nu2 / nu1))
    assert (basis_generator("F", p) - Y).is_zero


def test_jacobi_identity_on_basis_generators(pts):
    """Jacobi identity over triples drawn from the point's generator basis."""
    import itertools
    p = pts["expsub-nu2"]
    names = ["H", "D", "P:1", "E", "R", "F"]
    fields = [basis_generator(g, p) for g in names]
    for X, Y, Z in itertools.combinations(fields, 3):
        total = lie_bracket(X, lie_bracket(Y, Z)) \
            + lie_bracket(Y, lie_bracket(Z, X)) \
            + lie_bracket(Z, lie_bracket(X, Y))
        assert total.is_zero

    p3 = pts["sym3-nu2"]
    names3 = ["H", "D", "C", "A", "P:1", "B:1", "E", "R"]
    fields3 = [basis_generator(g, p3) for g in names3]
    for X, Y, Z in itertools.combinations(fields3, 3):
        total = lie_bracket(X, lie_bracket(Y, Z)) \
            + lie_bracket(Y, lie_bracket(Z, X)) \
            + lie_bracket(Z, lie_bracket(X, Y))
        assert total.is_zero


# ---------------------------------------------------------------------------
# determining residuals against a SymExpr reference

def _reference_residuals(p, X):
    """The determining residuals in SymExpr arithmetic, with a copy of the
    family table: each derivative by differentiate, each family by lincomb.
    determining_residuals must return the same labels in the same order and
    equal expressions."""
    n = X.n
    nu1, nu2 = p.nu1, p.nu2
    mu1, mu2, mu3, mu4, mu5 = p.mu1, p.mu2, p.mu3, p.mu4, p.mu5
    m14, m25 = mu1 + mu4, mu2 + mu5

    # Each family is linear in X: sum of (coefficient, derivative) pairs.
    families = (
        ("det01", ((-1, "xi_t"), (-mu1, "lap_xi"), (2 * m14, "phi_x"),
                   (4 * mu2, "phi_xs"), (2 * mu3, "sig_x"), (2 * mu1, "sig_xs"))),
        ("det02", ((-nu1, "lap_xi"), (2 * nu1, "phi_x"), (4 * nu2, "phi_xs"),
                   (2 * nu1, "sig_xs"))),
        ("det03", ((-mu2, "lap_xi"), (4 * m25, "phi_x"), (2 * mu2, "phi_xr"),
                   (m14, "sig_x"), (mu1, "sig_xr"))),
        ("det04", ((1, "xi_t"), (-2 * nu2, "lap_xi"), (8 * nu2, "phi_x"),
                   (4 * nu2, "phi_xr"), (2 * nu1, "sig_x"), (2 * nu1, "sig_xr"))),
        ("det07", ((2 * m14, "phi_s"), (2 * mu2, "phi_ss"), (mu3, "sig_s"),
                   (mu1, "sig_ss"), (mu3, "tau_t"), (-2 * mu3, "xi_x"))),
        ("det08", ((2 * mu2, "phi_s"), (nu1, "sig_r"), (mu1, "tau_t"),
                   (-2 * mu1, "xi_x"))),
        ("det09", ((mu1 + 2 * nu2, "phi_s"), (-nu1, "phi_r"), (nu1, "sig_s"),
                   (nu1, "tau_t"), (-2 * nu1, "xi_x"))),
        ("det10", ((4 * m25, "phi_s"), (m14, "phi_r"), (2 * mu2, "phi_rs"),
                   (mu3 + nu1, "sig_r"), (mu1, "sig_rs"), (m14, "tau_t"),
                   (-2 * m14, "xi_x"))),
        ("det11", ((2 * mu2, "phi_r"), (-2 * mu2, "sig_s"), (mu1 + 2 * nu2, "sig_r"),
                   (2 * mu2, "tau_t"), (-4 * mu2, "xi_x"))),
        ("det12", ((2 * mu2, "phi_s"), (nu1, "sig_r"), (2 * nu2, "tau_t"),
                   (-4 * nu2, "xi_x"))),
        ("det13", ((m14 + 4 * nu2, "phi_s"), (2 * nu2, "phi_rs"), (nu1, "sig_s"),
                   (nu1, "sig_rs"), (nu1, "tau_t"), (-2 * nu1, "xi_x"))),
        ("det14", ((8 * m25, "phi_r"), (2 * mu2, "phi_rr"), (-4 * m25, "sig_s"),
                   (2 * (m14 + 2 * nu2), "sig_r"), (mu1, "sig_rr"),
                   (4 * m25, "tau_t"), (-8 * m25, "xi_x"))),
        ("det15", ((4 * m25, "phi_s"), (4 * nu2, "phi_r"), (2 * nu2, "phi_rr"),
                   (2 * nu1, "sig_r"), (nu1, "sig_rr"), (4 * nu2, "tau_t"),
                   (-8 * nu2, "xi_x"))),
    )

    phi, sigma, tau = X.phi, X.sigma, X.tau
    xs = [f"x{j}" for j in range(1, n + 1)]

    def d(e, *names):
        for nm in names:
            e = e.differentiate(nm)
        return e

    def lap(e):
        return SymExpr.lincomb(n, ((1, d(e, nm, nm)) for nm in xs))

    phi_r, phi_s = d(phi, "r"), d(phi, "s")
    sig_r, sig_s = d(sigma, "r"), d(sigma, "s")
    derivs = {
        "tau_t": d(tau, "t"),
        "phi_r": phi_r, "phi_s": phi_s, "sig_r": sig_r, "sig_s": sig_s,
        "phi_rr": d(phi_r, "r"), "phi_ss": d(phi_s, "s"), "phi_rs": d(phi_r, "s"),
        "sig_rr": d(sig_r, "r"), "sig_ss": d(sig_s, "s"), "sig_rs": d(sig_r, "s"),
    }

    out = []
    for j in range(1, n + 1):
        xj = f"x{j}"
        xi_j = X.xi[j - 1]
        phi_x, sig_x = d(phi, xj), d(sigma, xj)
        derivs.update(
            lap_xi=lap(xi_j), xi_t=d(xi_j, "t"), xi_x=d(xi_j, xj),
            phi_x=phi_x, sig_x=sig_x,
            phi_xs=d(phi_x, "s"), phi_xr=d(phi_x, "r"),
            sig_xs=d(sig_x, "s"), sig_xr=d(sig_x, "r"))
        for label, row in families:
            out.append((f"{label}[{j}]",
                        SymExpr.lincomb(n, ((c, derivs[name]) for c, name in row))))

    lap_phi, lap_sig = lap(phi), lap(sigma)
    out.append(("det05", SymExpr.lincomb(
        n, ((1, d(sigma, "t")), (mu1, lap_sig), (2 * mu2, lap_phi)))))
    out.append(("det06", SymExpr.lincomb(
        n, ((-1, d(phi, "t")), (2 * nu2, lap_phi), (nu1, lap_sig)))))
    out.append(("det16", SymExpr.lincomb(
        n, ((mu3 + 2 * nu1, phi_s), (2 * nu2, derivs["phi_ss"]),
            (nu1, derivs["sig_ss"])))))

    for j in range(1, n + 1):
        for k in range(j + 1, n + 1):
            out.append((f"rot[{j},{k}]", SymExpr.lincomb(
                n, ((1, d(X.xi[j - 1], f"x{k}")), (1, d(X.xi[k - 1], f"x{j}"))))))
    return out


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)
nonzero_rationals = rationals.filter(bool)


@st.composite
def det_points(draw):
    """A point from every subfamily constructor, or a fully random one."""
    n = draw(st.sampled_from([1, 2, 3]))
    kind = draw(st.sampled_from(["gal", "fin", "inf", "infa", "ehr", "sym3", "exp",
                                 "random"]))
    nu1, nu2 = draw(nonzero_rationals), draw(rationals)
    q = [draw(rationals) for _ in range(6)]
    try:
        if kind == "gal":
            return make_gal_sub(n, nu1, nu2, *q[:3])
        if kind == "fin":
            return make_fin_sub(n, nu1, nu2, q[0])
        if kind == "inf":
            return make_inf_sub(n, nu1, nu2, q[0])
        if kind == "infa":
            return make_infa_sub(n, nu1, nu2)
        if kind == "ehr":
            return make_ehr_sub(n, nu1, nu2, q[0])
        if kind == "sym3":
            return make_sym3(n, nu1, nu2)
        if kind == "exp":
            return make_exp_sub(n, nu1, nu2, q[0], q[1])
    except ValueError:  # a constructor's excluded corner
        assume(False)
    return DGParams(n=n, nu1=nu1, nu2=nu2, mu0=q[0], mu1=q[1], mu2=q[2], mu3=q[3],
                    mu4=q[4], mu5=q[5])


def _exact_generators(p):
    """Basis generators with exact coefficients at p and Y_f with rational f.
    Where its exponent rates exist, F, the one field with exp terms, comes
    as often as the other two together."""
    names = [g for g in basis_names(p.n) if g not in ("Zheat", "Zse", "F")]
    payloads = st.lists(rationals, min_size=1, max_size=4).map(
        lambda f: GeneratorName(kind="Yf", poly=tuple(f)))
    try:
        exp_rate_coefficients(p)
    except GeneratorNotAdmissible:
        return st.one_of(st.sampled_from(names), payloads)
    return st.one_of(st.sampled_from(names), payloads, st.just("F"), st.just("F"))


@given(det_points(), st.data())
@settings(max_examples=100, deadline=None)
def test_determining_residuals_match_reference(p, data):
    """X + c Y over basis generators built outside their subfamilies too,
    F included wherever its exponent rates exist (at ExpSub points it is a
    symmetry): the integer pass equals the SymExpr reference exactly."""
    gens = _exact_generators(p)
    X, Y = (basis_generator(data.draw(gens), p)
            for _ in range(2))
    field = X + Y.scale(data.draw(rationals))
    got = determining_residuals(p, field)
    want = _reference_residuals(p, field)
    assert [lbl for lbl, _ in got] == [lbl for lbl, _ in want]
    for (lbl, e), (_, w) in zip(got, want):
        assert e == w and repr(e) == repr(w), lbl


@pytest.mark.parametrize("comp,expr,message", [
    ("xi", SymExpr.var(2, "r"), "xi2 must not depend on (r, s)"),
    ("xi", SymExpr.var(2, "t") * SymExpr.exp_rs(2, 0, Fraction(1, 3)),
     "xi2 must not depend on (r, s)"),
    ("tau", SymExpr.var(2, "x1"), "tau must depend on t only"),
    ("tau", SymExpr.exp_rs(2, Fraction(-1, 2), 0), "tau must depend on t only")])
def test_determining_residuals_refuse_fields_outside_the_reduction(comp, expr, message):
    """xi free of (r, s) and tau = tau(t) are read off the scaled terms,
    powers and exp rates alike."""
    p = reference_points(2)["generic"]
    X = basis_generator("C", p)
    if comp == "xi":
        X = VectorFieldSpec(n=2, xi=(X.xi[0], X.xi[1] + expr), tau=X.tau,
                            phi=X.phi, sigma=X.sigma)
    else:
        X = VectorFieldSpec(n=2, xi=X.xi, tau=X.tau + expr, phi=X.phi, sigma=X.sigma)
    with pytest.raises(ValueError, match=re.escape(message)):
        determining_residuals(p, X)


@pytest.mark.parametrize("key,n", [
    pytest.param(key, n, id=key if n == 1 else f"{key}-n{n}")
    for key in ("generic", "sym1b") for n in (1, 2, 3)])
def test_determining_residuals_linear_in_field(key, n):
    """res(X + c Y) == res(X) + c res(Y), exactly, off the subfamilies."""
    p = reference_points(n)[key]
    c = F(-7, 3)
    pairs = [("A", "C"), ("Yf:1+z^2", "B:1"), ("A", "Yf:z^3"), ("F", "A")]
    for gx, gy in pairs:
        try:
            X = basis_generator(gx, p)
            Y = basis_generator(gy, p)
        except GeneratorNotAdmissible:
            continue  # F has no exponent rates at this point
        res_x = determining_residuals(p, X)
        res_y = determining_residuals(p, Y)
        assert not residuals_all_zero(res_x), gx
        combined = determining_residuals(p, X + Y.scale(c))
        assert [lbl for lbl, _ in combined] == [lbl for lbl, _ in res_x]
        for (lbl, got), (_, ex), (_, ey) in zip(combined, res_x, res_y):
            assert got == ex + c * ey, (gx, gy, lbl)


def _hand_residuals(p, field):
    """Determining residuals of sigma = x1 r or phi = x1 s, derived by hand
    from the equations (n = 1, xi = tau = 0)."""
    nu1, nu2, mu1, mu2, mu3 = p.nu1, p.nu2, p.mu1, p.mu2, p.mu3
    m14, m25 = p.mu1 + p.mu4, p.mu2 + p.mu5
    x, r, s = (SymExpr.var(1, nm) for nm in ("x1", "r", "s"))
    one = SymExpr.const(1, 1)
    if field == "sigma":  # sig_x = r, sig_xr = 1, sig_r = x1
        return {"det01[1]": 2 * mu3 * r, "det03[1]": m14 * r + mu1 * one,
                "det04[1]": 2 * nu1 * r + 2 * nu1 * one, "det08[1]": nu1 * x,
                "det10[1]": (mu3 + nu1) * x, "det11[1]": (mu1 + 2 * nu2) * x,
                "det12[1]": nu1 * x, "det14[1]": 2 * (m14 + 2 * nu2) * x,
                "det15[1]": 2 * nu1 * x}
    # phi_x = s, phi_xs = 1, phi_s = x1
    return {"det01[1]": 2 * m14 * s + 4 * mu2 * one,
            "det02[1]": 2 * nu1 * s + 4 * nu2 * one, "det03[1]": 4 * m25 * s,
            "det04[1]": 8 * nu2 * s, "det07[1]": 2 * m14 * x,
            "det08[1]": 2 * mu2 * x, "det09[1]": (mu1 + 2 * nu2) * x,
            "det10[1]": 4 * m25 * x, "det12[1]": 2 * mu2 * x,
            "det13[1]": (m14 + 4 * nu2) * x, "det15[1]": 4 * m25 * x,
            "det16": (mu3 + 2 * nu1) * x}


@pytest.mark.parametrize("field", ["sigma", "phi"])
def test_determining_residuals_of_mixed_derivative_fields(pts, field):
    """Every family coefficient of sig_x, sig_xr, phi_x, phi_xs, ... counts:
    no basis generator has nonzero mixed (x, r) or (x, s) derivatives."""
    from dgsym.symexpr import VectorFieldSpec
    p = pts["generic"]
    z = SymExpr.zero(1)
    x = SymExpr.var(1, "x1")
    if field == "sigma":
        X = VectorFieldSpec(n=1, xi=(z,), tau=z, phi=z, sigma=x * SymExpr.var(1, "r"))
    else:
        X = VectorFieldSpec(n=1, xi=(z,), tau=z, phi=x * SymExpr.var(1, "s"), sigma=z)
    want = _hand_residuals(p, field)
    got = dict(determining_residuals(p, X))
    for label, e in got.items():
        assert e == want.get(label, z), label


# ---------------------------------------------------------------------------
# commutator table and Y_f relations against a SymExpr reference

def _gauged(points):
    """Points of ``points`` and, half the time, their image under a drawn
    gauge element; the subfamily predicates are gauge invariant."""
    @st.composite
    def draw_point(draw):
        p = draw(points)
        if draw(st.booleans()):
            g = GaugeElement(draw(nonzero_rationals), draw(rationals))
            p = gauge_act_params(g, p)
        return p
    return draw_point()


@st.composite
def _infsub_points(draw):
    n = draw(st.sampled_from([1, 2, 3]))
    nu1, nu2 = draw(nonzero_rationals), draw(rationals)
    if draw(st.booleans()):
        return make_infa_sub(n, nu1, nu2)
    return make_inf_sub(n, nu1, nu2, draw(rationals))


# Perturbations of the expected sides, as (factor, extra): every expected
# coefficient times factor, plus 1/3 E (table) or the constant 1/5 (Y_f
# polynomial) when extra is set, so the rows fail and their details count.
_PERTURBATIONS = st.sampled_from([None, None, (F(3, 2), False), (1, True),
                                  (F(-1, 3), True)])


def _rows(rows):
    return [(r.label, r.passed, r.detail) for r in rows]


@given(_gauged(det_points()), _PERTURBATIONS)
@example(make_sym3(1, F(2), F(1, 3)), None)  # [A, R] = 4 nu2 E = (4/3) E
@example(make_fin_sub(2, F(3, 2), F(-3, 4), F(1, 2)), None)
@example(make_sym3(3, F(-1, 2), F(5, 6)), (F(3, 2), True))
@settings(max_examples=25, deadline=None)
def test_commutator_table_matches_reference(p, wrong):
    """The integer rows equal the SymExpr reference's labels, pass flags and
    details, also where a perturbed table makes rows fail."""
    from unittest import mock

    real = symmetry._expected_bracket

    def perturbed(a, b, q):
        terms = real(a, b, q)
        if terms is None or wrong is None:
            return terms
        factor, extra = wrong
        return [(factor * c, g) for c, g in terms] + \
            ([(F(1, 3), GeneratorName("E"))] if extra else [])

    with mock.patch.object(symmetry, "_expected_bracket", perturbed):
        got = verify_commutator_table(p)
        want = reference_commutator_table(p)
    assert _rows(got) == _rows(want)
    assert wrong is not None or all(r.passed for r in got)


@given(_gauged(_infsub_points()), _PERTURBATIONS)
@example(make_infa_sub(1, F(2, 3), F(-5, 4)), None)
@example(make_inf_sub(3, F(-3, 2), F(1, 2), F(2, 5)), (F(-1, 3), True))
@settings(max_examples=25, deadline=None)
def test_infinite_relations_match_reference(p, wrong):
    """The integer Y_f rows equal the SymExpr reference's labels, pass
    flags and details, also where a perturbed fg' - gf' makes rows fail."""
    from unittest import mock

    real = symmetry._poly_vf_bracket

    def perturbed(f, g):
        h = real(f, g)
        if wrong is None:
            return h
        factor, extra = wrong
        h = symmetry._poly_trim(tuple(factor * c for c in h))
        return symmetry._poly_add(h, (F(1, 5),)) if extra else h

    with mock.patch.object(symmetry, "_poly_vf_bracket", perturbed):
        got = verify_infinite_relations(p)
        want = reference_infinite_relations(p)
    assert _rows(got) == _rows(want)
    assert wrong is not None or all(r.passed for r in got)
