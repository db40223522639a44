"""The evolution system as exact data: ``params.dg_system`` against the
paper's functionals R1..R5, the gauge action, the invariants, both
linearizations and the stencil coefficients.

Every identity here is checked on Fractions with zero tolerance.  The
linearizations are polynomial identities in lambda (heat branch) or Lambda
(Schroedinger branch), so drawing rational lambda or Lambda and solving for
mu2 tests them fully, without surds.
"""

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgsym import pde
from dgsym.linearize import heat_pair_directions, linearization_data
from dgsym.params import (DGParams, GaugeElement, classify, compute_invariants,
                          dg_system, gauge_act_params, gauge_compose,
                          make_ehr_sub, reference_points, stability_report)

F = Fraction

bounded = st.fractions(min_value=-4, max_value=4, max_denominator=8)
rationals = st.one_of(st.just(F(0)), bounded)
# drawn from `bounded`: filtering `rationals` would throw away every just(0)
# draw and trip hypothesis's filter_too_much health check at random
nonzero = bounded.filter(lambda q: q != 0)
positive = st.fractions(min_value=F(1, 8), max_value=4, max_denominator=8)
points = st.builds(DGParams, st.sampled_from((1, 2)), nonzero, *[rationals] * 7)
gauges = st.builds(GaugeElement, nonzero, rationals)


def equations(system):
    """The nine coefficients as two 5-tuples over (lap u1, lap u2,
    |grad u1|^2, grad u1 . grad u2, |grad u2|^2), u = (r, s): the r equation
    has no |grad s|^2 term."""
    a1, a2, a3, a4, b1, b2, b3, b4, b5 = system
    return (a1, a2, a3, a4, 0), (b1, b2, b3, b4, b5)


def pushforward(A, eqs):
    """The system ``eqs`` (two 5-tuples, as ``equations``) rewritten for
    u' = A u, A an invertible 2x2 matrix of rationals.

    With B = A^-1, lap u = B lap u' and grad u = B grad u', so each
    equation's Laplacian row L and quadratic form Q (symmetric, in grad u)
    become L B and B^T Q B, and u'_t = A u_t mixes the two equations."""
    (p, q), (u, v) = A
    det = F(p * v - q * u)
    B = ((v / det, -q / det), (-u / det, p / det))
    laps = [e[:2] for e in eqs]
    quads = [((e[2], F(e[3]) / 2), (F(e[3]) / 2, e[4])) for e in eqs]
    out = []
    for row in A:
        L = [sum(row[i] * laps[i][j] * B[j][m] for i in range(2) for j in range(2))
             for m in range(2)]
        Q = [[sum(row[i] * B[j][m] * quads[i][j][k] * B[k][l]
                  for i in range(2) for j in range(2) for k in range(2))
              for l in range(2)] for m in range(2)]
        out.append((L[0], L[1], Q[0][0], 2 * Q[0][1], Q[1][1]))
    return tuple(out)


def gauge_matrix(g):
    """The gauge on solutions, r' = r and s' = gamma r + Lambda s."""
    return (1, 0), (g.gamma, g.Lambda)


def matmul(A, B):
    return tuple(tuple(sum(A[i][k] * B[k][j] for k in range(2)) for j in range(2))
                 for i in range(2))


@given(gauges, points)
@settings(max_examples=100, deadline=None)
def test_gauge_pushforward_is_the_gauge_action(g, p):
    """Mapping solutions of p by the gauge gives solutions of
    gauge_act_params(g, p): the two systems are equal, term by term."""
    assert pushforward(gauge_matrix(g), equations(dg_system(p))) == \
        equations(dg_system(gauge_act_params(g, p)))


@given(gauges, gauges, points)
@settings(max_examples=60, deadline=None)
def test_pushforwards_compose_by_the_group_law(g1, g2, p):
    g12 = gauge_compose(g1, g2)
    assert matmul(gauge_matrix(g1), gauge_matrix(g2)) == gauge_matrix(g12)
    eqs = equations(dg_system(p))
    twice = pushforward(gauge_matrix(g1), pushforward(gauge_matrix(g2), eqs))
    assert twice == pushforward(gauge_matrix(g12), eqs) == \
        equations(dg_system(gauge_act_params(g12, p)))


# The homogeneous functionals R1..R5 of Doebner and Goldin (J. Phys. A 27
# (1994) 1771) over the terms of ``equations``:
# R1 = lap s + 2 grad r . grad s, R2 = 2 lap r + 4 |grad r|^2,
# R3 = |grad s|^2, R4 = 2 grad r . grad s and R5 = 4 |grad r|^2.
FUNCTIONALS = ((0, 1, 0, 2, 0), (2, 0, 4, 0, 0), (0, 0, 0, 0, 1),
               (0, 0, 0, 2, 0), (0, 0, 4, 0, 0))


def combination(weights):
    """sum_k weights[k] R_{k+1}, term by term."""
    return tuple(sum(w * R[j] for w, R in zip(weights, FUNCTIONALS))
                 for j in range(5))


@given(points)
@settings(max_examples=200, deadline=None)
def test_system_is_the_papers_combination_of_the_functionals(p):
    """r_t = nu1 R1 + nu2 R2 and s_t = -(mu1 R1 + ... + mu5 R5), exactly."""
    r_eq, s_eq = equations(dg_system(p))
    assert r_eq == combination((p.nu1, p.nu2, 0, 0, 0))
    assert s_eq == tuple(-c for c in combination(
        (p.mu1, p.mu2, p.mu3, p.mu4, p.mu5)))


def laplacian_block(p):
    a1, a2, _, _, b1, b2, *_ = dg_system(p)
    return (a1, a2), (b1, b2)


@given(points)
@settings(max_examples=100, deadline=None)
def test_laplacian_block_carries_iota1_and_iota2(p):
    (a1, a2), (b1, b2) = laplacian_block(p)
    inv = compute_invariants(p)
    assert a1 * b2 - a2 * b1 == 2 * inv.iota1
    assert a1 + b2 == -inv.iota2


def test_laplacian_block_at_the_reference_points():
    for n in (1, 2):
        for key, p in reference_points(n).items():
            (a1, a2), (b1, b2) = laplacian_block(p)
            inv = compute_invariants(p)
            assert (a1 * b2 - a2 * b1, a1 + b2) == (2 * inv.iota1, -inv.iota2), key


@given(gauges, points)
@settings(max_examples=100, deadline=None)
def test_stability_is_gauge_invariant_and_reads_the_eigenvalues(g, p):
    """Kind and rho come from iota1 and iota2 alone, so a gauge image has
    the same ones; rho is numpy's largest |eigenvalue| of
    M, and the point is ill-posed iff an eigenvalue has negative real part.
    At a double eigenvalue numpy's error is of order sqrt(eps) |M|."""
    rep = stability_report(p)
    moved = stability_report(gauge_act_params(g, p))
    assert moved.kind == rep.kind
    assert abs(moved.rho - rep.rho) <= 1e-12 * max(rep.rho, 1.0)
    M = np.array(laplacian_block(p), dtype=float)
    eig, tol = np.linalg.eigvals(M), 1e-7 * np.max(np.abs(M))
    assert rep.rho == pytest.approx(np.max(np.abs(eig)), rel=1e-7, abs=tol)
    assert (rep.kind == "ill-posed") == (np.min(eig.real) < -tol)


def test_stability_at_the_reference_points():
    """Six reference points are ill-posed (backward-parabolic); M is
    nilpotent, rho = 0, at the four degenerate ones."""
    kinds = {"linear-se": "dispersive", "sym1c": "dispersive",
             "sym1c-nu2": "dispersive", "galsub": "parabolic",
             "finsub": "degenerate", "sym3": "degenerate",
             "sym3-nu2": "degenerate", "infasub": "degenerate",
             "sym1b": "ill-posed", "sym1b-nu2": "ill-posed", "infsub": "ill-posed",
             "expsub": "ill-posed", "expsub-nu2": "ill-posed", "generic": "ill-posed"}
    for n in (1, 2):
        pts = reference_points(n)
        assert {key: stability_report(p).kind for key, p in pts.items()} == kinds
        for key, p in pts.items():
            assert (stability_report(p).rho == 0) == (kinds[key] == "degenerate"), key


def heat_direction(k):
    """A positive phi with phi_t = k lap phi is 'forward' in the sense of
    ``HeatGaussian`` (d_t phi + D lap phi = 0) when k < 0."""
    return "forward" if k < 0 else "backward"


@given(nonzero, rationals, positive)
@settings(max_examples=100, deadline=None)
def test_heat_branch_decouples(nu1, nu2, lam):
    """At the Sym1b point with lambda^2 (4 nu2^2 - 2 nu1 mu2) = nu1^2,
    a = (1 + lam c) r + lam s and b = (1 - lam c) r - lam s, c = 2 nu2/nu1,
    solve a_t = D (lap a + |grad a|^2) and b_t = -D (lap b + |grad b|^2),
    D = nu1/lam, D^2 = -2 iota1.  So e^a and e^b solve heat equations with
    coefficients D and -D; ``HeatPairSolution`` reads e^b as phi+ and e^a as
    phi- (log phi- - log phi+ = 2 |lam| (c r + s))."""
    mu2 = (4 * nu2 ** 2 - nu1 ** 2 / lam ** 2) / (2 * nu1)
    p = make_ehr_sub(1, nu1, nu2, mu2)
    assert classify(p).tag == "Sym1b"
    assert linearization_data(p).lambda_sq == lam ** 2
    c = 2 * nu2 / nu1
    D = nu1 / lam
    assert D ** 2 == -2 * compute_invariants(p).iota1
    A = ((1 + lam * c, lam), (1 - lam * c, -lam))
    assert pushforward(A, equations(dg_system(p))) == ((D, 0, D, 0, 0), (0, -D, 0, 0, -D))
    assert heat_pair_directions(p) == (heat_direction(-D), heat_direction(D))


def se_system(a):
    """i psi_t = a lap psi in log-polar variables."""
    return (0, a, 0, 2 * a, -a, 0, -a, 0, a)


@given(nonzero, rationals, positive)
@settings(max_examples=100, deadline=None)
def test_schroedinger_branch_is_the_free_equation(nu1, nu2, Lam):
    """At the Sym1c point with 2 iota1 = (nu1 Lam)^2, the inverse of the
    gauge (Lam, gamma), gamma = -2 nu2/nu1, maps the system onto the free
    linear Schroedinger system with coefficient nu1 Lam: the tuple
    ``se_residual`` checks against."""
    mu2 = ((nu1 * Lam) ** 2 / 2 + 2 * nu2 ** 2) / nu1
    p = make_ehr_sub(1, nu1, nu2, mu2)
    assert classify(p).tag == "Sym1c"
    data = linearization_data(p)
    gamma = -2 * nu2 / nu1
    assert data.lambda_sq == -1 / Lam ** 2 and data.gamma == float(gamma)
    to_linear = GaugeElement(1 / Lam, -gamma / Lam)
    want = se_system(nu1 * Lam)
    assert dg_system(gauge_act_params(to_linear, p)) == want
    with mock.patch.object(pde, "_residual_report", lambda coeffs, traj: coeffs):
        got = pde.se_residual(float(nu1 * Lam), None)
    assert np.array_equal(np.array(got).view(np.uint64),
                          np.array([float(c) for c in want]).view(np.uint64))


@given(points)
@settings(max_examples=100, deadline=None)
def test_system_floats_round_each_coefficient_once(p):
    """One rounding per coefficient, a zero coefficient included: +0.0."""
    got = np.array(p.system_floats)
    want = np.array([float(c) for c in dg_system(p)])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
