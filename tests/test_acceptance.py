"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from dgsym.fields import Grid, Trajectory, sample_evaluator
from dgsym.flows import TransformedSolution, closed_flow_map, verify_symmetry_flow
from dgsym.linearize import (gauge_act_field, heat_pair_to_dg,
                             linearization_data, z_flow_se_from_zero)
from dgsym.params import (DGParams, GaugeElement, classify, compute_invariants,
                          gauge_act_params, gauge_compose, gauge_identity,
                          gauge_inverse, make_ehr_sub, make_exp_sub,
                          make_fin_sub, make_gal_sub, make_inf_sub,
                          make_infa_sub, make_sym3, reference_points)
from dgsym.pde import (SEPacketSum, ScaleSimilaritySolution, convergence,
                       evolve, heat_solution, residual, se_gaussian, se_residual)
from dgsym.symmetry import (admissible_generators, basis_generator,
                            determining_residuals, residuals_all_zero,
                            verify_commutator_table, verify_infinite_relations)

F = Fraction


@contextmanager
def criterion(number, label):
    ok = False
    try:
        yield
        ok = True
    finally:
        print(f"[acceptance] criterion {number:2d} ({label}): "
              f"{'PASS' if ok else 'FAIL'}")


def _rand_rational(rng, lo=-5, hi=5, den=6, nonzero=False):
    while True:
        q = F(rng.randint(lo, hi), rng.randint(1, den))
        if q or not nonzero:
            return q


def _rand_params(rng, n=1):
    return DGParams(
        n=n, nu1=_rand_rational(rng, nonzero=True), nu2=_rand_rational(rng),
        mu0=_rand_rational(rng), mu1=_rand_rational(rng),
        mu2=_rand_rational(rng), mu3=_rand_rational(rng),
        mu4=_rand_rational(rng), mu5=_rand_rational(rng))


def _rand_gauge(rng):
    return GaugeElement(_rand_rational(rng, nonzero=True), _rand_rational(rng))


def _rand_subfamily(rng):
    kind = rng.randrange(7)
    nu1 = _rand_rational(rng, nonzero=True)
    nu2 = _rand_rational(rng)
    if kind == 0:
        return make_gal_sub(1, nu1, nu2, _rand_rational(rng),
                            _rand_rational(rng), _rand_rational(rng))
    if kind == 1:
        return make_fin_sub(1, nu1, nu2, _rand_rational(rng))
    if kind == 2:
        return make_inf_sub(1, nu1, nu2, _rand_rational(rng))
    if kind == 3:
        return make_infa_sub(1, nu1, nu2)
    if kind == 4:
        return make_sym3(1, nu1, nu2)
    if kind == 5:
        while True:
            mu2 = _rand_rational(rng)
            if mu2 != 2 * nu2 ** 2 / nu1:
                return make_ehr_sub(1, nu1, nu2, mu2)
    while True:
        mu1, mu3 = _rand_rational(rng), _rand_rational(rng)
        if mu1 != 2 * nu2 and mu3 != -nu1:
            return make_exp_sub(1, nu1, nu2, mu1, mu3)


# ---------------------------------------------------------------------------

def test_criterion_01_gauge_invariance_exact():
    with criterion(1, "gauge invariance, exact, 1000 samples, < 5 s"):
        rng = random.Random(12345)
        t0 = time.perf_counter()
        for k in range(1000):
            p = _rand_params(rng) if k % 2 else _rand_subfamily(rng)
            g = _rand_gauge(rng)
            q = gauge_act_params(g, p)
            assert compute_invariants(q) == compute_invariants(p)
            assert classify(q).tag == classify(p).tag
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_02_group_structure():
    with criterion(2, "affine group laws + field composition at 1e-12"):
        rng = random.Random(777)
        e = gauge_identity()
        for _ in range(1000):
            g1, g2, g3 = (_rand_gauge(rng) for _ in range(3))
            assert gauge_compose(gauge_compose(g1, g2), g3) == \
                gauge_compose(g1, gauge_compose(g2, g3))
            assert gauge_compose(g1, e) == g1 == gauge_compose(e, g1)
            assert gauge_compose(g1, gauge_inverse(g1)) == e
            assert gauge_compose(gauge_inverse(g1), g1) == e

        grid = Grid.make(npts=64, extent=(-3, 3))
        nprng = np.random.default_rng(0)
        for _ in range(20):
            f = Trajectory(grid, [0.0],
                           [0.5 * nprng.standard_normal(64)],
                           [5.0 * nprng.standard_normal(64)])
            g1, g2 = _rand_gauge(rng), _rand_gauge(rng)
            one = gauge_act_field(g1, gauge_act_field(g2, f))
            two = gauge_act_field(gauge_compose(g1, g2), f)
            assert np.max(np.abs(one.s - two.s)) < 1e-12
            assert np.max(np.abs(one.r - two.r)) == 0.0


def test_criterion_03_commutator_table():
    with criterion(3, "commutator table n=1,2,3 + infinite relations, exact"):
        pts = reference_points()
        for n in (1, 2, 3):
            rows = verify_commutator_table(pts["sym3-nu2"], n=n)
            bad = [r.label for r in rows if not r.passed]
            assert not bad, bad
        for key in ("infsub", "infasub"):
            rows = verify_infinite_relations(pts[key])
            bad = [r.label for r in rows if not r.passed]
            assert not bad, bad


SUBFAMILY_SETS = [
    ("galsub", 1, ["H", "D", "C", "P:1", "B:1", "E", "R"]),
    ("galsub", 2, ["H", "D", "C", "P:1", "P:2", "B:1", "B:2", "L:1,2", "E", "R"]),
    ("finsub", 1, ["H", "D", "A", "P:1", "E", "R"]),
    ("sym3-nu2", 1, ["H", "D", "C", "A", "P:1", "B:1", "E", "R"]),
    ("expsub", 1, ["H", "D", "P:1", "E", "R", "F"]),
    ("expsub-nu2", 1, ["H", "D", "P:1", "E", "R", "F"]),
    ("infsub", 1, ["H", "D", "P:1", "E", "R", "F", "Yf:1+z+z^2+z^3+z^4"]),
    ("infasub", 1, ["H", "D", "A", "P:1", "E", "R", "Yf:z^3"]),
]


def test_criterion_04_determining_equations():
    with criterion(4, "determining equations: zero on subfamilies, nonzero off"):
        for key, n, gens in SUBFAMILY_SETS:
            p = reference_points(n)[key]
            exact = {g for g in admissible_generators(p) if g not in ("Zheat", "Zse")}
            assert {g for g in gens if not g.startswith("Yf")} == exact, key
            for gname in gens:
                X = basis_generator(gname, p)
                res = determining_residuals(p, X)
                assert residuals_all_zero(res), (key, gname)
        p = reference_points()["generic"]
        for gname in ("C", "B:1"):
            X = basis_generator(gname, p)
            res = determining_residuals(p, X)
            assert any(not expr.is_zero for _, expr in res), gname


def test_criterion_05_lambda_sq_identity():
    with criterion(5, "lambda^2 (4 nu2^2 - 2 nu1 mu2) = nu1^2, 100 points"):
        rng = random.Random(99)
        count = 0
        while count < 100:
            nu1 = _rand_rational(rng, nonzero=True)
            nu2 = _rand_rational(rng)
            mu2 = _rand_rational(rng)
            if mu2 == 2 * nu2 ** 2 / nu1:
                continue
            p = make_ehr_sub(1, nu1, nu2, mu2)
            data = linearization_data(p)
            assert data.lambda_sq * (4 * p.nu2 ** 2 - 2 * p.nu1 * p.mu2) \
                == p.nu1 ** 2
            assert (data.branch == "real") == (compute_invariants(p).iota1 < 0)
            count += 1


def test_criterion_06_heat_branch_linearization():
    with criterion(6, "heat pair -> solution, ratio in [3,5], N=64->127, < 30 s"):
        t0 = time.perf_counter()
        p = reference_points()["sym1b"]
        data = linearization_data(p)
        pairs = [
            (heat_solution(data.diffusion, "forward", amplitude=0.8,
                           focus_time=1.0, offset=0.5),
             heat_solution(data.diffusion, "backward", amplitude=0.0,
                           offset=0.7)),
            (heat_solution(data.diffusion, "forward", amplitude=0.7,
                           focus_time=1.2, offset=0.4),
             heat_solution(data.diffusion, "backward", amplitude=0.5,
                           focus_time=-0.3, offset=0.6)),
        ]
        for fp, fm in pairs:
            sol = heat_pair_to_dg(fp, fm, p)
            study = convergence(lambda traj: residual(p, traj), sol,
                                Grid.make(npts=64, extent=(-4, 4)),
                                np.linspace(0, 0.2, 9))
            assert study.passed, study.ratio_l2
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def _simulate_dg(p, sol, npts, horizon=0.1, slices=8):
    grid = Grid.make(npts=npts, extent=(-4, 4))
    f0 = sample_evaluator(sol, grid, 0.0)
    dt_max = 0.2 * min(grid.spacings) ** 2
    steps = slices * int(np.ceil(horizon / (slices * dt_max)))
    traj = evolve(p, f0, steps, dt=horizon / steps, bc_values=sol.rs,
                  save_every=steps // slices)
    return traj


def test_criterion_07_se_branch_linearization():
    with criterion(7, "gauge maps simulated solution to the linear SE, order 2"):
        p = reference_points()["sym1c"]
        data = linearization_data(p)
        psi = se_gaussian(data.se_coefficient, b0=-0.3)
        sol = z_flow_se_from_zero(psi, 0.5, p)

        reps = []
        for npts, slices in ((64, 8), (128, 16)):
            traj = _simulate_dg(p, sol, npts, slices=slices)
            gauged = gauge_act_field(data.gauge_to_linear(), traj)
            reps.append(se_residual(data.se_coefficient, gauged))
        ratio = reps[0].l2 / reps[1].l2
        assert 3.0 <= ratio <= 5.0, ratio

        grid = Grid.make(npts=64, extent=(-4, 4))
        f0 = sample_evaluator(sol, grid, 0.05)
        back = sample_evaluator(gauge_act_field(
            data.gauge_from_linear(), gauge_act_field(data.gauge_to_linear(), sol)),
            grid, 0.05)
        assert np.max(np.abs(back.r - f0.r)) < 1e-13
        assert np.max(np.abs(back.s - f0.s)) < 1e-13


def test_criterion_08_symmetry_flows():
    with criterion(8, "flows keep solutions: translations/boosts/scalings "
                      "order 2; vertical exponential at 1e-8"):
        pts = reference_points()
        p = pts["sym1b"]  # linearizable, hence Galilei-invariant
        data = linearization_data(p)
        fp = heat_solution(data.diffusion, "forward", amplitude=0.8,
                           focus_time=1.2, offset=0.5)
        fm = heat_solution(data.diffusion, "backward", amplitude=0.6,
                           focus_time=-0.3, offset=0.4)
        sol = heat_pair_to_dg(fp, fm, p)
        grid = Grid.make(npts=64, extent=(-4, 4))
        for gen, eps in [("P:1", 0.5), ("B:1", 0.3), ("H", 0.05),
                         ("D", 0.15), ("C", 0.3)]:
            rep = verify_symmetry_flow(p, gen, eps, sol, grid, (0.02, 0.18))
            assert 3.0 <= rep.ratio_l2 <= 5.0, (gen, rep.ratio_l2)

        p3 = pts["sym3"]
        sim = ScaleSimilaritySolution(p3, t0=-1.0, bump=0.5)
        rep = verify_symmetry_flow(p3, "A", 0.2, sim, grid, (0.02, 0.18))
        assert 3.0 <= rep.ratio_l2 <= 5.0, rep.ratio_l2

        pe = pts["expsub-nu2"]
        g = Grid.make(npts=48, extent=(-3, 3))

        class Wave:
            def rs(self, xs, t):
                x = np.asarray(xs[0])
                return 0.3 * np.sin(x), 0.2 * np.cos(2 * x)

        def flowed(eps, source=Wave()):
            return TransformedSolution(closed_flow_map("F", eps, pe), source)

        fld, ident = (sample_evaluator(e, g, 0.0) for e in (Wave(), flowed(0.0)))
        assert np.max(np.abs(ident.r - fld.r)) < 1e-8
        two, tot = (sample_evaluator(e, g, 0.0)
                    for e in (flowed(0.3, flowed(0.2)), flowed(0.5)))
        err = max(np.max(np.abs(two.r - tot.r)), np.max(np.abs(two.s - tot.s)))
        assert err < 1e-8, err


def test_criterion_09_solver_sanity():
    with criterion(9, "time stepper matches the closed form, ratio in [3,5]"):
        p = reference_points()["linear-se"]
        a = float(p.nu1)
        sol = SEPacketSum((
            se_gaussian(a, b0=-0.2),
            se_gaussian(a, b0=-0.35, center=(0.7,), k=(1.2,), amplitude=0.25)))

        errors = []
        for npts in (64, 128):
            traj = _simulate_dg(p, sol, npts)
            fin = traj[-1]
            rex, sex = sol.rs(fin.grid.coords(), fin.t)
            errors.append(max(np.max(np.abs(fin.r - rex)),
                              np.max(np.abs(fin.s - sex))))
        ratio = errors[0] / errors[1]
        assert 3.0 <= ratio <= 5.0, ratio


EXPECTED_IMPLICATIONS = [
    # subfamily lattice edges checked pointwise on every sample
    ("EhrSub", "GalSub"),
    ("InfaSub", "InfSub"),
    ("InfaSub", "FinSub"),
]

TAG_REQUIRES = {
    "Sym3": ("GalSub", "FinSub"),
    "Sym2a": ("InfSub", "FinSub"),
    "Sym1b": ("EhrSub", "GalSub"),
    "Sym1c": ("EhrSub", "GalSub"),
    "Sym0a": ("InfSub",),
    "Sym1": ("GalSub",),
    "Sym2": ("FinSub",),
    "Sym4": ("ExpSub",),
}


def test_criterion_10_classification_partial_order():
    with criterion(10, "classifier over 1e5 points reproduces the "
                       "subfamily partial order"):
        rng = random.Random(2024)
        counts = {}
        violations = {edge: 0 for edge in EXPECTED_IMPLICATIONS}
        tag_violations = 0
        total = 100_000
        for k in range(total):
            p = _rand_params(rng) if k % 2 == 0 else _rand_subfamily(rng)
            cls = classify(p)
            rep = cls.predicates
            counts[cls.tag] = counts.get(cls.tag, 0) + 1
            for sub, sup in EXPECTED_IMPLICATIONS:
                if rep[sub] and not rep[sup]:
                    violations[(sub, sup)] += 1
            for needed in TAG_REQUIRES.get(cls.tag, ()):
                if not rep[needed]:
                    tag_violations += 1
        assert all(v == 0 for v in violations.values()), violations
        assert tag_violations == 0

        # hand-constructed representatives land in their classes
        expected = {
            "linear-se": "Sym1c", "sym1b": "Sym1b", "galsub": "Sym1",
            "finsub": "Sym2", "sym3": "Sym3", "infsub": "Sym0a",
            "infasub": "Sym2a", "expsub": "Sym4", "generic": "Sym0",
        }
        for key, tag in expected.items():
            assert classify(reference_points()[key]).tag == tag
        # every class was reached by the stratified sample
        assert set(counts) == {"Sym0", "Sym1", "Sym2", "Sym3", "Sym4",
                               "Sym0a", "Sym2a", "Sym1b", "Sym1c"}, counts
        print(f"[acceptance] criterion 10 class counts: {counts}")
