"""The four workloads: seeded inputs, the timed op, and the checks.

Each workload stages the inputs of op k from (seed, k) outside the timed
interval, runs one fixed-size op, and checks the op's output against an
independent computation or a required property, again outside the timed
interval.  dgsym functions are always looked up through their module at call
time, so that the tracer's wrappers (see spans.py) take effect.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from dgsym import cli, fields, params, pde, symexpr, symmetry
from dgsym import linearize as lin

import calib
import oracle


class CheckFailed(AssertionError):
    """An op's output contradicts the reference it is checked against."""


def require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def run_cli(argv) -> tuple:
    """One in-process ``dgsym`` command: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def json_rows(text) -> list:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


class Draw:
    """Seeded source of exact rationals for one op."""

    def __init__(self, *key):
        self.rng = random.Random(":".join(str(k) for k in key))

    def q(self, lo=-4, hi=4, den=6) -> Fraction:
        return Fraction(self.rng.randint(lo, hi), self.rng.randint(1, den))

    def nonzero(self, lo=-4, hi=4, den=6) -> Fraction:
        while True:
            v = self.q(lo, hi, den)
            if v:
                return v

    def magnitude(self, lo, hi, den=12) -> Fraction:
        """Rational with lo <= |v| <= hi and a random sign."""
        while True:
            v = Fraction(self.rng.randint(1, hi * den), self.rng.randint(1, den))
            if lo <= v <= hi:
                return v * self.rng.choice((1, -1))

    def gauge(self) -> params.GaugeElement:
        return params.GaugeElement(self.nonzero(), self.q())

    def uniform(self, lo, hi) -> float:
        return round(self.rng.uniform(lo, hi), 4)


SUBFAMILIES = ("GalSub", "FinSub", "InfSub", "InfaSub", "EhrSub", "Sym3", "ExpSub")


def subfamily_point(d: Draw, label: str, n: int, nonzero=False) -> params.DGParams:
    """Random point built by the subfamily's constructor (or fully random).

    With ``nonzero`` every free parameter is nonzero, so that the symbolic
    expressions of points of one subfamily have the same number of terms.
    """
    nz = d.nonzero
    q = nz if nonzero else d.q
    while True:
        try:
            if label == "GalSub":
                return params.make_gal_sub(n, nz(), q(), q(), q(), q(), mu0=q())
            if label == "FinSub":
                return params.make_fin_sub(n, nz(), q(), q(), mu0=q())
            if label == "InfSub":
                return params.make_inf_sub(n, nz(), q(), q(), mu0=q())
            if label == "InfaSub":
                return params.make_infa_sub(n, nz(), q(), mu0=q())
            if label == "EhrSub":
                return params.make_ehr_sub(n, nz(), q(), q(), mu0=q())
            if label == "Sym3":
                return params.make_sym3(n, nz(), q(), mu0=q())
            if label == "ExpSub":
                return params.make_exp_sub(n, nz(), q(), q(), q(), mu0=q())
            return params.DGParams(n=n, nu1=nz(), nu2=q(), mu0=q(), mu1=q(),
                                   mu2=q(), mu3=q(), mu4=q(), mu5=q())
        except ValueError:
            continue  # a draw on the excluded locus of the constructor


def symmetry_names(p, extra=()) -> list:
    """Admissible generators with exact coefficients, plus ``extra``."""
    return [g for g in symmetry.admissible_generators(p)
            if g not in ("Zheat", "Zse")] + list(extra)


class Workload:
    name = ""
    calib_io = False  # whether the calibration kernel includes file I/O

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def opdir(self, k) -> str:
        path = os.path.join(self.workdir, f"{self.name}-{k}")
        os.makedirs(path, exist_ok=True)
        return path

    def cleanup(self, k):
        shutil.rmtree(os.path.join(self.workdir, f"{self.name}-{k}"),
                      ignore_errors=True)

    def calibration(self) -> float:
        """Seconds the calibration kernel takes now, beside this workload's ops."""
        return calib.measure(os.path.join(self.workdir, "calib") if self.calib_io else None)

    def run_check(self, inputs):
        """Once-per-run check on the warm-up op's inputs (none by default)."""


# ---------------------------------------------------------------------------
# classify: one batch `dgsym classify DIR` over 192 gauged points.

@dataclass
class ClassifyInputs:
    k: int
    dir: str
    points: list  # (file name, subfamily label, base point, gauged point)


class Classify(Workload):
    name = "classify"
    STRATA = SUBFAMILIES + ("generic",)
    POINTS = 192  # 8 strata x n in {1, 2, 3} x 8 points

    def stage(self, k) -> ClassifyInputs:
        d = Draw(self.seed, self.name, k)
        path = self.opdir(k)
        points = []
        for i in range(self.POINTS):
            label = self.STRATA[i % len(self.STRATA)]
            n = 1 + (i // len(self.STRATA)) % 3
            base = subfamily_point(d, label, n)
            moved = params.gauge_act_params(d.gauge(), base)
            fname = f"p{i:03d}.json"
            moved.dump(os.path.join(path, fname))
            points.append((fname, label, base, moved))
        return ClassifyInputs(k, path, points)

    def op(self, inp, tracer=None):
        return run_cli(["classify", "--params", inp.dir])

    def check(self, inp, out):
        code, stdout, _ = out
        require(code == 0, f"classify exited {code}")
        rows = json_rows(stdout)
        require(len(rows) == len(inp.points),
                f"{len(rows)} reports for {len(inp.points)} files")
        for row, (fname, label, base, moved) in zip(rows, inp.points):
            where = f"op {inp.k} {fname} ({label})"
            require(os.path.basename(row["file"]) == fname, f"{where}: file order")
            inv = oracle.invariants(moved)
            require(inv == oracle.invariants(base),
                    f"{where}: gauge action changed the invariants")
            got = tuple(Fraction(row["invariants"][f"iota{i}"]) for i in range(6))
            require(got == inv, f"{where}: invariants {got} != {inv}")
            tag = oracle.tag_from_invariants(inv)
            require(row["class"] == tag, f"{where}: class {row['class']} != {tag}")
            require(tag in oracle.CONTAINS[label],
                    f"{where}: class {tag} does not contain {label}")


# ---------------------------------------------------------------------------
# verify: one round of symbolic verification plus a flow and a linearize run.

# Reference points the two linearizable draws of a round are gauge images
# of: one on the Schroedinger branch (Sym1c), one on the heat branch (Sym1b).
# Sym1b images keep Lambda > 0, i.e. nu1 > 0: with nu1 < 0 `dgsym linearize`
# and the flow suite exit 2 (heat-kernel focus times assume nu1 > 0; see
# README).
LINEARIZABLE = (("linear-se", "sym1c", "sym1c-nu2"), ("sym1b", "sym1b-nu2"))


@dataclass
class VerifyInputs:
    k: int
    sym3: params.DGParams
    subfamily: list  # (label, point, extra generator names)
    inf: params.DGParams
    lin_paths: list  # one parameter file per branch
    lin_out: str
    bracket: tuple  # (point, three generator names) for the bracket checks


class Verify(Workload):
    name = "verify"
    SUB_N = 2

    def stage(self, k) -> VerifyInputs:
        d = Draw(self.seed, self.name, k)
        sym3 = params.make_sym3(1, d.nonzero(), d.nonzero(), mu0=d.nonzero())
        sub = []
        for label in SUBFAMILIES:
            p = subfamily_point(d, label, self.SUB_N, nonzero=True)
            extra = []
            if label in ("InfSub", "InfaSub"):
                coeffs = [d.rng.randint(1, 5) for _ in range(4)]
                extra.append("Yf:" + "+".join(f"{c}*z^{j}" for j, c in enumerate(coeffs)))
            sub.append((label, p, extra))
        inf = subfamily_point(d, "InfSub", 1, nonzero=True)

        path = self.opdir(k)
        lin_paths = []
        for keys in LINEARIZABLE:
            key = keys[(self.seed + k) % len(keys)]
            lam = d.magnitude(Fraction(1, 3), 2)
            if key.startswith("sym1b"):
                lam = abs(lam)
            g = params.GaugeElement(lam, d.q(-2, 2, 6))
            point = params.gauge_act_params(g, params.reference_points(1)[key])
            lin_paths.append(os.path.join(path, f"{key}.json"))
            point.dump(lin_paths[-1])

        _, p, extra = sub[d.rng.randrange(len(sub))]
        names = symmetry_names(p, extra)
        return VerifyInputs(k, sym3, sub, inf, lin_paths, os.path.join(path, "lin"),
                            (p, tuple(d.rng.sample(names, 3))))

    def op(self, inp, tracer=None):
        rows = []
        for n in (1, 2, 3):
            rows += [(f"table n={n} {r.label}", r.passed)
                     for r in symmetry.verify_commutator_table(inp.sym3, n=n)]
        for label, p, extra in inp.subfamily:
            for g in symmetry_names(p, extra):
                res = symmetry.determining_residuals(p, symmetry.basis_generator(g, p))
                rows.append((f"determining {label} {g}", symmetry.residuals_all_zero(res)))
        rows += [(f"infinite {r.label}", r.passed)
                 for r in symmetry.verify_infinite_relations(inp.inf)]
        runs = []
        for path in inp.lin_paths:
            runs.append(run_cli(["verify", "--suite", "flow", "--params", path]))
            runs.append(run_cli(["linearize", "--params", path, "--out", inp.lin_out]))
        return rows, runs

    def check(self, inp, out):
        rows, runs = out
        where = f"op {inp.k}"
        bad = [label for label, ok in rows if not ok]
        require(not bad, f"{where}: failed rows {bad[:5]}")
        for i, (code, stdout, stderr) in enumerate(runs):
            what = f"{where} {'linearize' if i % 2 else 'verify --suite flow'} " \
                   f"{os.path.basename(inp.lin_paths[i // 2])}"
            require(code == 0, f"{what} exited {code}: {stderr.strip()[-200:]}")
            out_rows = json_rows(stdout)
            require(out_rows and all(r["pass"] for r in out_rows), f"{what}: a row failed")

        p, names = inp.bracket
        vf = [symmetry.basis_generator(g, p) for g in names]
        bad = oracle.bracket_properties(symexpr.lie_bracket, vf)
        require(not bad, f"{where}: {bad} fail for {names}")
        for i in range(3):
            for j in range(i + 1, 3):
                br = symexpr.lie_bracket(vf[i], vf[j])
                require(symmetry.residuals_all_zero(symmetry.determining_residuals(p, br)),
                        f"{where}: [{names[i]},{names[j]}] is not a symmetry")


# ---------------------------------------------------------------------------
# evolve: RK4 on a 2D dirichlet grid pinned to a gauged closed form.

EVOLVE_BASES = ("linear-se", "sym1c", "sym1c-nu2")


@dataclass
class EvolveInputs:
    k: int
    point: params.DGParams
    solution: object  # rs(xs, t) evaluator of the exact solution
    grid: fields.Grid


class Evolve(Workload):
    name = "evolve"
    NPTS, STEPS, SAVE_EVERY = 64, 32, 8
    TOL = 1e-2          # max |error| of (r, s) at the final time
    RESIDUAL_TOL = 0.2  # residual linf with time slices 8 steps apart

    def stage(self, k) -> EvolveInputs:
        d = Draw(self.seed, self.name, k)
        key = EVOLVE_BASES[(self.seed + k) % len(EVOLVE_BASES)]
        base = params.reference_points(2)[key]
        g = params.GaugeElement(d.magnitude(Fraction(1, 2), 2), d.q(-1, 1, 6))
        a = lin.linearization_data(base).se_coefficient
        b0 = d.uniform(-0.25, -0.15)
        psi = pde.SEPacketSum((
            pde.se_gaussian(a, n=2, b0=b0),
            pde.se_gaussian(a, n=2, b0=b0 - d.uniform(0.03, 0.1),
                            center=(d.uniform(-0.5, 0.5), d.uniform(-0.5, 0.5)),
                            k=(d.uniform(-0.5, 0.5), d.uniform(-0.5, 0.5)),
                            amplitude=d.uniform(0.1, 0.25))))
        sol = lin.gauge_act_field(g, lin.z_flow_se_from_zero(psi, d.uniform(0.3, 0.7), base))
        grid = fields.Grid.make(n=2, npts=self.NPTS, extent=(-4.0, 4.0))
        return EvolveInputs(k, params.gauge_act_params(g, base), sol, grid)

    def op(self, inp, tracer=None):
        bc = inp.solution.rs
        if tracer is not None:
            bc = tracer.wrap("pde.bc_values", bc)
        f0 = fields.sample_evaluator(inp.solution, inp.grid, 0.0)
        traj = pde.evolve(inp.point, f0, self.STEPS, bc_values=bc,
                          save_every=self.SAVE_EVERY)
        return traj, pde.residual(inp.point, traj)

    @staticmethod
    def final_error(sol, fin) -> float:
        r, s = sol.rs(fin.grid.coords(), fin.t)
        return float(max(np.max(np.abs(fin.r - r)), np.max(np.abs(fin.s - s))))

    def check(self, inp, out):
        traj, rep = out
        where = f"op {inp.k}"
        require(len(traj) == self.STEPS // self.SAVE_EVERY + 1, f"{where}: slices")
        err = self.final_error(inp.solution, traj[-1])
        require(err < self.TOL, f"{where}: final error {err:.3g} >= {self.TOL}")
        require(rep.linf < self.RESIDUAL_TOL,
                f"{where}: residual {rep.linf:.3g} >= {self.RESIDUAL_TOL}")

    def run_check(self, inp):
        """Second-order convergence: error ratio in [3, 5] from 33 to 65 points."""
        errs = []
        for npts in (33, 65):
            grid = fields.Grid.make(n=2, npts=npts, extent=(-4.0, 4.0))
            f0 = fields.sample_evaluator(inp.solution, grid, 0.0)
            horizon = 0.05
            steps = int(np.ceil(horizon / (0.2 * min(grid.spacings) ** 2)))
            traj = pde.evolve(inp.point, f0, steps, dt=horizon / steps,
                              bc_values=inp.solution.rs, save_every=steps)
            errs.append(self.final_error(inp.solution, traj[-1]))
        ratio = errs[0] / errs[1]
        require(3.0 <= ratio <= 5.0, f"refinement ratio {ratio:.3g} outside [3, 5]")
        return ratio


# ---------------------------------------------------------------------------
# simulate: `dgsym simulate` on a 1D periodic grid, then read the output back.

# The n = 1 reference points whose principal symbol
# M = [[2 nu2, nu1], [-2 mu2, -mu1]] has no eigenvalue with negative real
# part.  sym1b, sym1b-nu2, expsub, infsub, expsub-nu2 and generic have one:
# the problem is backward-parabolic, and simulate exits 0 on them with a
# residual that grows to ~1e3 and more (see README).
WELL_POSED = ("linear-se", "sym1c", "sym1c-nu2", "galsub", "finsub", "sym3",
              "sym3-nu2", "infasub")


@dataclass
class SimulateInputs:
    k: int
    key: str
    argv: list
    out: str


class Simulate(Workload):
    name = "simulate"
    calib_io = True  # the op is mostly trajectory file writing and reading
    GRID, T_FINAL = "256,0.0625", "0.05"
    MASS_TOL = 1e-4      # relative drift of the integral of e^(2r)
    RESIDUAL_TOL = 1e-3  # residual linf reported by simulate

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        order = list(WELL_POSED)
        random.Random(f"{seed}:{self.name}:order").shuffle(order)
        self.order = order

    def stage(self, k) -> SimulateInputs:
        d = Draw(self.seed, self.name, k)
        key = self.order[k % len(self.order)]
        path = self.opdir(k)
        ppath = os.path.join(path, "point.json")
        params.reference_points(1)[key].dump(ppath)
        init = (f"bump:ra={d.uniform(0.1, 0.3)},sa={d.uniform(0.05, 0.2)},"
                f"w={d.uniform(0.8, 1.4)}")
        out = os.path.join(path, "run")
        argv = ["simulate", "--params", ppath, "--grid", self.GRID, "--bc",
                "periodic", "--init", init, "--t-final", self.T_FINAL, "--out", out]
        return SimulateInputs(k, key, argv, out)

    def op(self, inp, tracer=None):
        evolved = []
        evolve = cli.evolve

        def keep(*args, **kwargs):
            traj = evolve(*args, **kwargs)
            evolved.append(traj)
            return traj

        cli.evolve = keep
        try:
            result = run_cli(inp.argv)
        finally:
            cli.evolve = evolve
        return result, evolved, fields.read_trajectory(inp.out)

    def check(self, inp, out):
        (code, stdout, stderr), evolved, back = out
        where = f"op {inp.k} ({inp.key})"
        require(code == 0, f"{where}: simulate exited {code}: {stderr.strip()[-200:]}")
        require(len(evolved) == 1, f"{where}: evolve ran {len(evolved)} times")
        traj = evolved[0]
        require(back.grid == traj.grid and len(back) == len(traj),
                f"{where}: read-back grid or length differs")
        for a, b in zip(traj.fields, back.fields):
            require(a.t == b.t and np.array_equal(a.r, b.r) and np.array_equal(a.s, b.s),
                    f"{where}: read-back slice t={b.t} differs from the evolved one")
        m = oracle.mass(back)
        drift = float(np.max(np.abs(m / m[0] - 1.0)))
        require(drift < self.MASS_TOL, f"{where}: mass drift {drift:.3g}")
        res = json_rows(stdout)[-1]["residual"]["linf"]
        require(res < self.RESIDUAL_TOL, f"{where}: residual {res:.3g}")


WORKLOADS = {w.name: w for w in (Classify, Verify, Evolve, Simulate)}
