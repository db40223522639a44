"""Command-line front end.

Commands: classify, verify, simulate, linearize, gauge; each takes only the
options it reads.  --params is one parameter file (classify: files or
directories).  The point-taking verify suites use it, else the --class
reference point, at dimension --n if given; simulate, linearize and the flow
suite run on a grid of the point's dimension, n in {1, 2}.  The commutator
and determining suites take their generators from the point's class: a
determining row passes when its residuals vanish exactly where the
generator is admissible.  A command returns its report rows (one per check
or per input file); main writes each as a JSON line on stdout, and a summary
goes to stderr.  Exit code: 2 if a row has "error", else 1 if a row has
"pass": false, else 3 if no row ran (all "skipped", or none), else 0.  A
command that stops early exits 3 if inapplicable to the point, 1 on a
blow-up and 2 on an input error (an unusable path too).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from .fields import (Grid, LogPolarField, read_trajectory, trajectory_params,
                     write_trajectory)
from .flows import verify_symmetry_flow
from .kernels import boundary_ring
from .linearize import (NotLinearizable, gauge_act_field, heat_pair_directions,
                        heat_pair_to_dg, linearization_data, z_flow_se_from_zero)
from .params import (DGParams, GaugeElement, canonical_gauge, classify,
                     gauge_act_params, predicate_report, rational_str,
                     reference_points)
from .pde import (EvolutionBlowup, HJSimilaritySolution, ScaleSimilaritySolution,
                  convergence, default_dt, evolve, heat_solution, residual,
                  se_gaussian, se_residual)
from .symmetry import (GeneratorNotAdmissible, basis_generator, basis_names,
                       determining_residuals, exp_rate_coefficients,
                       is_admissible, parse_generator, residuals_all_zero,
                       verify_commutator_table, verify_infinite_relations)

EXIT_OK, EXIT_CHECK, EXIT_INPUT, EXIT_INAPPLICABLE = 0, 1, 2, 3

# linearize passes only when gauging the first slice to the linear side and
# back restores (r, s) to within this bound
ROUNDTRIP_TOL = 1e-10


def _say(msg):
    sys.stderr.write(msg + "\n")


class InputError(Exception):
    pass


def _load_params(path) -> DGParams:
    try:
        return DGParams.load(path)
    except (OSError, ValueError, KeyError, ZeroDivisionError, json.JSONDecodeError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def _grid(spec: str | None, n: int, bc: str = "dirichlet") -> Grid:
    """n-dimensional grid from 'N,dx', centred on 0; 64 points over [-4, 4]
    on each axis when no spec is given.  Grid refuses n outside {1, 2}."""
    if spec is None:
        return Grid.make(n=n, npts=64, extent=(-4, 4), bc=bc)
    try:
        npts_s, dx_s = spec.split(",")
        npts, dx = int(npts_s), float(dx_s)
    except ValueError as exc:
        raise InputError(f"--grid expects 'N,dx', got {spec!r}") from exc
    half = (npts if bc == "periodic" else npts - 1) * dx / 2.0
    return Grid.make(n=n, npts=npts, extent=(-half, half), bc=bc)


def _positive(text: str) -> float:
    if not 0 < float(text) < np.inf:
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text!r}")
    return float(text)


def _finite(text: str) -> float:
    if not np.isfinite(float(text)):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return float(text)


def _count(text: str) -> int:
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return int(text)


def _rationals(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"expected a rational 'p/q', got {text!r}") from exc


# ---------------------------------------------------------------------------
# classify

def _classify_report(path, p: DGParams) -> dict:
    cls = classify(p)
    g = canonical_gauge(p)
    out = {
        "file": str(path) if path else None,
        "n": p.n,
        "class": cls.tag,
        "algebra": cls.algebra,
        "invariants": cls.invariants.to_json_dict(),
        "predicates": cls.predicates,
        "canonical_gauge": {"Lambda": rational_str(g.Lambda),
                            "gamma": rational_str(g.gamma)},
    }
    if cls.tag in ("Sym1b", "Sym1c"):
        data = linearization_data(p)
        out.update(data.to_json_dict())
    return out


def cmd_classify(args) -> list:
    paths = []
    for entry in args.params:
        if os.path.isdir(entry):
            paths.extend(sorted(
                os.path.join(entry, f) for f in os.listdir(entry)
                if f.endswith(".json")))
        else:
            paths.append(entry)
    if not paths:
        raise InputError("no parameter files given")
    rows = []
    for path in paths:
        try:
            p = _load_params(path)
        except InputError as exc:
            rows.append({"file": str(path), "error": str(exc)})
            _say(f"error: {exc}")  # the message starts with the path
            continue
        rows.append(_classify_report(path, p))
        _say(f"{path}: {rows[-1]['class']}  ({rows[-1]['algebra']})")
    return rows


# ---------------------------------------------------------------------------
# verify

def _point_for(args, default_key: str) -> DGParams:
    """The --params point, else the --class reference point (default_key
    when neither is given), at spatial dimension --n when that is given."""
    if args.params:
        p = _load_params(args.params)
    else:
        key = (args.point_class or default_key).lower()
        pts = reference_points()
        if key not in pts:
            raise InputError(f"unknown reference class {key!r}; "
                             f"choose from {sorted(pts)}")
        p = pts[key]
    return p if args.n is None else p.replace(n=args.n)


def _suite_commutators(args) -> list:
    p = _point_for(args, "sym3-nu2")
    checks = verify_commutator_table(p)
    if predicate_report(p)["InfSub"]:
        checks += verify_infinite_relations(p)
    return [{"suite": "commutators", "check": row.label, "pass": row.passed,
             "detail": row.detail} for row in checks]


def _exact_basis(p: DGParams) -> list:
    """Every basis generator with exact coefficients at p's n, F only where
    its exponent rates exist, plus one Y_f with a nonconstant f."""
    names = [g for g in basis_names(p.n) if g not in ("Zheat", "Zse")]
    try:
        exp_rate_coefficients(p)
    except GeneratorNotAdmissible:
        names.remove("F")
    return names + ["Yf:1+z^2+z^3"]


def _suite_determining(args) -> list:
    """A row passes when its residuals vanish exactly where the generator is
    admissible, so each point checks its symmetries and its non-symmetries."""
    p = _point_for(args, "sym3-nu2")
    tag = classify(p).tag
    rows = []
    for gname in args.gen or _exact_basis(p):
        name = parse_generator(gname)
        res = determining_residuals(p, basis_generator(name, p))
        admissible = is_admissible(name, p)
        rows.append({"suite": "determining", "class": tag, "generator": str(name),
                     "admissible": admissible,
                     "pass": residuals_all_zero(res) == admissible,
                     "nonzero": [lbl for lbl, e in res if not e.is_zero]})
    return rows


def _linearized_solution(p: DGParams, after: float, before: float):
    """Sym1c: the Zse flow of a Gaussian packet.  Sym1b: a heat pair valid
    for before < t < after.  Both of the point's dimension.

    The pair's directions come from :func:`heat_pair_directions`.  A forward
    kernel sharpens toward its focus time and a backward one spreads from
    it, so each kernel's focus is chosen by its direction: ``after`` for a
    forward kernel, ``before`` for a backward one.
    """
    data = linearization_data(p)
    if data.branch != "real":
        pack = se_gaussian(data.se_coefficient, n=p.n, b0=-0.3)
        return z_flow_se_from_zero(pack, 0.5, p)

    def kernel(direction, amplitude, offset):
        focus = after if direction == "forward" else before
        return heat_solution(data.diffusion, direction, n=p.n, amplitude=amplitude,
                             focus_time=focus, offset=offset)

    plus, minus = heat_pair_directions(p)
    return heat_pair_to_dg(kernel(plus, 0.8, 0.5), kernel(minus, 0.6, 0.4), p)


def _bundled_solution(p: DGParams, tag: str):
    """A closed-form solution at p of class tag, or None where there is none."""
    if tag in ("Sym1b", "Sym1c"):
        return _linearized_solution(p, after=1.5, before=-0.75)
    if tag == "Sym3" and p.nu2 == 0:
        return ScaleSimilaritySolution(p)
    if tag == "Sym2a":
        return HJSimilaritySolution(p)
    return None


def _suite_flow(args) -> list:
    """Each generator's flow is checked on the bundled solution of the
    point's class; with no such solution, or at a dimension the dynamics do
    not support, every generator is skipped."""
    p = _point_for(args, "sym1b")
    tag = classify(p).tag
    dynamic = p.n in (1, 2)  # the dimensions a Grid takes
    sol = _bundled_solution(p, tag) if dynamic else None
    grid = _grid(args.grid, p.n) if dynamic else None
    rows = []
    for gname in args.gen or ["P:1", "B:1", "H", "D", "C"]:
        name = parse_generator(gname)
        if not is_admissible(name, p) or sol is None:  # refuses a bad index first
            why = ("dynamics support n in {1, 2}" if not dynamic
                   else "no bundled closed-form solution" if sol is None
                   else "not admissible")
            rows.append({"suite": "flow", "generator": str(name), "skipped": True,
                         "detail": f"{why} at {tag}"})
            continue
        rep = verify_symmetry_flow(p, name, args.eps, sol, grid, (0.02, 0.18))
        rows.append({"suite": "flow", "generator": str(name), "pass": rep.passed,
                     **rep.to_json_dict()})
    return rows


def _suite_gauge(args) -> list:
    import random

    rng = random.Random(args.seed)
    count = 200

    def rq(lo=-4, hi=4, den=6):
        return Fraction(rng.randint(lo, hi), rng.randint(1, den))

    bad = 0
    for _ in range(count):
        nu1 = rq()
        while nu1 == 0:
            nu1 = rq()
        p = DGParams(n=1, nu1=nu1, nu2=rq(), mu0=rq(), mu1=rq(), mu2=rq(),
                     mu3=rq(), mu4=rq(), mu5=rq())
        lam = rq()
        while lam == 0:
            lam = rq()
        g = GaugeElement(lam, rq())
        cp, cq = classify(p), classify(gauge_act_params(g, p))
        if cq.invariants != cp.invariants or cq.tag != cp.tag:
            bad += 1
    return [{"suite": "gauge", "check": "invariance-sample",
             "samples": count, "violations": bad, "pass": bad == 0}]


_SUITES = {"commutators": _suite_commutators, "determining": _suite_determining,
           "flow": _suite_flow, "gauge": _suite_gauge}


def cmd_verify(args) -> list:
    rows = []
    for suite in _SUITES if args.suite == "all" else [args.suite]:
        rows += _SUITES[suite](args)
    rows.sort(key=lambda r: (r.get("suite", ""), str(r.get("check", r.get("generator", "")))))
    skipped = sum(1 for row in rows if row.get("skipped"))
    passed = sum(1 for row in rows if row.get("pass"))
    _say(f"verify: {passed}/{len(rows) - skipped} checks passed, {skipped} skipped")
    return rows


# ---------------------------------------------------------------------------
# simulate

_INIT_KEYS = {"bump": ("ra", "sa", "w"), "planewave": ("k",), "se-packet": ("k", "b0")}


def _make_init(spec: str, grid: Grid, p: DGParams):
    kind, _, payload = spec.partition(":")
    if kind == "file":
        try:
            traj = read_trajectory(payload)
            if traj.grid != grid:
                raise ValueError(f"its grid {traj.grid} is not the grid of --grid "
                                 f"and --bc, {grid}")
            return traj[-1].validate(), None
        except (OSError, ValueError, IndexError) as exc:
            raise InputError(f"--init file:{payload}: {exc}") from exc
    if kind not in _INIT_KEYS:
        raise InputError(f"unknown initial condition {spec!r}")
    opts = {}
    for item in payload.split(",") if payload else ():
        key, _, val = item.partition("=")
        try:
            if key not in _INIT_KEYS[kind] or key in opts:
                raise ValueError
            opts[key] = float(val)
        except ValueError:
            keys = ", ".join(_INIT_KEYS[kind])
            raise InputError(f"--init {kind}: item {item!r} is not key=float with "
                             f"each key in {keys} at most once") from None
    xs = grid.coords()
    if kind == "bump":
        ra, sa, w = opts.get("ra", 0.3), opts.get("sa", 0.2), opts.get("w", 1.0)
        if not (np.isfinite(ra) and np.isfinite(sa)):
            raise InputError("initial field must be finite: the bump needs finite "
                             f"ra and sa, got ra={ra:g}, sa={sa:g}")
        if not (np.isfinite(w * w) and w * w >= sys.float_info.min):
            raise InputError(f"bump width w={w:g}: its square is not a finite "
                             "positive normal float")
        q = sum(np.asarray(x) ** 2 for x in xs)
        with np.errstate(over="ignore"):  # a narrow bump is 0 off its centre
            profile = np.exp(-q / w ** 2)
        return LogPolarField(grid, 0.0, ra * profile, sa * profile), None
    if kind == "planewave":
        if grid.bc != "periodic":
            raise InputError("plane-wave initial data needs a periodic grid")
        a, b = grid.bounds[0]
        periods = opts.get("k", 1.0) * (b - a) / (2 * np.pi)
        if not np.isfinite(periods):
            raise InputError(f"planewave k={opts['k']:g}: period count not finite")
        mode = max(1, int(round(periods)))
        k = 2 * np.pi * mode / (b - a)
        s = k * xs[0]
        return LogPolarField(grid, 0.0, np.zeros(grid.shape), s), None
    if kind == "se-packet":
        if grid.bc != "dirichlet":
            raise InputError("se-packet initial data needs a dirichlet grid; "
                             "its log-amplitude and phase are not periodic")
        k, b0 = opts.get("k", 0.0), opts.get("b0", -0.25)
        pack = se_gaussian(float(p.nu1), n=grid.n, b0=b0,
                           k=(k,) * grid.n if "k" in opts else None)
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            r, s = pack.rs(xs, 0.0)
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(s))):
            raise InputError(f"se-packet k={k:g}, b0={b0:g}: not finite on the grid")
        return LogPolarField(grid, 0.0, r, s), pack


def cmd_simulate(args) -> list:
    p = _load_params(args.params)
    grid = _grid(args.grid, p.n, args.bc)
    field0, closed_form = _make_init(args.init, grid, p)
    dt = default_dt(grid) if args.dt is None else args.dt
    if not (np.isfinite(dt) and dt > 0):
        raise InputError(f"--dt must be finite and positive, got {dt:g}")
    if args.save_every < 1:
        raise InputError(f"--save-every must be >= 1, got {args.save_every}")
    steps = args.steps
    if steps is None:
        count = np.ceil(args.t_final / dt)
        if not np.isfinite(count):
            raise InputError(f"--t-final {args.t_final:g} at dt={dt:g} makes "
                             "a step count too large to represent")
        steps = int(count)
    slices = 1 + -(-steps // args.save_every)  # field0 and every saved step
    if slices < 3:
        raise InputError(f"{steps} step(s) of dt={dt:.3g} saved every "
                         f"{args.save_every} give {slices} slice(s); the residual "
                         "needs at least 3")

    bc_values = None
    if grid.bc == "dirichlet":
        if closed_form is not None:
            bc_values = closed_form.rs
        else:
            ring, _ = boundary_ring(grid)
            held = field0.r[ring], field0.s[ring]
            bc_values = lambda xs, t: held

    traj = evolve(p, field0, steps, dt=dt, bc_values=bc_values,
                  save_every=args.save_every)
    rep = residual(p, traj)
    write_trajectory(traj, args.out, params_json=p.to_json_dict(), dt=dt)
    _say(f"simulate: {steps} steps of dt={dt:.3g} written to {args.out}")
    return [{"command": "simulate", "class": classify(p).tag, "steps": steps,
             "dt": dt, "out": args.out, "residual": rep.to_json_dict()}]


# ---------------------------------------------------------------------------
# linearize

def cmd_linearize(args) -> list:
    p = _load_params(args.params)
    data = linearization_data(p)

    grid = _grid(args.grid, p.n)
    times = np.linspace(0.0, args.t_final, 9)
    sol = _linearized_solution(p, after=args.t_final + 1.0, before=-0.3)
    dg = convergence(lambda tr: residual(p, tr), sol, grid, times)
    traj = dg.trajectory

    if data.branch == "real":
        ok = dg.passed
        report = {"branch": "heat", "residual": dg.coarse.to_json_dict(),
                  "residual_fine": dg.fine.to_json_dict(),
                  "convergence_ratio": dg.ratio_l2}
        summary = (f"linearize(heat): residual l2={dg.coarse.l2:.3e}, "
                   f"ratio={dg.ratio_l2:.2f}")
    else:
        se = convergence(lambda tr: se_residual(data.se_coefficient, tr),
                         gauge_act_field(data.gauge_to_linear(), sol), grid, times)
        # round trip: gauge there and back restores (r, s) of the first slice
        back = gauge_act_field(data.gauge_from_linear(),
                               gauge_act_field(data.gauge_to_linear(), traj))
        rt_err = float(max(np.max(np.abs(back.r[0] - traj.r[0])),
                           np.max(np.abs(back.s[0] - traj.s[0]))))
        ok = se.passed and dg.passed and rt_err < ROUNDTRIP_TOL
        report = {"branch": "schroedinger", "dg_residual": dg.coarse.to_json_dict(),
                  "dg_residual_fine": dg.fine.to_json_dict(),
                  "dg_convergence_ratio": dg.ratio_l2,
                  "se_residual": se.coarse.to_json_dict(),
                  "se_residual_fine": se.fine.to_json_dict(),
                  "convergence_ratio": se.ratio_l2, "roundtrip_error": rt_err}
        summary = (f"linearize(se): se-residual l2={se.coarse.l2:.3e}, "
                   f"ratio={se.ratio_l2:.2f}, dg-ratio={dg.ratio_l2:.2f}, "
                   f"roundtrip={rt_err:.2e}")
    write_trajectory(traj, args.out, params_json=p.to_json_dict())
    _say(summary)
    return [{"command": "linearize", **data.to_json_dict(), **report,
             "pass": ok, "out": args.out}]


# ---------------------------------------------------------------------------
# gauge

def cmd_gauge(args) -> list:
    p = _load_params(args.params)
    if args.lam is None:
        raise InputError("gauge needs --lambda")
    lam = _rationals(args.lam)
    gam = _rationals(args.gamma)
    if lam == 0:
        raise InputError("Lambda must be nonzero")
    traj = None
    if args.traj:
        try:
            traj = read_trajectory(args.traj)
            written = trajectory_params(args.traj)
            if written is None or DGParams.from_json_dict(written) != p:
                raise ValueError(f"not a trajectory of --params {args.params}: its "
                                 f"manifest records params {json.dumps(written)}")
        except (ValueError, OSError, ZeroDivisionError) as exc:
            raise InputError(f"--traj {args.traj}: {exc}") from exc
    g = GaugeElement(lam, gam)
    q = gauge_act_params(g, p)
    after = classify(q)
    row = {"command": "gauge",
           "Lambda": rational_str(lam), "gamma": rational_str(gam),
           "params": q.to_json_dict(),
           "class_before": classify(p).tag, "class_after": after.tag,
           "invariants": after.invariants.to_json_dict()}
    # the row is returned only once every write has succeeded; a failed
    # write removes the outputs this call created
    traj_out = moved = None
    if traj is not None:
        traj_out = args.traj_out or (args.traj.rstrip("/") + "-gauged")
        moved = gauge_act_field(g, traj)
    fresh = [path for path in (args.out, traj_out)
             if path and not os.path.lexists(path)]
    try:
        if args.out:
            q.dump(args.out)
        if moved is not None:
            write_trajectory(moved, traj_out, params_json=q.to_json_dict())
    except OSError:
        for path in fresh:
            if os.path.isdir(path):
                shutil.rmtree(path)
            elif os.path.lexists(path):
                os.remove(path)
        raise
    for path in (args.out, traj_out):
        if path:
            _say(f"gauge: wrote {path}")
    return [row]


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An argument that starts with '-' and a digit (or '.' and a digit) is a
    value, never an option, so negative rationals such as ``--lambda -1/2``
    pass as separate argv items: argparse's own pattern admits only negative
    integers and decimals.  No dgsym option starts with a digit."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="dgsym", description=__doc__)
    ap.add_argument("--version", action="version", version=f"dgsym {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("classify", help="gauge invariants and symmetry class")
    sp.add_argument("--params", nargs="+", default=[],
                    help="parameter JSON file(s) or a directory")

    sp = sub.add_parser("verify", help="symbolic and numeric check suites")
    sp.add_argument("--params", help="parameter JSON file")
    sp.add_argument("--grid", help="flow suite grid as 'N,dx' per axis")
    sp.add_argument("--gen", nargs="*", help="generator names, e.g. B:1 Yf:z^2")
    sp.add_argument("--eps", type=_finite, default=0.3, help="flow parameter")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--n", type=int, help="spatial dimension of the point")
    sp.add_argument("--class", dest="point_class",
                    help="reference class name, e.g. sym3-nu2")
    sp.add_argument("--suite", default="all", choices=[*_SUITES, "all"])

    sp = sub.add_parser("simulate", help="evolve an initial field")
    sp.add_argument("--params", help="parameter JSON file")
    sp.add_argument("--grid", default="64,0.125", help="grid as 'N,dx' per axis")
    sp.add_argument("--dt", type=float)
    sp.add_argument("--out", default="dgsym-run", help="output directory")
    sp.add_argument("--bc", default="periodic", choices=["periodic", "dirichlet"])
    sp.add_argument("--init", default="bump",
                    help="bump[:ra=..,sa=..,w=..] | planewave[:k=..] | "
                         "se-packet[:k=..,b0=..] | file:DIR (the last slice "
                         "of a trajectory directory on the same grid)")
    sp.add_argument("--t-final", dest="t_final", type=_positive, default=0.1)
    sp.add_argument("--steps", type=_count)
    sp.add_argument("--save-every", dest="save_every", type=int, default=1)

    sp = sub.add_parser("linearize", help="heat-pair / Schroedinger linearization")
    sp.add_argument("--params", help="parameter JSON file")
    sp.add_argument("--grid", help="grid as 'N,dx' per axis")
    sp.add_argument("--out", default="dgsym-linearize", help="output directory")
    sp.add_argument("--t-final", dest="t_final", type=_positive, default=0.2)

    sp = sub.add_parser("gauge", help="act on parameters (and trajectories)")
    sp.add_argument("--params", help="parameter JSON file")
    sp.add_argument("--out", help="output parameter file")
    sp.add_argument("--lambda", dest="lam", help="rational Lambda, e.g. 2 or 3/2")
    sp.add_argument("--gamma", default="0", help="rational gamma")
    sp.add_argument("--traj", help="trajectory directory to transform")
    sp.add_argument("--traj-out", dest="traj_out")

    return ap


def _exit_code(rows) -> int:
    """The exit code the module docstring gives for a command's rows."""
    if any("error" in row for row in rows):
        return EXIT_INPUT
    if any(not row.get("pass", True) for row in rows):
        return EXIT_CHECK
    return EXIT_OK if any(not row.get("skipped") for row in rows) else EXIT_INAPPLICABLE


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"classify": cmd_classify, "verify": cmd_verify,
                "simulate": cmd_simulate, "linearize": cmd_linearize,
                "gauge": cmd_gauge}
    try:
        if args.command != "verify" and not args.params:
            raise InputError(f"{args.command} needs --params")
        rows = handlers[args.command](args)
        sys.stdout.writelines(json.dumps(row) + "\n" for row in rows)
    except (GeneratorNotAdmissible, NotLinearizable) as exc:
        _say(f"inapplicable: {exc}")
        return EXIT_INAPPLICABLE
    except EvolutionBlowup as exc:
        _say(f"failed: blow-up check: {exc}")
        return EXIT_CHECK
    except (InputError, ValueError, OSError) as exc:
        _say(f"error: {exc}")
        return EXIT_INPUT
    return _exit_code(rows)


if __name__ == "__main__":
    sys.exit(main())
