"""One-parameter symmetry flows on wavefunctions.

Every basis generator has a closed-form flow obtained by integrating its
characteristic system dx/de = xi, dt/de = tau, dr/de = phi, ds/de = sigma.
Each flow is a :class:`FlowMap`: a source time, source coordinates and a
vertical action on (r, s).  A flow acts on an (r, s) evaluator only, by
transforming its graph: :class:`TransformedSolution` composes the map lazily
and is exact for every flow; a field is the flowed evaluator, sampled.
A vertical map leaves x and t in place: the nonlinear gauge action of
:mod:`dgsym.linearize` is one.
:func:`verify_symmetry_flow` moves a solution by a closed-form flow and takes
the order-2 verdict of :func:`dgsym.pde.convergence` on the moved solution's
residual.

Phase is tracked as a continuous real field throughout; nothing is wrapped
into (-pi, pi].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import Grid, sample_trajectory
from .params import DGParams
from .pde import ResidualReport, convergence, residual
from .symmetry import NoClosedForm, check_indices, exp_rate_coefficients, parse_generator

__all__ = ["FlowMap", "closed_flow_map", "FlowReport", "verify_symmetry_flow",
           "SourceNotASolution", "TransformedSolution"]


def _identity_time(t):
    return t


def _identity_coords(xs, t):
    return xs


def _identity_vertical(r0, s0, xs, t):
    return r0, s0


@dataclass(frozen=True)
class FlowMap:
    """Closed-form flow data: source time, source coordinates, vertical
    action, each the identity unless given.  A vertical map, which leaves
    x and t in place, is ``FlowMap(vertical=...)``."""

    source_time: callable = _identity_time        # transformed t -> source t
    source_coords: callable = _identity_coords    # (coords, t_out) -> source coords
    vertical: callable = _identity_vertical       # (r0, s0, coords, t_out) -> (r, s)


def closed_flow_map(name, eps: float, p: DGParams) -> FlowMap:
    """Build the closed-form flow of a named generator at parameter point p."""
    name = parse_generator(name)
    eps = float(eps)
    n = p.n
    check_indices(name, n)
    nu1, nu2, mu1 = float(p.nu1), float(p.nu2), float(p.mu1)
    kind = name.kind

    if kind == "H":
        return FlowMap(source_time=lambda t: t - eps)

    if kind == "P":
        j = name.i - 1

        def coords(xs, t):
            out = list(xs)
            out[j] = np.asarray(xs[j]) - eps
            return tuple(out)

        return FlowMap(source_coords=coords)

    if kind == "L":
        j, k = name.i - 1, name.j - 1
        c, s_ = math.cos(eps), math.sin(eps)

        def coords(xs, t):
            out = list(np.asarray(x) for x in xs)
            xj, xk = out[j], out[k]
            out[j] = c * xj + s_ * xk
            out[k] = -s_ * xj + c * xk
            return tuple(out)

        return FlowMap(source_coords=coords)

    if kind == "D":
        scale = math.exp(-eps)
        r_shift = -eps * n / 2.0
        s_shift = eps * n * mu1 / (2.0 * nu1)
        return FlowMap(lambda t: t * math.exp(-2 * eps),
                       lambda xs, t: tuple(np.asarray(x) * scale for x in xs),
                       lambda r0, s0, xs, t: (r0 + r_shift, s0 + s_shift))

    if kind == "C":
        def denom(t):
            d = 1.0 + eps * np.asarray(t, dtype=float)
            if np.any(d <= 0):
                raise ValueError("expansion flow is singular: 1 + eps*t <= 0")
            return d

        def vertical(r0, s0, xs, t):
            d = denom(t)
            q = sum(np.asarray(x) ** 2 for x in xs)
            r = r0 - (n / 2.0) * np.log(d)
            s = s0 - eps * q / (4.0 * nu1 * d) + (n * mu1 / (2.0 * nu1)) * np.log(d)
            return r, s

        return FlowMap(lambda t: t / denom(t),
                       lambda xs, t: tuple(np.asarray(x) / denom(t) for x in xs),
                       vertical)

    if kind == "A":
        grow = math.exp(eps)

        def vertical(r0, s0, xs, t):
            return r0, grow * s0 + (grow - 1.0) * (2.0 * nu2 / nu1) * r0

        return FlowMap(source_time=lambda t: t * grow, vertical=vertical)

    if kind == "B":
        j = name.i - 1

        def coords(xs, t):
            out = list(xs)
            out[j] = np.asarray(xs[j]) - eps * np.asarray(t, dtype=float)
            return tuple(out)

        def vertical(r0, s0, xs, t):
            t = np.asarray(t, dtype=float)
            return r0, s0 - (eps * np.asarray(xs[j]) - 0.5 * eps * eps * t) / (2.0 * nu1)

        return FlowMap(source_coords=coords, vertical=vertical)

    if kind == "E":
        shift = -eps / (2.0 * nu1)
        return FlowMap(vertical=lambda r0, s0, xs, t: (r0, s0 + shift))

    if kind == "R":
        return FlowMap(vertical=lambda r0, s0, xs, t: (r0 + eps, s0))

    if kind == "F":
        lam_q, eta_q, kap_q = exp_rate_coefficients(p)
        lam, eta, kap = float(lam_q), float(eta_q), float(kap_q)
        # lambda*kappa - eta = 2 identically, so exp(-u) advances linearly.

        def vertical(r0, s0, xs, t):
            u0 = eta * np.asarray(r0) + lam * np.asarray(s0)
            g = 2.0 * eps + np.exp(-u0)
            if np.any(g <= 0):
                raise ValueError("exponential flow left its domain: "
                                 "2*eps + exp(-(eta r + lambda s)) <= 0")
            step = 0.5 * (np.log(g) + u0)
            return r0 + step, s0 - kap * step

        return FlowMap(vertical=vertical)

    if kind == "Yf":
        if p.mu1 != 2 * p.nu2 and any(name.poly[1:]):
            raise ValueError(
                "the Y_f flow is closed-form only in the commutative case "
                "mu1 = 2 nu2 (z is conserved); elsewhere only a constant f "
                "has a closed-form flow")
        coeffs = [float(c) for c in name.poly]

        def vertical(r0, s0, xs, t):
            z = mu1 * np.asarray(r0) + nu1 * np.asarray(s0)
            fz = 0.0
            for c in reversed(coeffs):  # Horner, as numpy's polyval
                fz = fz * z + c
            return r0 + eps * fz, s0 - (2.0 * nu2 / nu1) * eps * fz

        return FlowMap(vertical=vertical)

    if kind in ("Zheat", "Zse"):
        raise NoClosedForm(
            f"no closed-form flow map for {kind}: its flow carries a solution "
            "of the linear equation, which a generator name does not give")
    raise ValueError(f"no closed-form flow for generator kind {kind!r}")


@dataclass(frozen=True)
class TransformedSolution:
    """Evaluator composition: flow applied to an (r, s) solution evaluator."""

    fmap: FlowMap
    source: object

    def rs(self, xs, t):
        t0 = self.fmap.source_time(t)
        x0 = self.fmap.source_coords(xs, t)
        r0, s0 = self.source.rs(x0, t0)
        return self.fmap.vertical(r0, s0, xs, t)


# ---------------------------------------------------------------------------
# Flow verification against the evolution residual.

# the largest baseline residual linf at which a source solution counts as a
# solution on the grid, so that its transform is worth checking
BASELINE_TOL = 0.05


class SourceNotASolution(ValueError):
    """The source solution fails the baseline check on the unmoved window
    too, so it is no solution on the grid whatever eps is; ``linf`` is its
    baseline residual there."""

    def __init__(self, message, linf):
        super().__init__(message)
        self.linf = linf


@dataclass(frozen=True)
class FlowReport:
    generator: str
    epsilon: float
    baseline: ResidualReport
    after: ResidualReport
    after_fine: ResidualReport
    ratio_l2: float
    ratio_linf: float
    passed: bool
    floor: float

    def to_json_dict(self):
        return {"generator": self.generator, "epsilon": self.epsilon,
                "baseline": self.baseline.to_json_dict(),
                "after": self.after.to_json_dict(),
                "after_fine": self.after_fine.to_json_dict(),
                "ratio_l2": self.ratio_l2, "ratio_linf": self.ratio_linf,
                "floor": self.floor}


def verify_symmetry_flow(p: DGParams, name, eps: float, solution,
                         grid: Grid, t_window: tuple) -> FlowReport:
    """Transform a solution by a symmetry flow and measure the residual.

    The transformed solution goes through :func:`dgsym.pde.convergence` at 9
    uniform times inside ``t_window``; ``passed`` is its order-2 verdict, so
    a generator that is not a symmetry at p fails it.  The source solution
    is checked first at its own (remapped) times: a baseline residual that
    is not <= ``BASELINE_TOL``, NaN included, is refused with a message that
    names the generator, ``eps`` and that source window.  The refusal is
    ``SourceNotASolution`` when the source fails on ``t_window`` itself too
    (checked only then), else a ``ValueError`` that blames eps.  An ``eps`` whose
    source times are not finite and strictly increasing is refused (one
    that overflows them, or C's singular 1 + eps t <= 0, included), and so
    is one that maps the window to source times where sampling the
    solution raises a ``ValueError`` (outside its range of validity), and
    one that moves a sample, or its residual, out of float range; each
    message names the generator and eps.
    """
    name = parse_generator(name)
    times = np.linspace(t_window[0], t_window[1], 9)
    window = f"[{t_window[0]:g}, {t_window[1]:g}]"
    try:
        fmap = closed_flow_map(name, eps, p)
    except OverflowError:  # exp(eps) or exp(-eps) is out of float range
        fmap = None
    try:
        src_times = np.sort([fmap.source_time(t) for t in times]) if fmap else [np.nan]
    except (OverflowError, ValueError):  # C is singular where 1 + eps t <= 0
        src_times = [np.nan]
    if not (np.all(np.isfinite(src_times)) and np.all(np.diff(src_times) > 0)):
        raise ValueError(f"flow parameter eps={eps:g} maps the time window {window} "
                         f"of {name} to source times that are not finite and strictly "
                         "increasing")

    try:
        source = sample_trajectory(solution, grid, src_times)
    except ValueError as exc:
        raise ValueError(f"{name} at eps={eps:g} maps the window {window} to the source "
                         f"times [{src_times[0]:.3g}, {src_times[-1]:.3g}], where the "
                         f"solution cannot be sampled: {exc}") from None
    baseline = residual(p, source)
    if not baseline.linf <= BASELINE_TOL:
        unmoved = baseline if np.array_equal(src_times, times) else residual(
            p, sample_trajectory(solution, grid, times))
        message = (
            f"baseline residual {baseline.linf:.3g} is not within threshold "
            f"{BASELINE_TOL:.3g} on the source times [{src_times[0]:.3g}, "
            f"{src_times[-1]:.3g}] that {name} at eps={eps:g} maps the window "
            f"{window} to, and {unmoved.linf:.3g} on that window itself")
        if not unmoved.linf <= BASELINE_TOL:
            raise SourceNotASolution(f"{message}: the solution does not solve "
                                     "the system on this grid", unmoved.linf)
        raise ValueError(f"{message}: eps is too large")

    def moved_residual(traj):
        if not (np.isfinite(traj.r).all() and np.isfinite(traj.s).all()):
            raise FloatingPointError("a sample is not finite")
        return residual(p, traj)

    try:
        with np.errstate(all="raise", under="ignore"):
            study = convergence(moved_residual, TransformedSolution(fmap, solution),
                                grid, times)
    except FloatingPointError as exc:
        raise ValueError(f"{name} at eps={eps:g} moves the solution out of float "
                         f"range on the grid: {exc}") from None
    return FlowReport(generator=str(name), epsilon=float(eps), baseline=baseline,
                      after=study.coarse, after_fine=study.fine,
                      ratio_l2=study.ratio_l2, ratio_linf=study.ratio_linf,
                      passed=study.passed, floor=study.floor)
