"""One-parameter symmetry flows on wavefunctions.

Every basis generator has a closed-form flow obtained by integrating its
characteristic system dx/de = xi, dt/de = tau, dr/de = phi, ds/de = sigma.
Flows that relocate the grid (scaling, expansion, boosts, rotations, time
translation) remap coordinates and times; vertical flows act pointwise on
(r, s).  Each flow is a :class:`FlowMap`; the nonlinear gauge action and the
Zheat/Zse flows of :mod:`dgsym.linearize` are vertical ones
(:func:`vertical_map`).  :func:`apply_flow` is the one way to apply a FlowMap,
to a field slice or to an (r, s) evaluator.  :func:`flow_numeric`
exponentiates an arbitrary vector field with an RK4 characteristic integrator
and cross-validates the closed forms.

Phase is tracked as a continuous real field throughout; nothing is wrapped
into (-pi, pi].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import Grid, LogPolarField, interp_field, sample_trajectory
from .params import DGParams
from .pde import ResidualReport, residual
from .symexpr import VectorFieldSpec, var_names
from .symmetry import (GeneratorNotAdmissible, exp_rate_coefficients,
                       is_admissible, parse_generator)

__all__ = ["FlowMap", "vertical_map", "apply_flow", "closed_flow_map",
           "flow_closed", "flow_numeric", "FlowReport",
           "verify_symmetry_flow", "TransformedSolution"]


@dataclass(frozen=True)
class FlowMap:
    """Closed-form flow data: time remap, coordinate remap, vertical action."""

    time_map: callable          # source slice time -> transformed slice time
    source_time: callable       # transformed slice time -> source slice time
    source_coords: callable     # (coords, t_out) -> source coords tuple
    vertical: callable          # (r0, s0, coords, t_out) -> (r, s)
    relocates: bool


def _identity_coords(xs, t):
    return xs


def _identity_time(t):
    return t


def vertical_map(vertical) -> FlowMap:
    """FlowMap acting on (r, s) only: vertical(r0, s0, coords, t) -> (r, s)."""
    return FlowMap(_identity_time, _identity_time, _identity_coords, vertical,
                   relocates=False)


def apply_flow(fmap: FlowMap, psi):
    """Apply a flow to a LogPolarField slice or to an (r, s) evaluator.

    A slice is acted on at its own time stamp, which the flow remaps;
    grid-relocating flows resample onto the original grid by cubic
    interpolation.  Any other ``psi`` is taken as an evaluator and composed
    lazily as a :class:`TransformedSolution`.
    """
    if not isinstance(psi, LogPolarField):
        return TransformedSolution(fmap, psi)
    t_out = fmap.time_map(psi.t)
    coords = psi.grid.coords()
    if fmap.relocates:
        src = fmap.source_coords(coords, t_out)
        r0, s0 = interp_field(psi, src)
    else:
        r0, s0 = psi.r, psi.s
    r, s = fmap.vertical(r0, s0, coords, t_out)
    return LogPolarField(psi.grid, float(t_out),
                         np.broadcast_to(r, psi.grid.shape).copy(),
                         np.broadcast_to(s, psi.grid.shape).copy())


def closed_flow_map(name, eps: float, p: DGParams) -> FlowMap:
    """Build the closed-form flow of a named generator at parameter point p."""
    name = parse_generator(name)
    eps = float(eps)
    n = p.n
    nu1, nu2, mu1 = float(p.nu1), float(p.nu2), float(p.mu1)
    kind = name.kind

    if kind == "H":
        return FlowMap(lambda t0: t0 + eps, lambda t: t - eps,
                       _identity_coords,
                       lambda r0, s0, xs, t: (r0, s0), relocates=False)

    if kind == "P":
        j = name.i - 1

        def coords(xs, t):
            out = list(xs)
            out[j] = np.asarray(xs[j]) - eps
            return tuple(out)

        return FlowMap(_identity_time, _identity_time, coords,
                       lambda r0, s0, xs, t: (r0, s0), relocates=True)

    if kind == "L":
        j, k = name.i - 1, name.j - 1
        c, s_ = math.cos(eps), math.sin(eps)

        def coords(xs, t):
            out = list(np.asarray(x) for x in xs)
            xj, xk = out[j], out[k]
            out[j] = c * xj + s_ * xk
            out[k] = -s_ * xj + c * xk
            return tuple(out)

        return FlowMap(_identity_time, _identity_time, coords,
                       lambda r0, s0, xs, t: (r0, s0), relocates=True)

    if kind == "D":
        scale = math.exp(-eps)
        r_shift = -eps * n / 2.0
        s_shift = eps * n * mu1 / (2.0 * nu1)
        return FlowMap(lambda t0: t0 * math.exp(2 * eps),
                       lambda t: t * math.exp(-2 * eps),
                       lambda xs, t: tuple(np.asarray(x) * scale for x in xs),
                       lambda r0, s0, xs, t: (r0 + r_shift, s0 + s_shift),
                       relocates=True)

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

        return FlowMap(lambda t0: t0 / (1.0 - eps * t0),
                       lambda t: t / denom(t),
                       lambda xs, t: tuple(np.asarray(x) / denom(t) for x in xs),
                       vertical, relocates=True)

    if kind == "A":
        grow = math.exp(eps)

        def vertical(r0, s0, xs, t):
            return r0, grow * s0 + (grow - 1.0) * (2.0 * nu2 / nu1) * r0

        return FlowMap(lambda t0: t0 * math.exp(-eps),
                       lambda t: t * grow,
                       _identity_coords, vertical, relocates=False)

    if kind == "B":
        j = name.i - 1

        def coords(xs, t):
            out = list(xs)
            out[j] = np.asarray(xs[j]) - eps * np.asarray(t, dtype=float)
            return tuple(out)

        def vertical(r0, s0, xs, t):
            t = np.asarray(t, dtype=float)
            return r0, s0 - (eps * np.asarray(xs[j]) - 0.5 * eps * eps * t) / (2.0 * nu1)

        return FlowMap(_identity_time, _identity_time, coords, vertical,
                       relocates=True)

    if kind == "E":
        shift = -eps / (2.0 * nu1)
        return vertical_map(lambda r0, s0, xs, t: (r0, s0 + shift))

    if kind == "R":
        return vertical_map(lambda r0, s0, xs, t: (r0 + eps, s0))

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

        return vertical_map(vertical)

    if kind == "Yf":
        if p.mu1 != 2 * p.nu2 and any(name.poly[1:]):
            raise ValueError(
                "the Y_f flow is closed-form only in the commutative case "
                "mu1 = 2 nu2 (z is conserved); use flow_numeric otherwise")
        coeffs = [float(c) for c in name.poly]

        def vertical(r0, s0, xs, t):
            z = mu1 * np.asarray(r0) + nu1 * np.asarray(s0)
            fz = np.polynomial.polynomial.polyval(z, coeffs)
            return r0 + eps * fz, s0 - (2.0 * nu2 / nu1) * eps * fz

        return vertical_map(vertical)

    raise ValueError(f"no closed-form flow for generator kind {kind!r}")


def flow_closed(name, eps: float, psi, p: DGParams,
                require_admissible: bool = True, **payload):
    """Apply the closed-form flow of a generator to a field slice or an
    (r, s) evaluator.

    The generator's FlowMap is applied with :func:`apply_flow`.  The infinite
    heat/Schroedinger generators take their solution payloads (phi_plus and
    phi_minus, or Psi) as keyword arguments; :mod:`dgsym.linearize` builds
    their vertical FlowMaps and applies them the same way.
    """
    name = parse_generator(name)
    if require_admissible and not is_admissible(name, p):
        raise GeneratorNotAdmissible(f"{name} is not admissible here")

    if name.kind == "Zheat":
        from .linearize import z_flow_heat
        return z_flow_heat(payload["phi_plus"], payload["phi_minus"], eps, psi, p)
    if name.kind == "Zse":
        from .linearize import z_flow_se
        return z_flow_se(payload["Psi"], eps, psi, p)

    return apply_flow(closed_flow_map(name, eps, p), psi)


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
# Numeric exponentiation of arbitrary generators.

def _rk4(deriv, state, eps: float, steps: int):
    h = eps / steps
    for _ in range(steps):
        k1 = deriv(state)
        k2 = deriv([u + 0.5 * h * v for u, v in zip(state, k1)])
        k3 = deriv([u + 0.5 * h * v for u, v in zip(state, k2)])
        k4 = deriv([u + h * v for u, v in zip(state, k3)])
        state = [u + (h / 6.0) * (a + 2 * b + 2 * c + d)
                 for u, a, b, c, d in zip(state, k1, k2, k3, k4)]
    return state


def flow_numeric(X: VectorFieldSpec, eps: float, psi: LogPolarField,
                 steps: int = 64) -> LogPolarField:
    """Exponentiate a generator by integrating its characteristic system.

    Works pointwise for vertical fields.  For relocating fields the
    coordinate subsystem (which is closed: xi = xi(x, t), tau = tau(t)) is
    integrated backward from the grid to find source points, the field is
    interpolated there, and the full system is integrated forward.
    """
    if steps < 1:
        raise ValueError("step count must be >= 1")
    grid = psi.grid
    n = X.n
    names = var_names(n)
    coords = [np.asarray(c, dtype=float) for c in grid.coords()]

    def full_deriv(state):
        values = dict(zip(names, state))
        return [comp.evaluate(values) * np.ones(grid.shape)
                for comp in X.components()]

    def _check_range(r, s):
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(s))):
            raise OverflowError("characteristic integration left the "
                                "representable range (r or s overflowed)")
        return r, s

    if X.is_vertical():
        state = [*coords, np.full(grid.shape, psi.t), psi.r.copy(), psi.s.copy()]
        out = _rk4(full_deriv, state, eps, steps)
        return LogPolarField(grid, psi.t, *_check_range(out[n + 1], out[n + 2]))

    # slice time maps forward along dt/de = tau(t)
    def t_deriv(state):
        values = dict(zip(names, [*([0.0] * n), state[0], 0.0, 0.0]))
        return [float(np.asarray(X.tau.evaluate(values)))]

    t_out = _rk4(t_deriv, [float(psi.t)], eps, steps)[0]

    def coord_deriv(state):
        values = dict(zip(names, [*state, 0.0, 0.0]))
        comps = [*X.xi, X.tau]
        return [c.evaluate(values) * np.ones(grid.shape) for c in comps]

    back = _rk4(coord_deriv, [*coords, np.full(grid.shape, t_out)], -eps, steps)
    src_coords, t0_arr = back[:n], back[n]
    if not np.allclose(t0_arr, psi.t, atol=1e-9):
        raise RuntimeError("time round trip failed; increase steps")
    r0, s0 = (psi.r, psi.s) if all(
        np.allclose(a, b) for a, b in zip(src_coords, coords)) \
        else interp_field(psi, tuple(src_coords))

    state = [*[c.copy() for c in src_coords], np.full(grid.shape, psi.t),
             np.asarray(r0, dtype=float).copy(), np.asarray(s0, dtype=float).copy()]
    out = _rk4(full_deriv, state, eps, steps)
    for i in range(n):
        if not np.allclose(out[i], coords[i], atol=1e-8):
            raise RuntimeError("characteristic round trip failed to return "
                               "to the grid; increase steps")
    return LogPolarField(grid, float(t_out), *_check_range(out[n + 1], out[n + 2]))


# ---------------------------------------------------------------------------
# Flow verification against the evolution residual.

@dataclass(frozen=True)
class FlowReport:
    generator: str
    epsilon: float
    baseline: ResidualReport
    after: ResidualReport
    after_fine: ResidualReport | None = None
    ratio_l2: float | None = None
    ratio_linf: float | None = None

    def to_json_dict(self):
        d = {"generator": self.generator, "epsilon": self.epsilon,
             "baseline": self.baseline.to_json_dict(),
             "after": self.after.to_json_dict()}
        if self.after_fine is not None:
            d["after_fine"] = self.after_fine.to_json_dict()
            d["ratio_l2"] = self.ratio_l2
            d["ratio_linf"] = self.ratio_linf
        return d


def verify_symmetry_flow(p: DGParams, name, eps: float, solution,
                         grid: Grid, t_window: tuple, num_slices: int = 9,
                         refine: int = 2, baseline_tol: float = 0.05,
                         require_admissible: bool = True) -> FlowReport:
    """Transform a solution by a symmetry flow and measure the residual.

    The transformed trajectory is sampled on ``grid`` at uniform times inside
    ``t_window`` and on a refined grid (space and time both refined), giving
    the order-2 convergence ratio.  The source solution is checked first at
    its own (remapped) window against ``baseline_tol``; a failure names the
    generator, ``eps`` and that source window.  An ``eps`` whose source times
    are not finite and strictly increasing is refused.
    """
    name = parse_generator(name)
    if require_admissible and not is_admissible(name, p):
        raise GeneratorNotAdmissible(
            f"{name} is not admissible at this parameter point")

    times = np.linspace(t_window[0], t_window[1], num_slices)
    try:
        fmap = closed_flow_map(name, eps, p)
        src_times = np.sort([fmap.source_time(t) for t in times])
        usable = np.all(np.isfinite(src_times)) and np.all(np.diff(src_times) > 0)
    except OverflowError:
        usable = False
    if not usable:
        raise ValueError(f"flow parameter eps={eps:g} maps the time window of {name} "
                         "to source times that are not finite and strictly increasing")

    base_traj = sample_trajectory(solution, grid, src_times)
    baseline = residual(p, base_traj)
    if baseline.linf > baseline_tol:
        raise ValueError(
            f"baseline residual {baseline.linf:.3g} exceeds threshold "
            f"{baseline_tol:.3g} on the source times [{src_times[0]:.3g}, "
            f"{src_times[-1]:.3g}] that {name} at eps={eps:g} maps the window "
            f"[{t_window[0]:g}, {t_window[1]:g}] to: the solution does not "
            "solve the system there on this grid, or eps is too large")

    moved = TransformedSolution(fmap, solution)
    after = residual(p, sample_trajectory(moved, grid, times))

    fine_grid = grid.refine(refine)
    fine_times = np.linspace(t_window[0], t_window[1],
                             (num_slices - 1) * refine + 1)
    after_fine = residual(p, sample_trajectory(moved, fine_grid, fine_times))

    def _ratio(a, b):
        return a / b if b > 0 else float("inf")

    return FlowReport(generator=str(name), epsilon=float(eps),
                      baseline=baseline, after=after, after_fine=after_fine,
                      ratio_l2=_ratio(after.l2, after_fine.l2),
                      ratio_linf=_ratio(after.linf, after_fine.linf))
