"""Discretized dynamics: the two-field evolution system, an RK4 stepper,
residual evaluation, and closed-form reference solutions (heat kernels,
free-Schroedinger packets, and similarity solutions used by the symmetry
tests).

State is log-polar, psi = exp(r + i s).  The free evolution system is
r_t = nu1 R1 + nu2 R2, s_t = -(mu1 R1 + ... + mu5 R5) over the five
homogeneous functionals of Doebner and Goldin,

    R1 = lap s + 2 grad r . grad s        R2 = 2 lap r + 4 |grad r|^2
    R3 = |grad s|^2                       R4 = 2 grad r . grad s
    R5 = 4 |grad r|^2,

written out once, exactly, over the derivative bundle of ``kernels`` by
``params.dg_system``; ``rhs_coefficients`` is its floats.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fields import Grid, LogPolarField, Trajectory, sample_trajectory
from .kernels import boundary_ring, evolution_rhs
from .params import DGParams, dg_system, predicate_report

__all__ = [
    "default_dt", "evolve",
    "EvolutionBlowup", "ResidualReport", "residual", "se_residual",
    "Convergence", "convergence",
    "heat_solution", "se_gaussian", "plane_wave_solution",
    "HeatGaussian", "SEPacket", "PlaneWave",
    "ScaleSimilaritySolution", "HJSimilaritySolution", "rhs_coefficients",
]


def rhs_coefficients(p: DGParams) -> tuple:
    """The nine coefficients of ``dg_system(p)`` as floats, each rounded once,
    for ``kernels.evolution_rhs``."""
    return tuple(map(float, dg_system(p)))


class EvolutionBlowup(RuntimeError):
    def __init__(self, step, t, norm):
        super().__init__(f"max|r| = {norm:.3g} at step {step} (t={t:.6g}); "
                         "the evolution left the trusted regime")
        self.step, self.t, self.norm = step, t, norm


def default_dt(grid: Grid) -> float:
    """The stability rule: the largest RK4 step, and the default, on grid."""
    return 0.2 * min(grid.spacings) ** 2


# A slab of k time slices takes at most this many grid points per stencil
# call: 1-D grids batch many slices, and 2-D grids of 64² points and up keep
# one slice per call, where a larger slab loses more to memory traffic than
# it saves in calls.  One `residual` on a 2-vCPU host: 1-D 256 x 65 slices
# takes 4.7 ms per slice, 1.1 ms in slabs of 4096 points and 1.3 ms as one
# stack; 2-D 64² x 9 takes 2.6 ms per slice and 3.3 ms as one stack.
_SLAB_POINTS = 4096

BLOWUP = 100.0  # the max|r| bound of evolve


def _ring_values(bc_values, xs, t0, dt, steps):
    """The (2, ring) values ``evolve`` pins at RK4 stages 2, 3, 4 and the update
    of each step, at t + dt/2, t + dt/2, t + dt and t0 + step dt, in order.  A
    time equal to the one before reuses its values; the distinct times are
    sampled in (T, 1) columns of at most ``_SLAB_POINTS`` ring values."""
    size = xs[0].size
    times = (when for k in range(steps) for t in (t0 + k * dt,)
             for when in (t + 0.5 * dt, t + 0.5 * dt, t + dt, t0 + (k + 1) * dt))
    runs = ((t, len(list(same))) for t, same in itertools.groupby(times))
    per_call = max(1, _SLAB_POINTS // size)
    for batch in iter(lambda: list(itertools.islice(runs, per_call)), []):
        col = np.reshape([t for t, _ in batch], (-1, 1))
        values = np.stack([np.broadcast_to(v, (len(col), size))
                           for v in bc_values(xs, col)], axis=1)
        for held, (_, count) in zip(values, batch):
            yield from (held,) * count


def evolve(p: DGParams, field0: LogPolarField, steps: int, dt: float | None = None,
           bc_values: Callable | None = None, save_every: int = 1) -> Trajectory:
    """Method-of-lines RK4 on the evolution system, one stacked (r, s) state.

    dt defaults to ``default_dt(grid)`` and may not exceed it; it must be finite
    and positive, and ``save_every`` at least 1.  On dirichlet grids
    ``bc_values(coords, t) -> (r, s)`` supplies boundary data (convergence
    studies pin it to a closed-form solution) by the ``rs(xs, t)`` protocol of
    ``sample_trajectory``: ``coords`` is the boundary ring only,
    ``tuple(c[ring] for c in grid.coords())``, and ``t`` a (T, 1) column of the
    distinct stage times of a block of steps, at most ``_SLAB_POINTS`` ring
    values per call.  RK4 stages 2 and 3 share t + dt/2; a value is reused only
    when the float time is exactly equal.  Results broadcast to (T, ring), so
    scalars and ring values that ignore t do.  ``field0`` must be finite with
    max|r| <= ``BLOWUP``; a step past it raises ``EvolutionBlowup``, and so
    does a NaN or inf in r.  The rows are ``field0``, every ``save_every``-th
    step and the last step.

    Each stage calls ``evolution_rhs`` once on ``u + (dt/2) k`` (``u + dt k3``
    for the last).  The update ``u + (dt/6) (k1 + 2 k2 + 2 k3 + k4)`` is
    summed left to right in place in ``k1``, scaled, and added to ``u`` in
    place: the same operations in the same order as the expression.
    """
    grid = field0.grid
    dt_max = default_dt(grid)
    if dt is None:
        dt = dt_max
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt={dt!r} must be finite and positive")
    if dt > dt_max * (1.0 + 1e-12):
        raise ValueError(f"dt={dt:.3g} violates the stability rule "
                         f"dt <= default_dt(grid) = {dt_max:.3g}")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if save_every < 1:
        raise ValueError(f"save_every={save_every!r} must be >= 1")

    dirichlet = grid.bc == "dirichlet"
    if dirichlet and bc_values is None:
        raise ValueError("dirichlet evolution needs bc_values pinned to a "
                         "reference solution")
    ring, _ = boundary_ring(grid)
    coeffs = rhs_coefficients(p)
    if dirichlet:
        edge = (slice(None),) + ring
        pins = _ring_values(bc_values, tuple(c[ring] for c in grid.coords()),
                            field0.t, dt, steps)

    def pin(u):
        if dirichlet:
            u[edge] = next(pins)
        return u

    norm = float(np.max(np.abs(field0.r)))
    if not (math.isfinite(norm) and norm <= BLOWUP and np.all(np.isfinite(field0.s))):
        raise ValueError(f"initial field must be finite with max|r| <= {BLOWUP:g} "
                         f"(the blow-up bound); it has max|r| = {norm:.3g}")

    rows = 1 + -(-steps // save_every)  # field0 and every saved step
    try:
        times, saved = np.empty(rows), np.empty((2, rows) + grid.shape)
    except (MemoryError, ValueError) as exc:
        raise ValueError(f"steps={steps} saved every {save_every} make a "
                         "trajectory too large to hold in memory") from exc
    u = np.stack((field0.r, field0.s))
    times[0], saved[:, 0], row = field0.t, u, 1
    half, sixth = 0.5 * dt, dt / 6.0
    for step in range(1, steps + 1):
        k1 = evolution_rhs(u, grid, coeffs)
        k2 = evolution_rhs(pin(u + half * k1), grid, coeffs)
        k3 = evolution_rhs(pin(u + half * k2), grid, coeffs)
        k4 = evolution_rhs(pin(u + dt * k3), grid, coeffs)
        k2 *= 2.0
        k1 += k2
        k3 *= 2.0
        k1 += k3
        k1 += k4
        k1 *= sixth
        u = pin(np.add(u, k1, out=u))
        t = field0.t + step * dt
        norm = float(np.abs(u[0]).max())
        if not math.isfinite(norm) or norm > BLOWUP:
            raise EvolutionBlowup(step, t, norm)
        if step % save_every == 0 or step == steps:
            times[row], saved[:, row] = t, u
            row += 1
    return Trajectory(grid, times, *saved)


# ---------------------------------------------------------------------------
# Residuals.

@dataclass(frozen=True)
class ResidualReport:
    r_linf: float
    r_l2: float
    s_linf: float
    s_l2: float

    @property
    def linf(self) -> float:
        """The larger sup norm; NaN if either is NaN."""
        return float(np.maximum(self.r_linf, self.s_linf))

    @property
    def l2(self) -> float:
        return math.hypot(self.r_l2, self.s_l2)

    def to_json_dict(self):
        return {"r_linf": self.r_linf, "r_l2": self.r_l2,
                "s_linf": self.s_linf, "s_l2": self.s_l2,
                "linf": self.linf, "l2": self.l2}


def _time_derivative(prev, cur, nxt, h1, h2):
    """Three-point first derivative at the middle slice, exact on quadratics:
    (h1² nxt - h2² prev + (h2² - h1²) cur) / (h1 h2 (h1 + h2)), evaluated in
    that order in one output array."""
    d = h1 * h1 * nxt
    d -= h2 * h2 * prev
    d += (h2 * h2 - h1 * h1) * cur
    d /= h1 * h2 * (h1 + h2)
    return d


def _check_times(times):
    """Refuse time stamps a three-point time derivative cannot use."""
    if len(times) < 3:
        raise ValueError("residual needs at least 3 time slices")
    h = np.diff(times)
    if not np.all(h > 0):
        raise ValueError("trajectory times must be strictly increasing")
    with np.errstate(over="ignore", under="ignore"):
        scale = h[:-1] * h[1:] * (h[:-1] + h[1:])
    if not np.all(np.isfinite(scale) & (scale > 0)):
        raise ValueError("trajectory time steps too large or too small: "
                         "h1*h2*(h1+h2) of the three-point time derivative "
                         "is not a finite positive float")


def _norms(arr) -> tuple:
    return float(np.max(np.abs(arr))), float(np.sqrt(np.mean(arr * arr)))


def _residual_report(coeffs, traj: Trajectory) -> ResidualReport:
    """Norms of (rhs - d/dt) of the nine-coefficient system ``evolution_rhs``
    over the inner time slices 1..T-2 and the inner grid points.

    The r and s stacks become one (2, T, *grid) state; ``_time_derivative``
    is taken in one call over it, and ``evolution_rhs`` once per slab of
    ``max(1, _SLAB_POINTS // points)`` slices, its output written over the
    d/dt stack.
    """
    grid, times = traj.grid, traj.times
    _check_times(times)
    u = np.stack((traj.r, traj.s))
    h = np.diff(times).reshape((-1,) + (1,) * grid.n)
    mid = u[:, 1:-1]
    res = _time_derivative(u[:, :-2], mid, u[:, 2:], h[:-1], h[1:])
    step = max(1, _SLAB_POINTS // math.prod(grid.shape))
    for lo in range(0, len(times) - 2, step):
        rows = (slice(None), slice(lo, lo + step))
        np.subtract(evolution_rhs(mid[rows], grid, coeffs), res[rows], out=res[rows])
    inner = (slice(None),) + boundary_ring(grid)[1]
    (r_linf, r_l2), (s_linf, s_l2) = (_norms(half[inner]) for half in res)
    return ResidualReport(r_linf, r_l2, s_linf, s_l2)


def residual(p: DGParams, traj: Trajectory) -> ResidualReport:
    """Residual norms of both evolution equations over interior points.

    Time derivatives are centered three-point differences (non-uniform time
    stamps allowed); a trajectory solves the system iff both residuals vanish
    to discretization order.
    """
    return _residual_report(rhs_coefficients(p), traj)


def se_residual(a: float, traj: Trajectory) -> ResidualReport:
    """Residual of the free linear Schroedinger equation i psi_t = a lap psi,
    written in log-polar variables.

    Its coefficients are ``rhs_coefficients`` of the family's linear point
    DGParams(nu1=a, mu2=a/2, mu3=-a, mu5=-a/4).
    """
    a = float(a)
    return _residual_report((0.0, a, 0.0, 2.0 * a, -a, 0.0, -a, 0.0, a), traj)


@dataclass(frozen=True)
class Convergence:
    """Coarse and fine residuals, their ratios, the coarse trajectory and
    the rounding floor of the study (``_rounding_floor`` of the fine one)."""

    coarse: ResidualReport
    fine: ResidualReport
    ratio_l2: float
    ratio_linf: float
    trajectory: Trajectory
    floor: float

    @property
    def passed(self) -> bool:
        """Second order: halving dx and dt divides the L2 residual by 3 to 5.
        A residual at rounding level passes too: coarse and fine L2 both at
        or below ``floor``, where no ratio is meaningful."""
        return (3.0 <= self.ratio_l2 <= 5.0
                or self.coarse.l2 <= self.floor and self.fine.l2 <= self.floor)


def _rounding_floor(traj: Trajectory) -> float:
    """The largest residual that rounding alone leaves on ``traj``:
    eps U (1/dt + 4n/dx^2), with eps the float64 machine epsilon, U the
    largest |r| or |s| sampled, dt the smallest time step, dx the smallest
    grid spacing and n the dimension.  Each sample carries a rounding error
    of at most eps U; the three-point time derivative amplifies it by at
    most the l1 norm of its weights, 1/dt on uniform steps, and the
    Laplacian by 4n/dx^2.  The gradient products add no more than the
    Laplacian on a field the grid resolves (|grad u| dx <= 2), and the
    coefficients are taken as of order one.  0 when a sample is not finite."""
    size = max(float(np.max(np.abs(traj.r))), float(np.max(np.abs(traj.s))))
    if not math.isfinite(size):
        return 0.0
    dt = float(np.min(np.diff(traj.times)))
    dx = min(traj.grid.spacings)
    eps = float(np.finfo(float).eps)
    return eps * size * (1.0 / dt + 4.0 * traj.grid.n / dx ** 2)


def convergence(residual_of, solution, grid: Grid, times) -> Convergence:
    """Order-2 refinement study: ``residual_of(traj) -> ResidualReport`` of
    ``solution`` sampled on ``grid`` at ``times``, uniform as ``np.linspace``
    gives them, and on ``grid.refine()`` with every time interval halved.
    A ratio is inf where the fine norm is not > 0.  The floor is the
    ``_rounding_floor`` of the fine sampling, the larger of the two."""
    times = np.asarray(times, dtype=float)
    fine_times = np.linspace(times[0], times[-1], 2 * len(times) - 1)
    if not np.array_equal(fine_times[::2], times):
        raise ValueError("a refinement study needs uniform time stamps, "
                         "as np.linspace gives them")
    traj = sample_trajectory(solution, grid, times)
    coarse = residual_of(traj)
    fine_traj = sample_trajectory(solution, grid.refine(), fine_times)
    fine = residual_of(fine_traj)

    def ratio(a, b):
        return a / b if b > 0 else math.inf

    return Convergence(coarse, fine, ratio(coarse.l2, fine.l2),
                       ratio(coarse.linf, fine.linf), traj,
                       _rounding_floor(fine_traj))


# ---------------------------------------------------------------------------
# Closed-form reference solutions.

def _sum_sq(xs, center, shift):
    total = 0.0
    for i, x in enumerate(xs):
        c = center[i] if center is not None else 0.0
        total = total + (np.asarray(x) - c + (shift[i] if shift is not None else 0.0)) ** 2
    return total


@dataclass(frozen=True)
class HeatGaussian:
    """Positive solution of d_t phi + sign * D lap phi = 0.

    direction='forward' means d_t phi + D lap phi = 0 (a Gaussian sharpening
    toward its focus time, valid for t < focus_time); 'backward' means
    d_t phi - D lap phi = 0 (spreading, valid for t > focus_time).  An offset
    keeps the solution bounded away from zero.
    """

    D: float
    direction: str
    n: int = 1
    amplitude: float = 1.0
    center: tuple | None = None
    focus_time: float = 1.0
    offset: float = 0.0

    def __post_init__(self):
        if self.D <= 0:
            raise ValueError("diffusion coefficient must be positive")
        if self.direction not in ("forward", "backward"):
            raise ValueError("direction must be 'forward' or 'backward'")
        if self.amplitude < 0 or self.offset < 0 or self.amplitude + self.offset == 0:
            raise ValueError("need amplitude, offset >= 0, not both zero")

    def _tau(self, t):
        tau = (self.focus_time - t) if self.direction == "forward" else (t - self.focus_time)
        if np.any(np.asarray(tau) <= 0):
            side = "<" if self.direction == "forward" else ">"
            raise ValueError(f"heat kernel valid only for t {side} {self.focus_time}")
        return tau

    def value(self, xs, t):
        if self.amplitude == 0:
            return self.offset + np.zeros_like(np.asarray(xs[0], dtype=float))
        tau = self._tau(t)
        q = _sum_sq(xs, self.center, None)
        return self.offset + self.amplitude * tau ** (-self.n / 2.0) \
            * np.exp(-q / (4.0 * self.D * tau))


def heat_solution(D, direction, n=1, amplitude=1.0, center=None,
                  focus_time=None, offset=0.0) -> HeatGaussian:
    if focus_time is None:
        focus_time = 1.0 if direction == "forward" else -0.25
    return HeatGaussian(D=float(D), direction=direction, n=n,
                        amplitude=float(amplitude), center=center,
                        focus_time=float(focus_time), offset=float(offset))


@dataclass(frozen=True)
class SEPacket:
    """Nowhere-zero Gaussian packet solving i psi_t = a lap psi.

    Continuous analytic phase (no wrapping): r and s come from the exact
    complex logarithm of the packet, with the principal branch safe because
    1 + 4ia b0 t stays in the right half plane.
    """

    a: float
    n: int = 1
    b0: float = -0.25
    center: tuple | None = None
    k: tuple | None = None
    amplitude: float = 1.0

    def __post_init__(self):
        if self.a == 0:
            raise ValueError("dispersion coefficient must be nonzero")
        if self.b0 >= 0:
            raise ValueError("b0 must be negative for a normalizable packet")
        if self.amplitude <= 0:
            raise ValueError("amplitude must be positive")

    def _pieces(self, t):
        z = 1.0 + 4.0j * self.a * self.b0 * t
        logA = -(self.n / 2.0) * np.log(z)
        B = self.b0 / z
        return z, logA, B

    def _k(self):
        return np.zeros(self.n) if self.k is None else np.asarray(self.k, dtype=float)

    def _moved(self, xs, t):
        """|x - center + 2 a k t|^2 and k; the shift is one term per axis,
        so a time array ``t`` broadcasts against each coordinate."""
        k = self._k()
        shift = [2.0 * self.a * kj * t for kj in k]
        return _sum_sq(xs, self.center, shift), k

    def rs(self, xs, t):
        _, logA, B = self._pieces(t)
        q, k = self._moved(xs, t)
        phase_pw = sum(kj * np.asarray(x) for kj, x in zip(k, xs)) \
            + self.a * float(k @ k) * t
        r = math.log(self.amplitude) + logA.real + B.real * q
        s = logA.imag + B.imag * q + phase_pw
        return np.asarray(r, dtype=float), np.asarray(s, dtype=float)

    def rs_t(self, xs, t):
        """Exact time derivatives (oracle for the discrete right-hand side)."""
        z, _, B = self._pieces(t)
        dlogA = -(self.n / 2.0) * (4.0j * self.a * self.b0) / z
        dB = -4.0j * self.a * B * B
        q, k = self._moved(xs, t)
        dq = sum(2.0 * (np.asarray(x) - (self.center[i] if self.center else 0.0)
                        + 2.0 * self.a * k[i] * t) * 2.0 * self.a * k[i]
                 for i, x in enumerate(xs))
        r_t = dlogA.real + dB.real * q + B.real * dq
        s_t = dlogA.imag + dB.imag * q + B.imag * dq + self.a * float(k @ k)
        return np.asarray(r_t, dtype=float), np.asarray(s_t, dtype=float)


def se_gaussian(a, n=1, b0=-0.25, center=None, k=None, amplitude=1.0) -> SEPacket:
    return SEPacket(a=float(a), n=n, b0=float(b0), center=center, k=k,
                    amplitude=float(amplitude))


@dataclass(frozen=True)
class SEPacketSum:
    """Superposition of packets with a dominant first member.

    A single Gaussian packet is quadratic in (r, s), which centered stencils
    differentiate exactly; superpositions restore generic fourth derivatives
    and are the right vehicle for order-of-accuracy studies.  The first
    packet must dominate the rest pointwise so psi never vanishes and the
    phase unwraps analytically: s = s_1 + arg(1 + sum psi_j/psi_1).
    """

    packets: tuple

    def __post_init__(self):
        if len(self.packets) < 1:
            raise ValueError("need at least one packet")
        if len({pk.a for pk in self.packets}) != 1:
            raise ValueError("all packets must share the dispersion coefficient")

    def rs(self, xs, t):
        r1, s1 = self.packets[0].rs(xs, t)
        total = 0.0
        for pk in self.packets[1:]:
            rj, sj = pk.rs(xs, t)
            total = total + np.exp(rj - r1 + 1j * (sj - s1))
        w = 1.0 + total
        if np.any(np.abs(w) <= 0.1):
            raise ValueError("leading packet no longer dominates; psi may vanish")
        return r1 + np.log(np.abs(w)), s1 + np.angle(w)


@dataclass(frozen=True)
class PlaneWave:
    """r = r0, s = k.x - omega t; solves the system when omega = mu3 |k|^2."""

    k: tuple
    omega: float
    r0: float = 0.0

    def rs(self, xs, t):
        k = np.asarray(self.k, dtype=float)
        s = sum(kj * np.asarray(x) for kj, x in zip(k, xs)) - self.omega * t
        return np.full_like(np.asarray(s, dtype=float), self.r0), s


def plane_wave_solution(p: DGParams, k) -> PlaneWave:
    k = np.atleast_1d(np.asarray(k, dtype=float))
    if k.size != p.n:
        raise ValueError("wave vector must have one component per axis")
    return PlaneWave(k=tuple(k), omega=float(p.mu3) * float(k @ k))


@dataclass(frozen=True)
class ScaleSimilaritySolution:
    """Closed-form solution of the two-parameter special class with nu2 = 0:

        r = -(n/2) ln(t - t0) + bump * exp(-|x/(t-t0)|^2)
        s = -|x|^2 / (4 nu1 (t - t0))

    Valid for any profile in place of the Gaussian bump; used to exercise the
    scaling, expansion and time-inversion flows on a genuinely curved field.
    """

    p: DGParams
    t0: float = -1.0
    bump: float = 0.5

    def __post_init__(self):
        rep = predicate_report(self.p)
        if not (rep["GalSub"] and rep["FinSub"] and self.p.nu2 == 0):
            raise ValueError("similarity solution needs the nu2 = 0 point of "
                             "the doubly-special class")

    def rs(self, xs, t):
        tt = t - self.t0
        if np.any(np.asarray(tt) <= 0):
            raise ValueError("similarity solution valid for t > t0")
        q = _sum_sq(xs, None, None)
        u2 = q / tt ** 2
        r = -(self.p.n / 2.0) * np.log(tt) + self.bump * np.exp(-u2)
        s = -q / (4.0 * float(self.p.nu1) * tt)
        return r, s


@dataclass(frozen=True)
class HJSimilaritySolution:
    """Closed-form solution on the commutative infinite subfamily:

        z = 2 nu2 r + nu1 s = -|x|^2 / (8 (t - t0))
        r = -(n/4) ln(t - t0) + bump * exp(-|x|^2/(t-t0))
    """

    p: DGParams
    t0: float = -1.0
    bump: float = 0.5

    def __post_init__(self):
        if not predicate_report(self.p)["InfaSub"]:
            raise ValueError("needs the commutative infinite subfamily")

    def rs(self, xs, t):
        tt = t - self.t0
        if np.any(np.asarray(tt) <= 0):
            raise ValueError("valid for t > t0")
        q = _sum_sq(xs, None, None)
        z = -q / (8.0 * tt)
        r = -(self.p.n / 4.0) * np.log(tt) + self.bump * np.exp(-q / tt)
        s = (z - 2.0 * float(self.p.nu2) * r) / float(self.p.nu1)
        return r, s
