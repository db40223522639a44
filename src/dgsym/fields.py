"""Grids, discretized log-polar wavefunctions, trajectories, and their files.

A wavefunction is stored as the pair (r, s) = (ln|psi|, unwrapped arg psi) on
a uniform grid in one or two spatial dimensions.  Nowhere-vanishing psi is a
structural assumption: r must be finite everywhere and s must have no jump of
2 pi between neighbors.

A trajectory is T such slices on one grid: a ``times`` array and float64
stacks ``r`` and ``s`` of shape ``(T, *grid.shape)``, as a trajectory
directory's ``r.npy`` and ``s.npy`` store them.  That directory is the one
file format; ``simulate --init file:DIR`` starts from its last slice.

A closed-form solution is an evaluator: ``rs(xs, t) -> (r, s)`` on the
coordinate tuple ``xs`` of ``grid.coords()``.  ``t`` is a scalar, or an array
of shape ``(T, 1, ...)`` that broadcasts against ``xs`` with a leading time
axis; ``sample_trajectory`` samples all T time stamps in one such call, and
``sample_evaluator`` is its case of one time stamp.
A flow acts on the evaluator, and the result is sampled; nothing here
interpolates between grid points.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

__all__ = ["Grid", "LogPolarField", "Trajectory", "sample_evaluator",
           "write_trajectory", "read_trajectory", "trajectory_params"]


@dataclass(frozen=True)
class Grid:
    """Uniform grid: n in {1,2}, per-axis extent, N points per axis.  |x|² is
    finite at every point and each spacing squares to a positive normal float."""

    n: int
    npts: int
    bounds: tuple
    bc: str = "dirichlet"

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError("dynamics support n in {1, 2}")
        if self.npts < 16:
            raise ValueError("need at least 16 points per axis")
        if self.bc not in ("periodic", "dirichlet"):
            raise ValueError(f"unknown boundary condition {self.bc!r}")
        bounds = tuple(tuple(float(v) for v in ab) for ab in self.bounds)
        if len(bounds) != self.n:
            raise ValueError("one (a, b) extent required per axis")
        for a, b in bounds:
            if not b > a:
                raise ValueError("extent must have b > a")
        if not math.isfinite(sum(max(a * a, b * b) for a, b in bounds)):
            raise ValueError(f"grid extent {bounds}: a bound is not finite, or "
                             "its square summed over the axes overflows")
        object.__setattr__(self, "bounds", bounds)
        for h in self.spacings:
            if not (math.isfinite(h * h) and h * h >= sys.float_info.min):
                raise ValueError(f"grid spacing {h:g}: its square is not a "
                                 "finite positive normal float")

    @classmethod
    def make(cls, n=1, npts=64, extent=(-4.0, 4.0), bc="dirichlet") -> "Grid":
        return cls(n=n, npts=npts, bounds=(tuple(extent),) * n, bc=bc)

    def dx(self, axis: int = 0) -> float:
        a, b = self.bounds[axis]
        return (b - a) / self.npts if self.bc == "periodic" else (b - a) / (self.npts - 1)

    @property
    def spacings(self) -> tuple:
        return tuple(self.dx(i) for i in range(self.n))

    def axis(self, i: int = 0) -> np.ndarray:
        a, b = self.bounds[i]
        if self.bc == "periodic":
            return a + self.dx(i) * np.arange(self.npts)
        return np.linspace(a, b, self.npts)

    def coords(self) -> tuple:
        axes = [self.axis(i) for i in range(self.n)]
        if self.n == 1:
            return (axes[0],)
        return tuple(np.meshgrid(*axes, indexing="ij"))

    @property
    def shape(self) -> tuple:
        return (self.npts,) * self.n

    def refine(self) -> "Grid":
        """The grid with every spacing halved, on the same extent."""
        npts = 2 * self.npts if self.bc == "periodic" else 2 * self.npts - 1
        return Grid(n=self.n, npts=npts, bounds=self.bounds, bc=self.bc)


@dataclass
class LogPolarField:
    """(r, s) arrays over a grid at time stamp t."""

    grid: Grid
    t: float
    r: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        self.r = np.asarray(self.r, dtype=np.float64)
        self.s = np.asarray(self.s, dtype=np.float64)
        if self.r.shape != self.grid.shape or self.s.shape != self.grid.shape:
            raise ValueError("field arrays must match the grid shape")

    def validate(self) -> "LogPolarField":
        if not np.all(np.isfinite(self.r)):
            raise ValueError("r must be finite everywhere (psi must not vanish)")
        if not np.all(np.isfinite(self.s)):
            raise ValueError("s must be finite everywhere")
        for axis in range(self.grid.n):
            jumps = np.abs(np.diff(self.s, axis=axis))
            if jumps.size and jumps.max() > np.pi:
                raise ValueError("s has a neighbor jump above pi; unwrap the phase")
        return self


@dataclass(eq=False)
class Trajectory:
    """T time slices on one grid: ``times`` of shape (T,) and the ``r`` and
    ``s`` stacks of shape (T, *grid.shape).  ``traj[k]`` is slice k as a
    ``LogPolarField`` whose arrays are views into the stacks."""

    grid: Grid
    times: np.ndarray
    r: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        self.times, self.r, self.s = (np.asarray(a, dtype=np.float64)
                                      for a in (self.times, self.r, self.s))
        shape = self.times.shape + self.grid.shape
        if self.times.ndim != 1 or self.r.shape != shape or self.s.shape != shape:
            raise ValueError(f"need times (T,) and stacks (T, *grid.shape); got "
                             f"{self.times.shape}, {self.r.shape}, {self.s.shape} "
                             f"on a grid of shape {self.grid.shape}")

    def __len__(self):
        return len(self.times)

    def __getitem__(self, k) -> LogPolarField:
        return LogPolarField(self.grid, float(self.times[k]), self.r[k], self.s[k])

    @property
    def fields(self) -> list:
        return [self[k] for k in range(len(self))]


def sample_evaluator(evaluator, grid: Grid, t: float) -> LogPolarField:
    """Sample an (r, s) evaluator on a grid at one time stamp ``t``: slice 0
    of ``sample_trajectory`` at the times ``[t]``."""
    return sample_trajectory(evaluator, grid, [t])[0]


def sample_trajectory(evaluator, grid: Grid, times) -> Trajectory:
    """Sample an (r, s) evaluator on a grid at every time stamp in one call,
    ``evaluator.rs(grid.coords(), t)`` with ``t`` the times as a (T, 1, ...)
    column."""
    times = np.asarray(times, dtype=np.float64)
    shape = times.shape + grid.shape
    r, s = evaluator.rs(grid.coords(), times.reshape((-1,) + (1,) * grid.n))
    return Trajectory(grid, times, np.broadcast_to(r, shape).copy(),
                      np.broadcast_to(s, shape).copy())


# ---------------------------------------------------------------------------
# Trajectory directories.

_STACKS = ("r", "s")


def _grid_to_json(grid: Grid) -> dict:
    return {"n": grid.n, "npts": grid.npts, "bounds": [list(b) for b in grid.bounds],
            "bc": grid.bc}


def _grid_from_json(d) -> Grid:
    return Grid(n=d["n"], npts=d["npts"],
                bounds=tuple(tuple(b) for b in d["bounds"]), bc=d["bc"])


def write_trajectory(traj: Trajectory, outdir, params_json=None, dt=None) -> str:
    """Trajectory directory: ``r.npy`` and ``s.npy`` plus ``manifest.json``.

    Each ``.npy`` file is one of the trajectory's stacks, saved as it is; the
    manifest holds the grid, the T time stamps, ``dt`` and the parameters.
    The manifest is removed first and written last, so an interrupted write
    never leaves a manifest that points at missing or stale stacks.
    """
    os.makedirs(outdir, exist_ok=True)
    mpath = os.path.join(outdir, "manifest.json")
    if os.path.exists(mpath):
        os.remove(mpath)
    for name in _STACKS:
        np.save(os.path.join(outdir, f"{name}.npy"), getattr(traj, name))
    manifest = {
        "grid": _grid_to_json(traj.grid),
        "times": [float(t) for t in traj.times],
        "dt": dt,
        "params": params_json,
    }
    with open(mpath, "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return mpath


def _load_stack(path, shape) -> np.ndarray:
    try:
        stack = np.load(path, allow_pickle=False)
    except (ValueError, EOFError) as exc:
        raise ValueError(f"{path}: not a readable .npy stack: {exc}") from exc
    if stack.dtype != np.float64 or stack.shape != shape:
        raise ValueError(f"{path}: expected a float64 stack of shape {shape}, "
                         f"got {stack.dtype} {stack.shape}")
    return stack


def _read_manifest(outdir) -> tuple:
    """``(grid, times)`` from a trajectory directory's manifest; a ``grid``
    or ``times`` that is missing or malformed is refused with a
    ``ValueError`` naming the file and the key."""
    mpath = os.path.join(outdir, "manifest.json")
    with open(mpath) as fh:
        manifest = json.load(fh)
    try:
        grid = _grid_from_json(manifest["grid"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{mpath}: key 'grid' is missing or not a grid "
                         f"({type(exc).__name__}: {exc})") from exc
    times = manifest.get("times")
    if not (isinstance(times, list) and all(
            isinstance(t, (int, float)) and not isinstance(t, bool) for t in times)):
        raise ValueError(f"{mpath}: key 'times' is missing or not a list of numbers")
    return grid, [float(t) for t in times]


def trajectory_params(outdir):
    """The ``params`` a trajectory directory's manifest records, or None."""
    with open(os.path.join(outdir, "manifest.json")) as fh:
        manifest = json.load(fh)
    return manifest.get("params") if type(manifest) is dict else None


def read_trajectory(outdir) -> Trajectory:
    """Read a directory written by ``write_trajectory``; its ``r.npy`` and
    ``s.npy`` become the trajectory's stacks.  A manifest without a valid
    ``grid`` and ``times`` list is refused with a ``ValueError`` naming the
    file and the key.  A stack that is unreadable, not float64, or not of
    shape ``(T, *grid.shape)`` for the manifest's T time stamps is refused
    with a ``ValueError`` naming its file.
    """
    grid, times = _read_manifest(outdir)
    shape = (len(times),) + grid.shape
    r, s = (_load_stack(os.path.join(outdir, f"{name}.npy"), shape)
            for name in _STACKS)
    return Trajectory(grid, times, r, s)
