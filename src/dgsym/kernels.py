"""Finite-difference stencil, derivative bundle and dirichlet boundary ring.

The state is one float64 array ``u`` of shape ``(2, *lead, *grid.shape)``:
``u[0]`` is the log-amplitude r and ``u[1]`` the phase s of psi = exp(r + i s).
Every right-hand side of the family is a linear combination of five
derivative fields of that state:

    lap r,  lap s,  |grad r|^2,  |grad s|^2,  grad r . grad s

``derivative_bundle`` computes them with one centered second-order stencil,
and ``evolution_rhs`` combines them with nine coefficients:

    r_t = a1 lap(r) + a2 lap(s) + a3 |grad r|^2 + a4 grad r . grad s
    s_t = b1 lap(r) + b2 lap(s) + b3 |grad r|^2 + b4 grad r . grad s + b5 |grad s|^2

Along each axis the stacked state is padded by one point at each end and
differenced once, both halves in one array operation; the two offset views of
that difference are the backward and forward differences.  On periodic grids
the padding is the wrapped neighbours, and the phase half of the difference is
wrapped to the nearest multiple of 2 pi, so plane waves with nonzero winding
differentiate correctly across the seam.  On dirichlet grids the padding
copies the edge value, so the outward difference there is f - f = 0 exactly
and the ring holds one-sided values.  The combination runs on ``(2, 1, ...)``
columns of the coefficients, so r_t and s_t come out as one stacked array.
Each element sees the operations, in the order, of a separate r and s pass.

On dirichlet grids the outermost layer of points along each axis is the
boundary ring: its values are imposed, not evolved, so every right-hand side
is zero there and residuals are taken over the points inside it;
``zero_ring`` zeroes one array on it in place.
``boundary_ring`` gives the ring as one integer index tuple (``np.nonzero``
of the ring mask, so ``arr[ring]`` is the flat run of ring values) next to
the ``inner`` slices; on a periodic grid the ring is empty.

The stencil acts on the trailing ``grid.n`` axes.  The ``lead`` axes of ``u``
are empty for one slice and ``(k,)`` for a slab of k time slices; every
operation is elementwise along them, so a slab gives each slice bit for bit
what a call on that slice alone gives.

A call computes only array operations; what does not depend on the state is
built once and cached.  ``_axis_plans``, keyed on the grid and the rank of
``u`` like ``boundary_ring`` on the grid, holds each axis's index tuples and
its ``2 dx`` and ``dx²``.  ``_columns``, keyed on the rank and the bit pattern
of the first eight coefficients packed as doubles, holds their read-only
columns: -0.0 and +0.0 are different keys, since ``evolution_rhs`` is public
and takes either sign of zero from its caller, and a product with either
keeps its sign.  ``pde.evolve`` sums its RK4 update in place in the first
stage's array, in the order of ``u + (dt/6) (k1 + 2 k2 + 2 k3 + k4)``.
"""

from __future__ import annotations

import struct
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * np.pi


@lru_cache(maxsize=32)
def _axis_plans(grid, ndim):
    """One plan per grid axis for a state of ``ndim`` axes: the array axis,
    the index tuples of its first point, its last point, all but its last
    and all but its first point, then ``2 dx`` and ``dx²``."""
    plans = []
    for axis in range(grid.n):
        at = ndim - grid.n + axis
        ax = (slice(None),) * at
        dx = grid.dx(axis)
        plans.append((at, ax + (slice(None, 1),), ax + (slice(-1, None),),
                      ax + (slice(None, -1),), ax + (slice(1, None),), 2.0 * dx, dx * dx))
    return tuple(plans)


def _axis_diffs(u, plan, periodic):
    """Centered first and second derivative of the stacked state ``u`` along
    the axis of ``plan`` (one entry of ``_axis_plans``).

    One padded difference per axis: ``u`` gains one point at each end (see
    the module docstring), ``d`` is the difference of the padded array, and
    ``d[:-1]`` and ``d[1:]`` are the backward and forward differences.  On
    periodic grids the phase half ``d[1]`` is wrapped.
    """
    axis, first, last, head, tail, two_dx, dx2 = plan
    lo, hi = u[first], u[last]
    up = np.concatenate((hi, u, lo) if periodic else (lo, u, hi), axis=axis)
    d = up[tail] - up[head]
    if periodic:
        d[1] -= TWO_PI * np.rint(d[1] / TWO_PI)
    dm, dp = d[head], d[tail]
    return (dp + dm) / two_dx, (dp - dm) / dx2


@lru_cache(maxsize=64)
def _columns(bits, ndim):
    """The read-only ``(2, 1, ...)`` columns, one per term, of the eight
    coefficients packed as doubles in ``bits``, for a state of ``ndim`` axes.

    Keyed on the bits, not the values: -0.0 == 0.0, so a value-keyed cache
    would hand the columns of one sign of zero to a call with the other.
    """
    cols = np.array(struct.unpack("8d", bits)).reshape((2, 4) + (1,) * (ndim - 1))
    cols.setflags(write=False)
    return tuple(cols[:, j] for j in range(4))


@lru_cache(maxsize=32)
def boundary_ring(grid):
    """``(ring, inner)`` for the dirichlet boundary ring of ``grid``.

    ``ring`` is one index tuple (from ``np.nonzero`` of the ring mask, its
    arrays read-only) picking every ring point in C order; ``inner`` indexes
    every point off the ring.  A periodic grid has no ring: ``ring`` is empty
    and ``inner`` covers the whole grid.
    """
    inner = (slice(None) if grid.bc == "periodic" else slice(1, -1),) * grid.n
    mask = np.ones(grid.shape, dtype=bool)
    mask[inner] = False
    ring = np.nonzero(mask)
    for idx in ring:
        idx.setflags(write=False)
    return ring, inner


def zero_ring(grid, arr):
    """Zero ``arr`` (any leading axes, then the grid's) in place on the
    boundary ring; return it."""
    if grid.bc == "dirichlet":
        arr[(Ellipsis,) + boundary_ring(grid)[0]] = 0.0
    return arr


def derivative_bundle(u, grid):
    """``(lap r, lap s, |grad r|^2, |grad s|^2, grad r . grad s)`` of the
    stacked state ``u``.

    The phase is differenced modulo 2 pi on periodic grids.  On dirichlet
    grids the boundary ring holds one-sided values; callers that need it zero
    use ``zero_ring``.  The first four are views into two stacked arrays.
    """
    periodic = grid.bc == "periodic"
    for axis, plan in enumerate(_axis_plans(grid, u.ndim)):
        d1, d2 = _axis_diffs(u, plan, periodic)
        if axis == 0:
            lap, sq, cross = d2, d1 * d1, d1[0] * d1[1]
        else:
            lap += d2
            sq += d1 * d1
            cross += d1[0] * d1[1]
    return lap[0], lap[1], sq[0], sq[1], cross


def evolution_rhs(u, grid, coeffs):
    """Stacked ``(r_t, s_t)``: the nine-coefficient combination of the
    derivative bundle of the stacked state ``u``, zero on the boundary ring."""
    lap_r, lap_s, gr2, gs2, grgs = derivative_bundle(u, grid)
    cols = _columns(struct.pack("8d", *coeffs[:8]), u.ndim)
    rhs = cols[0] * lap_r
    for col, term in zip(cols[1:], (lap_s, gr2, grgs)):
        rhs += col * term
    rhs[1] += coeffs[8] * gs2
    return zero_ring(grid, rhs)
