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
is zero there and residuals are taken over the points inside it.
``boundary_ring`` gives the ring as one integer index tuple (``np.nonzero``
of the ring mask, so ``arr[ring]`` is the flat run of ring values) next to
the ``inner`` slices; on a periodic grid the ring is empty.

The stencil acts on the trailing ``grid.n`` axes.  The ``lead`` axes of ``u``
are empty for one slice and ``(k,)`` for a slab of k time slices; every
operation is elementwise along them, so a slab gives each slice bit for bit
what a call on that slice alone gives.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * np.pi


def _axis_diffs(u, axis, dx, periodic):
    """Centered first and second derivative of the stacked state ``u`` along
    ``axis``.

    One padded difference per axis: ``u`` gains one point at each end (see
    the module docstring), ``d`` is the difference of the padded array, and
    ``d[:-1]`` and ``d[1:]`` are the backward and forward differences.  On
    periodic grids the phase half ``d[1]`` is wrapped.
    """
    ax = (slice(None),) * axis
    lo, hi = u[ax + (slice(None, 1),)], u[ax + (slice(-1, None),)]
    up = np.concatenate((hi, u, lo) if periodic else (lo, u, hi), axis=axis)
    d = up[ax + (slice(1, None),)] - up[ax + (slice(None, -1),)]
    if periodic:
        d[1] -= TWO_PI * np.rint(d[1] / TWO_PI)
    dm, dp = d[ax + (slice(None, -1),)], d[ax + (slice(1, None),)]
    return (dp + dm) / (2.0 * dx), (dp - dm) / (dx * dx)


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


def zero_ring(grid, *arrays):
    """Zero each array (any leading axes, then the grid's) in place on the
    boundary ring; return them."""
    if grid.bc == "dirichlet":
        ring = (Ellipsis,) + boundary_ring(grid)[0]
        for arr in arrays:
            arr[ring] = 0.0
    return arrays


def derivative_bundle(u, grid):
    """``(lap r, lap s, |grad r|^2, |grad s|^2, grad r . grad s)`` of the
    stacked state ``u``.

    The phase is differenced modulo 2 pi on periodic grids.  On dirichlet
    grids the boundary ring holds one-sided values; callers that need it zero
    use ``zero_ring``.  The first four are views into two stacked arrays.
    """
    periodic = grid.bc == "periodic"
    lead = u.ndim - grid.n
    for axis in range(grid.n):
        d1, d2 = _axis_diffs(u, lead + axis, grid.dx(axis), periodic)
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
    cols = np.array(coeffs[:8]).reshape((2, 4) + (1,) * (u.ndim - 1))
    rhs = cols[:, 0] * lap_r
    for j, term in enumerate((lap_s, gr2, grgs), 1):
        rhs += cols[:, j] * term
    rhs[1] += coeffs[8] * gs2
    return zero_ring(grid, rhs)[0]
