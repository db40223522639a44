"""Finite-difference stencil, derivative bundle and dirichlet boundary ring.

Every right-hand side of the family is a linear combination of five
derivative fields of the log-polar state (r, s):

    lap r,  lap s,  |grad r|^2,  |grad s|^2,  grad r . grad s

``derivative_bundle`` computes them with one centered second-order stencil,
and ``evolution_rhs`` combines them with nine coefficients:

    r_t = a1 lap(r) + a2 lap(s) + a3 |grad r|^2 + a4 grad r . grad s
    s_t = b1 lap(r) + b2 lap(s) + b3 |grad r|^2 + b4 grad r . grad s + b5 |grad s|^2

Along each axis the field is padded by one point at each end and differenced
once; the two offset views of that difference are the backward and forward
differences.  On periodic grids the padding is the wrapped neighbours, and
phase differences are wrapped to the nearest multiple of 2 pi, so plane waves
with nonzero winding differentiate correctly across the seam.  On dirichlet
grids the padding copies the edge value, so the outward difference there is
f - f = 0 exactly and the ring holds one-sided values.

On dirichlet grids the outermost layer of points along each axis is the
boundary ring: its values are imposed, not evolved, so every right-hand side
is zero there and residuals are taken over the points inside it.
``boundary_ring`` gives the ring as one integer index tuple (``np.nonzero``
of the ring mask, so ``arr[ring]`` is the flat run of ring values) next to
the ``inner`` slices.  A periodic grid has an empty ring index, so
``arr[ring] = 0`` changes nothing there.

The stencil acts on the trailing ``grid.n`` axes.  ``derivative_bundle``,
``evolution_rhs`` and ``zero_ring`` therefore take one slice of shape
``grid.shape`` or a slab of k slices of shape ``(k, *grid.shape)``; every
operation is elementwise along the leading axis, so a slab gives each slice
bit for bit what a call on that slice alone gives.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * np.pi


def _wrap(d):
    return d - TWO_PI * np.rint(d / TWO_PI)


def _axis_diffs(f, axis, dx, periodic, wrap):
    """Centered first and second derivative of ``f`` along ``axis``.

    One padded difference per axis: ``f`` gains one point at each end (see
    the module docstring), ``d`` is the difference of the padded array, and
    ``d[:-1]`` and ``d[1:]`` are the backward and forward differences.
    """
    ax = (slice(None),) * axis
    lo, hi = f[ax + (slice(None, 1),)], f[ax + (slice(-1, None),)]
    fp = np.concatenate((hi, f, lo) if periodic else (lo, f, hi), axis=axis)
    d = fp[ax + (slice(1, None),)] - fp[ax + (slice(None, -1),)]
    if wrap:
        d = _wrap(d)
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
    """Zero each array (a slice or a slab) in place on the boundary ring;
    return them."""
    ring = (Ellipsis,) + boundary_ring(grid)[0]
    for arr in arrays:
        arr[ring] = 0.0
    return arrays


def derivative_bundle(r, s, grid):
    """``(lap r, lap s, |grad r|^2, |grad s|^2, grad r . grad s)``.

    The phase ``s`` is differenced modulo 2 pi on periodic grids.  On
    dirichlet grids the boundary ring holds one-sided values; callers that
    need it zero use ``zero_ring``.  ``r`` and ``s`` are slices or slabs.
    """
    periodic = grid.bc == "periodic"
    lead = np.ndim(r) - grid.n
    bundle = None
    for axis in range(grid.n):
        dx = grid.dx(axis)
        r1, r2 = _axis_diffs(r, lead + axis, dx, periodic, wrap=False)
        s1, s2 = _axis_diffs(s, lead + axis, dx, periodic, wrap=periodic)
        terms = (r2, s2, r1 * r1, s1 * s1, r1 * s1)
        if bundle is None:
            bundle = terms
        else:
            for acc, term in zip(bundle, terms):
                acc += term
    return bundle


def evolution_rhs(r, s, grid, coeffs):
    """(r_t, s_t) as the nine-coefficient combination of the derivative
    bundle of a slice or a slab, zero on the boundary ring."""
    a1, a2, a3, a4, b1, b2, b3, b4, b5 = coeffs
    lap_r, lap_s, gr2, gs2, grgs = derivative_bundle(r, s, grid)
    rt, st = a1 * lap_r, b1 * lap_r
    for a, b, term in ((a2, b2, lap_s), (a3, b3, gr2), (a4, b4, grgs)):
        rt += a * term
        st += b * term
    st += b5 * gs2
    return zero_ring(grid, rt, st)
