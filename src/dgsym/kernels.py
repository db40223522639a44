"""Finite-difference stencil, derivative bundle and dirichlet boundary ring.

Every right-hand side of the family is a linear combination of five
derivative fields of the log-polar state (r, s):

    lap r,  lap s,  |grad r|^2,  |grad s|^2,  grad r . grad s

``derivative_bundle`` computes them with one centered second-order stencil,
and ``evolution_rhs`` combines them with nine coefficients:

    r_t = a1 lap(r) + a2 lap(s) + a3 |grad r|^2 + a4 grad r . grad s
    s_t = b1 lap(r) + b2 lap(s) + b3 |grad r|^2 + b4 grad r . grad s + b5 |grad s|^2

Phase derivatives on periodic grids use neighbor differences wrapped to the
nearest multiple of 2 pi, so plane waves with nonzero winding differentiate
correctly across the seam.

On dirichlet grids the outermost layer of points along each axis is the
boundary ring: its values are imposed, not evolved, so every right-hand side
is zero there and residuals are taken over the points inside it.
``boundary_ring`` gives the ring as one integer index tuple (``np.nonzero``
of the ring mask, so ``arr[ring]`` is the flat run of ring values) next to
the ``inner`` slices.  A periodic grid has an empty ring index, so
``arr[ring] = 0`` changes nothing there.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * np.pi


def _wrap(d):
    return d - TWO_PI * np.rint(d / TWO_PI)


def _axis_diffs(f, axis, dx, periodic, wrap):
    """Centered first/second derivative via forward/backward differences."""
    if periodic:
        dp = np.roll(f, -1, axis=axis) - f
        dm = f - np.roll(f, 1, axis=axis)
        if wrap:
            dp = _wrap(dp)
            dm = _wrap(dm)
    else:
        dp = np.zeros_like(f)
        dm = np.zeros_like(f)
        sl_all = [slice(None)] * f.ndim

        def sl(a, b):
            s = list(sl_all)
            s[axis] = slice(a, b)
            return tuple(s)

        diff = np.diff(f, axis=axis)
        dp[sl(0, -1)] = diff
        dm[sl(1, None)] = diff
    first = (dp + dm) / (2.0 * dx)
    second = (dp - dm) / (dx * dx)
    return first, second


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
    """Zero each array in place on the boundary ring; return them."""
    ring = boundary_ring(grid)[0]
    for arr in arrays:
        arr[ring] = 0.0
    return arrays


def derivative_bundle(r, s, grid):
    """``(lap r, lap s, |grad r|^2, |grad s|^2, grad r . grad s)``.

    The phase ``s`` is differenced modulo 2 pi on periodic grids.  On
    dirichlet grids the boundary ring holds one-sided values; callers that
    need it zero use ``zero_ring``.
    """
    periodic = grid.bc == "periodic"
    bundle = None
    for axis in range(grid.n):
        dx = grid.dx(axis)
        r1, r2 = _axis_diffs(r, axis, dx, periodic, wrap=False)
        s1, s2 = _axis_diffs(s, axis, dx, periodic, wrap=periodic)
        terms = (r2, s2, r1 * r1, s1 * s1, r1 * s1)
        if bundle is None:
            bundle = terms
        else:
            for acc, term in zip(bundle, terms):
                acc += term
    return bundle


def evolution_rhs(r, s, grid, coeffs):
    """(r_t, s_t) as the nine-coefficient combination of the derivative
    bundle, zero on the boundary ring."""
    a1, a2, a3, a4, b1, b2, b3, b4, b5 = coeffs
    lap_r, lap_s, gr2, gs2, grgs = derivative_bundle(r, s, grid)
    rt = a1 * lap_r + a2 * lap_s + a3 * gr2 + a4 * grgs
    st = b1 * lap_r + b2 * lap_s + b3 * gr2 + b4 * grgs + b5 * gs2
    return zero_ring(grid, rt, st)
