"""Finite-difference stencil, derivative bundle and dirichlet boundary ring.

The state is one float64 array ``u``: ``u[0]`` is the log-amplitude r and
``u[1]`` the phase s of psi = exp(r + i s).  Every right-hand side of the
family is a linear combination of five derivative fields of that state:

    lap r,  lap s,  |grad r|^2,  |grad s|^2,  grad r . grad s

``evolution_rhs`` computes them with one centered second-order stencil and
combines them with nine coefficients:

    r_t = a1 lap(r) + a2 lap(s) + a3 |grad r|^2 + a4 grad r . grad s
    s_t = b1 lap(r) + b2 lap(s) + b3 |grad r|^2 + b4 grad r . grad s + b5 |grad s|^2

Layout.  The stencil takes the state ghost-padded: ``(2, *lead, *(m + 2
for m in grid.shape))``, the grid plus one ghost cell at each end of every
axis (``padded_layout``).  Its result comes in the same layout, with its
ghost layer zero.  ``pde.evolve`` keeps its state padded for the whole run,
and ``pde.residual`` copies a trajectory once into a padded stack.

Ghost rule.  ``fill_ghosts`` fills the ghost layer in place, one axis after
the other over the whole extent of the others, so a corner gets the rule
along both axes.  On periodic grids a ghost holds the wrapped neighbour; on
dirichlet grids it copies the edge value, so the outward difference there is
f - f = 0 exactly and the ring holds one-sided values.  ``evolution_rhs``
fills the ghosts of the padded state it runs on.

Flat plan.  On the padded grid flattened, every difference is a contiguous
shift: stride 1 along the last axis and ``npts + 2`` along the first.  The
body runs each pass on the flat range from the first interior point to the
last: ``d``, the range's difference with its shift by one stride, holds the
backward and forward differences as two offset views, for both halves of
the state in one array operation.  On periodic grids the phase half of ``d``
is wrapped to the nearest multiple of 2 pi, so plane waves with nonzero
winding differentiate correctly across the seam.  In 1-D the flat range is
exactly the interior.  In 2-D it also crosses the ghost columns between
rows, and their lanes are zeroed in the result.  The seams of the last-axis
difference, from a row's high ghost to the next row's low ghost, are zeroed
before use, so every lane works only on differences of neighbours.  The
last-axis first derivative is zeroed on the ghost lanes before it is
squared: there it is one-sided, and its square can overflow where no
interior point's does (r = ±1e154 alternating along a periodic axis of even
length).  ``_flat_plan``, cached per grid, holds the padded shape, the ghost
rule's index tuples for ``fill_ghosts``, the flat range, each axis's
stride, ``2 dx`` and ``dx²``, the seams and ghost lanes, the lanes that zero
a result's ring and ghost columns, and the dirichlet ring's indices in the
padded layout.

The combination runs on ``(2, 1, ...)`` columns of the coefficients, so r_t
and s_t come out as one stacked array.  r_t is copied into the flat range
of the padded result and the last sum of s_t is written straight into it,
one half at a time.  Each element sees the operations, in the order, of a
separate r and s pass.

On dirichlet grids the outermost layer of points along each axis is the
boundary ring: its values are imposed, not evolved, so every right-hand side
is zero there and residuals are taken over the points inside it.
``boundary_ring`` gives the ring as one integer index tuple (``np.nonzero``
of the ring mask, so ``arr[ring]`` is the flat run of ring values) next to
the ``inner`` slices; on a periodic grid the ring is empty.

The ``lead`` axes of ``u`` are empty for one slice and ``(k,)`` for a slab
of k time slices; every operation is elementwise along them, so a slab gives
each slice bit for bit what a call on that slice alone gives.

A call computes only array operations; what does not depend on the state is
built once and cached.  ``_columns``, keyed on the rank and the bit pattern
of the first eight coefficients packed as doubles, holds their read-only
columns: -0.0 and +0.0 are different keys, since ``evolution_rhs`` is public
and takes either sign of zero from its caller, and a product with either
keeps its sign.
"""

from __future__ import annotations

import math
import struct
from functools import lru_cache
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * np.pi


class _Plan(NamedTuple):
    shape: tuple     # the padded grid shape
    periodic: bool
    fill: tuple      # per axis: index tuples of the two ghosts and their cells
    lo: int          # flat index of the first interior point
    hi: int          # one past the flat index of the last
    axes: tuple      # per axis: stride, 2 dx, dx², seams and ghost lanes
    lanes: tuple     # per axis: the stride of the grid in the flat range
    zero: tuple      # index tuples of a result's ring and in-range ghost lanes
    ring: tuple      # the dirichlet ring's index tuple in the padded layout
    inner: tuple     # the index tuple of the grid in the padded layout


@lru_cache(maxsize=32)
def _flat_plan(grid):
    """The padded layout of ``grid``, its ghost rule, and the flat range the
    stencil runs on.  Index tuples count the grid axes from the end of the
    state, so that any lead axes pass through."""
    periodic = grid.bc == "periodic"
    shape = tuple(m + 2 for m in grid.shape)
    width = shape[-1]
    lanes = tuple(math.prod(shape[axis + 1:]) for axis in range(grid.n))
    lo = sum(lanes)
    hi = lo + sum((m - 1) * s for m, s in zip(grid.shape, lanes)) + 1
    # the cells the low and high ghosts copy, as one strided slice of the
    # padded layout: cells m, 1 (periodic) or 1, m
    cells = (slice(grid.npts, 0, 1 - grid.npts) if periodic
             else slice(1, None, grid.npts - 1))
    fill, axes, zero = [], [], []
    for axis, stride in enumerate(lanes):
        rest = (slice(None),) * (grid.n - 1 - axis)

        def at(i):
            return (Ellipsis, i) + rest

        fill.append((at(slice(0, None, grid.npts + 1)), at(cells)))
        seams = ghosts = ()
        if stride == 1 and grid.n == 2:
            # lane j of the range is flat index lo + j and entry j of the
            # last-axis difference starts at lo - 1 + j, lo = width + 1: the
            # seams are j = -1 and the ghost lanes j = -2, -1 (mod width)
            seams = (slice(width - 1, None, width),)
            ghosts = (slice(width - 2, None, width), slice(width - 1, None, width))
            zero.append(at(slice(0, None, width - 1)))
        axes.append((stride, 2.0 * grid.dx(axis), grid.dx(axis) ** 2, seams, ghosts))
        if not periodic:
            zero.append(at(slice(1, None, grid.npts - 1)))
    ring = tuple(idx + 1 for idx in boundary_ring(grid)[0])
    for idx in ring:
        idx.setflags(write=False)
    inner = (Ellipsis,) + (slice(1, -1),) * grid.n
    return _Plan(shape, periodic, tuple(fill), lo, hi,
                 tuple(axes), lanes, tuple(zero), ring, inner)


def padded_layout(grid):
    """``(shape, ring, inner)`` of the ghost-padded layout of ``grid``: the
    padded grid shape, the dirichlet ring as an index tuple into it (empty
    on a periodic grid) and the index tuple of the grid inside it."""
    plan = _flat_plan(grid)
    return plan.shape, plan.ring, plan.inner


def fill_ghosts(u, grid):
    """Fill the ghost layer of the padded state ``u`` in place by the
    boundary rule of ``grid`` (see the module docstring); return ``u``."""
    for ghost, cell in _flat_plan(grid).fill:
        u[ghost] = u[cell]
    return u


def _flat(u, plan):
    """``u`` with its trailing grid axes flattened, a view of a padded state."""
    return u if len(plan.lanes) == 1 else u.reshape(u.shape[:-2] + (-1,))


def _grid_view(a, plan):
    """The grid points of ``a``, an array over the flat range, as a view in
    the grid layout."""
    if len(plan.lanes) == 1:
        return a
    return np.lib.stride_tricks.as_strided(
        a, a.shape[:-1] + tuple(m - 2 for m in plan.shape),
        a.strides[:-1] + tuple(s * a.itemsize for s in plan.lanes))


def _flat_bundle(flat, plan):
    """``(lap r, lap s, |grad r|^2, |grad s|^2, grad r . grad s)`` over the
    flat range of the padded state ``flat``, its grid axes flattened; the
    first four are views into two stacked arrays."""
    lo, hi = plan.lo, plan.hi
    for axis, (stride, two_dx, dx2, seams, ghosts) in enumerate(plan.axes):
        d = flat[..., lo:hi + stride] - flat[..., lo - stride:hi]
        for lanes in seams:
            d[..., lanes] = 0.0
        if plan.periodic:
            turns = d[1] / TWO_PI
            np.rint(turns, out=turns)
            turns *= TWO_PI
            d[1] -= turns
        dm, dp = d[..., :-stride], d[..., stride:]
        d1 = dp + dm
        d1 /= two_dx
        d2 = dp - dm
        d2 /= dx2
        for lanes in ghosts:
            d1[..., lanes] = 0.0
        if axis == 0:
            lap, cross = d2, d1[0] * d1[1]
            sq = np.multiply(d1, d1, out=d1)
        else:
            lap += d2
            cross += d1[0] * d1[1]
            sq += np.multiply(d1, d1, out=d1)
    return lap[0], lap[1], sq[0], sq[1], cross


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


def _derivative_bundle(u, grid):
    """``(lap r, lap s, |grad r|^2, |grad s|^2, grad r . grad s)`` of the
    padded state ``u``, its ghost layer filled in place, each a grid-layout
    view of the flat body's arrays, for the reference tests that pin the
    terms one by one.

    The phase is differenced modulo 2 pi on periodic grids.  On dirichlet
    grids the boundary ring holds one-sided values.
    """
    plan = _flat_plan(grid)
    terms = _flat_bundle(_flat(fill_ghosts(u, grid), plan), plan)
    return tuple(_grid_view(a, plan) for a in terms)


def _combine(terms, coeffs, out):
    """The stacked nine-coefficient combination of the five bundle
    ``terms`` over the flat range, summed in a new array and written into
    ``out``, which is returned."""
    lap_r, lap_s, sq_r, sq_s, cross = terms
    cols = _columns(struct.pack("8d", *coeffs[:8]), out.ndim)
    rhs = cols[0] * lap_r
    term = cols[1] * lap_s
    rhs += term
    rhs += np.multiply(cols[2], sq_r, term)
    rhs += np.multiply(cols[3], cross, term)
    out[0] = rhs[0]
    np.add(rhs[1], np.multiply(coeffs[8], sq_s, term[1]), out[1])
    return out


def evolution_rhs(u, grid, coeffs):
    """Stacked ``(r_t, s_t)``: the nine-coefficient combination of the
    derivative bundle of the stacked padded state ``u``, zero on the
    boundary ring.

    ``u`` has the shape ``(2, *lead, *padded)`` of ``padded_layout``; any
    other shape, the grid layout included, raises ``ValueError``.  Its ghost
    layer is filled in place by ``fill_ghosts`` and its grid left untouched.
    The result is a new padded array, its ghost layer zero.
    """
    plan = _flat_plan(grid)
    shape = u.shape
    if shape[-grid.n:] != plan.shape or len(shape) <= grid.n or shape[0] != 2:
        raise ValueError(f"a state of shape {shape} is not in the padded layout "
                         f"(2, ..., *{plan.shape}) of padded_layout(grid)")
    terms = _flat_bundle(_flat(fill_ghosts(u, grid), plan), plan)
    out = np.zeros(shape)
    _combine(terms, coeffs, _flat(out, plan)[..., plan.lo:plan.hi])
    for lanes in plan.zero:
        out[lanes] = 0.0
    return out
