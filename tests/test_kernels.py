"""The derivative stencil against two references of its formulas.

The plain reference differences with ``np.roll`` on periodic grids and with
``np.diff`` into zeroed arrays on dirichlet grids, term by term.  The
two-array reference is the stencil as it was before the state was stacked:
one padded difference per field and axis, and the nine-coefficient
combination written out for r_t and s_t apart.  The library stencil must
reproduce both bit for bit: every trajectory, residual and functional is
built on it, so any change of rounding would show in all of them.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgsym import pde
from dgsym.fields import Grid, LogPolarField, Trajectory, sample_evaluator
from dgsym.kernels import _derivative_bundle, evolution_rhs, padded_layout
from dgsym.params import reference_points
from dgsym.pde import evolve, residual

from tests.conftest import grid_rhs, padded
from test_pde import (_assert_same_trajectory, _per_slice_report, _recording,
                      _reference_evolve, _replaying, _ring_mask, functionals,
                      zero_ring)

TWO_PI = 2.0 * np.pi


def _ref_wrap(d):
    return d - TWO_PI * np.rint(d / TWO_PI)


def _ref_axis_diffs(f, axis, dx, periodic, wrap):
    if periodic:
        dp = np.roll(f, -1, axis=axis) - f
        dm = f - np.roll(f, 1, axis=axis)
        if wrap:
            dp = _ref_wrap(dp)
            dm = _ref_wrap(dm)
    else:
        dp = np.zeros_like(f)
        dm = np.zeros_like(f)
        head = [slice(None)] * f.ndim
        tail = [slice(None)] * f.ndim
        head[axis] = slice(0, -1)
        tail[axis] = slice(1, None)
        diff = np.diff(f, axis=axis)
        dp[tuple(head)] = diff
        dm[tuple(tail)] = diff
    first = (dp + dm) / (2.0 * dx)
    second = (dp - dm) / (dx * dx)
    return first, second


def ref_bundle(r, s, grid):
    periodic = grid.bc == "periodic"
    bundle = None
    for axis in range(grid.n):
        dx = grid.dx(axis)
        r1, r2 = _ref_axis_diffs(r, axis, dx, periodic, wrap=False)
        s1, s2 = _ref_axis_diffs(s, axis, dx, periodic, wrap=periodic)
        terms = (r2, s2, r1 * r1, s1 * s1, r1 * s1)
        if bundle is None:
            bundle = terms
        else:
            for acc, term in zip(bundle, terms):
                acc += term
    return bundle


def _ref_zero_ring(grid, *arrays):
    if grid.bc == "dirichlet":
        for arr in arrays:
            arr[_ring_mask(grid)] = 0.0
    return arrays


def ref_rhs(r, s, grid, coeffs):
    a1, a2, a3, a4, b1, b2, b3, b4, b5 = coeffs
    lap_r, lap_s, gr2, gs2, grgs = ref_bundle(r, s, grid)
    rt = a1 * lap_r + a2 * lap_s + a3 * gr2 + a4 * grgs
    st = b1 * lap_r + b2 * lap_s + b3 * gr2 + b4 * grgs + b5 * gs2
    return _ref_zero_ring(grid, rt, st)


# -- the two-array reference ------------------------------------------------

def _two_array_wrap(d):
    return d - TWO_PI * np.rint(d / TWO_PI)


def _two_array_axis_diffs(f, axis, dx, periodic, wrap):
    ax = (slice(None),) * axis
    lo, hi = f[ax + (slice(None, 1),)], f[ax + (slice(-1, None),)]
    fp = np.concatenate((hi, f, lo) if periodic else (lo, f, hi), axis=axis)
    d = fp[ax + (slice(1, None),)] - fp[ax + (slice(None, -1),)]
    if wrap:
        d = _two_array_wrap(d)
    dm, dp = d[ax + (slice(None, -1),)], d[ax + (slice(1, None),)]
    return (dp + dm) / (2.0 * dx), (dp - dm) / (dx * dx)


def two_array_bundle(r, s, grid):
    periodic = grid.bc == "periodic"
    lead = np.ndim(r) - grid.n
    bundle = None
    for axis in range(grid.n):
        dx = grid.dx(axis)
        r1, r2 = _two_array_axis_diffs(r, lead + axis, dx, periodic, wrap=False)
        s1, s2 = _two_array_axis_diffs(s, lead + axis, dx, periodic, wrap=periodic)
        terms = (r2, s2, r1 * r1, s1 * s1, r1 * s1)
        if bundle is None:
            bundle = terms
        else:
            for acc, term in zip(bundle, terms):
                acc += term
    return bundle


def two_array_rhs(r, s, grid, coeffs):
    a1, a2, a3, a4, b1, b2, b3, b4, b5 = coeffs
    lap_r, lap_s, gr2, gs2, grgs = two_array_bundle(r, s, grid)
    rt, st = a1 * lap_r, b1 * lap_r
    for a, b, term in ((a2, b2, lap_s), (a3, b3, gr2), (a4, b4, grgs)):
        rt += a * term
        st += b * term
    st += b5 * gs2
    return zero_ring(grid, rt), zero_ring(grid, st)


GRIDS = [
    Grid.make(n=1, npts=37, bc="periodic"),
    Grid(n=2, npts=19, bounds=((-4.0, 4.0), (-1.5, 2.5)), bc="periodic"),
    Grid.make(n=1, npts=37),
    Grid(n=2, npts=19, bounds=((-4.0, 4.0), (-1.5, 2.5))),
]
GRID_IDS = ["1d-periodic", "2d-periodic", "1d-dirichlet", "2d-dirichlet"]


def _random_fields(grid, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=grid.shape), rng.normal(scale=3.0, size=grid.shape)


def _winding_fields(grid, seed):
    """A phase that winds across the periodic seam, plus noise."""
    rng = np.random.default_rng(seed)
    xs = grid.coords()
    winding = sum(2 * np.pi * (j + 1) / (b - a) * x
                  for j, (x, (a, b)) in enumerate(zip(xs, grid.bounds)))
    return (0.3 * rng.normal(size=grid.shape),
            winding + 0.1 * rng.normal(size=grid.shape) + 5.0)


def _near_pi_fields(grid, seed):
    """Neighbour phase steps within a few ulps of +-pi along every axis,
    where the 2 pi wrap rounds half way."""
    rng = np.random.default_rng(seed)
    s = 0.0
    for x in np.meshgrid(*[np.arange(grid.npts)] * grid.n, indexing="ij"):
        steps = np.pi * rng.choice([-1.0, 1.0], size=grid.npts) \
            * (1.0 + rng.integers(-4, 5, size=grid.npts) * np.finfo(float).eps)
        s = s + np.cumsum(steps)[x]
    return rng.normal(size=grid.shape), s


FIELDS = [_random_fields, _winding_fields, _near_pi_fields]
FIELD_IDS = ["random", "winding", "near-pi"]


@pytest.mark.parametrize("make", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_bundle_rhs_and_functionals_match_reference(grid, make):
    for seed in range(3):
        r, s = make(grid, seed)
        u = np.stack((r, s))
        for got, want in zip(_derivative_bundle(padded(u, grid), grid),
                             ref_bundle(r, s, grid)):
            assert np.array_equal(got, want)
        coeffs = tuple(np.random.default_rng(seed + 10).normal(size=9))
        got = grid_rhs(u, grid, coeffs)
        assert got.shape == u.shape
        for half, want in zip(got, ref_rhs(r, s, grid, coeffs)):
            assert np.array_equal(half, want)
        for got, want in zip(functionals(r, s, grid), functionals(r, s, grid, ref_bundle)):
            assert np.array_equal(got, want)


def test_bundle_does_not_modify_its_inputs():
    """The bundle and the stencil fill the ghost layer of their padded input
    and leave its grid as it was."""
    grid = GRIDS[1]
    u = np.stack(_winding_fields(grid, 0))
    w = padded(u, grid)
    inner = padded_layout(grid)[2]
    _derivative_bundle(w, grid)
    assert np.array_equal(w[inner], u)
    evolution_rhs(w, grid, tuple(range(9)))
    assert np.array_equal(w[inner], u)


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_rhs_keeps_the_sign_of_zero_coefficients(grid):
    """Two coefficient sets equal as values, differing only in the sign of
    their zeros, give s_t of different zero signs on a constant field.  Each
    call, in either order, matches the two-array reference bit for bit."""
    r, s = np.full(grid.shape, 0.3), np.full(grid.shape, -1.2)
    u = np.stack((r, s))
    minus = (0, 1, 0, 2, -1, -0.0, -1, -0.0, -1)
    plus = (0, 1, 0, 2, -1, 0.0, -1, 0.0, -1)
    for order in ((minus, plus), (plus, minus)):
        for coeffs in order:
            got = grid_rhs(u, grid, coeffs)
            for half, want in zip(got, two_array_rhs(r, s, grid, coeffs)):
                assert np.array_equal(half.view(np.uint64), want.view(np.uint64))
    inner = (slice(1, -1),) * grid.n if grid.bc == "dirichlet" else ()
    signs = [np.signbit(grid_rhs(u, grid, c)[1][inner]) for c in (minus, plus)]
    assert signs[0].all() and not signs[1].any()


def _raised(call):
    """Whether ``call()`` raises FloatingPointError under errstate(all="raise")."""
    with np.errstate(all="raise"):
        try:
            call()
        except FloatingPointError:
            return True
    return False


@pytest.mark.parametrize("lead", [(), (3,)], ids=["one-slice", "slab-of-3"])
@pytest.mark.parametrize("make", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_padded_state_gives_the_grid_result(grid, make, lead):
    """On a padded state whose ghosts hold NaN evolution_rhs equals the call
    on zero ghosts bit for bit, with its ghost layer zero.  It fills the
    state's ghost layer in place by the boundary rule, corners along both
    axes, and leaves the state's grid untouched."""
    pairs = [make(grid, seed) for seed in range(math.prod(lead))]
    r, s = (np.reshape([pair[j] for pair in pairs], lead + grid.shape) for j in (0, 1))
    u = np.stack((r, s))
    coeffs = tuple(np.random.default_rng(11).normal(size=9))
    want = grid_rhs(u, grid, coeffs)
    w = padded(u, grid, np.nan)
    got = evolution_rhs(w, grid, coeffs)
    _, _, inner = padded_layout(grid)
    assert got.shape == w.shape
    assert np.array_equal(got[inner].view(np.uint64), want.view(np.uint64))
    ghost = np.ones(got.shape, dtype=bool)
    ghost[inner] = False
    assert not got[ghost].view(np.uint64).any()  # +0.0 everywhere
    rule = "wrap" if grid.bc == "periodic" else "edge"
    width = ((0, 0),) * (u.ndim - grid.n) + ((1, 1),) * grid.n
    assert np.array_equal(w.view(np.uint64), np.pad(u, width, mode=rule).view(np.uint64))


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_rhs_refuses_a_state_of_another_shape(grid):
    m = grid.npts
    bad = [(2,) + (m + 1,) * grid.n, (2,) + (m + 3,) * grid.n, (3,) + grid.shape,
           grid.shape]
    if grid.n == 2:
        bad += [(2, m + 2, m), (2, m, m + 2)]
    for shape in bad:
        with pytest.raises(ValueError, match="padded_layout"):
            evolution_rhs(np.zeros(shape), grid, tuple(range(9)))


@pytest.mark.parametrize("lead", [(), (3,)], ids=["one-slice", "slab-of-3"])
@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_rhs_refuses_the_grid_layout(grid, lead):
    """The padded layout is the one layout the stencil takes: a grid-layout
    state is refused with a message that names ``padded_layout``."""
    u = np.stack([np.zeros(lead + grid.shape)] * 2)
    with pytest.raises(ValueError, match="padded_layout"):
        evolution_rhs(u, grid, tuple(range(9)))


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_rhs_on_a_slab_view_fills_only_its_ghosts(grid):
    """On a padded slab view ``w[:, a:b]`` of a larger stack the call fills
    that slab's ghosts by the boundary rule and gives the slab's result; every
    other slice, NaN ghosts included, and the stack's grid stay bit for bit
    as they were."""
    pairs = [_winding_fields(grid, seed) for seed in range(6)]
    u = np.stack([np.array([pair[j] for pair in pairs]) for j in (0, 1)])
    coeffs = tuple(np.random.default_rng(12).normal(size=9))
    w = padded(u, grid, np.nan)
    before = w.copy()
    got = evolution_rhs(w[:, 2:4], grid, coeffs)
    _, _, inner = padded_layout(grid)
    assert np.array_equal(got[inner].view(np.uint64),
                          grid_rhs(u[:, 2:4], grid, coeffs).view(np.uint64))
    bits, was = w.view(np.uint64), before.view(np.uint64)
    assert np.array_equal(bits[:, :2], was[:, :2])
    assert np.array_equal(bits[:, 4:], was[:, 4:])
    assert np.array_equal(bits[inner], was[inner])
    rule = "wrap" if grid.bc == "periodic" else "edge"
    width = ((0, 0), (0, 0)) + ((1, 1),) * grid.n
    assert np.array_equal(w[:, 2:4], np.pad(u[:, 2:4], width, mode=rule))


def _steep(grid, scale):
    """A phase rising by ``scale`` per point along the last axis."""
    r = 0.1 * np.random.default_rng(5).normal(size=grid.shape)
    return r, scale * np.broadcast_to(np.arange(grid.npts, dtype=float), grid.shape)


def _alternating(grid, scale):
    """A log-amplitude of alternating sign along the last axis: every centered
    first difference inside the grid is 0, but a one-sided one across the
    periodic seam is 2 ``scale``."""
    r = scale * np.broadcast_to((-1.0) ** np.arange(grid.npts), grid.shape)
    return np.array(r), 0.1 * np.random.default_rng(6).normal(size=grid.shape)


GRIDS_2D = [g for g in GRIDS if g.n == 2] + [
    Grid(n=2, npts=20, bounds=((-4.0, 4.0), (-1.5, 2.5)), bc="periodic")]


@pytest.mark.parametrize("scale", [1e150, 1e152, 3e152, 1e153, 1e154],
                         ids=lambda v: f"{v:g}")
@pytest.mark.parametrize("make", [_steep, _alternating], ids=["steep", "alternating"])
@pytest.mark.parametrize("grid", GRIDS_2D, ids=["2d-periodic", "2d-dirichlet", "2d-periodic-even"])
def test_ghost_lanes_raise_no_floating_point_error(grid, make, scale):
    """The flat range of a 2-D padded state also covers the ghost columns;
    under errstate(all="raise") both layouts raise exactly when the
    two-array reference does, so no error comes from a ghost lane."""
    r, s = make(grid, scale)
    coeffs = (1.0, -0.5, 0.25, 0.5, 0.75, 1.0, -0.5, 0.25, 1.5)
    want = _raised(lambda: two_array_rhs(r, s, grid, coeffs))
    u = np.stack((r, s))
    assert _raised(lambda: grid_rhs(u, grid, coeffs)) == want
    assert _raised(lambda: evolution_rhs(padded(u, grid, np.nan), grid, coeffs)) == want


# Well-posed points, so that a few RK4 steps from the smooth winding fields
# stay far below the blow-up bound.
EVOLVE_KEYS = ["sym1c", "linear-se", "galsub"]


class HeldRing:
    """Ring values that drift linearly in time from those of the initial field."""

    def __init__(self, f0):
        mask = _ring_mask(f0.grid)
        self.r, self.s = f0.r[mask], f0.s[mask]

    def rs(self, xs, t):
        return self.r + 0.5 * t, self.s - 0.25 * t


@settings(max_examples=60, deadline=None)
@given(grid=st.sampled_from(GRIDS), make=st.sampled_from(FIELDS),
       seed=st.integers(0, 2 ** 16), slices=st.integers(1, 6),
       slab=st.integers(1, 6), key=st.sampled_from(EVOLVE_KEYS),
       steps=st.integers(1, 5), save_every=st.integers(1, 3))
def test_stacked_kernel_matches_two_array_reference(grid, make, seed, slices, slab,
                                                    key, steps, save_every):
    """evolution_rhs, functionals, evolve and residual on the stacked state
    equal the two-array reference bit for bit: on 1-D and 2-D grids, both
    boundary conditions, phases that wind across the periodic seam, and
    slabs of 1..6 slices."""
    rng = np.random.default_rng(seed)
    r, s = (np.array(f) for f in zip(*(make(grid, seed + j) for j in range(slices + 2))))
    coeffs = tuple(rng.normal(size=9))
    got = grid_rhs(np.stack((r[:slices], s[:slices])), grid, coeffs)
    for half, want in zip(got, two_array_rhs(r[:slices], s[:slices], grid, coeffs)):
        assert np.array_equal(half, want)

    for got, want in zip(functionals(r[0], s[0], grid),
                         functionals(r[0], s[0], grid, two_array_bundle)):
        assert np.array_equal(got, want)

    # residual, with the stencil called on slabs of `slab` time slices
    p = reference_points(grid.n)[key]
    times = np.cumsum(rng.uniform(0.01, 0.02, slices + 2))
    traj = Trajectory(grid, times, r, s)
    with mock.patch.object(pde, "_SLAB_POINTS", slab * np.prod(grid.shape)):
        got = residual(p, traj)
    coeffs = p.system_floats
    assert got == _per_slice_report(lambda f: two_array_rhs(f.r, f.s, grid, coeffs), traj)

    # evolve from a smooth winding field, pinned on dirichlet grids
    f0 = LogPolarField(grid, 0.25, *_winding_fields(grid, seed))
    bc, calls = _recording(HeldRing(f0)) if grid.bc == "dirichlet" else (None, [])
    dt = 0.2 * min(grid.spacings) ** 2
    traj = evolve(p, f0, steps, bc_values=bc, save_every=save_every)
    _assert_same_trajectory(traj, _reference_evolve(
        p, f0, steps, dt, bc and _replaying(calls, grid), save_every,
        rhs=two_array_rhs))


@pytest.mark.parametrize("grid", GRIDS[2:], ids=GRID_IDS[2:])
def test_dirichlet_ring_keeps_one_sided_values(grid):
    """On the ring the outward difference is exactly 0: a point on the low
    edge of axis 0 sees only its forward difference."""
    r, s = _random_fields(grid, 3)
    lap_r, lap_s, gr2, gs2, grgs = _derivative_bundle(padded(np.stack((r, s)), grid), grid)
    dx = grid.dx(0)
    if grid.n == 1:
        dp, dm = r[1] - r[0], r[-1] - r[-2]
        assert lap_r[0] == dp / (dx * dx)
        assert lap_r[-1] == -dm / (dx * dx)
        assert gr2[0] == (dp / (2.0 * dx)) ** 2
        sp = s[1] - s[0]
        assert grgs[0] == (dp / (2.0 * dx)) * (sp / (2.0 * dx))
        assert gs2[-1] == ((s[-1] - s[-2]) / (2.0 * dx)) ** 2
    else:
        # the corner (0, 0): forward differences along both axes
        dy = grid.dx(1)
        px, py = r[1, 0] - r[0, 0], r[0, 1] - r[0, 0]
        assert lap_r[0, 0] == px / (dx * dx) + py / (dy * dy)
        assert gr2[0, 0] == (px / (2.0 * dx)) ** 2 + (py / (2.0 * dy)) ** 2
        qx, qy = s[-1, 0] - s[-2, 0], s[-1, 1] - s[-1, 0]
        assert lap_s[-1, 0] == -qx / (dx * dx) + qy / (dy * dy)


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_heat_residual_matches_reference_laplacian(grid):
    """heat_residual takes its Laplacian from the stencil's second
    derivatives, equal to the lap r of a bundle with a zero phase."""
    from dgsym.kernels import boundary_ring
    from dgsym.pde import _time_derivative, heat_solution
    from tests.conftest import heat_residual

    sol = heat_solution(0.7, "forward", n=grid.n, offset=0.3)
    times = np.array([0.0, 0.04, 0.1, 0.13, 0.2])
    vals = [sol.value(grid.coords(), t) for t in times]
    inner = boundary_ring(grid)[1]
    res = []
    for k in range(1, len(times) - 1):
        h1, h2 = times[k] - times[k - 1], times[k + 1] - times[k]
        phi_t = _time_derivative(vals[k - 1], vals[k], vals[k + 1], h1, h2)
        lap = ref_bundle(vals[k], np.zeros_like(vals[k]), grid)[0]
        res.append((phi_t + sol.D * lap)[inner])  # a forward kernel
    assert heat_residual(sol, grid, times) == np.sqrt(np.mean(np.square(res)))


def test_evolve_matches_reference_stencil_1d_periodic(pts):
    p = pts["sym1c"]
    grid = Grid.make(n=1, npts=64, extent=(-4, 4), bc="periodic")
    x = grid.coords()[0]
    # two windings of the phase across the seam
    f0 = LogPolarField(grid, 0.0, 0.2 * np.cos(np.pi * x / 4),
                       np.pi * x / 2 + 0.1 * np.sin(np.pi * x / 4))
    dt = 0.2 * grid.dx() ** 2
    traj = evolve(p, f0, 12, save_every=4)
    _assert_same_trajectory(traj, _reference_evolve(
        p, f0, 12, dt, None, save_every=4, rhs=ref_rhs))


def test_evolve_matches_reference_stencil_2d_dirichlet():
    from test_pde import _gauged_packet_sum

    p, sol = _gauged_packet_sum(2)
    grid = Grid(n=2, npts=17, bounds=((-4.0, 4.0), (-3.0, 3.0)))
    f0 = sample_evaluator(sol, grid, 0.0)
    dt = 0.2 * min(grid.spacings) ** 2
    bc, calls = _recording(sol)
    traj = evolve(p, f0, 8, bc_values=bc, save_every=3)
    _assert_same_trajectory(traj, _reference_evolve(
        p, f0, 8, dt, _replaying(calls, grid), save_every=3, rhs=ref_rhs))


def test_evolve_matches_reference_stencil_2d_periodic():
    p = reference_points(2)["sym1c"]
    grid = Grid(n=2, npts=24, bounds=((-4.0, 4.0), (-1.5, 2.5)), bc="periodic")
    x, y = grid.coords()
    # the phase winds twice across the seam of axis 0 and once across that
    # of axis 1
    f0 = LogPolarField(grid, 0.0, 0.2 * np.cos(np.pi * x / 4) * np.cos(np.pi * y / 2),
                       np.pi * x / 2 + np.pi * y / 2 + 0.1 * np.sin(np.pi * x / 4))
    dt = 0.2 * min(grid.spacings) ** 2
    traj = evolve(p, f0, 12, save_every=4)
    _assert_same_trajectory(traj, _reference_evolve(
        p, f0, 12, dt, None, save_every=4, rhs=ref_rhs))


@pytest.mark.parametrize("grid", [Grid.make(n=1, npts=33, bc="periodic"),
                                  Grid.make(n=2, npts=17)], ids=["1d-periodic", "2d-dirichlet"])
def test_evolve_keeps_its_buffers_to_itself(grid, monkeypatch):
    """evolve leaves field0 as it was; no saved slice shares memory with
    another or with a buffer evolve stepped in, and a second run from the
    same field0 gives the same trajectory."""
    p = reference_points(grid.n)["sym1c"]
    f0 = LogPolarField(grid, 0.1, *_winding_fields(grid, 4))
    r0, s0 = f0.r.copy(), f0.s.copy()
    bc = HeldRing(f0).rs if grid.bc == "dirichlet" else None
    live = []

    def spy(u, *rest):
        k = evolution_rhs(u, *rest)
        live.extend((u, k))
        return k

    monkeypatch.setattr(pde, "evolution_rhs", spy)
    traj = evolve(p, f0, 5, bc_values=bc, save_every=2)
    monkeypatch.undo()
    assert np.array_equal(f0.r, r0) and np.array_equal(f0.s, s0)
    saved = [a for fld in traj.fields for a in (fld.r, fld.s)]
    for i, a in enumerate(saved):
        assert not any(np.shares_memory(a, b) for b in saved[i + 1:])
        assert not any(np.shares_memory(a, b) for b in live + [f0.r, f0.s])
    _assert_same_trajectory(evolve(p, f0, 5, bc_values=bc, save_every=2),
                            [(fld.t, fld.r, fld.s) for fld in traj.fields])
