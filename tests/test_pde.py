import dataclasses
import functools
import json
import os
import re
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgsym import pde
from dgsym.fields import (Grid, LogPolarField, Trajectory, read_trajectory,
                          sample_evaluator, sample_trajectory, write_trajectory)
from dgsym.kernels import _derivative_bundle, boundary_ring, evolution_rhs
from dgsym.params import PARAM_NAMES, DGParams, reference_points, stability_report
from dgsym.pde import (EvolutionBlowup, ResidualReport, SEPacketSum,
                       check_saved_times, convergence, courant, default_dt, evolve,
                       heat_solution,
                       plane_wave_solution,
                       residual, se_gaussian, se_residual)
from tests.conftest import Junk, grid_rhs, heat_residual, padded, stack_fields


def interior(arr):
    return arr[1:-1]


# ---------------------------------------------------------------------------
# grids and fields

def test_grid_validation():
    with pytest.raises(ValueError):
        Grid.make(npts=8)
    with pytest.raises(ValueError):
        Grid.make(bc="weird")
    with pytest.raises(ValueError):
        Grid(n=3, npts=32, bounds=((0, 1),) * 3)
    g = Grid.make(npts=64, extent=(-2.0, 2.0), bc="periodic")
    assert g.dx() == pytest.approx(4.0 / 64)
    assert Grid.make(npts=64).dx() == pytest.approx(8.0 / 63)


def test_grid_refuses_coordinates_whose_square_overflows():
    """Each bound squares to a finite float on both grids, but on the 2-D
    one |x|² = x² + y² overflows at the corners, so that grid is refused."""
    extent = (-1.2e154, 1.2e154)
    assert Grid.make(n=1, npts=16, extent=extent).bounds == (extent,)
    with pytest.raises(ValueError, match="summed over the axes overflows"):
        Grid.make(n=2, npts=16, extent=extent)
    with pytest.raises(ValueError, match="b > a"):
        Grid.make(n=1, npts=16, extent=(0.0, float("nan")))


def test_field_validation():
    g = Grid.make(npts=32, extent=(-1, 1))
    x = g.coords()[0]
    with pytest.raises(ValueError):
        LogPolarField(g, 0.0, np.full(32, np.inf), np.zeros(32)).validate()
    jumpy = np.zeros(32)
    jumpy[16:] = 4.0
    with pytest.raises(ValueError):
        LogPolarField(g, 0.0, np.zeros(32), jumpy).validate()
    LogPolarField(g, 0.0, -x ** 2, 0.1 * x).validate()


def test_trajectory_round_trip(tmp_path):
    g = Grid.make(npts=32, extent=(-1, 1))
    x = g.coords()[0]
    traj = stack_fields(
        g, [LogPolarField(g, 0.1 * k, -x ** 2 + 0.01 * k, 0.2 * x) for k in range(3)])
    write_trajectory(traj, tmp_path / "run", params_json={"n": 1}, dt=0.1)
    back = read_trajectory(tmp_path / "run")
    assert len(back) == 3
    np.testing.assert_allclose(back.times, traj.times, atol=1e-12)
    np.testing.assert_allclose(back[2].r, traj[2].r, atol=1e-12)


def _wavy_trajectory(g, count=5):
    xs = g.coords()
    q = sum(x ** 2 for x in xs)
    return stack_fields(g, [LogPolarField(g, 0.1 * k / 3, -q / 7 + 0.01 * k,
                                          np.sin(xs[0]) / 3 + 0.2 * k)
                            for k in range(count)])


@pytest.mark.parametrize("grid", [
    Grid.make(n=1, npts=32, extent=(-1, 1), bc="periodic"),
    Grid.make(n=2, npts=20, extent=(-2, 2), bc="dirichlet"),
])
def test_trajectory_npy_round_trip_bit_exact(tmp_path, grid):
    traj = _wavy_trajectory(grid)
    write_trajectory(traj, tmp_path / "run", dt=1 / 3)
    assert sorted(os.listdir(tmp_path / "run")) == ["manifest.json", "r.npy", "s.npy"]
    assert np.load(tmp_path / "run" / "r.npy").shape == (5,) + grid.shape
    back = read_trajectory(tmp_path / "run")
    assert back.grid == grid and len(back) == len(traj)
    for a, b in zip(traj.fields, back.fields):
        assert a.t == b.t
        assert np.array_equal(a.r, b.r) and np.array_equal(a.s, b.s)


def test_trajectory_refuses_stacks_that_disagree():
    g = Grid.make(npts=16, extent=(-1, 1))
    stack, times = np.zeros((3, 16)), [0.0, 0.1, 0.2]
    traj = Trajectory(g, times, stack, stack + 1.0)
    assert len(traj) == 3 and traj.r.dtype == np.float64
    assert np.shares_memory(traj[1].s, traj.s) and traj[-1].t == 0.2
    bad = [((2,), (3, 16), (3, 16), g),          # one time stamp short
           ((3,), (3, 16), (3, 17), g),          # s off the grid
           ((3,), (3, 16), (3, 16), Grid.make(n=2, npts=16, extent=(-1, 1))),
           ((1, 3), (3, 16), (3, 16), g)]        # times not one-dimensional
    for t_shape, r_shape, s_shape, grid in bad:
        with pytest.raises(ValueError, match=re.escape(
                f"got {t_shape}, {r_shape}, {s_shape} on a grid of shape {grid.shape}")):
            Trajectory(grid, np.zeros(t_shape), np.zeros(r_shape), np.zeros(s_shape))


def test_trajectory_rejects_stack_times_mismatch(tmp_path):
    g = Grid.make(npts=16, extent=(-1, 1))
    write_trajectory(_wavy_trajectory(g, count=4), tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["times"].append(1.0)
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="r.npy"):
        read_trajectory(tmp_path)


# ---------------------------------------------------------------------------
# functionals

def zero_ring(grid, arr):
    """Zero ``arr`` (any leading axes, then the grid's) in place on the
    boundary ring that ``boundary_ring`` indexes; return it."""
    arr[(Ellipsis,) + boundary_ring(grid)[0]] = 0.0
    return arr


def functionals(r, s, grid, bundle=None):
    """(R1, ..., R5) of Doebner and Goldin from a derivative bundle
    ``bundle(r, s, grid)``, the stencil's by default, zero on the boundary
    ring as every right-hand side is."""
    lap_r, lap_s, gr2, gs2, grgs = (
        bundle(r, s, grid) if bundle
        else _derivative_bundle(padded(np.stack((r, s)), grid), grid))
    return tuple(zero_ring(grid, R) for R in (
        lap_s + 2.0 * grgs, 2.0 * lap_r + 4.0 * gr2, gs2, 2.0 * grgs, 4.0 * gr2))


def test_functionals_constant_field():
    g = Grid.make(npts=32, extent=(-1, 1), bc="periodic")
    F = functionals(np.full(32, 0.7), np.full(32, -0.2), g)
    for arr in F:
        assert np.max(np.abs(arr)) == 0.0


def test_functionals_plane_wave_periodic_winding():
    g = Grid.make(npts=64, extent=(0, 2 * np.pi), bc="periodic")
    x = g.coords()[0]
    k = 3.0
    R1, R2, R3, R4, R5 = functionals(np.zeros_like(x), k * x, g)
    np.testing.assert_allclose(R3, k * k, atol=1e-10)
    for arr in (R1, R2, R4, R5):
        assert np.max(np.abs(arr)) < 1e-10


def test_functionals_gaussian_profile():
    g = Grid.make(npts=64, extent=(-2, 2))
    x = g.coords()[0]
    R1, R2, R3, R4, R5 = functionals(-x ** 2, np.zeros_like(x), g)
    np.testing.assert_allclose(interior(R5), 16 * interior(x) ** 2, atol=1e-10)
    np.testing.assert_allclose(interior(R2), -4 + 16 * interior(x) ** 2,
                               atol=1e-10)
    for arr in (R1, R3, R4):
        assert np.max(np.abs(arr)) < 1e-12


def test_functionals_scale_invariance():
    """Homogeneity of degree zero: r -> r + const changes nothing."""
    g = Grid.make(npts=48, extent=(-2, 2), bc="periodic")
    x = g.coords()[0]
    r, s = 0.3 * np.sin(np.pi * x / 2), 0.2 * np.cos(np.pi * x)
    for a, b in zip(functionals(r, s, g), functionals(r + 3.7, s + 1.1, g)):
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_laplacian_decomposition():
    """i R1 + R2/2 - R3 - R5/4 agrees with the discrete lap(psi)/psi."""
    def err(npts):
        g = Grid.make(npts=npts, extent=(0, 2 * np.pi), bc="periodic")
        x = g.coords()[0]
        r, s = 0.3 * np.sin(x), 0.4 * np.cos(x)
        R1, R2, R3, _, R5 = functionals(r, s, g)
        combo = 1j * R1 + 0.5 * R2 - R3 - 0.25 * R5
        psi = np.exp(r + 1j * s)
        dx = g.dx()
        lap = (np.roll(psi, -1) - 2 * psi + np.roll(psi, 1)) / dx ** 2
        return np.max(np.abs(combo - lap / psi))

    e1, e2 = err(64), err(128)
    assert e1 < 2e-3
    assert e1 / e2 > 3.0  # both sides differ at second order


# ---------------------------------------------------------------------------
# right-hand side

def test_rhs_constant_field(pts):
    g = Grid.make(npts=32, extent=(-1, 1), bc="periodic")
    f = LogPolarField(g, 0.0, np.full(32, 0.5), np.full(32, 1.0))
    rt, st = grid_rhs(np.stack((f.r, f.s)), g, pts["generic"].system_floats)
    assert np.max(np.abs(rt)) == 0.0 and np.max(np.abs(st)) == 0.0


def test_rhs_matches_packet_derivative(pts):
    p = pts["linear-se"]
    pack = se_gaussian(float(p.nu1), b0=-0.25, k=(0.3,))
    g = Grid.make(npts=64, extent=(-3, 3))
    f = sample_evaluator(pack, g, 0.05)
    rt, st = grid_rhs(np.stack((f.r, f.s)), g, p.system_floats)
    rte, ste = pack.rs_t(g.coords(), 0.05)
    assert np.max(np.abs(interior(rt) - interior(rte))) < 1e-10
    assert np.max(np.abs(interior(st) - interior(ste))) < 1e-10


def test_rhs_plane_wave_infinite_subfamily(pts):
    p = pts["infsub"]
    g = Grid.make(npts=64, extent=(0, 2 * np.pi), bc="periodic")
    f = sample_evaluator(plane_wave_solution(p, (3.0,)), g, 0.0)
    rt, st = grid_rhs(np.stack((f.r, f.s)), g, p.system_floats)
    assert np.max(np.abs(rt)) < 1e-10
    np.testing.assert_allclose(st, 2.0 * float(p.nu1) * 9.0, atol=1e-10)


@pytest.mark.parametrize("key", ["linear-se", "sym1b-nu2", "galsub", "generic"])
@pytest.mark.parametrize("bc", ["periodic", "dirichlet"])
@pytest.mark.parametrize("n", [1, 2])
def test_rhs_is_functional_combination(pts, key, bc, n):
    """r_t = nu1 R1 + nu2 R2 and s_t = -(mu1 R1 + ... + mu5 R5) everywhere,
    boundary ring included."""
    p = pts[key]
    g = Grid.make(n=n, npts=64 if n == 1 else 24, extent=(-2, 2), bc=bc)
    rng = np.random.default_rng(11)
    f = LogPolarField(g, 0.0, 0.3 * rng.standard_normal(g.shape),
                      0.3 * rng.standard_normal(g.shape))
    c = {name: float(getattr(p, name)) for name in PARAM_NAMES}
    R1, R2, R3, R4, R5 = functionals(f.r, f.s, g)
    want_r = c["nu1"] * R1 + c["nu2"] * R2
    want_s = -(c["mu1"] * R1 + c["mu2"] * R2 + c["mu3"] * R3
               + c["mu4"] * R4 + c["mu5"] * R5)
    rhs = grid_rhs(np.stack((f.r, f.s)), g, p.system_floats)
    for got, want in zip(rhs, (want_r, want_s)):
        np.testing.assert_allclose(got, want, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(want)))


# ---------------------------------------------------------------------------
# evolution

@pytest.mark.parametrize("t0, dt, steps, save_every, message", [
    (0.0, 1e-110, 6, 2, "not a finite positive float"),
    (1.0, 1e-17, 6, 2, "strictly increasing"),
    (0.0, 1e-3, 1, 1, "at least 3"),
    (0.25, 1e-3, 7, 3, None)])
def test_check_saved_times_refuses_what_residual_would(pts, t0, dt, steps,
                                                       save_every, message):
    """Before any step, check_saved_times refuses exactly the runs whose
    trajectory residual refuses for its time stamps."""
    p, g = pts["sym1c"], Grid.make(npts=16, extent=(-1, 1), bc="periodic")
    f0 = LogPolarField(g, t0, 0.1 * np.cos(np.pi * g.coords()[0]), np.zeros(16))
    traj = evolve(p, f0, steps, dt=dt, save_every=save_every)
    if message is None:
        check_saved_times(p, f0, dt, steps, save_every)
        residual(p, traj)
        return
    with pytest.raises(ValueError, match=message):
        check_saved_times(p, f0, dt, steps, save_every)
    with pytest.raises(ValueError, match=message):
        residual(p, traj)


@pytest.mark.parametrize("change, message", [
    ({"steps": -1}, "steps must be >= 0"),
    ({"dt": 0.0}, "dt=0.0 must be finite and positive"),
    ({"dt": 0.05}, "Courant number"),
    ({"save_every": 0}, "save_every=0 must be >= 1"),
    ({"r0": 1e6}, re.escape("max|r| <= 100"))],
    ids=["negative-steps", "zero-dt", "unstable-dt", "save-every-0", "r-past-blowup"])
def test_check_saved_times_refuses_what_evolve_would(pts, change, message):
    """evolve and check_saved_times refuse each input evolve cannot run
    with the same message, before any step."""
    run = {"dt": None, "steps": 6, "save_every": 2, "r0": 0.1, **change}
    p, g = pts["sym1c"], Grid.make(npts=16, extent=(-1, 1), bc="periodic")
    f0 = LogPolarField(g, 0.0, run["r0"] * np.cos(np.pi * g.coords()[0]), np.zeros(16))
    with pytest.raises(ValueError, match=message):
        evolve(p, f0, run["steps"], dt=run["dt"], save_every=run["save_every"])
    with pytest.raises(ValueError, match=message):
        check_saved_times(p, f0, run["dt"], run["steps"], run["save_every"])


def test_evolve_zero_steps(pts):
    g = Grid.make(npts=32, extent=(-1, 1), bc="periodic")
    x = g.coords()[0]
    f0 = LogPolarField(g, 0.0, 0.1 * np.cos(np.pi * x), np.zeros(32))
    traj = evolve(pts["sym1b"], f0, steps=0)
    assert len(traj) == 1
    np.testing.assert_array_equal(traj[0].r, f0.r)


def test_evolve_rejects_large_dt(pts):
    g = Grid.make(npts=32, extent=(-1, 1), bc="periodic")
    f0 = LogPolarField(g, 0.0, np.zeros(32), np.zeros(32))
    with pytest.raises(ValueError):
        evolve(pts["sym1b"], f0, steps=1, dt=1.0)


def test_evolve_requires_bc_on_dirichlet(pts):
    g = Grid.make(npts=32, extent=(-1, 1), bc="dirichlet")
    f0 = LogPolarField(g, 0.0, np.zeros(32), np.zeros(32))
    with pytest.raises(ValueError):
        evolve(pts["sym1b"], f0, steps=1)


def test_evolve_blowup_detector(pts, monkeypatch):
    g = Grid.make(npts=32, extent=(-1, 1), bc="periodic")
    x = g.coords()[0]
    f0 = LogPolarField(g, 0.0, 0.5 * np.cos(np.pi * x), np.zeros(32))
    # max|r| grows from 0.5 past 0.5005 at step 3 on this backward-parabolic point
    monkeypatch.setattr(pde, "BLOWUP", 0.5005)
    with pytest.raises(EvolutionBlowup) as err:
        evolve(pts["sym1b"], f0, steps=5)
    assert err.value.step == 3


@pytest.mark.parametrize("r0, s0, norm", [(np.nan, 0.0, "nan"), (-np.inf, 0.0, "inf"),
                                          (1e6, 0.0, "1e+06"), (0.1, np.nan, "0.1")])
def test_evolve_refuses_bad_initial_data(pts, r0, s0, norm):
    """Initial data that is not finite or already past the blow-up bound is
    refused before the first step, not reported as a blow-up at step 1."""
    g = Grid.make(npts=32, extent=(-1, 1), bc="periodic")
    f0 = LogPolarField(g, 0.0, np.full(32, r0), np.full(32, s0))
    with pytest.raises(ValueError, match=re.escape(
            f"must be finite with max|r| <= 100 (the blow-up bound); "
            f"it has max|r| = {norm}")):
        evolve(pts["sym1c"], f0, steps=4)


def test_evolve_matches_closed_form(pts):
    """Order-2 convergence toward the exact packet superposition."""
    p = pts["linear-se"]
    a = float(p.nu1)
    sol = SEPacketSum((se_gaussian(a, b0=-0.2),
                       se_gaussian(a, b0=-0.35, center=(0.7,), k=(1.2,),
                                   amplitude=0.25)))

    def run(npts):
        g = Grid.make(npts=npts, extent=(-4, 4))
        f0 = sample_evaluator(sol, g, 0.0)
        dt0 = 0.2 * min(g.spacings) ** 2
        steps = int(np.ceil(0.05 / dt0))
        traj = evolve(p, f0, steps, dt=0.05 / steps, bc_values=sol.rs)
        fin = traj[-1]
        rex, sex = sol.rs(g.coords(), fin.t)
        return max(np.max(np.abs(fin.r - rex)), np.max(np.abs(fin.s - sex)))

    e1, e2 = run(48), run(96)
    assert 3.0 < e1 / e2 < 5.5


def test_evolve_periodic_plane_wave(pts):
    p = pts["infsub"]
    g = Grid.make(npts=48, extent=(0, 2 * np.pi), bc="periodic")
    pw = plane_wave_solution(p, (2.0,))
    f0 = sample_evaluator(pw, g, 0.0)
    # infsub is ill-posed, so rounding grows with the horizon: 40 steps of
    # 0.2 dx^2 keep it fixed
    traj = evolve(p, f0, steps=40, dt=0.2 * g.dx() ** 2)
    fin = traj[-1]
    rex, sex = pw.rs(g.coords(), fin.t)
    assert np.max(np.abs(fin.r - rex)) < 1e-8
    assert np.max(np.abs(fin.s - sex)) < 1e-8


# ---------------------------------------------------------------------------
# residuals

def test_residual_constant_trajectory(pts):
    g = Grid.make(npts=32, extent=(-1, 1), bc="periodic")
    fields = [LogPolarField(g, 0.1 * k, np.full(32, 0.3), np.full(32, -0.1))
              for k in range(4)]
    rep = residual(pts["generic"], stack_fields(g, fields))
    assert rep.linf < 1e-14


def test_residual_needs_three_slices(pts):
    g = Grid.make(npts=32, extent=(-1, 1), bc="periodic")
    fields = [LogPolarField(g, 0.1 * k, np.zeros(32), np.zeros(32))
              for k in range(2)]
    with pytest.raises(ValueError):
        residual(pts["generic"], stack_fields(g, fields))


def test_residual_detects_perturbation(pts):
    from dgsym.linearize import heat_pair_to_dg, linearization_data
    p = pts["sym1b"]
    data = linearization_data(p)
    fp = heat_solution(data.diffusion, "forward", amplitude=0.8,
                       focus_time=1.0, offset=0.5)
    fm = heat_solution(data.diffusion, "backward", amplitude=0.6,
                       focus_time=-0.3, offset=0.4)
    sol = heat_pair_to_dg(fp, fm, p)
    g = Grid.make(npts=64, extent=(-4, 4))
    times = np.linspace(0.0, 0.2, 9)
    clean = sample_trajectory(sol, g, times)
    base = residual(p, clean)
    x = g.coords()[0]
    bent = stack_fields(g, [LogPolarField(g, f.t, f.r, f.s + 0.05 * x)
                            for f in clean.fields])
    assert residual(p, bent).l2 > 4 * base.l2


@pytest.mark.parametrize("key", ["generic", "sym1c-nu2", "expsub"])
@pytest.mark.parametrize("n,bc", [(1, "periodic"), (2, "dirichlet")])
def test_residual_equals_per_slice_rhs(key, n, bc):
    """One set of stencil coefficients per call gives the report that
    converting the parameters again for every stencil call gives, bit for bit."""
    p = reference_points(n)[key]
    rng = np.random.default_rng(20260)
    g = Grid.make(n=n, npts=24, extent=(-2, 2), bc=bc)
    times = np.cumsum(rng.uniform(0.01, 0.02, 7))
    traj = stack_fields(
        g, [LogPolarField(g, t, 0.3 * rng.standard_normal(g.shape),
                          rng.standard_normal(g.shape)) for t in times])
    assert residual(p, traj) == _per_slice_report(
        lambda f: grid_rhs(np.stack((f.r, f.s)), g, p.system_floats), traj)


def _per_slice_report(rhs_fn, traj):
    """Reference residual: a loop over the inner time slices, each with its
    own three-point time derivative."""
    times, inner = traj.times, boundary_ring(traj.grid)[1]
    res_r, res_s = [], []
    for k in range(1, len(traj) - 1):
        h1, h2 = times[k] - times[k - 1], times[k + 1] - times[k]

        def d_dt(name):
            prev, cur, nxt = (getattr(traj[j], name) for j in (k - 1, k, k + 1))
            return (h1 * h1 * nxt - h2 * h2 * prev + (h2 * h2 - h1 * h1) * cur) \
                / (h1 * h2 * (h1 + h2))

        rhs_r, rhs_s = rhs_fn(traj[k])
        res_r.append((rhs_r - d_dt("r"))[inner])
        res_s.append((rhs_s - d_dt("s"))[inner])
    norms = [(float(np.max(np.abs(a))), float(np.sqrt(np.mean(a * a))))
             for a in (np.array(res_r), np.array(res_s))]
    return ResidualReport(*norms[0], *norms[1])


def _linear_se_point(n, a):
    """The family point whose system is i psi_t = a lap psi."""
    return DGParams(n=n, nu1=a, mu2=a / 2, mu3=-a, mu5=-a / 4)


# (grid, time slices, slab sizes of the stencil calls over the inner slices)
STACK_CASES = [
    pytest.param(Grid.make(n=1, npts=48, extent=(-2, 2), bc="periodic"), 6, [4],
                 id="1d-periodic"),
    pytest.param(Grid.make(n=1, npts=40, extent=(-2, 2)), 6, [4], id="1d-dirichlet"),
    pytest.param(Grid.make(n=2, npts=20, extent=(-2, 2)), 6, [4], id="2d-dirichlet"),
    pytest.param(Grid.make(n=2, npts=16, extent=(-2, 2), bc="periodic"), 6, [4],
                 id="2d-periodic"),
    pytest.param(Grid.make(n=1, npts=256, extent=(-2, 2), bc="periodic"), 40,
                 [16, 16, 6], id="1d-periodic-256x40"),
    pytest.param(Grid.make(n=2, npts=32, extent=(-2, 2)), 11, [4, 4, 1],
                 id="2d-dirichlet-32x11"),
]


@pytest.mark.parametrize("g, slices, slabs", STACK_CASES)
def test_residuals_equal_per_slice_reference(g, slices, slabs, monkeypatch):
    """residual and se_residual take one time derivative over the whole stack
    and one stencil call per slab of time slices; they equal the per-slice
    loop bit for bit."""
    rng = np.random.default_rng(g.npts)
    times = np.cumsum(rng.uniform(0.01, 0.02, slices))
    traj = stack_fields(
        g, [LogPolarField(g, t, 0.3 * rng.standard_normal(g.shape),
                          rng.standard_normal(g.shape)) for t in times])
    seen = []
    monkeypatch.setattr(pde, "evolution_rhs",
                        lambda u, *rest: seen.append(u.shape[1]) or evolution_rhs(u, *rest))
    residual(reference_points(g.n)["sym1c"], traj)
    monkeypatch.undo()
    assert seen == slabs
    for key in ("sym1c", "linear-se", "galsub"):
        p = reference_points(g.n)[key]
        assert residual(p, traj) == _per_slice_report(
            lambda f: grid_rhs(np.stack((f.r, f.s)), g, p.system_floats), traj)

    se_point = _linear_se_point(g.n, Fraction(-7, 10))
    assert se_residual(-0.7, traj) == _per_slice_report(
        lambda f: grid_rhs(np.stack((f.r, f.s)), g, se_point.system_floats),
        traj)


def test_se_residual_is_residual_at_the_linear_point():
    g = Grid.make(n=1, npts=64, extent=(-2, 2))
    rng = np.random.default_rng(5)
    times = np.cumsum(rng.uniform(0.01, 0.02, 7))
    traj = stack_fields(
        g, [LogPolarField(g, t, 0.3 * rng.standard_normal(g.shape),
                          rng.standard_normal(g.shape)) for t in times])
    assert _linear_se_point(1, Fraction(-1)) == reference_points(1)["linear-se"]

    @given(st.fractions(min_value=-5, max_value=5, max_denominator=60)
           .filter(lambda a: a != 0))
    @settings(max_examples=30, deadline=None)
    def check(a):
        se, dg = se_residual(float(a), traj), residual(_linear_se_point(1, a), traj)
        for key in ("r_linf", "r_l2", "s_linf", "s_l2"):
            assert getattr(se, key) == pytest.approx(getattr(dg, key), rel=1e-13)

    check()


def test_convergence_is_order_two_only(pts):
    """The refinement verdict fails a non-solution, whose residual does not
    shrink, far above the rounding floor.  A residual that is exactly 0 on
    both grids (a plane wave on dyadic grid points and times) has ratio
    inf and passes as a residual at rounding level.  The floor is
    eps U (1/dt + 4n/dx^2) of the fine sampling."""
    p = pts["linear-se"]
    dg = functools.partial(residual, p)
    grid, times = Grid.make(npts=64, extent=(-4, 4)), np.linspace(0.02, 0.18, 9)
    junk = convergence(dg, Junk(), grid, times)
    assert not junk.passed and 0.9 < junk.ratio_l2 < 1.1
    assert junk.coarse.l2 >= 1e6 * junk.floor
    assert junk.coarse == dg(sample_trajectory(Junk(), grid, times))
    wave_grid, wave_times = Grid.make(npts=65, extent=(-4, 4)), np.linspace(0.0, 0.25, 5)
    wave = convergence(dg, plane_wave_solution(p, 0.5), wave_grid, wave_times)
    assert wave.coarse.l2 == wave.fine.l2 == wave.fine.linf == 0.0
    assert wave.ratio_l2 == wave.ratio_linf == np.inf and wave.passed
    nan_fine = dataclasses.replace(wave, fine=ResidualReport(np.nan, np.nan, 0.0, 0.0))
    assert not nan_fine.passed
    fine = sample_trajectory(plane_wave_solution(p, 0.5), wave_grid.refine(),
                             np.linspace(0.0, 0.25, 9))
    size = max(np.max(np.abs(fine.r)), np.max(np.abs(fine.s)))
    assert wave.floor == pytest.approx(
        np.finfo(float).eps * size * (1 / (0.25 / 8) + 4 / (8 / 128) ** 2), rel=1e-12)
    with pytest.raises(ValueError, match="uniform time stamps"):
        convergence(dg, Junk(), grid, [0.0, 0.1, 0.3])


# ---------------------------------------------------------------------------
# closed forms

def test_heat_solution_constant_solves_both():
    for direction in ("forward", "backward"):
        sol = heat_solution(1.0, direction, amplitude=0.0, offset=1.0)
        g = Grid.make(npts=32, extent=(-2, 2))
        assert heat_residual(sol, g, np.linspace(0.0, 0.3, 5)) == 0.0


def test_heat_solution_gaussian_order(pts):
    sol = heat_solution(np.sqrt(2.0), "forward", offset=0.2)
    g1, g2 = Grid.make(npts=64, extent=(-4, 4)), Grid.make(npts=127, extent=(-4, 4))
    r1 = heat_residual(sol, g1, np.linspace(0.0, 0.2, 9))
    r2 = heat_residual(sol, g2, np.linspace(0.0, 0.2, 17))
    assert 3.0 < r1 / r2 < 5.0


@pytest.mark.parametrize("times, match", [
    ([0.0, 0.1], "at least 3 time slices"),
    ([0.0, 0.1, 0.1, 0.2], "strictly increasing"),
    ([0.0, 0.2, 0.1], "strictly increasing"),
    ([0.0, float("nan"), 0.2], "strictly increasing"),
    ([0.0, 1e200, 2e200], "not a finite positive float"),
    ([0.0, 1e-120, 2e-120], "not a finite positive float")])
def test_heat_residual_refuses_times_like_residual(pts, times, match):
    sol = heat_solution(1.0, "forward", offset=0.2)
    g = Grid.make(npts=32, extent=(-2, 2))
    with pytest.raises(ValueError, match=match) as heat_err:
        heat_residual(sol, g, np.array(times))
    fields = [LogPolarField(g, t, np.zeros(32), np.zeros(32)) for t in times]
    with pytest.raises(ValueError, match=match) as res_err:
        residual(pts["sym1c"], stack_fields(g, fields))
    assert str(heat_err.value) == str(res_err.value)


def test_heat_solution_positivity_and_validation():
    with pytest.raises(ValueError):
        heat_solution(-1.0, "forward")
    with pytest.raises(ValueError):
        heat_solution(1.0, "sideways")
    sol = heat_solution(1.0, "forward", amplitude=0.5, offset=0.25)
    g = Grid.make(npts=32, extent=(-3, 3))
    for t in np.linspace(0.0, 0.5, 6):
        assert np.all(sol.value(g.coords(), t) > 0)
    with pytest.raises(ValueError):
        sol.value(g.coords(), 2.0)  # beyond the focus time


def test_se_gaussian_validation_and_plane_wave():
    with pytest.raises(ValueError):
        se_gaussian(0.0)
    a, k = -1.0, 2.0
    g = Grid.make(npts=48, extent=(0, 2 * np.pi), bc="periodic")
    x = g.coords()[0]
    times = np.linspace(0.0, 0.1, 5)
    fields = [LogPolarField(g, t, np.zeros_like(x), k * x + a * k * k * t)
              for t in times]
    rep = se_residual(a, stack_fields(g, fields))
    assert rep.linf < 1e-10


def test_se_gaussian_nowhere_zero_and_order(pts):
    p = pts["linear-se"]
    a = float(p.nu1)
    sol = SEPacketSum((se_gaussian(a, b0=-0.2),
                       se_gaussian(a, b0=-0.3, center=(0.6,), amplitude=0.3)))
    g = Grid.make(npts=64, extent=(-4, 4))
    assert np.all(np.isfinite(sample_evaluator(sol, g, 0.0).r))
    assert convergence(lambda traj: se_residual(a, traj), sol, g,
                       np.linspace(0, 0.1, 9)).passed


def test_evolve_plane_wave_2d(pts):
    p = reference_points(2)["infsub"]
    g = Grid.make(n=2, npts=24, extent=(0, 2 * np.pi), bc="periodic")
    pw = plane_wave_solution(p, (1.0, 2.0))
    f0 = sample_evaluator(pw, g, 0.0)
    traj = evolve(p, f0, steps=20)
    fin = traj[-1]
    rex, sex = pw.rs(g.coords(), fin.t)
    assert np.max(np.abs(fin.r - rex)) < 1e-8
    assert np.max(np.abs(fin.s - sex)) < 1e-8


def test_evolve_diffusive_point_self_consistent():
    """No closed form available: the residual check certifies the run."""
    from dgsym.params import DGParams
    from fractions import Fraction
    p = DGParams(n=1, nu1=1, nu2=Fraction(1, 2))
    g = Grid.make(npts=48, extent=(0, 2 * np.pi), bc="periodic")
    x = g.coords()[0]
    f0 = LogPolarField(g, 0.0, 0.2 * np.cos(x), 0.1 * np.sin(x))
    traj = evolve(p, f0, steps=60, save_every=6)
    rep = residual(p, traj)
    assert rep.l2 < 5e-3


# ---------------------------------------------------------------------------
# the step rule: default_dt from the stability interval of M

def _rk4_factor(z):
    return 1 + z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24


def test_rk4_is_stable_on_the_left_half_disc_of_max_courant():
    """|R(z)| <= 1 for the RK4 factor R on the closed left half-disc of
    radius MAX_COURANT, where every z of a step at a well-posed point lies;
    on the imaginary axis past 2 sqrt(2) it is not."""
    radius, angle = np.meshgrid(np.linspace(0, pde.MAX_COURANT, 241),
                                np.linspace(np.pi / 2, 3 * np.pi / 2, 361))
    assert np.max(np.abs(_rk4_factor(radius * np.exp(1j * angle)))) <= 1 + 1e-12
    assert abs(_rk4_factor(2.9j)) > 1


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("key", ["linear-se", "sym1c", "galsub", "finsub", "sym1b"])
def test_default_dt_scales_with_rho(key, n):
    """default_dt = 0.4 h^2 / (n max(rho, 1)), Courant number 1.6; evolve
    takes 1.5 times it and refuses a step past that."""
    p = reference_points(n)[key]
    grid = Grid(n=n, npts=16, bounds=((-2.0, 2.0),) + ((-1.0, 1.0),) * (n - 1),
                bc="periodic")
    h, rho = min(grid.spacings), max(stability_report(p).rho, 1.0)
    dt = default_dt(grid, p)
    assert dt == pytest.approx(0.4 * h * h / (n * rho), rel=1e-15)
    assert courant(grid, p, dt) == pytest.approx(1.6, rel=1e-15)
    f0 = LogPolarField(grid, 0.0, np.zeros(grid.shape), np.zeros(grid.shape))
    assert len(evolve(p, f0, 1, dt=1.5 * dt)) == 2
    with pytest.raises(ValueError, match="violates the stability rule"):
        evolve(p, f0, 1, dt=1.5 * dt * (1 + 1e-9))


def _bump_final(p, npts, scale=1):
    """(r, s) at t = 0.05 of a bump on a periodic grid over [-8, 8], after
    ``scale`` times the steps of the default rule."""
    grid = Grid.make(n=1, npts=npts, extent=(-8.0, 8.0), bc="periodic")
    profile = np.exp(-grid.coords()[0] ** 2)
    f0 = LogPolarField(grid, 0.0, 0.2 * profile, 0.1 * profile)
    steps = scale * int(np.ceil(0.05 / default_dt(grid, p)))
    fin = evolve(p, f0, steps, dt=0.05 / steps, save_every=steps)[-1]
    return np.stack((fin.r, fin.s))


@pytest.mark.parametrize("key", [k for k, p in reference_points().items()
                                 if stability_report(p).kind != "ill-posed"])
def test_default_dt_adds_no_error_the_grid_sees(key):
    """At each well-posed n = 1 point the default step's state at t = 0.05
    lies within 1e-2 of the 256 vs 512 point difference from a run with a
    10 times smaller step: the time error is far below the space error."""
    p = reference_points()[key]
    fine = _bump_final(p, 256, scale=10)
    time_error = np.max(np.abs(_bump_final(p, 256) - fine))
    space_error = np.max(np.abs(_bump_final(p, 512)[:, ::2] - fine))
    assert time_error <= 1e-2 * space_error


# ---------------------------------------------------------------------------
# dirichlet boundary contract: bc_values sees the ring only, once per time

def _ring_mask(grid):
    """Points with some coordinate on the edge of the grid's extent."""
    xs = grid.coords()
    return np.any([np.isin(x, ab) for x, ab in zip(xs, grid.bounds)], axis=0)


@pytest.mark.parametrize("grid", [
    Grid.make(n=1, npts=32, bc="periodic"), Grid.make(n=2, npts=16, bc="periodic"),
    Grid.make(n=1, npts=32), Grid.make(n=2, npts=16)])
def test_zero_ring_zeroes_exactly_the_ring(grid):
    ring, inner = boundary_ring(grid)
    mask = _ring_mask(grid) if grid.bc == "dirichlet" else np.zeros(grid.shape, bool)
    arr = np.ones(grid.shape)
    zero_ring(grid, arr)
    assert np.array_equal(arr == 0.0, mask)
    assert len(ring) == grid.n and ring[0].size == np.count_nonzero(mask)
    assert np.all(arr[inner] == 1.0)


def _reference_evolve(p, f0, steps, dt, bc_values, save_every, rhs=None):
    """RK4 on separate r and s arrays, pinning each face from a full-grid
    evaluation at each stage time (no pinning when ``bc_values`` is None);
    ``rhs(r, s, grid, coeffs) -> (r_t, s_t)`` defaults to the library
    ``evolution_rhs``."""
    rhs = rhs or (lambda r, s, grid, coeffs:
                  grid_rhs(np.stack((r, s)), grid, coeffs))
    grid, coeffs, xs = f0.grid, p.system_floats, f0.grid.coords()
    faces = []
    for axis in range(grid.n):
        for end in (0, -1):
            face = [slice(None)] * grid.n
            face[axis] = end
            faces.append(tuple(face))

    def pin(r, s, t):
        if bc_values is None:
            return r, s
        rb, sb = (np.broadcast_to(v, grid.shape) for v in bc_values(xs, t))
        for face in faces:
            r[face], s[face] = rb[face], sb[face]
        return r, s

    out = [(f0.t, f0.r.copy(), f0.s.copy())]
    r, s, t = f0.r.copy(), f0.s.copy(), f0.t
    for step in range(1, steps + 1):
        k1r, k1s = rhs(r, s, grid, coeffs)
        r2, s2 = pin(r + 0.5 * dt * k1r, s + 0.5 * dt * k1s, t + 0.5 * dt)
        k2r, k2s = rhs(r2, s2, grid, coeffs)
        r3, s3 = pin(r + 0.5 * dt * k2r, s + 0.5 * dt * k2s, t + 0.5 * dt)
        k3r, k3s = rhs(r3, s3, grid, coeffs)
        r4, s4 = pin(r + dt * k3r, s + dt * k3s, t + dt)
        k4r, k4s = rhs(r4, s4, grid, coeffs)
        r = r + (dt / 6.0) * (k1r + 2.0 * k2r + 2.0 * k3r + k4r)
        s = s + (dt / 6.0) * (k1s + 2.0 * k2s + 2.0 * k3s + k4s)
        t = f0.t + step * dt
        r, s = pin(r, s, t)
        if step % save_every == 0 or step == steps:
            out.append((t, r.copy(), s.copy()))
    return out


def _assert_same_trajectory(traj, ref):
    assert len(traj) == len(ref)
    for fld, (t, r, s) in zip(traj.fields, ref):
        assert fld.t == t
        assert np.array_equal(fld.r, r) and np.array_equal(fld.s, s)


def _gauged_packet_sum(n):
    from fractions import Fraction

    from dgsym.linearize import (gauge_act_field, linearization_data,
                                 z_flow_se_from_zero)
    from dgsym.params import GaugeElement, gauge_act_params, reference_points

    base = reference_points(n)["sym1c"]
    a = linearization_data(base).se_coefficient
    psi = SEPacketSum((se_gaussian(a, n=n, b0=-0.2),
                       se_gaussian(a, n=n, b0=-0.3, center=(0.5,) * n,
                                   k=(0.4,) * n, amplitude=0.2)))
    g = GaugeElement(Fraction(3, 2), Fraction(-1, 3))
    return (gauge_act_params(g, base),
            gauge_act_field(g, z_flow_se_from_zero(psi, 0.5, base)))


def _heat_pair(n):
    from dgsym.linearize import heat_pair_to_dg, linearization_data

    p = reference_points(n)["sym1b"]
    data = linearization_data(p)
    fp = heat_solution(data.diffusion, "forward", n=n, amplitude=0.8,
                       focus_time=1.2, offset=0.5)
    fm = heat_solution(data.diffusion, "backward", n=n, amplitude=0.6,
                       focus_time=-0.3, offset=0.4)
    return p, heat_pair_to_dg(fp, fm, p)


def _recording(sol):
    """``bc_values`` answering with ``sol.rs`` and the list of its calls,
    each ``(xs, t, r, s)``."""
    calls = []

    def bc(xs, t):
        r, s = sol.rs(xs, t)
        calls.append((xs, t, r, s))
        return r, s

    return bc, calls


def _replaying(calls, grid):
    """``bc_values`` for ``_reference_evolve``: at each recorded stage time,
    the ring values ``evolve`` received, on an otherwise zero grid."""
    mask, values = _ring_mask(grid), {}
    for _, t, r, s in calls:
        shape = (len(t), np.count_nonzero(mask))
        for tk, rk, sk in zip(t[:, 0], np.broadcast_to(r, shape),
                              np.broadcast_to(s, shape)):
            full = np.zeros((2,) + grid.shape)
            full[0][mask], full[1][mask] = rk, sk
            values[tk] = full
    return lambda xs, t: values[t]


def _stage_times(t0, dt, steps):
    """The distinct stage times of ``steps`` RK4 steps, in order: t + dt/2
    (stages 2 and 3), t + dt (stage 4) and t0 + step dt (the update), with a
    time equal to the one before it dropped."""
    out = []
    for k in range(steps):
        t = t0 + k * dt
        for when in (t + 0.5 * dt, t + dt, t0 + (k + 1) * dt):
            if not out or when != out[-1]:
                out.append(when)
    return out


@pytest.mark.parametrize("make", [_gauged_packet_sum, _heat_pair],
                         ids=["gauged-packet-sum", "heat-pair"])
@pytest.mark.parametrize("n, npts", [(1, 33), (2, 17)])
def test_evolve_pins_ring_once_per_stage_time(make, n, npts):
    """bc_values sees the ring only, each distinct stage time once and in
    order, in (T, 1) time columns of at most _SLAB_POINTS ring values.  The
    batched values agree with one call per time to rounding, and evolve is
    RK4 pinned to exactly those values.  Besides the default, columns of 7
    and of 2 times make several calls, the latter splitting steps."""
    p, sol = make(n)
    grid = Grid.make(n=n, npts=npts, extent=(-4, 4))
    mask = _ring_mask(grid)
    ring_xs = tuple(x[mask] for x in grid.coords())
    size = ring_xs[0].size
    assert size == npts ** n - (npts - 2) ** n
    f0 = sample_evaluator(sol, grid, 0.0)
    # sym1b is backward-parabolic: few enough steps that its grid-scale
    # modes stay far below the blow-up bound
    steps, dt = 8, default_dt(grid, p)

    for limit in (pde._SLAB_POINTS, 7 * size, 2 * size):
        bc, calls = _recording(sol)
        with mock.patch.object(pde, "_SLAB_POINTS", limit):
            traj = evolve(p, f0, steps, bc_values=bc, save_every=3)
        for xs, t, r, s in calls:
            assert len(xs) == n
            assert all(np.array_equal(a, b) for a, b in zip(xs, ring_xs))
            assert t.ndim == 2 and t.shape[1] == 1 and len(t) * size <= limit
            for k, tk in enumerate(t[:, 0]):
                for got, want in zip((r, s), sol.rs(ring_xs, float(tk))):
                    got = np.broadcast_to(got, (len(t), size))[k]
                    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        want = _stage_times(0.0, dt, steps)
        assert [tk for _, t, _, _ in calls for tk in t[:, 0]] == want
        assert len(calls) == -(-len(want) // (limit // size))  # full columns
        _assert_same_trajectory(traj, _reference_evolve(
            p, f0, steps, dt, _replaying(calls, grid), save_every=3))


@pytest.mark.parametrize("n", [1, 2])
def test_evolve_broadcasts_scalar_boundary_values(n):

    p = reference_points(n)["sym1c"]
    grid = Grid.make(n=n, npts=17, extent=(-2, 2))
    q = sum(x ** 2 for x in grid.coords())
    f0 = LogPolarField(grid, 0.0, 0.1 - 0.05 * q, 0.02 * q)

    def scalars(xs, t):
        return 0.1 + t, -0.2

    traj = evolve(p, f0, 6, bc_values=scalars, save_every=2)
    dt = default_dt(grid, p)
    _assert_same_trajectory(traj, _reference_evolve(p, f0, 6, dt, scalars,
                                                    save_every=2))
    mask = _ring_mask(grid)
    for fld in traj.fields[1:]:
        assert np.all(fld.r[mask] == 0.1 + fld.t)
        assert np.all(fld.s[mask] == -0.2)

    # ring values that do not depend on t, as simulate holds them
    held = f0.r[mask], f0.s[mask]
    traj = evolve(p, f0, 6, bc_values=lambda xs, t: held, save_every=2)
    for fld in traj.fields:
        assert np.array_equal(fld.r[mask], held[0])
        assert np.array_equal(fld.s[mask], held[1])


@pytest.mark.parametrize("dt", [0.0, -1e-3, float("nan"), float("inf")])
def test_evolve_rejects_bad_dt(pts, dt):
    g = Grid.make(npts=32, extent=(-1, 1), bc="periodic")
    f0 = LogPolarField(g, 0.0, np.zeros(32), np.zeros(32))
    with pytest.raises(ValueError, match="dt="):
        evolve(pts["sym1c"], f0, steps=1, dt=dt)


@pytest.mark.parametrize("save_every", [0, -2])
def test_evolve_rejects_bad_save_every(pts, save_every):
    g = Grid.make(npts=32, extent=(-1, 1), bc="periodic")
    f0 = LogPolarField(g, 0.0, np.zeros(32), np.zeros(32))
    with pytest.raises(ValueError, match="save_every"):
        evolve(pts["sym1c"], f0, steps=4, save_every=save_every)
