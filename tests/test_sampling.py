"""Batched sampling: one ``rs(xs, t)`` call with a time column per trajectory
gives, slice by slice, what one call per time stamp gives."""

import numpy as np
import pytest

from dgsym.fields import Grid, sample_trajectory
from dgsym.flows import TransformedSolution, closed_flow_map
from dgsym.linearize import (gauge_act_field, heat_pair_to_dg, linearization_data,
                             z_flow_se_from_zero)
from dgsym.params import reference_points
from dgsym.pde import (HJSimilaritySolution, ScaleSimilaritySolution, SEPacketSum,
                       heat_solution, plane_wave_solution, se_gaussian)

# (generator, reference point) for every closed-form FlowMap; the flows act
# on a packet sum whether or not the generator is admissible at the point
FLOWS = [("H", "sym3-nu2"), ("P:1", "sym3-nu2"), ("D", "sym3-nu2"),
         ("C", "sym3-nu2"), ("A", "infasub"), ("B:1", "sym3-nu2"),
         ("E", "sym3-nu2"), ("R", "sym3-nu2"), ("F", "expsub"),
         ("Yf:1*z^0+2*z^1", "infasub")]


def evaluators(n):
    """Every evaluator kind at dimension n, by name.  The packets move
    (nonzero k) from an off-origin centre, so a time array that indexed the
    per-axis drift by time row instead of by axis would show."""
    pts = reference_points(n)
    center, k = (0.4, -0.3)[:n], (1.3, -0.7)[:n]
    pack = se_gaussian(0.8, n=n, b0=-0.3, center=center, k=k)
    packs = SEPacketSum((pack, se_gaussian(0.8, n=n, b0=-0.5, amplitude=0.2,
                                           center=tuple(-c for c in center),
                                           k=tuple(0.5 * kj for kj in k))))
    sym1b, sym1c = pts["sym1b"], pts["sym1c"]
    diffusion = linearization_data(sym1b).diffusion
    plus = heat_solution(diffusion, "forward", n=n, amplitude=0.8,
                         focus_time=1.0, offset=0.5)
    minus = heat_solution(diffusion, "backward", n=n, amplitude=0.6,
                          focus_time=-0.3, offset=0.4)
    heat_pair = heat_pair_to_dg(plus, minus, sym1b)
    Psi = se_gaussian(linearization_data(sym1c).se_coefficient, n=n, b0=-0.3,
                      center=center, k=k)
    out = {
        "SEPacket": pack,
        "SEPacketSum": packs,
        "HeatPairSolution": heat_pair,
        "PlaneWave": plane_wave_solution(sym1c, k),
        "ScaleSimilaritySolution": ScaleSimilaritySolution(pts["sym3"]),
        "HJSimilaritySolution": HJSimilaritySolution(pts["infasub"]),
        "z_flow_se_from_zero": z_flow_se_from_zero(Psi, 0.5, sym1c),
        "gauge": gauge_act_field((2.0, -0.5), packs),
    }
    flows = FLOWS + [("L:1,2", "sym3-nu2")] if n == 2 else FLOWS
    for name, key in flows:
        out[f"flow {name}"] = TransformedSolution(
            closed_flow_map(name, 0.2, pts[key]), packs)
    return out


@pytest.mark.parametrize("n, npts", [(1, 33), (2, 17)])
def test_sample_trajectory_equals_per_time_loop(n, npts):
    grid = Grid.make(n=n, npts=npts, extent=(-3.0, 3.0))
    times = np.linspace(0.05, 0.25, 7)
    for name, ev in evaluators(n).items():
        traj = sample_trajectory(ev, grid, times)
        assert traj.r.shape == traj.s.shape == (len(times),) + grid.shape, name
        np.testing.assert_array_equal(traj.times, times)
        ref = [ev.rs(grid.coords(), float(t)) for t in times]  # scalar t
        for k, field in enumerate(("r", "s")):
            want = np.array([np.broadcast_to(f[k], grid.shape) for f in ref])
            got = getattr(traj, field)
            tol = 1e-12 * np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= tol, (name, field)
