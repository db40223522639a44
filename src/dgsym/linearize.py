"""Linearizing transformations of the linearizable subfamily.

On the subfamily iota2 = iota3 = iota4 = iota5 = 0, iota1 != 0 the equation
linearizes locally.  For iota1 < 0 a pair of positive solutions of the
forward/backward heat equation with diffusion sqrt(-2 iota1) generates
solutions; for iota1 > 0 the nonlinear gauge N_(Lambda, gamma) with
Lambda = sqrt(2 iota1)/|nu1|, gamma = -2 nu2/nu1 connects the family to the
free linear Schroedinger equation with coefficient nu1*Lambda.

The gauge action on wavefunctions is a vertical :class:`dgsym.flows.FlowMap`
composed with (r, s) evaluators; it also maps a Trajectory's stacks at once.
``z_flow_se_from_zero`` is the flow of the Schroedinger-branch generator
started from psi = 0: the gauge image of Psi up to constant modulus and
phase shifts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fields import Trajectory
from .flows import FlowMap, TransformedSolution
from .params import DGParams, GaugeElement, classify
from .pde import HeatGaussian

__all__ = [
    "NotLinearizable", "LinearizationData", "linearization_data",
    "gauge_act_field", "heat_pair_directions", "heat_pair_to_dg", "HeatPairSolution",
    "z_flow_se_from_zero",
]


class NotLinearizable(ValueError):
    """Parameter point is outside the linearizable subfamily."""


@dataclass(frozen=True)
class LinearizationData:
    """Branch data of a linearizable point.

    lambda_sq is exact and satisfies lambda_sq*(4 nu2^2 - 2 nu1 mu2) = nu1^2.
    branch == 'real' (iota1 < 0): abs_lambda and the heat diffusion
    coefficient are set.  branch == 'imaginary' (iota1 > 0): LambdaCap, and
    the target Schroedinger coefficient nu1*LambdaCap are set.
    gamma = -2 nu2/nu1 in both branches.
    """

    p: DGParams
    branch: str
    lambda_sq: Fraction
    gamma: float
    abs_lambda: float | None = None
    diffusion: float | None = None
    LambdaCap: float | None = None
    se_coefficient: float | None = None

    def gauge_from_linear(self) -> tuple:
        """(Lambda, gamma) mapping Schroedinger solutions to this equation."""
        if self.branch != "imaginary":
            raise NotLinearizable("field gauge defined on the Schroedinger branch")
        return (self.LambdaCap, self.gamma)

    def gauge_to_linear(self) -> tuple:
        """Inverse gauge, mapping solutions of p to Schroedinger solutions."""
        L, g = self.gauge_from_linear()
        return (1.0 / L, -g / L)

    def to_json_dict(self):
        from .params import rational_str
        d = {"branch": self.branch, "lambda_sq": rational_str(self.lambda_sq),
             "gamma": self.gamma}
        if self.branch == "real":
            d.update({"abs_lambda": self.abs_lambda, "diffusion": self.diffusion})
        else:
            d.update({"Lambda": self.LambdaCap, "se_coefficient": self.se_coefficient})
        return d


def linearization_data(p: DGParams) -> LinearizationData:
    """Branch and constants of the linearization at p."""
    cls = classify(p)
    if cls.tag not in ("Sym1b", "Sym1c"):
        raise NotLinearizable(
            f"point classifies as {cls.tag}; linearization needs the subfamily "
            "iota2=iota3=iota4=iota5=0 with iota1 != 0")
    denom = 4 * p.nu2 ** 2 - 2 * p.nu1 * p.mu2
    lambda_sq = p.nu1 ** 2 / denom
    gamma = float(-2 * p.nu2 / p.nu1)
    iota1 = cls.invariants.iota1
    if iota1 < 0:
        diffusion = math.sqrt(float(-2 * iota1))
        return LinearizationData(
            p=p, branch="real", lambda_sq=lambda_sq,
            gamma=gamma, abs_lambda=math.sqrt(float(lambda_sq)), diffusion=diffusion)
    LambdaCap = math.sqrt(float(2 * iota1)) / abs(float(p.nu1))
    return LinearizationData(
        p=p, branch="imaginary", lambda_sq=lambda_sq,
        gamma=gamma, LambdaCap=LambdaCap, se_coefficient=float(p.nu1) * LambdaCap)


def _gauge_pair(g) -> tuple:
    """(Lambda, gamma) as floats, both in the float range and Lambda's float
    nonzero: a Lambda that rounds to 0.0 would erase the phase."""
    L, c = (g.Lambda, g.gamma) if isinstance(g, GaugeElement) else g
    for name, v in (("Lambda", L), ("gamma", c)):
        if not abs(v) <= np.finfo(float).max:  # refuses nan and inf too
            raise ValueError(f"{name} must be finite and within the float range")
    if float(L) == 0:
        raise ValueError("Lambda must be nonzero as a float")
    return float(L), float(c)


def gauge_act_field(g, psi):
    """Nonlinear gauge on wavefunctions: r' = r, s' = gamma r + Lambda s.

    Accepts a GaugeElement or a (Lambda, gamma) pair.  An (r, s) evaluator
    is composed lazily with the gauge as a vertical FlowMap; a Trajectory
    is mapped as one array expression on its stacks.  |psi| is untouched,
    so the probability density is invariant by construction.
    """
    L, c = _gauge_pair(g)
    fmap = FlowMap(vertical=lambda r, s, xs, t: (r, c * r + L * s))
    if isinstance(psi, Trajectory):
        r, s = fmap.vertical(psi.r, psi.s, None, None)
        return Trajectory(psi.grid, psi.times, r.copy(), s)
    return TransformedSolution(fmap, psi)


# ---------------------------------------------------------------------------
# Heat branch.

def heat_pair_directions(p: DGParams) -> tuple:
    """Directions of (phi+, phi-): phi+ solves the forward heat equation
    when nu1 > 0 and the backward one when nu1 < 0, phi- the other."""
    return ("forward", "backward") if p.nu1 > 0 else ("backward", "forward")


def _require_heat_pair(phi_plus: HeatGaussian, phi_minus: HeatGaussian,
                       data: LinearizationData):
    if data.branch != "real":
        raise NotLinearizable("heat pair applies to the iota1 < 0 branch only")
    want_plus, want_minus = heat_pair_directions(data.p)
    if phi_plus.direction != want_plus or phi_minus.direction != want_minus:
        raise ValueError(
            f"for sign(nu1)={'+' if data.p.nu1 > 0 else '-'} the pair must be "
            f"({want_plus}, {want_minus}), got ({phi_plus.direction}, "
            f"{phi_minus.direction})")
    for phi in (phi_plus, phi_minus):
        if not math.isclose(phi.D, data.diffusion, rel_tol=1e-12, abs_tol=1e-12):
            raise ValueError(f"diffusion mismatch: kernel has {phi.D}, the "
                             f"point needs {data.diffusion}")


@dataclass(frozen=True)
class HeatPairSolution:
    """psi = (phi+ phi-)^((1 - i 2 nu2/nu1)/2) * exp(i/(2|lam|) ln(phi-/phi+))."""

    phi_plus: HeatGaussian
    phi_minus: HeatGaussian
    data: LinearizationData

    def rs(self, xs, t):
        a = np.log(self.phi_plus.value(xs, t))
        b = np.log(self.phi_minus.value(xs, t))
        nu_ratio = float(self.data.p.nu2) / float(self.data.p.nu1)
        r = 0.5 * (a + b)
        s = -nu_ratio * (a + b) + (b - a) / (2.0 * self.data.abs_lambda)
        return r, s


def heat_pair_to_dg(phi_plus: HeatGaussian, phi_minus: HeatGaussian,
                    p: DGParams) -> HeatPairSolution:
    """Map a positive forward/backward heat pair to a solution evaluator."""
    data = linearization_data(p)
    _require_heat_pair(phi_plus, phi_minus, data)
    return HeatPairSolution(phi_plus, phi_minus, data)


# ---------------------------------------------------------------------------
# Schroedinger branch.

def z_flow_se_from_zero(Psi, eps: float, p: DGParams):
    """Flow started from the trivial solution: gauge of Psi up to constant
    modulus and phase shifts, r = ln(2 |Psi| eps / Lambda)."""
    if eps <= 0:
        raise ValueError("the zero-initial entry point needs eps > 0")
    data = linearization_data(p)
    if data.branch != "imaginary":
        raise NotLinearizable("this flow applies to the iota1 > 0 branch only")
    Lam = data.LambdaCap
    nu_ratio = float(p.nu2) / float(p.nu1)

    def vertical(mlog, theta, xs, t):
        r = mlog + math.log(2.0 * eps / Lam)
        return r, Lam * (theta + 0.5 * math.pi) - 2.0 * nu_ratio * r

    return TransformedSolution(FlowMap(vertical=vertical), Psi)
