"""dgsym: gauge classification, Lie symmetries, flows and linearizations of
the Doebner-Goldin family of nonlinear Schroedinger equations."""

from .params import (DGParams, GaugeElement, GaugeInvariants, SymmetryClass,
                     classify, compute_invariants, canonical_gauge, dg_system,
                     gauge_act_params, gauge_compose, gauge_identity,
                     gauge_inverse, predicate_report, reference_points)
from .symexpr import SymExpr, VectorFieldSpec, lie_bracket
from .symmetry import (basis_generator, determining_residuals, parse_generator,
                       residuals_all_zero, verify_commutator_table,
                       verify_infinite_relations, GeneratorNotAdmissible)
from .fields import Grid, LogPolarField, Trajectory
from .pde import (evolve, heat_solution, plane_wave_solution, residual,
                  se_gaussian, se_residual)
from .flows import verify_symmetry_flow
from .linearize import (LinearizationData, NotLinearizable, gauge_act_field,
                        heat_pair_to_dg, linearization_data, z_flow_se_from_zero)

__version__ = "0.1.0"
