"""Polarization, Schwarz symmetrization and symmetric constrained minimizers
on uniform box grids."""

from .grid import (GridSpec, MultiField, ScalarField, gradient_magnitude,
                   lp_norm, make_grid, read_field, write_field)
from .rearrange import (ConvergenceTrace, HalfSpace, PolarizationSchedule,
                        admissible_half_spaces, iterate_polarizations,
                        polarize, polarize_multi, schwarz, schwarz_multi,
                        symmetry_deficit)
from .energy import (AssumptionReport, CouplingG, EnergyBreakdown,
                     EnergyModel, IntegrandJ, LocalTermF, check_assumptions,
                     discrete_gradient, eval_total, kernel_transform,
                     sample_kernel)
from .minimize import (ConstraintVector, MinimizeConfig, MinimizeResult,
                       descent_step, dilate, dilation_scan, ground_state,
                       lagrange_residual, minimize, project_constraints,
                       symmetry_report)
from .verify import (InequalityReport, TailProfile,
                     check_local_monotonicity, check_nonlocal_monotonicity,
                     check_polya_szego, equiintegrability_profile,
                     random_bump_field, run_property_suite)
from . import models

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
