"""Weighted Bernstein operator combinations around an interior singularity.

The package builds linear combinations of Bernstein operators whose samples
near a single interior algebraic singularity are replaced by a smooth patch,
so that functions blowing up like |x - xi|^(-beta) can still be approximated
in the |x - xi|^alpha weighted sup norm.  A measurement harness fits the
observed convergence rates and scans the supporting kernel bounds.
"""

from .basis import (SampleVector, backward_difference, basis_matrix,
                    basis_row, bernstein_apply_grid, evaluate,
                    forward_difference, log_binomial, sample_function,
                    symmetric_difference)
from .blend import (BlendSpec, Weight, barycentric_weights, blend_eval,
                    breakpoints, build_blend_spec, interpolation_nodes,
                    lagrange_interpolant, lebesgue_function)
from .catalog import (DEFAULT_KEYS, FunctionSpec, make_function,
                      membership_check, parse_spec)
from .combination import (CombinationScheme, build_scheme,
                          coefficient_l1_bound, combine, combine_samples,
                          make_schedule, moment_table, solve_coefficients)
from .errors import (DomainError, MembershipError, MinNTooSmall,
                     NumericalError, SampleError)
from .harness import (RateReport, SweepConfig, build_report,
                      check_bernstein_inequality, compare_plain_vs_modified,
                      emit_report, fit_rate, lemma1_scan, lemma3_decay,
                      lemma5_scan, lemma6_scan, render_report,
                      run_convergence)
from .operators import (ModifiedOperator, blended_samples,
                        build_modified_operator, modified_operator,
                        operator_derivative_2r)
from .smoothness import (EvaluationGrid, ModulusParams, make_grid,
                         step_weight, weighted_modulus, weighted_norm)
from .smoothstep import (SmoothstepPoly, build_smoothstep, determinant_check,
                         determinant_reference, psi_derivative, psi_eval,
                         solve_psi_coefficients, system_matrix)

__version__ = "0.1.0"
