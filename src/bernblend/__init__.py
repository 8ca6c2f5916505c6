"""Weighted Bernstein operator combinations around an interior singularity.

The package builds linear combinations of Bernstein operators whose samples
near a single interior algebraic singularity are replaced by a smooth patch,
so that functions blowing up like |x - xi|^(-beta) can still be approximated
in the |x - xi|^alpha weighted sup norm.  A measurement harness fits the
observed convergence rates and scans the supporting kernel bounds.
"""

from .basis import (SampleVector, basis_matrix, basis_row,
                    bernstein_apply_grid, evaluate, sample_function)
from .blend import (BlendSpec, Weight, barycentric_weights, blend_eval,
                    lagrange_interpolant)
from .catalog import DEFAULT_KEYS, FunctionSpec, make_function, parse_spec
from .combination import (CombinationScheme, build_scheme, combine,
                          combine_samples, moment_table, solve_coefficients)
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
from .smoothness import (EvaluationGrid, make_grid, weighted_modulus,
                         weighted_norm)
from .smoothstep import SmoothstepPoly, psi_eval, solve_psi_coefficients

__version__ = "0.1.0"
