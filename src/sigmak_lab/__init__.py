"""sigmak-lab: numerical machinery for sigma_k Schouten-type operators.

Modules:
    symfun        elementary symmetric functions, Gamma_k cones, the
                  interpolating operator family and its certificates
    conformal     2-jets, the flat Schouten matrix, Mobius words acting on
                  fields, Kelvin transform and the regularity probe
    bubbles       the closed-form solution family, residual verification,
                  Harnack products and sweeps
    radial        two-eigenvalue radial reduction and the shooting solver
    continuation  radial Dirichlet problems solved by damped Newton with
                  homotopy continuation in the operator family
    cli           command-line front end (also installed as `sigmak-lab`)
"""

from .bubbles import (BubbleSpec, HarnackReport, SolutionReport, SweepRow,
                      bubble_field, c_constant, harnack_product, harnack_sweep,
                      sweep_supremum, verify_solution)
from .conformal import (Dilation, Domain, Inversion, Jet2, KelvinProbeReport,
                        MetricTerms, MobiusMap, Rotation, ScalarField,
                        Translation, constant_field, eigenvalues_wrt,
                        kelvin_regularity_probe, kelvin_transform,
                        random_mobius_map, random_mobius_map_avoiding,
                        schouten_conformal_change, schouten_flat,
                        schouten_spectrum, transform_field)
from .continuation import (BvpSpec, ContinuationTrace, TRecord,
                           assemble_jacobian, assemble_residual, continue_path,
                           initial_guess, newton_solve)
from .errors import (ConeBoundaryError, ConeDomainError, ConfigError,
                     DomainError, NewtonError, PathError, PoleError,
                     PositivityError, SigmakLabError, StepUnderflowError)
from .radial import (EigenPair, LiouvilleReport, RadialProfile, TailEvidence,
                     liouville_report, profile_to_field, radial_eigenvalues,
                     shoot, solve_for_u2, write_profile_csv)
from .symfun import (ConeMembership, OperatorSpec, check_concavity,
                     check_ellipticity, f_homotopy, f_homotopy_gradient,
                     homotopy_vector, in_gamma_k, in_gamma_t, sigma,
                     sigma_gradient)

__version__ = "0.1.0"
