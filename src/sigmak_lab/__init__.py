"""sigmak-lab: numerical machinery for sigma_k Schouten-type operators.

Modules:
    symfun        elementary symmetric functions, Gamma_k cones, the
                  interpolating operator family and its certificates
    conformal     2-jets, the flat Schouten matrix and Mobius words acting on
                  fields
    bubbles       the closed-form solution family, residual verification,
                  Harnack products and sweeps
    radial        two-eigenvalue radial reduction and the shooting solver
    continuation  radial Dirichlet problems solved by damped Newton with
                  homotopy continuation in the operator family
    cli           command-line front end (also installed as `sigmak-lab`)
"""

from .bubbles import (BubbleSpec, HarnackReport, SolutionReport, SweepRow,
                      bubble_field, c_constant, harnack_product, harnack_sweep,
                      sweep_supremum, verify_images, verify_solution)
from .conformal import (Dilation, Inversion, Jet2, MobiusMap, Rotation,
                        ScalarField, Translation, constant_field,
                        random_mobius_map, random_mobius_map_avoiding,
                        schouten_flat, schouten_spectrum, transform_field)
from .continuation import (BvpSpec, ContinuationTrace, TRecord,
                           assemble_jacobian, assemble_residual, continue_path,
                           initial_guess, newton_solve)
from .errors import (ConeBoundaryError, ConeDomainError, ConfigError,
                     DomainError, FloatRangeError, NewtonError, PathError,
                     PoleError, PositivityError, SigmakLabError,
                     StepUnderflowError)
from .radial import (EigenPair, LiouvilleReport, RadialProfile, TailEvidence,
                     liouville_report, radial_eigenvalues, shoot,
                     write_profile_csv)
from .symfun import (ConeMembership, OperatorSpec, f_homotopy,
                     f_homotopy_gradient, homotopy_vector, in_gamma_k, sigma)

__version__ = "0.1.0"
