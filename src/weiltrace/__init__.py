"""Numerical verification of the explicit formula for the Riemann zeta
function: test-function families on the multiplicative half-line, Mellin
and Fourier transforms, the summation operator Z and its Moebius inverse,
completed zeta and Dirichlet L-values, critical-line zero finding, the
prime/archimedean decomposition of the Weil distribution, and
commutator trace identities.
"""

from .errors import (BudgetExceededError, CountMismatchError,
                     DisagreementError, DivergentIntegralError,
                     ExpressionError, ImaginaryResidueError,
                     NonPrimitiveCharacterError, OrderViolationError,
                     ParityMismatchError, PoleError, TableParseError,
                     WindowError)
from .families import (LogGaussian, LogSpline, ParityFunction, apply_J,
                       gaussian_even, gaussian_odd, scale)
from .grids import cinf_step
from .transforms import fourier, haar_real_cross, mellin, pair_log_fourier
from .special import (EULER_GAMMA, digamma, gamma, hardy_z, hurwitz_zeta,
                      l_chi, loggamma, rs_theta, xi, zero_count_estimate,
                      zeta, zeta_tail)
from .zeros import ZeroTable, find_zeros, load_zeros, save_zeros
from .operators import (TruncationSpec, apply_L_chi, apply_Z,
                        apply_Z_inverse, character, characters,
                        mobius_up_to, poisson_check, primes_up_to,
                        primitive_characters, twisted_poisson_check,
                        zspectral_check)
from .explicit import (W_infty, W_prime_total, archimedean_constant,
                       pv_regularised, spectral_parts,
                       verify_explicit_formula)
from .traces import (AuxiliaryPhi, LogGridSpec, commutator_trace,
                     phi_log_identity, toeplitz_trace_check, trace_rhs)
from .exprs import parse_function

__version__ = "0.1.0"
