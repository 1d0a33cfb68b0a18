"""Numerical verification of the explicit formula for the Riemann zeta
function: test-function families on the multiplicative half-line, Mellin
and Fourier transforms, the summation operator Z and its Moebius inverse,
completed zeta and Dirichlet L-values, critical-line zero finding, the
prime/archimedean decomposition of the Weil distribution, and
commutator trace identities.
"""

from .errors import (BudgetExceededError, ConfigError, CountMismatchError,
                     DisagreementError, DivergentIntegralError, DomainError,
                     ExpressionError, ImaginaryResidueError,
                     NonPrimitiveCharacterError, OrderViolationError,
                     ParityMismatchError, PoleError, TableParseError,
                     TailBoundError, ToleranceError, WeiltraceError,
                     WindowError)
from .families import (LogBump, LogGaussian, ParityFunction, ScaledPower,
                       Shifted, TestFunction, apply_J, cmul, gaussian_even,
                       gaussian_odd, power_weight, reflect, scale, tau)
from .grids import QuadratureSpec, cinf_step
from .transforms import (MellinValue, ShiftedProfile, fourier,
                         fourier_quadrature, haar_real_cross, mellin,
                         mellin_parity, pair_log_fourier)
from .special import (CompletedZetaValue, EULER_GAMMA, digamma, gamma,
                      hardy_z, hurwitz_zeta, l_chi, lambda_chi, loggamma,
                      rs_theta, xi, zero_count_estimate, zeta, zeta_tail)
from .zeros import ZeroTable, find_zeros, load_zeros, save_zeros
from .operators import (DirichletCharacter, TruncationSpec, apply_L_chi,
                        apply_Z, apply_Z_inverse, character, characters,
                        mobius_up_to, poisson_check, primes_up_to,
                        primitive_characters, twisted_poisson_check,
                        zspectral_check)
from .explicit import (ExplicitFormulaReport, W_infty, W_p, W_prime_total,
                       archimedean_constant, pv_regularised, spectral_parts,
                       spectral_side, verify_explicit_formula)
from .traces import (AuxiliaryPhi, LogGridSpec, build_phi, commutator_trace,
                     derivation_inverse_identity, phi_log_identity,
                     toeplitz_trace_check, trace_rhs, von_mangoldt_comb,
                     weil_derivation_check)
from .exprs import format_function, parse_function

__version__ = "0.1.0"
