"""Numerical toolkit for symmetric tempered stable densities.

Builds spectral-radial jump measures, evaluates their characteristic
exponents, inverts exp(-t Phi) into transition densities, decomposes the
semigroup into small-jump and compound-Poisson parts, evaluates two-sided
density envelopes, samples increments, and runs verification scans.
"""

# the one version literal: packaging metadata and reports read it from here
__version__ = "0.1.0"

from .errors import (DegeneracyError, DomainError, GridError, NumericError,
                     RegimeError, TempLevyError, UnsupportedProfileError)
from .profiles import (Constant, ExpTempered, PolyTempered, RadialProfile,
                       Relativistic, Truncated, doubling_constant,
                       relativistic_kernel, tail_index)
from .model import (LevyModel, SpectralMeasure, cauchy_model, exp_model,
                    load_model, model_from_dict, model_to_dict, nu_ball,
                    nu_tail, poly_model, relativistic_model, save_model,
                    stable_model)
from .charexp import phi, phi_on_points, psi_quad, psi_vector, stable_constant
from .density import (DensityField, GridSpec, density_at, invert,
                      load_field, on_diagonal_scan, save_field)
from .decomp import (CompoundPoissonField, SplitMeasure, compound_poisson,
                     default_eps, local_density, local_moment, recompose,
                     split)
from .envelope import EnvelopeSpec, hypothesis_check
from .montecarlo import SamplerConfig, sample_many
from .harness import (VerificationReport, run_suite, verify_decomposition,
                      verify_lower, verify_upper)
