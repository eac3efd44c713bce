"""Inequality calculus for non-local jump forms on finite and lattice models.

Core objects: finite measure spaces with symmetric jump kernels, their
Dirichlet energies and exact spectral semigroups, Young-function gauges,
isoperimetric profiles by exact subset enumeration, and super-Poincare rate
functions; on top of them, executable verifiers for the implications tying
these quantities together, plus lattice subordination and radial continuum
models realizing the stable-like kernels.
"""

from .core import (FiniteMeasureSpace, JumpKernel, KillingPotential,
                   Semigroup, SemigroupKernel, ValidationError,
                   WeightFunction, bar_extension, dirichlet_energy,
                   generator, instance_from_json, instance_to_json, l1_form,
                   schrodinger_energy, semigroup, theta_integral)
from .isoperimetry import (IsoperimetricProfile, coarea_check,
                           enumerate_profile, kappa_orlicz, sampled_profile,
                           thm20_backward, thm20_forward, thm20_poincare)
from .superpoincare import (RateFunction, certified_rate, lemma2_bound,
                            rate_power, rate_power_pair, rate_tabulated,
                            sp_decay_check, sp_estimate, sp_verify)
from .theorems import (cor41, cor41_round_trip, lemma1_core, lemma1_poincare,
                       lemma1_sobolev, thm21_verify, thm21_young, thm41,
                       thm42, thm43)
from .young import (ProfileH, YoungFunction, builtin, c_N, domination,
                    invert_phi, orlicz_norm, phi_h, scaling_bound_check)

__version__ = "0.1.0"
