"""Gibbs canonical families of two-level systems.

Five families (real, standard complex, quaternionic, classical, and the
log-weighted Kubo-Mori/Bogoliubov variant) over the energy
E = -ln(1 - r^2) of the Bloch-ball radial coordinate r, together with
independent quadrature/sampling oracles, spectra of averaged tensor
powers, duality experiments, magnetization comparisons, the prior
families they derive from, and a CLI that emits figure data and runs the
verification battery.
"""

from .errors import (BracketingError, ConvergenceError, DomainError,
                     PoleProximityError, QuadratureError)
from .models import (EnergyValue, GibbsPoint, ModelKind, approx_beta_large,
                     approx_beta_small, integrated_density, mean_energy,
                     mean_energy_asymptotic, mean_polarization,
                     modal_beta_estimate, partition, pdf,
                     polarization_asymptotic, reflection_identity_residual,
                     structure_function, var_energy)
from .oracles import DensityMatrix2, page_reduced_state, sample_energy
from .quadrature import QuadratureResult, integrate_semiinfinite
from .specfun import (SeriesResult, digamma, hyp_pfq_at_1, log_gamma,
                      pochhammer, trigamma)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BracketingError", "ConvergenceError", "DomainError",
    "PoleProximityError", "QuadratureError",
    "GibbsPoint", "ModelKind", "EnergyValue",
    "structure_function", "partition", "pdf", "mean_energy", "var_energy",
    "mean_polarization", "integrated_density", "modal_beta_estimate",
    "approx_beta_small", "approx_beta_large", "mean_energy_asymptotic",
    "polarization_asymptotic", "reflection_identity_residual",
    "DensityMatrix2", "QuadratureResult", "integrate_semiinfinite",
    "sample_energy", "page_reduced_state",
    "SeriesResult", "log_gamma", "digamma", "trigamma", "pochhammer",
    "hyp_pfq_at_1",
]
