"""The beta-space dual of the Gibbs families and its round-trip experiment.

Fixing the mean energy and treating beta as the random quantity gives an
(approximate) dual density proportional to
e^(-beta <E>) sqrt(var E(beta)) Z(c/(2 <E>)) / Z(beta), with c = 3 for the
complex family and c = 5 for the quaternionic one.  Normalizing it,
averaging beta, and mapping back through the mean-energy law reproduces
the starting <E> to a fraction of a percent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import quadrature
from .errors import DomainError
from .models import (GibbsPoint, ModelKind, mean_energy, omega_complex,
                     partition, var_energy)
from .specfun import per_element, require_positive

__all__ = [
    "DualExperimentReport",
    "dual_density",
    "run_duality_experiment",
    "mean_beta_closed",
    "var_beta_closed",
    "prior_over_meanE",
]

@dataclass(frozen=True)
class DualExperimentReport:
    target_meanE: float
    normalizer: float
    mean_beta: float
    roundtrip_meanE: float
    model: ModelKind

    def __post_init__(self):
        if self.normalizer <= 0 or self.roundtrip_meanE <= 0:
            raise ValueError("normalizer and roundtrip_meanE must be positive")


def _check_dual_args(model: ModelKind, meanE: float):
    if model not in (ModelKind.COMPLEX, ModelKind.QUATERNIONIC):
        raise DomainError(f"dual density is defined for complex/quaternionic, got {model}")
    require_positive(meanE, "dual density meanE")


def dual_density(model: ModelKind, meanE: float, beta):
    """Unnormalized dual density at beta (var evaluated at beta), with
    c = 2 half_dof: 3 for the complex family, 5 for the quaternionic.

    beta is a float or a 1-D float ndarray whose every element is finite
    and > 0 (else DomainError from ``models``); an array returns one value
    per element, each equal to the float result bit for bit (the array
    paths of ``models`` and ``math.exp`` per element).  The accuracy is
    that of ``partition`` and ``var_energy``, a few ulps relative.
    """
    _check_dual_args(model, meanE)
    c = 2.0 * model.half_dof
    point = GibbsPoint(model, beta)
    ref = GibbsPoint(model, c / (2.0 * meanE))
    value = (0.5 * c * per_element(math.exp, -beta * meanE)
             * np.sqrt(var_energy(point)) * partition(ref) / partition(point))
    return value if isinstance(beta, np.ndarray) else float(value)


def run_duality_experiment(model: ModelKind, meanE: float,
                           tol: float = 1e-10) -> DualExperimentReport:
    """Normalize the dual density, average beta under it, and round-trip
    that mean back through the energy law."""
    _check_dual_args(model, meanE)
    f = lambda b: dual_density(model, meanE, b)
    # e^(-beta <E>) is already ~1e-870 at the truncation point
    upper = 2000.0 / meanE
    norm = quadrature.integrate_interval(f, 0.0, upper, tol=tol).value
    first = quadrature.integrate_interval(lambda b: b * f(b), 0.0, upper,
                                          tol=tol).value
    mean_beta = first / norm
    rt = mean_energy(GibbsPoint(model, mean_beta))
    return DualExperimentReport(target_meanE=meanE, normalizer=norm,
                                mean_beta=mean_beta, roundtrip_meanE=rt,
                                model=model)


def mean_beta_closed(meanE: float) -> float:
    """Closed-form <beta> ~ (3/(2<E>^2)) <E>_s, with <E>_s the complex
    family's mean energy at s = 3/(2<E>)."""
    require_positive(meanE, "mean_beta_closed meanE")
    s = GibbsPoint(ModelKind.COMPLEX, 1.5 / meanE)
    return (1.5 / meanE**2) * mean_energy(s)


def var_beta_closed(meanE: float) -> float:
    """Closed-form var(beta) = (3/(4<E>^4)) (4<E> <E>_s - 3 var_s), with the
    complex family's mean and variance of the energy at s = 3/(2<E>);
    positive, and var(beta) <E>^2 -> 3/2 as <E> -> 0."""
    require_positive(meanE, "var_beta_closed meanE")
    s = GibbsPoint(ModelKind.COMPLEX, 1.5 / meanE)
    return (3.0 / (4.0 * meanE**4)) * (4.0 * meanE * mean_energy(s)
                                       - 3.0 * var_energy(s))


def prior_over_meanE(meanE: float) -> tuple[float, float]:
    """The two candidate priors over <E>: sqrt(var beta) and
    Omega(<E>) / Z(3/(2<E>)) for the complex family."""
    require_positive(meanE, "prior_over_meanE meanE")
    om = float(omega_complex(meanE))
    z = partition(GibbsPoint(ModelKind.COMPLEX, 1.5 / meanE))
    return (math.sqrt(var_beta_closed(meanE)), om / z)
