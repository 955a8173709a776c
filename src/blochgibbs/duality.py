"""The beta-space dual of the Gibbs families and its round-trip experiment.

Fixing the mean energy and treating beta as the random quantity gives an
(approximate) dual density proportional to
e^(-beta <E>) sqrt(var E(beta)) Z(c/(2 <E>)) / Z(beta), with c = 3 for the
complex family and c = 5 for the quaternionic one.  Normalizing it,
averaging beta, and mapping back through the mean-energy law reproduces
the starting <E> to a fraction of a percent.

The closed forms ``mean_beta_closed``, ``var_beta_closed`` and
``prior_over_meanE`` take a float <E> or a 1-D float array of them, one
value per element equal to the float result bit for bit, in
[2**-511, 1.5 * 2**511], else DomainError.  They carry the accuracy of
``mean_energy`` and ``var_energy`` (within 3e-16 relative of mpmath at
<E> = 0.01, 1, 16.3 and 30); the Z ratio of ``prior_over_meanE`` carries
that of the power-law ``partition``, whose log_gamma differences lose
their digits at s = 3/(2<E>) past ~1e10 (<E> below ~1e-10).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import quadrature
from .errors import DomainError, QuadratureError
from .models import (GibbsPoint, ModelKind, mean_energy, omega_complex,
                     partition, var_energy)
from .specfun import require_positive

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
    per element, each equal to the float result bit for bit.  The accuracy
    is that of ``partition`` and ``var_energy``, a few ulps relative.
    """
    _check_dual_args(model, meanE)
    c = 2.0 * model.half_dof
    point = GibbsPoint(model, beta)
    ref = GibbsPoint(model, c / (2.0 * meanE))
    value = (0.5 * c * np.exp(-beta * meanE)
             * np.sqrt(var_energy(point)) * partition(ref) / partition(point))
    return value if isinstance(beta, np.ndarray) else float(value)


def run_duality_experiment(model: ModelKind, meanE: float,
                           tol: float = 1e-10) -> DualExperimentReport:
    """Normalize the dual density, average beta under it, and round-trip
    that mean back through the energy law.

    Domain as ``dual_density``.  QuadratureError when the quadrature
    cannot reach ``tol`` (as at <E> = 1e-9), or when the normaliser, 0.90
    to 1.0 wherever it converges, is not within a factor 2 of 1: 0 where
    every value underflows (<E> = 1e-300), 1.5e-31 where the partition
    functions' log_gamma differences have lost their digits (1e-16).
    Also QuadratureError when the first moment int beta f dbeta, about
    1/<E>, is at most 10 ``tol`` (absolute): from <E> ~ 4e8 up at the
    default tol, where the round trip would be 26 times <E>; up to 3.16e8
    it is within 3e-12 relative of <E>.
    """
    _check_dual_args(model, meanE)
    f = lambda b: dual_density(model, meanE, b)
    # e^(-beta <E>) is already ~1e-870 at the truncation point
    upper = 2000.0 / meanE
    norm = quadrature.integrate_interval(f, 0.0, upper, tol=tol).value
    if not 0.5 <= norm <= 2.0:
        raise QuadratureError(f"dual density normaliser {norm!r} is not "
                              f"within a factor 2 of 1 at meanE = {meanE!r}")
    first = quadrature.integrate_interval(lambda b: b * f(b), 0.0, upper,
                                          tol=tol).value
    if not first > 10.0 * tol:
        raise QuadratureError(f"dual density first moment {first!r} is not "
                              f"above 10 tol at meanE = {meanE!r}")
    mean_beta = first / norm
    rt = mean_energy(GibbsPoint(model, mean_beta))
    return DualExperimentReport(target_meanE=meanE, normalizer=norm,
                                mean_beta=mean_beta, roundtrip_meanE=rt,
                                model=model)


# <E> range of the closed forms: from 2**-511, where var(beta) ~
# 3/(2<E>^2) is finite, to 1.5 * 2**511, where s = 3/(2<E>) reaches the
# floor 2**-511 of the complex <E> and var E
_CLOSED_MIN, _CLOSED_MAX = 2.0**-511, 1.5 * 2.0**511


def _closed_form_point(meanE, name: str) -> GibbsPoint:
    """The complex family at s = 3/(2<E>) for <E>, a float or a 1-D float
    array, in [2**-511, 1.5 * 2**511]; else DomainError."""
    if not isinstance(meanE, np.ndarray):
        require_positive(meanE, f"{name} meanE")
    if np.ndim(meanE) > 1 or not np.all((meanE >= _CLOSED_MIN)
                                        & (meanE <= _CLOSED_MAX)):
        raise DomainError(f"{name} requires meanE, a float or a 1-D array, "
                          "in [2**-511, 1.5 * 2**511] (about 1.0e154)")
    return GibbsPoint(ModelKind.COMPLEX, 1.5 / meanE)


def mean_beta_closed(meanE):
    """Closed-form <beta> ~ (3/(2<E>^2)) <E>_s, with <E>_s the complex
    family's mean energy at s = 3/(2<E>); float or array <E>."""
    s = _closed_form_point(meanE, "mean_beta_closed")
    return (1.5 / meanE) * (mean_energy(s) / meanE)


def var_beta_closed(meanE):
    """Closed-form var(beta) = (3/(4<E>^4)) (4<E> <E>_s - 3 var_s), with the
    complex family's mean and variance of the energy at s = 3/(2<E>);
    positive, and var(beta) <E>^2 -> 3/2 as <E> -> 0; float or array <E>.
    Each factor of <E> divides separately, so nothing overflows before
    the result would."""
    s = _closed_form_point(meanE, "var_beta_closed")
    inner = 4.0 * (mean_energy(s) / meanE) - 3.0 * (var_energy(s) / meanE
                                                    / meanE)
    return 0.75 * inner / meanE / meanE


def prior_over_meanE(meanE):
    """The two candidate priors over <E>: sqrt(var beta) and
    Omega(<E>) / Z(3/(2<E>)) for the complex family; a pair of floats, or
    of arrays for an array <E>."""
    s = _closed_form_point(meanE, "prior_over_meanE")
    sd = np.sqrt(var_beta_closed(meanE))
    ratio = omega_complex(meanE) / partition(s)
    if isinstance(meanE, np.ndarray):
        return sd, ratio
    return float(sd), float(ratio)
