"""Comparison magnetization laws, curve intersections, the reduced-temperature
mapping, and the mean-field critical point.

All magnetization functions are normalized to saturation 1 (reduced
variables throughout).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rootfind
from .errors import DomainError
from .models import (GibbsPoint, ModelKind, integrated_density,
                     mean_polarization)
from .specfun import per_element, require_positive

__all__ = [
    "IntersectionReport",
    "brillouin_tanh",
    "langevin",
    "langevin_partition",
    "brosseau_polarization",
    "intersect_brosseau",
    "kmb_density_crossing",
    "reduced_temperature",
    "loglinear_fit",
    "critical_beta",
    "order_parameter",
]

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class IntersectionReport:
    model: ModelKind
    beta_star: float
    residual: float

    def __post_init__(self):
        if abs(self.residual) > 1e-10:
            raise ValueError(f"reported root residual {self.residual} exceeds 1e-10")


def brillouin_tanh(x: float) -> float:
    """Spin-1/2 equilibrium magnetization tanh(x), saturation 1."""
    return math.tanh(x)


def langevin(x: float) -> float:
    """coth(x) - 1/x, with the x -> 0 limit (series x/3 - x^3/45) built in."""
    if x == 0.0:
        return 0.0
    if abs(x) < 1e-4:
        return x / 3.0 - x**3 / 45.0
    return 1.0 / math.tanh(x) - 1.0 / x


def langevin_partition(beta: float) -> float:
    """sinh(beta)/beta, the classical-dipole generating function; its log
    derivative is the Langevin function.  Domain: |beta| <= 717, where
    the value is finite (from 710 on as e^(|beta|/2) (e^(|beta|/2) /
    (2 |beta|)), sinh itself overflowing), else DomainError."""
    if beta == 0.0:
        return 1.0
    if abs(beta) < 1e-4:
        return 1.0 + beta * beta / 6.0
    if abs(beta) < 710.0:
        return math.sinh(beta) / beta
    if not abs(beta) <= 717.0:
        raise DomainError(f"langevin_partition overflows above |beta| = 717, "
                          f"got {beta!r}")
    half = math.exp(0.5 * abs(beta))
    return half * (half / (2.0 * abs(beta)))


def brosseau_polarization(tau: float) -> float:
    """tanh(1/tau): polarization against effective temperature tau > 0."""
    require_positive(tau, "brosseau_polarization tau")
    return math.tanh(1.0 / tau)


def intersect_brosseau(model: ModelKind) -> IntersectionReport:
    """Crossing of a family's mean polarization with tanh(1/beta) on
    (0.1, 10); bisection/secant refined to 1e-10."""
    if model is ModelKind.KMB:
        raise DomainError("the tanh(1/beta) comparison targets the four "
                          "power-law families")

    def f(b):
        return (mean_polarization(GibbsPoint(model, b))
                - per_element(math.tanh, 1.0 / b))

    lo, hi = rootfind.scan_bracket(f, 0.1, 10.0, points=200)
    root = rootfind.brent(f, lo, hi, xtol=1e-14)
    return IntersectionReport(model=model, beta_star=float(root),
                              residual=float(f(root)))


def kmb_density_crossing(model: ModelKind) -> float:
    """E0 at which the KMB integrated density of states crosses another
    family's, scanned on 600 log-spaced points over [1e-7, 60].

    Crossings exist against the classical and real families only; for the
    complex and quaternionic curves the difference is strictly positive
    (the KMB structure function dominates twice either one pointwise), so
    the scan raises BracketingError with the minimum gap found.
    """
    if model is ModelKind.KMB:
        raise DomainError("need a non-KMB family to compare against")

    def diff(e0):
        return integrated_density(ModelKind.KMB, e0) - integrated_density(model, e0)

    lo, hi = rootfind.scan_bracket(diff, 1e-7, 60.0, points=600)
    return float(rootfind.brent(diff, lo, hi, xtol=1e-12))


def reduced_temperature(beta: float | np.ndarray) -> float | np.ndarray:
    """artanh of the complex-family mean polarization: the field/temperature
    ratio at which the tanh law would produce the same magnetization.

    beta is a float > 0 or a 1-D float array of finite values > 0.  An
    array makes one ``mean_polarization`` call and applies ``math.atanh``
    per element, so each element equals the float result bit for bit.
    DomainError if any <r> rounds to 1 (saturation: beta = 0 or below
    about 1e-14), where the artanh is undefined, and for any beta that
    ``GibbsPoint`` rejects.
    """
    pol = mean_polarization(GibbsPoint(ModelKind.COMPLEX, beta))
    if np.any(pol >= 1.0):
        raise DomainError("polarization at saturation; artanh undefined")
    return per_element(math.atanh, pol)


def loglinear_fit() -> tuple[float, float]:
    """Least-squares (slope, intercept) of ln(reduced_temperature) against
    ln(beta) over 60 log-spaced beta on [1e3, 1e5]; the tail law is
    ln x = ln 2 - (1/2) ln pi - (1/2) ln beta."""
    betas = np.logspace(3.0, 5.0, 60)
    y = per_element(math.log, reduced_temperature(betas))
    design = np.vstack([np.log(betas), np.ones_like(betas)]).T
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    return float(coef[0]), float(coef[1])


def critical_beta(lambda_mf: float) -> float:
    """Mean-field critical temperature lambda/(4 (2 ln 2 - 1))."""
    require_positive(lambda_mf, "critical_beta lambda_mf")
    return lambda_mf / (4.0 * (2.0 * _LN2 - 1.0))


def order_parameter(beta: float, lambda_mf: float) -> tuple[float, float]:
    """The +- pair 2<r> - 1 = +-(1 - beta_c/beta)^(1/2), zero at or below
    the critical point."""
    require_positive(beta, "order_parameter beta")
    bc = critical_beta(lambda_mf)
    if beta <= bc:
        return (0.0, 0.0)
    root = math.sqrt(1.0 - bc / beta)
    return (root, -root)
