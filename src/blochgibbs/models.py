"""The five Gibbs canonical families over two-level systems.

Each family lives on the energy half-line E = -ln(1 - r^2) >= 0, where r
is the Bloch-ball radial coordinate (degree of polarization).  The four
power-law families share the structure function (1 - e^-E)^((m-1)/2) with
dimension parameter m in {1, 2, 4, 0}; the fifth uses the logarithmic
structure function 2 artanh sqrt(1 - e^-E).  All gamma-function ratios go
through differences of log_gamma, never through Gamma quotients.

Array beta: ``partition``, ``mean_energy``, ``var_energy`` and
``mean_polarization`` also take a GibbsPoint whose beta is a 1-D float
array and return one value per element, through the array paths of
``specfun`` (one special-function call per term instead of one per beta;
the KMB 3F2 factors of a whole grid go to one batched ``hyp_pfq_at_1``
call).  Every element equals the scalar result bit for bit: the
arithmetic is the same, operation for operation, with ``math.exp`` and
``math.log`` applied per element, so the accuracy against mpmath is the
scalar path's.  The four calls on a 200-point grid over [0.1, 100] take
about 1-2 ms for a power-law family and 10-12 ms for KMB, against 4 ms
and 22-29 ms one beta at a time (2-core x86-64 VM).  Every other
function here takes a float beta; ``integrated_density`` also takes an
array of E0.

``ModelKind`` is the one family table: each member records m and its
CLI names, and every other module reads a family's facts from it and
its formulas from the functions here.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import DomainError, PoleProximityError
from .specfun import (digamma, log_gamma, log_gamma_signed, per_element,
                      trigamma)

__all__ = [
    "ModelKind",
    "GibbsPoint",
    "EnergyValue",
    "POWER_LAW_MODELS",
    "structure_function",
    "partition",
    "pdf",
    "mean_energy",
    "var_energy",
    "mean_polarization",
    "mean_energy_series",
    "integrated_density",
    "modal_beta_estimate",
    "modal_curvature",
    "approx_beta_small",
    "approx_beta_large",
    "mean_energy_asymptotic",
    "polarization_asymptotic",
    "reflection_identity_residual",
    "omega_complex",
    "atanh_omega",
]

_SQRT_PI = math.sqrt(math.pi)
_LN2 = math.log(2.0)


class ModelKind(enum.Enum):
    """The five canonical families, one record each.

    A record holds the family's name (the enum value), the dimension
    parameter m of a power-law family (None for KMB) and the names the CLI
    accepts for it.  Everything else a family is, its structure-function
    exponent, its partition function and its moments, follows from m.
    """

    REAL = "real", 1, ("real",)
    COMPLEX = "complex", 2, ("complex",)
    QUATERNIONIC = "quaternionic", 4, ("quat", "quaternionic")
    CLASSICAL = "classical", 0, ("class", "classical")
    KMB = "kmb", None, ("kmb",)

    def __new__(cls, name: str, m: int | None, cli_names: tuple[str, ...]):
        member = object.__new__(cls)
        member._value_ = name
        member.m = m
        member.cli_names = cli_names
        return member

    @property
    def omega_exponent(self) -> float | None:
        """(m - 1)/2, the structure-function exponent; None for KMB."""
        return None if self.m is None else (self.m - 1) / 2.0

    @property
    def half_dof(self) -> float | None:
        """(m + 1)/2: 1, 3/2, 5/2, 1/2 for real/complex/quaternionic/classical."""
        return None if self.m is None else (self.m + 1) / 2.0


# m descending: quaternionic, complex, real, classical
POWER_LAW_MODELS = tuple(sorted((k for k in ModelKind if k.m is not None),
                                key=lambda k: -k.m))


@dataclass(frozen=True)
class GibbsPoint:
    """A (family, effective polarization temperature) evaluation point.

    beta = 0 is admitted at construction because the polarization mean has
    a continuous limit there; every partition-function-backed operation
    requires beta > 0 and raises otherwise.  beta may also be a 1-D float
    ndarray (a grid; stored as a read-only copy), which ``partition``,
    ``mean_energy``, ``var_energy`` and ``mean_polarization`` evaluate
    element by element.
    """

    model: ModelKind
    beta: float | np.ndarray

    def __post_init__(self):
        if not isinstance(self.model, ModelKind):
            raise DomainError(f"model must be a ModelKind, got {self.model!r}")
        if isinstance(self.beta, np.ndarray):
            beta = np.array(self.beta, dtype=float)
            if beta.ndim != 1 or not np.all((beta >= 0) & (beta < math.inf)):
                raise DomainError("beta must be a 1-D array of finite values >= 0")
            beta.flags.writeable = False
            object.__setattr__(self, "beta", beta)
        elif not math.isfinite(self.beta) or self.beta < 0:
            raise DomainError(f"beta must be finite and >= 0, got {self.beta!r}")


@dataclass(frozen=True)
class EnergyValue:
    """Dimensionless energy E = -ln(1 - r^2) of a two-level state.

    E = 0 is the fully mixed state, E = inf the pure ones; `r` recovers
    the Bloch-vector length through the positive branch.
    """

    E: float

    def __post_init__(self):
        if math.isnan(self.E) or self.E < 0:
            raise DomainError(f"E must be >= 0, got {self.E!r}")

    @property
    def r(self) -> float:
        return 1.0 if math.isinf(self.E) else float(omega_complex(self.E))

    @classmethod
    def from_polarization(cls, r: float) -> "EnergyValue":
        if not 0.0 <= r <= 1.0:
            raise DomainError(f"r must lie in [0, 1], got {r!r}")
        if r == 1.0:
            return cls(E=math.inf)
        return cls(E=-math.log1p(-r * r))


def _require_positive_beta(point: GibbsPoint):
    beta = point.beta
    low = beta.min(initial=math.inf) if isinstance(beta, np.ndarray) else beta
    if low <= 0:
        raise DomainError(f"beta must be > 0, got {float(low)!r}")


def omega_complex(E):
    """sqrt(1 - e^-E), the complex-family structure function."""
    return np.sqrt(-np.expm1(-np.asarray(E, dtype=float)))


def atanh_omega(E):
    """artanh(sqrt(1 - e^-E)) = ln(1 + sqrt(1 - e^-E)) + E/2, overflow-free."""
    E = np.asarray(E, dtype=float)
    return np.log1p(omega_complex(E)) + 0.5 * E


def _as_float_or_array(x, scalar_in):
    return float(x) if scalar_in else x


def structure_function(model: ModelKind, E):
    """Density of states Omega(E) for E >= 0.

    Power-law families return (1 - e^-E)^((m-1)/2); the classical case
    diverges like E^(-1/2) at E = 0 (integrable) and returns inf there.
    The KMB family returns 2 artanh sqrt(1 - e^-E).
    """
    E_arr = np.asarray(E, dtype=float)
    scalar = E_arr.ndim == 0
    if np.any(E_arr < 0) or not np.all(np.isfinite(E_arr)):
        raise DomainError("structure_function requires finite E >= 0")
    if model is ModelKind.KMB:
        return _as_float_or_array(2.0 * atanh_omega(E_arr), scalar)
    expo = model.omega_exponent
    if expo == 0:
        out = np.ones_like(E_arr)
    else:
        with np.errstate(divide="ignore"):
            out = omega_complex(E_arr) ** (2.0 * expo)
    return _as_float_or_array(out, scalar)


def _log_partition_power(half_dof: float, beta: float) -> float:
    return log_gamma(half_dof) + log_gamma(beta) - log_gamma(half_dof + beta)


def partition(point: GibbsPoint) -> float | np.ndarray:
    """Partition function Z(beta) = integral of e^(-beta E) Omega(E).

    The single expression Gamma((m+1)/2) Gamma(beta) / Gamma((m+1)/2+beta)
    covers all four power-law families; the KMB value is Z_classical/beta.
    Float or array beta > 0; the KMB Z ~ 1/beta^2 overflows below
    beta = 2**-511 (about 1.49e-154), where it raises DomainError like
    ``trigamma``.
    """
    _require_positive_beta(point)
    beta = point.beta
    if point.model is ModelKind.KMB:
        specfun.require_square_floor(beta, "KMB partition", "beta")
        return per_element(math.exp, _log_partition_power(0.5, beta)) / beta
    return per_element(math.exp,
                       _log_partition_power(point.model.half_dof, beta))


def pdf(point: GibbsPoint, E):
    """Gibbs density e^(-beta E) Omega(E) / Z(beta); vectorized over E,
    for a float beta > 0."""
    if isinstance(point.beta, np.ndarray):
        raise DomainError("pdf takes a float beta; vectorize over E instead")
    _require_positive_beta(point)
    E_arr = np.asarray(E, dtype=float)
    scalar = E_arr.ndim == 0
    if np.any(E_arr < 0) or not np.all(np.isfinite(E_arr)):
        raise DomainError("pdf requires finite E >= 0")
    z = partition(point)
    om = structure_function(point.model, E_arr)
    out = np.exp(-point.beta * E_arr) * om / z
    return _as_float_or_array(out, scalar)


def mean_energy(point: GibbsPoint) -> float | np.ndarray:
    """<E> = -d/dbeta ln Z; float or array beta > 0."""
    _require_positive_beta(point)
    beta = point.beta
    if point.model is ModelKind.KMB:
        return 1.0 / beta + digamma(0.5 + beta) - digamma(beta)
    return digamma(point.model.half_dof + beta) - digamma(beta)


def var_energy(point: GibbsPoint) -> float | np.ndarray:
    """var(E) = d^2/dbeta^2 ln Z; strictly positive; float or array beta > 0."""
    _require_positive_beta(point)
    beta = point.beta
    if point.model is ModelKind.KMB:
        # trigamma first: it rejects beta below its floor before 1/beta^2
        # overflows (the sum is the same either way round)
        return trigamma(beta) + 1.0 / (beta * beta) - trigamma(0.5 + beta)
    return trigamma(beta) - trigamma(point.model.half_dof + beta)


def _kmb_hyp_factor(beta, tol: float = 1e-12):
    """3F2({1/2,1,2};{3/2,2+beta};1) for a float or array beta > 0.

    For beta < 3 the series is first mapped by the two-term Thomae
    relation to 3F2({-1/2,beta,beta};{1+beta,1/2+beta};1), whose
    convergence excess is 2 regardless of beta; the slow small-beta
    regime then sums just as fast as any other.  An array sums both kinds
    of rows in one batched call.
    """
    if isinstance(beta, np.ndarray):
        direct = beta >= 3.0
        pref = np.ones_like(beta)
        if not direct.all():
            pref[~direct] = _thomae_prefactor(beta[~direct])
        nums = [np.where(direct, 0.5, -0.5), np.where(direct, 1.0, beta),
                np.where(direct, 2.0, beta)]
        dens = [np.where(direct, 1.5, 1.0 + beta),
                np.where(direct, 2.0 + beta, 0.5 + beta)]
    elif beta >= 3.0:
        pref, nums, dens = 1.0, [0.5, 1.0, 2.0], [1.5, 2.0 + beta]
    else:
        pref = _thomae_prefactor(beta)
        nums, dens = [-0.5, beta, beta], [1.0 + beta, 0.5 + beta]
    return pref * specfun.hyp_pfq_at_1(nums, dens, tol / pref).value


def _thomae_prefactor(beta):
    return per_element(math.exp, log_gamma(1.5) + log_gamma(2.0 + beta)
                       + log_gamma(beta) - log_gamma(2.0)
                       - log_gamma(1.0 + beta) - log_gamma(0.5 + beta))


def _polarization(model: ModelKind, beta):
    """<r> for float or array beta > 0, before the cap at 1."""
    if model is ModelKind.KMB:
        return (2.0 * beta * _kmb_hyp_factor(beta) / _SQRT_PI
                * per_element(math.exp, log_gamma(0.5 + beta)
                              - log_gamma(2.0 + beta)))
    m = model.m
    return per_element(math.exp, log_gamma(1.0 + m / 2.0)
                       + log_gamma(0.5 + beta + m / 2.0)
                       - log_gamma(1.0 + beta + m / 2.0)
                       - log_gamma((1.0 + m) / 2.0))


def mean_polarization(point: GibbsPoint) -> float | np.ndarray:
    """<r>, the mean Bloch-vector length; 1 at beta = 0, -> 0 as beta -> inf.

    Power-law families use the closed gamma-ratio form
    Gamma(1+m/2) Gamma(1/2+beta+m/2) / (Gamma(1+beta+m/2) Gamma((1+m)/2));
    the KMB family evaluates its 3F2 series at tolerance 1e-12.  Float or
    array beta >= 0.  The result never exceeds 1: below beta of about
    1e-8 rounding can push the formulas a few ulps above 1 while the true
    value is within an ulp of 1, and 1 is returned instead.
    """
    beta = point.beta
    if isinstance(beta, np.ndarray):
        out = np.ones_like(beta)
        positive = beta > 0
        if positive.any():
            out[positive] = _polarization(point.model, beta[positive])
        return np.minimum(out, 1.0)
    if beta == 0.0:
        return 1.0
    return min(_polarization(point.model, beta), 1.0)


def mean_energy_series(beta: float, tol: float = 1e-8) -> specfun.SeriesResult:
    """<E> for the complex family from its Pochhammer series
    sum_{n>=1} (3/2)_n / (n (3/2+beta)_n), accelerated like the 3F2 above.
    """
    if beta <= 0:
        raise DomainError("mean_energy_series requires beta > 0")
    front = 1.5 / (1.5 + beta)
    if beta >= 3.0:
        res = specfun.hyp_pfq_at_1([1.0, 1.0, 2.5], [2.0, 2.5 + beta], tol / front)
    else:
        pref = math.exp(log_gamma(2.0) + log_gamma(2.5 + beta) + log_gamma(beta)
                        - log_gamma(2.5) - 2.0 * log_gamma(1.0 + beta))
        inner = specfun.hyp_pfq_at_1([-0.5, beta, beta],
                                     [1.0 + beta, 1.0 + beta],
                                     tol / (front * pref))
        res = specfun.SeriesResult(value=pref * inner.value,
                                   terms_used=inner.terms_used,
                                   tail_bound=pref * inner.tail_bound)
    return specfun.SeriesResult(value=front * res.value,
                                terms_used=res.terms_used,
                                tail_bound=front * res.tail_bound)


def integrated_density(model: ModelKind, E0):
    """N(E0) = integral of Omega over [0, E0].

    E0 is a float >= 0 or a 1-D float ndarray of finite values >= 0, in
    any order and with repeats (one value per element); anything else
    raises DomainError.  Both types run the same arithmetic (``math.exp``
    per element for the power laws, one numpy path for KMB), so array
    elements equal float results bit for bit.

    The four power-law families use their closed forms.  Against 40-digit
    mpmath on 400 points over [1e-5, 50] they are within 1e-14 absolute;
    relative accuracy is lost to cancellation at small E0 (quaternionic
    5e-6 and complex 3e-11 at E0 = 1e-5, where N is 1e-13 and 2e-8).

    KMB is a closed form too.  With r = sqrt(1 - e^-E0),
    N = int_0^r 4 rho artanh(rho) / (1 - rho^2) drho.  Below r = 0.7 that
    is the series 4 sum_k c_k r^(2k+3) / (2k+3), c_k = sum_{j<=k} 1/(2j+1),
    summed to 2^-57 relative.  From r = 0.7 on, Euler's reflection leaves
    one dilogarithm of a = (1 - r)/2 = e^-E0 / (2 (1 + r)) <= 0.15:
    N = E0^2/2 + 2 ln2 E0 - (pi^2/6 - 2 ln^2 2) + 2 Li2(a) - ln^2(1 - a),
    the reflection form rewritten with ln(1 + r) = ln2 + ln(1 - a) so the
    large constant terms cancel less.  Against 40-digit mpmath on the 400
    points above the relative error is at most 3.9e-16 (median 7e-17), and
    the two forms agree to 2 ulp at the switch.  KMB raises DomainError
    above E0 = 2**511, where N would overflow.

    Cost (2-core x86-64 VM): a float takes 0.5-5 us for a power law and
    50-90 us for KMB; the 400-point grid takes 0.07 ms for a power law and
    0.1 ms for KMB.
    """
    array = isinstance(E0, np.ndarray)
    if array:
        E0 = np.array(E0, dtype=float)
        if E0.ndim != 1 or not np.all((E0 >= 0) & (E0 < math.inf)):
            raise DomainError("integrated_density requires a 1-D array of "
                              "finite E0 >= 0")
    elif not math.isfinite(E0) or E0 < 0:
        raise DomainError("integrated_density requires finite E0 >= 0")
    if model is ModelKind.KMB:
        out = _kmb_integrated_density(E0 if array else np.array([E0], float))
        return out if array else float(out[0])
    if model is ModelKind.REAL:
        return E0
    om, ath = omega_complex(E0), atanh_omega(E0)
    if not array:
        om, ath = float(om), float(ath)
    if model is ModelKind.COMPLEX:
        return 2.0 * (ath - om)
    if model is ModelKind.QUATERNIONIC:
        return 2.0 * (ath + om * (per_element(math.exp, -E0) - 4.0) / 3.0)
    return 2.0 * ath  # classical


# r^2 at the switch from the series to the dilogarithm form (r = 0.7)
_KMB_SWITCH_R2 = 0.49
# c_k / (2k+3), k = 0..55: at r^2 < 0.49 the omitted tail is below
# 0.49^56 < 2^-57 relative to the sum, which is at least 1/3
_KMB_SERIES = tuple(math.fsum(1.0 / (2 * j + 1) for j in range(k + 1))
                    / (2 * k + 3) for k in range(56))
# pi^2/6 - 2 ln^2 2, the constant of the dilogarithm form
_KMB_DILOG_CONST = math.pi**2 / 6.0 - 2.0 * _LN2**2
_KMB_E0_MAX = 2.0**511


def _kmb_integrated_density(E0: np.ndarray) -> np.ndarray:
    """KMB N(E0) for a 1-D array of finite E0 >= 0, element by element."""
    if E0.size and E0.max() > _KMB_E0_MAX:
        raise DomainError("KMB integrated_density overflows above "
                          "E0 = 2**511 (about 6.7e153)")
    r2 = -np.expm1(-E0)
    low = r2 < _KMB_SWITCH_R2
    out = np.empty_like(E0)
    if low.any():
        out[low] = _kmb_density_series(r2[low])
    if not low.all():
        high = ~low
        out[high] = _kmb_density_dilog(E0[high], r2[high])
    return out


def _kmb_density_series(r2: np.ndarray) -> np.ndarray:
    """4 r^3 sum_k c_k r^(2k) / (2k+3) for r^2 < 0.49."""
    acc = np.zeros_like(r2)
    for c in reversed(_KMB_SERIES):
        acc *= r2
        acc += c
    return 4.0 * np.power(r2, 1.5) * acc


def _kmb_density_dilog(E0: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """The dilogarithm form of KMB N(E0) for r^2 >= 0.49."""
    a = np.exp(-E0) / (2.0 * (1.0 + np.sqrt(r2)))
    ln1ma = np.log1p(-a)
    return ((2.0 * _LN2 * E0 - _KMB_DILOG_CONST)
            + (0.5 * E0 * E0 + (2.0 * specfun._dilog_small(a) - ln1ma * ln1ma)))


def modal_beta_estimate(model: ModelKind, E: float) -> float:
    """Mode-matching estimate of beta from one energy: d/dE ln Omega(E).

    (m-1)/(2 (e^E - 1)) for the power-law families (identically 0 in the
    real case); the KMB analogue of the same derivative is
    1 / (2 r artanh r) with r = sqrt(1 - e^-E).
    """
    if not math.isfinite(E) or E <= 0:
        raise DomainError("modal_beta_estimate requires E > 0")
    if model is ModelKind.KMB:
        r = float(omega_complex(E))
        return 1.0 / (2.0 * r * float(atanh_omega(E)))
    if model is ModelKind.REAL:
        return 0.0
    return (model.m - 1) / (2.0 * math.expm1(E))


def modal_curvature(model: ModelKind, E: float) -> float:
    """-d^2/dE^2 ln Omega(E), the curvature companion of the modal estimate."""
    if not math.isfinite(E) or E <= 0:
        raise DomainError("modal_curvature requires E > 0")
    if model is ModelKind.KMB:
        r = float(omega_complex(E))
        a = float(atanh_omega(E))
        return (math.exp(-E) * a / (2.0 * r) + 0.5) / (2.0 * (r * a) ** 2)
    if model is ModelKind.REAL:
        return 0.0
    em1 = math.expm1(E)
    return ((model.m - 1) / 2.0) / (em1 * (-math.expm1(-E)))


def approx_beta_small(meanE: float) -> float:
    """Small-beta closed form beta ~ 1/(<E> - 2 - ln 2), complex family."""
    if not math.isfinite(meanE) or meanE <= 2.0 + _LN2:
        raise DomainError("approx_beta_small requires meanE > 2 + ln 2")
    return 1.0 / (meanE - 2.0 - _LN2)


def approx_beta_large(meanE: float) -> float:
    """Large-beta closed form beta ~ 3/(2 <E>), complex family."""
    if not math.isfinite(meanE) or meanE <= 0:
        raise DomainError("approx_beta_large requires meanE > 0")
    return 1.5 / meanE


_MEAN_E_ASYMPT = (1.5, -0.375, 0.25, -9.0 / 64.0, 1.0 / 16.0)


def mean_energy_asymptotic(beta: float, order: int) -> float:
    """Partial sum of the large-beta expansion of <E>, complex family:
    3/(2 b) - 3/(8 b^2) + 1/(4 b^3) - 9/(64 b^4) + 1/(16 b^5).
    """
    if not math.isfinite(beta) or beta <= 0:
        raise DomainError("mean_energy_asymptotic requires beta > 0")
    if not 1 <= order <= 5:
        raise DomainError("order must be in 1..5")
    return sum(c / beta ** (k + 1) for k, c in enumerate(_MEAN_E_ASYMPT[:order]))


def polarization_asymptotic(beta: float) -> float:
    """Four-term large-beta expansion of <r>, complex family."""
    if not math.isfinite(beta) or beta <= 0:
        raise DomainError("polarization_asymptotic requires beta > 0")
    rb = math.sqrt(beta)
    return (2.0 / rb - 1.25 / rb**3 + (73.0 / 64.0) / rb**5
            - (575.0 / 512.0) / rb**7) / _SQRT_PI


def reflection_identity_residual(beta: float) -> float:
    """|<r> 2 sqrt(pi) (beta+1) Gamma(3/2-beta) / ((4 beta^2-1) Gamma(-beta))
    - tan(pi beta)| for the complex family.

    Gamma at negative arguments goes through the reflection formula with
    sign tracking.  Points within 1e-3 of a half-integer or integer are
    rejected (poles of either side).
    """
    if not math.isfinite(beta) or beta <= 0:
        raise DomainError("reflection_identity_residual requires beta > 0")
    if abs(2.0 * beta - round(2.0 * beta)) < 2e-3:
        raise PoleProximityError(
            f"beta = {beta!r} is within 1e-3 of a pole (half-integer grid)")
    pol = mean_polarization(GibbsPoint(ModelKind.COMPLEX, beta))
    lg_num, s_num = log_gamma_signed(1.5 - beta)
    lg_den, s_den = log_gamma_signed(-beta)
    quad_fac = 4.0 * beta * beta - 1.0
    log_mag = (math.log(pol) + _LN2 + 0.5 * math.log(math.pi)
               + math.log1p(beta) + lg_num - math.log(abs(quad_fac)) - lg_den)
    sign = s_num * s_den * (1 if quad_fac > 0 else -1)
    lhs = sign * math.exp(log_mag)
    return abs(lhs - math.tan(math.pi * beta))
