"""The five Gibbs canonical families over two-level systems.

Each family lives on the energy half-line E = -ln(1 - r^2) >= 0, where r
is the Bloch-ball radial coordinate (degree of polarization).  The four
power-law families share the structure function (1 - e^-E)^((m-1)/2) with
dimension parameter m in {1, 2, 4, 0}; the fifth uses the logarithmic
structure function 2 artanh sqrt(1 - e^-E).  The power-law Z and <r>
gamma ratios are log_gamma differences.  <E> and var E of all five
families follow one rule, positive terms 1/(beta + a)^k plus 0 or 1
times the half-shift D or T of ``specfun.half_shift_gamma`` (L =
ln Gamma(x+1/2) - ln Gamma(x), D = L', T = -L''); so does the KMB Z,
sqrt(pi) e^-L / beta.  The KMB <r> is a gamma ratio times the 3F2 factor
F; below beta = 2.65 the ratio is the half-shift rise in log form, from
2.65 up still a log_gamma difference (``_kmb_polarization``).  F and the
series of the complex <E> are each a fixed-length series and an exact
relation (``_series_then_relation``), not the unit-argument summator.

Array beta: ``partition``, ``mean_energy``, ``var_energy`` and
``mean_polarization`` also take a GibbsPoint whose beta is a 1-D float
array, one value per element equal to the float result bit for bit (the
power-law Z and <r> through the array paths of ``specfun`` with
``math.exp`` and ``math.log`` per element, every other path by running
the array code on one element for a float).  ``columns`` gives all four
from the same private helpers with one half-shift evaluation.
Every other function here takes a float beta; ``integrated_density``
also takes an array of E0.

``ModelKind`` is the one family table: each member records m and its
CLI names, and every other module, priors included, reads a family's
facts from it and its formulas from the functions here.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import DomainError, PoleProximityError
from .specfun import log_gamma, log_gamma_signed, per_element

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
    "columns",
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
# KMB <r>: below this beta its log form, from it up the gamma-ratio form
_KMB_LOG_FORM_BELOW = 2.65
# ``_series_then_relation``: its steps, and the rises r_j and weights w_n
# of the 48 KMB 3F2 terms (2)_n / ((2n+1) (2+x)_n) and the K = 64
# Pochhammer terms (3/2)_n / (n (3/2+x)_n), n = 1..K (w_0 = 0)
_RELATION_STEPS = 20
_KMB_3F2_SERIES = (np.arange(2.0, 49.0), 1 / (2 * np.arange(48.0) + 1))
_POCHHAMMER_SERIES = (np.arange(1.5, 65.0),
                      np.append(0.0, 1.0 / np.arange(1.0, 65.0)))
# KMB <r> from here up would carry more than 2.5e-3 of log_gamma rounding
_KMB_POLARIZATION_MAX = 1e11


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
    return low


def omega_complex(E):
    """sqrt(1 - e^-E), the complex-family structure function; +0 at
    E = -0.0 as at E = 0."""
    return np.sqrt(0.0 - np.expm1(-np.asarray(E, dtype=float)))


def atanh_omega(E):
    """artanh(sqrt(1 - e^-E)) = ln(1 + sqrt(1 - e^-E)) + E/2, overflow-free."""
    E = np.asarray(E, dtype=float)
    return np.log1p(omega_complex(E)) + 0.5 * E


def structure_function(model: ModelKind, E):
    """Density of states Omega(E) for E >= 0.

    Power-law families return (1 - e^-E)^((m-1)/2); the classical case
    diverges like E^(-1/2) at E = 0 (integrable) and returns inf there.
    The KMB family returns 2 artanh sqrt(1 - e^-E).  Domain: a float or an
    array of any shape, empty included, of finite E >= 0 (-0.0 counts as
    0); a NaN, an infinity or a negative entry raises DomainError.
    """
    E_arr = np.asarray(E, dtype=float)
    scalar = E_arr.ndim == 0
    # a NaN fails both tests
    if not (E_arr.min(initial=0.0) >= 0.0 and E_arr.max(initial=0.0) < math.inf):
        raise DomainError("structure_function requires finite E >= 0")
    if model is ModelKind.KMB:
        out = 2.0 * atanh_omega(E_arr)
    elif model is ModelKind.CLASSICAL:  # 0**-1 = inf at E = 0
        with np.errstate(divide="ignore"):
            out = omega_complex(E_arr) ** (2.0 * model.omega_exponent)
    else:  # x**0 = 1 for the real family
        out = omega_complex(E_arr) ** (2.0 * model.omega_exponent)
    return float(out) if scalar else out


def partition(point: GibbsPoint) -> float | np.ndarray:
    """Partition function Z(beta) = integral of e^(-beta E) Omega(E).

    The single expression Gamma((m+1)/2) Gamma(beta) / Gamma((m+1)/2+beta)
    covers all four power-law families; float or array beta > 0 up to
    log_gamma's ceiling 2.5563e305.  Z ~ 1/beta overflows below about
    5.56e-309, where DomainError replaces it.  For the real family it is
    1/beta, correctly rounded (a float equals its array element bit for
    bit), for every beta > 2**-1024, the largest double included.  The
    KMB value is Z_classical / beta = sqrt(pi) e^(-L(beta)) / beta with
    the half-shift L of ``specfun.half_shift_gamma``, for beta in
    [2**-511, 2**511]: within 8e-15 of 40-digit mpmath on [1e-10, 1e20]
    and 8e-14 at 2**-511, the absolute error of L, 4e-16 max(1, |L|).
    """
    return _partition(point, _require_positive_beta(point),
                      specfun.half_shift_gamma)


def _partition(point: GibbsPoint, low, shift) -> float | np.ndarray:
    """``partition`` past its beta > 0 check, which returned low; shift(b)
    gives ``specfun.half_shift_gamma`` of the rows b of point.beta."""
    if point.model is ModelKind.KMB:
        _require_kmb_beta(point.beta, "partition")
        return _one_row(point.beta,
                        lambda b: _SQRT_PI * np.exp(-shift(b)[0]) / b)
    h, beta = point.model.half_dof, point.beta
    try:
        if point.model is ModelKind.REAL:  # Gamma(beta) / Gamma(1 + beta)
            if low <= 2.0**-1024:  # 1/beta is inf
                raise OverflowError
            return _one_row(beta, lambda b: 1.0 / b)
        return per_element(math.exp, log_gamma(h) + log_gamma(beta)
                           - log_gamma(h + beta))
    except OverflowError:
        raise DomainError(
            f"{point.model.value} partition overflows below beta of about "
            f"5.56e-309, got {float(np.min(beta))!r}") from None


def pdf(point: GibbsPoint, E):
    """Gibbs density e^(-beta E) Omega(E) / Z(beta); vectorized over E,
    for a float beta > 0."""
    if isinstance(point.beta, np.ndarray):
        raise DomainError("pdf takes a float beta; vectorize over E instead")
    _require_positive_beta(point)
    E_arr = np.asarray(E, dtype=float)
    scalar = E_arr.ndim == 0
    z = partition(point)
    om = structure_function(point.model, E_arr)  # DomainError unless E >= 0
    out = np.exp(-point.beta * E_arr) * om / z
    return float(out) if scalar else out


def mean_energy(point: GibbsPoint) -> float | np.ndarray:
    """<E> = -d/dbeta ln Z (``_energy_moment``) for float or array beta >=
    2**-511 (real: > 2**-1024; KMB: <= 2**511), else DomainError; within
    2e-15 relative of 40-digit mpmath, 1e-323 absolute where subnormal."""
    return _energy_moment(point, 1)


def var_energy(point: GibbsPoint) -> float | np.ndarray:
    """var(E) = d^2/dbeta^2 ln Z > 0 (``_energy_moment``); domain and
    accuracy as ``mean_energy``, but 2**-511 <= beta for every family and
    1e-323 absolute once var E ~ 1/beta^2 is subnormal (past 1.3e154)."""
    return _energy_moment(point, 2)


def _energy_moment(point: GibbsPoint, k: int) -> float | np.ndarray:
    """<E> (k = 1) or var E (k = 2) = [D or T] + sum_a (beta + a)^-k for
    every family: psi(beta + h) - psi(beta), h = (m+1)/2 (KMB: 1/2, plus
    1/beta), is 1/(beta + a) over a = h - 1, h - 2, ... >= 0, plus the
    half-shift D for half-integer h: real {0}, classical D, complex {1/2}
    + D, quaternionic {1/2, 3/2} + D, KMB {0} + D.  No term cancels.  A
    float is one array element (40-65 us; 200 beta 0.1 ms): batch it."""
    low = _require_positive_beta(point)
    _require_moment_beta(point, low, k)
    return _one_row(point.beta,
                    _moment_rule(point.model, k, specfun.half_shift_gamma))


def _moment_terms(model: ModelKind):
    """(half, poles) of a family in ``_energy_moment``'s rule: whether D or
    T is a term, and the a of the terms (beta + a)^-k."""
    kmb = model is ModelKind.KMB
    h = 0.5 if kmb else model.half_dof
    n = math.floor(h)
    return h != n, [h - n + j for j in range(n)] + [0.0] * kmb


def _require_moment_beta(point: GibbsPoint, low, k: int):
    """``_energy_moment``'s domain checks past beta > 0 (low, the least
    beta); DomainError outside the domain of ``mean_energy`` (k = 1) or
    ``var_energy`` (k = 2), named after it."""
    model, beta = point.model, point.beta
    name = "mean_energy" if k == 1 else "var_energy"
    if model is ModelKind.KMB:
        _require_kmb_beta(beta, name)
    elif _moment_terms(model)[0] or k == 2:
        specfun.require_square_floor(beta, f"{model.value} {name}", "beta")
    elif low <= 2.0**-1024:
        raise DomainError("real mean_energy overflows below beta of about "
                          f"5.56e-309, got {float(low)!r}")


def _moment_rule(model: ModelKind, k: int, shift):
    """``_energy_moment``'s sum as a function of the rows b; shift(b) gives
    ``specfun.half_shift_gamma`` of b."""
    half, poles = _moment_terms(model)

    def rule(b):
        parts = [shift(b)[k]] if half else []
        with np.errstate(over="ignore"):  # (b + a)^2 is inf above 1.3e154
            for a in poles:
                x = b + a if a else b
                parts.append(1.0 / x if k == 1 else 1.0 / (x * x))
        return sum(parts[1:], parts[0])
    return rule


def _require_kmb_beta(beta, name):
    """DomainError unless every KMB beta lies in [2**-511, 2**511], where
    Z, <E> and var E are normal doubles."""
    specfun.require_square_floor(beta, f"KMB {name}", "beta")
    high = beta.max(initial=0.0) if isinstance(beta, np.ndarray) else beta
    if high > 2.0**511:
        raise DomainError(f"KMB {name} requires beta <= 2**511 (about "
                          f"6.7e153), got {float(high)!r}")


def _one_row(beta, fn):
    """fn of a 1-D array beta, or of a float beta as a one-element array and
    back to a float, so a float equals its array element bit for bit."""
    if isinstance(beta, np.ndarray):
        return fn(beta)
    return float(fn(np.array([beta]))[0])


def _series_then_relation(x: np.ndarray, series, relation) -> np.ndarray:
    """f(x) = sum_n w_n prod_{j<n} r_j/(x+r_j), (r, w) = ``series``, for a
    1-D array x > 0: the series at x from x = 20 up; below it at x + 20,
    taken down 20 backward steps of f's exact relation f(y) = a(y) +
    b(y) f(y+1), (a, b) = ``relation(y)`` with a > 0 and 0 < b <= 1, each
    adding a positive term and shrinking the error it inherits."""
    rise, weights = series
    low = x < _RELATION_STEPS
    start = np.where(low, x + _RELATION_STEPS, x)
    terms = np.empty((x.size, weights.size))
    terms[:, 0] = 1.0
    np.multiply.accumulate(rise / np.add.outer(start, rise), axis=1,
                           out=terms[:, 1:])
    terms *= weights
    f = np.add.reduce(terms, axis=1)
    if low.any():
        y = np.add.outer(np.arange(float(_RELATION_STEPS)), x[low])
        add, times = relation(y)
        g = f[low]
        for i in range(_RELATION_STEPS - 1, -1, -1):
            g = add[i] + times[i] * g
        f[low] = g
    return f


def _kmb_3f2(x: np.ndarray) -> np.ndarray:
    """F(x) = 3F2({1/2,1,2};{3/2,2+x};1) = sum_n (2)_n / ((2n+1) (2+x)_n)
    for a 1-D array x > 0 (``_series_then_relation``): 48 terms from
    x = 20 up, where the terms fall like n^-(x+1) and leave less than 1e-17
    of F; below it 20 steps of the exact contiguous relation
    F(x) = 1/(2x) + (2x+3)/(2x+4) F(x+1), from (2)_n/(2+x)_n -
    (2)_n/(3+x)_n = n (2)_n/(2+x)_(n+1) and Gauss's 2F1(2, 1; 3+x; 1) =
    (2+x)/x.  Within 1e-15 relative of 40-digit mpmath (5.9e-16, median
    6.1e-17, on the 66 rows of tests/ref/kmb_3f2_mpmath.json).
    """
    return _series_then_relation(x, _KMB_3F2_SERIES, lambda y: (
        0.5 / y, (y + 1.5) / (y + 2.0)))


def _kmb_polarization(beta: np.ndarray) -> np.ndarray:
    """KMB <r> = 2 beta Gamma(1/2+beta) / (sqrt(pi) Gamma(2+beta)) F(beta)
    for a 1-D array 0 < beta <= 1e11, F = ``_kmb_3f2``.

    Below beta = 2.65 the contiguous relation turns 2 beta F(beta) into
    1 + g, g = 2 beta (2 beta+3)/(2 beta+4) F(beta+1), and the gamma ratio
    into e^-dL / (1 + beta) with the half-shift rise dL = L(1/2 + beta) -
    L(1/2) (``specfun._half_shift_rise``), so <r> = exp(log1p(g) -
    log1p(beta) - dL) from parts that are positive or small, within
    1e-15 relative of 40-digit mpmath and 1.0 exactly below beta ~ 6e-9.

    From 2.65 up the gamma ratio is still the exponential of a log_gamma
    difference: perfbench/ref/fig5.csv, which the benchmark compares to
    1e-14 absolute, holds its rounding in the gap column (up to 5.3e-14 for
    beta in [230, 972]), so it moves to the half-shift L once that file is
    captured again.  Until then its error, about 1e-15 |ln Gamma(2 + beta)|
    relative, reaches 2.5e-3 at beta = 1e11, above which this raises
    DomainError.
    """
    if beta.max(initial=0.0) > _KMB_POLARIZATION_MAX:
        raise DomainError("KMB mean_polarization requires beta <= 1e11, "
                          f"got {float(beta.max())!r}")
    log_form = beta < _KMB_LOG_FORM_BELOW
    f = _kmb_3f2(beta + log_form)  # F(beta + 1) in the log form
    r = np.empty_like(beta)
    if log_form.any():
        b = beta[log_form]
        g = b * (2.0 * b + 3.0) / (b + 2.0) * f[log_form]
        r[log_form] = np.exp(np.log1p(g) - np.log1p(b)
                             - specfun._half_shift_rise(b))
    direct = ~log_form
    if direct.any():
        b = beta[direct]
        r[direct] = (2.0 * b * f[direct] / _SQRT_PI
                     * per_element(math.exp, log_gamma(0.5 + b)
                                   - log_gamma(2.0 + b)))
    return r


def _polarization(model: ModelKind, beta):
    """<r> for float or array beta > 0, before the cap at 1."""
    if model is ModelKind.KMB:
        return _one_row(beta, _kmb_polarization)
    m = model.m
    return per_element(math.exp, log_gamma(1.0 + m / 2.0)
                       + log_gamma(0.5 + beta + m / 2.0)
                       - log_gamma(1.0 + beta + m / 2.0)
                       - log_gamma((1.0 + m) / 2.0))


def mean_polarization(point: GibbsPoint) -> float | np.ndarray:
    """<r>, the mean Bloch-vector length; 1 at beta = 0, -> 0 as beta -> inf.

    Power-law families use the closed gamma-ratio form
    Gamma(1+m/2) Gamma(1/2+beta+m/2) / (Gamma(1+beta+m/2) Gamma((1+m)/2)).
    KMB is a gamma ratio times a 3F2 factor that needs no series summed
    to the unit point (``_kmb_polarization``; a float beta runs it on one
    array element).  Against 40-digit mpmath: below beta = 2.65 within
    1e-15 relative (median 2e-17), and the exact 1.0 from beta ~ 6e-9
    down to 5e-324; from 2.65 up within 1e-14 + 1e-15 |ln Gamma(2+beta)|
    relative, the rounding of the log_gamma difference (6.6e-12 at
    beta = 1e4, 1.1e-5 at 1e10); above beta = 1e11 DomainError.  A
    200-point KMB grid takes about 0.37 ms, a float 0.1-0.15 ms (2-core
    x86-64 VM).  Float or array beta >= 0.  The result never exceeds 1:
    below beta of about 1e-8 rounding can push the power-law formulas a
    few ulps above 1 while the true value is within an ulp of 1, and 1 is
    returned instead.
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


def columns(point: GibbsPoint) -> tuple:
    """(Z, <E>, var E, <r>) of a point: ``partition``, ``mean_energy``,
    ``var_energy`` and ``mean_polarization``, each equal to its function
    bit for bit (the same private helpers), for float or array beta.

    One ``specfun.half_shift_gamma`` evaluation serves every column that
    needs it: the KMB Z, <E> and var E, and <E> and var E of the families
    with half-integer h = (m+1)/2 (classical, complex, quaternionic),
    where the separate calls evaluate it three or two times.  The domain
    is the four functions' common one; each domain check runs once, in the
    order the four calls run them, so the first DomainError and its
    message are theirs.
    """
    low = _require_positive_beta(point)
    memo = []

    def shift(b):  # b is always the rows of point.beta
        if not memo:
            memo.append(specfun.half_shift_gamma(b))
        return memo[0]

    z = _partition(point, low, shift)
    half = _moment_terms(point.model)[0]
    if point.model is not ModelKind.KMB:
        # partition has checked the KMB range and the real <E>'s floor;
        # the first moment that needs beta >= 2**-511 names it
        _require_moment_beta(point, low, 1 if half else 2)
    return (z, *(_one_row(point.beta, _moment_rule(point.model, k, shift))
                 for k in (1, 2)), mean_polarization(point))


def mean_energy_series(beta: float) -> specfun.SeriesResult:
    """<E> for the complex family from its Pochhammer series S(beta) =
    sum_{n>=1} (3/2)_n / (n (3/2+beta)_n) (``_series_then_relation``):
    K = 64 terms from beta = 20 up, below it B = 20 steps of the exact
    relation S(x) = 3/(2x (x+3/2)) + S(x+1), from 1/(c)_n - 1/(c+1)_n =
    n/(c)_(n+1) and Gauss's 2F1(3/2, 1; 5/2+x; 1) = (3/2+x)/x.
    ``terms_used`` is K; ``tail_bound`` bounds the omitted terms, which the
    steps carry unchanged: sum_{n>K} u_n/n <= u_(K+1) (x+K+3/2) /
    ((K+1)(x-1)), u_n = (3/2)_n/(3/2+x)_n at the summed x, below 3e-19 of
    the value.  Domain as the complex ``mean_energy``: finite
    beta >= 2**-511, else DomainError.  Within 1e-15 relative of 40-digit
    mpmath (tests/ref/energy_moments_mpmath.json); 20-100 us a call.
    """
    specfun.require_positive(beta, "mean_energy_series beta")
    specfun.require_square_floor(beta, "mean_energy_series", "beta")
    value = _series_then_relation(np.array([beta]), _POCHHAMMER_SERIES,
                                  lambda y: (1.5 / (y * (y + 1.5)),
                                             np.ones_like(y)))[0]
    x = beta + _RELATION_STEPS if beta < _RELATION_STEPS else beta
    k = _POCHHAMMER_SERIES[0].size
    u = math.prod((j + 0.5) / (x + j + 0.5) for j in range(1, k + 2))
    return specfun.SeriesResult(float(value), k, u * (x + k + 1.5)
                                / ((k + 1) * (x - 1.0)))


def integrated_density(model: ModelKind, E0):
    """N(E0) = integral of Omega over [0, E0].

    E0 is a float >= 0 or a 1-D float ndarray of finite values >= 0, in
    any order and with repeats (one value per element); anything else
    raises DomainError.  Both types run the same arithmetic (``math.exp``
    per element for the power laws, one numpy path for KMB), so array
    elements equal float results bit for bit.

    The four power-law families use their closed forms, with
    omega = sqrt(1 - e^-E0): E0 (real), 2 artanh(omega) (classical),
    2 (artanh(omega) - omega) (complex) and 2 (artanh(omega) - omega -
    omega^3 / 3) (quaternionic).  The last two cancel at small E0, so
    below omega^2 = 0.49 they are summed as 2 sum_{k>=1} omega^(2k+1) /
    (2k+1) and 2 sum_{k>=2} omega^(2k+1) / (2k+1) (``_atanh_tail``).
    Against 40-digit mpmath the complex form is within 8e-16 relative at
    every E0 and the quaternionic within 4.5e-15, worst just above
    omega^2 = 0.49, where its closed form takes over and still cancels
    (2.3e-15 on 400 points over [1e-5, 50]).

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

    Cost (2-core x86-64 VM): a float takes 0.5-15 us for a power law and
    50-90 us for KMB; the 400-point grid takes 0.03-0.2 ms for a power
    law and 0.1 ms for KMB.
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
    if model is ModelKind.CLASSICAL:
        return 2.0 * ath
    if model is ModelKind.COMPLEX:
        out, first = 2.0 * (ath - om), 1
    else:
        out = 2.0 * (ath + om * (per_element(math.exp, -E0) - 4.0) / 3.0)
        first = 2
    r2 = -np.expm1(-np.asarray(E0, dtype=float))
    if not array:
        r2 = float(r2)
        return _atanh_tail(r2, om, first) if r2 < _SWITCH_R2 else out
    low = r2 < _SWITCH_R2
    if low.any():
        out[low] = _atanh_tail(r2[low], om[low], first)
    return out


# r^2 at the switch from a series to a closed form (r = 0.7)
_SWITCH_R2 = 0.49
# 1/(2j + 3), j = 0..55: at r^2 < 0.49 the omitted tail of either power-law
# series is below 0.49^55 < 2^-56 relative to its first term
_ATANH_SERIES = tuple(1.0 / (2 * j + 3) for j in range(56))


def _atanh_tail(r2, om, first: int):
    """2 sum_{k >= first} om^(2k+1) / (2k+1) = 2 (artanh(om) - om - ...),
    for om = sqrt(r2), r2 < 0.49, as a float or an array: the same Horner
    operations in r^2 either way, so they agree bit for bit."""
    lead = om * r2 if first == 1 else om * r2 * r2
    return 2.0 * lead * specfun._horner(_ATANH_SERIES[first - 1:], r2)


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
    low = r2 < _SWITCH_R2
    out = np.empty_like(E0)
    if low.any():
        out[low] = _kmb_density_series(r2[low])
    if not low.all():
        high = ~low
        out[high] = _kmb_density_dilog(E0[high], r2[high])
    return out


def _kmb_density_series(r2: np.ndarray) -> np.ndarray:
    """4 r^3 sum_k c_k r^(2k) / (2k+3) for r^2 < 0.49."""
    return 4.0 * np.power(r2, 1.5) * specfun._horner(_KMB_SERIES, r2)


def _kmb_density_dilog(E0: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """The dilogarithm form of KMB N(E0) for r^2 >= 0.49."""
    a = np.exp(-E0) / (2.0 * (1.0 + np.sqrt(r2)))
    ln1ma = np.log1p(-a)
    return ((2.0 * _LN2 * E0 - _KMB_DILOG_CONST)
            + (0.5 * E0 * E0 + (2.0 * specfun._dilog_small(a) - ln1ma * ln1ma)))


def modal_beta_estimate(model: ModelKind, E: float) -> float:
    """Mode-matching estimate of beta from one energy: d/dE ln Omega(E).

    (m-1) e^-E / (2 (1 - e^-E)) for the power-law families (identically 0
    in the real case); the KMB analogue of the same derivative is
    1 / (2 r artanh r) with r = sqrt(1 - e^-E).  Domain: finite
    E >= 2**-511, else DomainError.  Against mpmath within 1e-15 relative
    where the value is a normal double, else (power laws above E ~ 708)
    within 1e-323 absolute.
    """
    specfun.require_positive(E, "modal_beta_estimate E")
    specfun.require_square_floor(E, "modal_beta_estimate", "E")
    if model is ModelKind.KMB:
        r = float(omega_complex(E))
        return 1.0 / (2.0 * r * float(atanh_omega(E)))
    if model is ModelKind.REAL:
        return 0.0
    return 0.5 * (model.m - 1) * math.exp(-E) / -math.expm1(-E)


def modal_curvature(model: ModelKind, E: float) -> float:
    """-d^2/dE^2 ln Omega(E), the curvature companion of the modal estimate:
    (m-1) e^-E / (2 (1 - e^-E)^2) for the power laws (0 for real), and
    (e^-E a / (2 r) + 1/2) / (2 (r a)^2), a = artanh r, for KMB.  Domain:
    finite E >= 2**-511, else DomainError (near 0 the value grows like
    1/E^2).  Against mpmath within 1e-15 relative where the value is a
    normal double, else (power laws above E ~ 708, KMB above ~ 6.7e153)
    within 1e-323 absolute.
    """
    specfun.require_positive(E, "modal_curvature E")
    specfun.require_square_floor(E, "modal_curvature", "E")
    if model is ModelKind.KMB:
        r = float(omega_complex(E))
        a = float(atanh_omega(E))
        ra = r * a  # divided by twice, not squared: no underflow or overflow
        return (math.exp(-E) * a / (2.0 * r) + 0.5) / ra / (2.0 * ra)
    if model is ModelKind.REAL:
        return 0.0
    em1 = math.expm1(-E)
    return 0.5 * (model.m - 1) * math.exp(-E) / (em1 * em1)


def approx_beta_small(meanE: float) -> float:
    """Small-beta closed form beta ~ 1/(<E> - 2 - ln 2), complex family."""
    if not math.isfinite(meanE) or meanE <= 2.0 + _LN2:
        raise DomainError("approx_beta_small requires meanE > 2 + ln 2")
    return 1.0 / (meanE - 2.0 - _LN2)


def approx_beta_large(meanE: float) -> float:
    """Large-beta closed form beta ~ 3/(2 <E>), complex family; finite
    meanE >= 2**-511 (as the modal pair's E), else DomainError."""
    specfun.require_positive(meanE, "approx_beta_large meanE")
    specfun.require_square_floor(meanE, "approx_beta_large", "meanE")
    return 1.5 / meanE


_MEAN_E_ASYMPT = (1.5, -0.375, 0.25, -9.0 / 64.0, 1.0 / 16.0)


def mean_energy_asymptotic(beta: float, order: int) -> float:
    """Partial sum of the large-beta expansion of <E>, complex family:
    3/(2 b) - 3/(8 b^2) + 1/(4 b^3) - 9/(64 b^4) + 1/(16 b^5), by Horner's
    rule in 1/b.  Domain: finite beta >= 1 (below it the terms grow) and
    order in 1..5, else DomainError."""
    specfun.require_positive(beta, "mean_energy_asymptotic beta")
    if beta < 1.0 or not 1 <= order <= 5:
        raise DomainError(f"mean_energy_asymptotic requires beta >= 1 and "
                          f"order in 1..5, got {beta!r}, {order!r}")
    u = 1.0 / beta
    return u * specfun._horner(_MEAN_E_ASYMPT[:order], u)


def polarization_asymptotic(beta: float) -> float:
    """Four-term large-beta expansion of <r>, complex family, by Horner's
    rule in u = 1/sqrt(beta): (2u - 5u^3/4 + 73u^5/64 - 575u^7/512) /
    sqrt(pi).  Domain: finite beta >= 1, else DomainError."""
    specfun.require_positive(beta, "polarization_asymptotic beta")
    if beta < 1.0:
        raise DomainError(f"polarization_asymptotic requires beta >= 1, "
                          f"got {beta!r}")
    u = 1.0 / math.sqrt(beta)
    return u * specfun._horner((2.0, -1.25, 73.0 / 64.0, -575.0 / 512.0),
                               u * u) / _SQRT_PI


def reflection_identity_residual(beta: float) -> float:
    """|<r> 2 sqrt(pi) (beta+1) Gamma(3/2-beta) / ((4 beta^2-1) Gamma(-beta))
    - tan(pi beta)| for the complex family.

    Gamma at negative arguments goes through the reflection formula with
    sign tracking.  Domain: finite beta > 0 farther than 1e-3 from every
    multiple of 1/2 (poles of either side; every beta >= 2**51 is one),
    else DomainError (PoleProximityError near a pole)."""
    specfun.require_positive(beta, "reflection_identity_residual beta")
    half_frac = math.fmod(beta, 0.5)  # exact
    if min(half_frac, 0.5 - half_frac) < 1e-3:
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
