"""Real-argument special functions with explicit accuracy targets.

log_gamma, digamma and trigamma share one kernel (``_recurrence``): shift
x up by unit steps to 10 (ln Gamma) or 6 (psi, psi'), summing ln x, 1/x
or 1/x^2, then sum the Bernoulli tail in 1/x^2 (DLMF 5.11).  One Horner
routine (``_horner``) sums every coefficient table here and in
``models``; the Bernoulli ones come from ``_BERNOULLI`` (B_2, ..., B_20 as
exact integer pairs).  The unit-argument generalized hypergeometric
summator sums one series at a time, in blocks of terms.  At unit
argument the term ratio tends to 1 and the tail decays only
algebraically, like K^-s with the excess s = sum(b) - sum(a) known
before the first term, so a Richardson ladder with the known exponents
s, s + 1, ... extrapolates the partial sums (A. Sidi, Practical
Extrapolation Methods, Cambridge 2003).

Domains (DomainError outside, on both paths, with no numpy warning) and
accuracy targets, relative to max(1, |value|).  Against 50-digit mpmath
the worst errors of log_gamma, digamma and trigamma are 8.5e-15
(x = 2.716), 2.5e-14 (x = 1.0046) and 7.2e-14 (x = 4.0001), over the
20,001 x of np.logspace(-10, 10, 20001), 20,000 uniform x on [0, 12)
from np.random.default_rng(0) and 2,001 geometrically spaced x across
each domain:
    log_gamma   0 < x <= 2.5563e305, where (x - 1/2) ln x is finite; 1e-12
    digamma     x > 2**-1024 (about 5.56e-309), where 1/x is finite; 1e-11
    trigamma    x >= 2**-511 (about 1.49e-154), where 1/x^2 is finite; 1e-10
    half_shift_gamma  L = ln Gamma(x+1/2) - ln Gamma(x) within
                4e-16 max(1, |L|), D = L' and T = -L'' within 8e-16
                relative, on [2**-511, 1e20]; DomainError below 2**-511

Arrays: log_gamma, digamma and trigamma also take a real ndarray, and
half_shift_gamma a 1-D one (a complex array raises DomainError);
hyp_pfq_at_1 sums one series per call, from real parameters only.  One
rounding convention holds in every function of the library that takes a
float or an array: it applies numpy ufuncs (np.log, np.log1p, np.exp,
np.expm1, np.sqrt, np.tanh, np.arctanh), never ``math``, to either
shape.  A ufunc gives a Python float the bits it gives an array element
(math.log, math.log1p, math.exp and math.tanh differ from it on 29,
3,404, 4,692 and 19,869 of 100,000 uniform arguments; numpy 2.4,
x86-64), and +, -, * and / are IEEE on both, so each element equals the
float result bit for bit and the targets above hold on both; a float
argument returns a float.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = [
    "SeriesResult",
    "log_gamma",
    "log_gamma_signed",
    "digamma",
    "trigamma",
    "half_shift_gamma",
    "require_positive",
    "require_real_array",
    "require_square_floor",
    "pochhammer",
    "hyp_pfq_at_1",
]

_LN_SQRT_2PI = 0.9189385332046727417803297364056176
_REALS = (float, int, np.floating, np.integer)

# (k, p, q) with B_k = p / q, k = 2, 4, ..., 20: every coefficient below is
# one correctly rounded division of Python integers
_BERNOULLI = ((2, 1, 6), (4, -1, 30), (6, 1, 42), (8, -1, 30), (10, 5, 66),
              (12, -691, 2730), (14, 7, 6), (16, -3617, 510),
              (18, 43867, 798), (20, -174611, 330))
# B_k / (k (k-1)), B_k / k and B_k, k = 2..16: the Stirling series of
# ln Gamma and the asymptotic tails of psi and psi'
_STIRLING = tuple(p / (q * k * (k - 1)) for k, p, q in _BERNOULLI[:8])
_PSI_TAIL = tuple(p / (q * k) for k, p, q in _BERNOULLI[:8])
_TRIGAMMA_TAIL = tuple(p / q for k, p, q in _BERNOULLI[:8])

_SHIFT_GAMMA = 10.0
_SHIFT_PSI = 6.0

# B_k(1/2) - B_k(0) = (2^(1-k) - 2) B_k, k = 2, 4, ..., 20: the 1/x
# expansions of the half-shift primitive
_HALF_SHIFT_B = np.array([(1 - 2**k) * p / (2 ** (k - 1) * q)
                          for k, p, q in _BERNOULLI])
_HALF_SHIFT_K = np.array([k for k, _, _ in _BERNOULLI], dtype=float)
# row i: the coefficients of w^i (w = 1/x^2, k = 2i + 2) in (L - ln(x)/2) x,
# (D - 1/(2x)) / w and (T - w/2) x / w, as a column for broadcasting
_HALF_SHIFT_COEFFS = np.column_stack((
    _HALF_SHIFT_B / (_HALF_SHIFT_K * (_HALF_SHIFT_K - 1.0)),
    -_HALF_SHIFT_B / _HALF_SHIFT_K, -_HALF_SHIFT_B))[:, :, None]
# below this the primitive first takes this many unit steps up
_SHIFT_HALF = 12.0
_HALF_STEPS = np.arange(_SHIFT_HALF)
# smallest x with x*x a normal double, so 1/(x*x) is finite
_SQUARE_FLOOR = 2.0**-511
_SQUARE_FLOOR_MSG = "{} requires {} >= 2**-511 (about 1.49e-154), got {!r}"

# Unit-argument series: first block length (later blocks double the sum)
# and term budget.
_FIRST_BLOCK = 128
_MAX_TERMS = 10**6
# Before this boundary a series stops on its tail only below half an ulp of
# its sum; the ladder must start at K >= 4 for its certificate, which at
# 256, still reaching back to K = 4, needs a change of at most tol / 32
# instead of tol / 2 (the KMB rows it certified at tol / 2 were off by up
# to 0.4 tol; at tol / 32 by at most 0.034 tol)
_EARLY_BELOW = 512
_EARLY_TAIL = 2.0**-54
_EARLY_CHANGE = 1.0 / 32.0
_LADDER_START = 4
# Richardson ladder (see _sum_series): its levels, the first block's column
# indices K - 1 of its seven points K = 2, ..., 128, and the coefficients
# of prod_{i<6} (z - 2^-i), then of z prod_{i<5} (z - 2^-i), constant
# term first (exact dyadic rationals)
_LADDER = 6
_CUTS = (_FIRST_BLOCK >> np.arange(_LADDER, -1, -1)) - 1
_LADDER_POWERS = np.arange(_LADDER, -1, -1)
_LADDER_POLYS = np.array(
    [[1, -63, 1302, -11160, 41664, -64512, 32768],
     [0, -32, 992, -9920, 39680, -63488, 32768]]) / 32768


@dataclass(frozen=True)
class SeriesResult:
    """Outcome of one series summation.

    value       partial sum plus tail correction
    terms_used  number of terms consumed (>= 1)
    tail_bound  absolute estimate of the remaining error (>= 0)
    """

    value: float
    terms_used: int
    tail_bound: float

    def __post_init__(self):
        if self.terms_used < 1:
            raise ValueError("terms_used must be >= 1")
        if self.tail_bound < 0:
            raise ValueError("tail_bound must be >= 0")


def require_positive(x, what: str) -> None:
    """DomainError unless x is a Python or numpy int or float in (0, max
    double], so NaN, inf, arrays and ints beyond the doubles fail too; the
    message names ``what``, the function and argument being checked."""
    if not (isinstance(x, _REALS) and 0 < x <= sys.float_info.max):
        raise DomainError(f"{what} must be finite and > 0, got {x!r}")


def require_real_array(x: np.ndarray, what: str) -> np.ndarray:
    """A float copy of the ndarray x; DomainError unless its dtype is
    real (bool, integer or float), so that a complex array cannot lose
    its imaginary part to the cast.  The message names ``what``."""
    if x.dtype.kind not in "biuf":
        raise DomainError(f"{what} requires a real array, got dtype {x.dtype}")
    return np.array(x, dtype=float)


def _recurrence(x, spec):
    """The kernel of log_gamma, digamma and trigamma: DomainError unless
    floor <= x <= ceiling; then, while x < threshold, add step(x) to a sum
    and set x += 1; form z = 1/x^2 and sum the Bernoulli tail in z.
    Returns (x, sum, z, tail).  An ndarray runs the float loop masked per
    element, with the same step, so each element equals the float result
    bit for bit."""
    name, floor, ceiling, domain, threshold, step, tail = spec
    if isinstance(x, np.ndarray):
        x = require_real_array(x, name)
        outside = x[~((x >= floor) & (x <= ceiling))]
        if outside.size:  # the float check raises for it
            return _recurrence(outside.flat[0].item(), spec)
        total = np.zeros_like(x)
        flat_x, flat_total = x.reshape(-1), total.reshape(-1)
        idx = np.flatnonzero(x < threshold)
        while idx.size:
            flat_total[idx] += step(flat_x[idx])
            flat_x[idx] += 1.0
            idx = idx[flat_x[idx] < threshold]
        with np.errstate(over="ignore"):  # x*x is inf above 1e154, z 0
            z = 1.0 / (x * x)
    else:
        if not (isinstance(x, _REALS) and floor <= x <= ceiling):
            require_positive(x, f"{name} x")
            raise DomainError(f"{name} requires {domain}, got {x!r}")
        total = 0.0
        while x < threshold:
            total += step(x)
            x += 1.0
        z = 1.0 / (x * x)
    return x, total, z, _horner(tail, z)


def _horner(coeffs, z):
    """sum_i coeffs[i] z^i by Horner's rule for a float or an array z (in
    place, in one new array); coefficients may be broadcasting arrays."""
    acc = 0.0 * coeffs[0] * z  # a zero of the result's shape
    for c in reversed(coeffs):
        acc *= z
        acc += c
    return acc


# name, floor, ceiling (the largest x with (x - 1/2) ln x finite; the
# smallest with 1/x finite, 2**-1024 + 2**-1074), domain, threshold, step,
# Bernoulli tail
_LOG_GAMMA = ("log_gamma", math.ulp(0.0),
              float.fromhex("0x1.74c5de97bb960p+1014"),
              "x <= 2.5563481638716906e305", _SHIFT_GAMMA, np.log, _STIRLING)
_DIGAMMA = ("digamma", float.fromhex("0x0.4000000000001p-1022"),
            sys.float_info.max,
            "x > 2**-1024 (about 5.56e-309)", _SHIFT_PSI, lambda v: 1.0 / v,
            _PSI_TAIL)
_TRIGAMMA = ("trigamma", _SQUARE_FLOOR, sys.float_info.max,
             "x >= 2**-511 (about 1.49e-154)", _SHIFT_PSI,
             lambda v: 1.0 / (v * v), _TRIGAMMA_TAIL)


def log_gamma(x: float | np.ndarray) -> float | np.ndarray:
    """Natural log of Gamma(x) for 0 < x <= 2.5563481638716906e305, a
    float or a float ndarray (one ``_recurrence`` and Stirling's formula).
    A float takes about 2.5 us; 200 array elements over [0.1, 100] about
    60 us, but a 0-d array about 45 us, so scalars belong on the float
    path.  Outside the domain, DomainError."""
    x, total, z, tail = _recurrence(x, _LOG_GAMMA)
    out = (x - 0.5) * np.log(x) - total - x + _LN_SQRT_2PI + tail / x
    return out if isinstance(x, np.ndarray) else float(out)


def log_gamma_signed(x: float) -> tuple[float, int]:
    """(ln|Gamma(x)|, sign) for any non-pole real x.

    Negative arguments go through the reflection formula
    Gamma(x) Gamma(1-x) = pi / sin(pi x), with the sign tracked from
    sin(pi x).
    """
    if not math.isfinite(x):
        raise DomainError(f"log_gamma_signed requires a finite argument, got {x!r}")
    if x > 0:
        return log_gamma(x), 1
    if x == math.floor(x):
        raise DomainError(f"Gamma pole at non-positive integer {x!r}")
    # |sin(pi x)| via the fractional part, avoiding the large-argument blowup
    frac = x - math.floor(x)
    sinpix = math.sin(math.pi * frac)  # > 0
    sign = 1 if (int(math.floor(x)) % 2 == 0) else -1
    value = math.log(math.pi) - math.log(sinpix) - log_gamma(1.0 - x)
    return value, sign


def digamma(x: float | np.ndarray) -> float | np.ndarray:
    """psi(x) = d/dx ln Gamma(x) for x > 2**-1024 (about 5.56e-309), a
    float or a float ndarray as for :func:`log_gamma`; DomainError below."""
    x, total, z, tail = _recurrence(x, _DIGAMMA)
    out = np.log(x) - total - 0.5 / x - tail * z
    return out if isinstance(x, np.ndarray) else float(out)


def require_square_floor(x: float | np.ndarray, name: str,
                         arg: str = "x") -> None:
    """DomainError if a positive float x, or a positive element of an
    array x, lies below 2**-511 (about 1.49e-154).  Below it x*x is no
    longer a normal double, so anything that grows like 1/x^2 overflows;
    the message names the function and its argument."""
    if isinstance(x, np.ndarray):
        tiny = x[(x > 0) & (x < _SQUARE_FLOOR)]
        if tiny.size:
            raise DomainError(_SQUARE_FLOOR_MSG.format(name, arg,
                                                       float(tiny.flat[0])))
    elif 0 < x < _SQUARE_FLOOR:
        raise DomainError(_SQUARE_FLOOR_MSG.format(name, arg, x))


def trigamma(x: float | np.ndarray) -> float | np.ndarray:
    """psi'(x) for x >= 2**-511 (about 1.49e-154), a float or a float
    ndarray as for :func:`log_gamma`; DomainError below."""
    x, total, z, tail = _recurrence(x, _TRIGAMMA)
    return total + 1.0 / x + 0.5 * z + tail * z / x


def half_shift_gamma(x):
    """(L, D, T) for x >= 2**-511: L(x) = ln Gamma(x + 1/2) - ln Gamma(x),
    D = L' = psi(x + 1/2) - psi(x) and T = -L'' = psi'(x) - psi'(x + 1/2).

    Every gamma quotient whose arguments differ by 1/2 is e^(+-L), so Z,
    <E> and var E of such a family need these three and nothing that
    cancels.  Below x = 12 the upward recurrences L(x) = L(x+1) -
    log1p(1/(2x)), D(x) = D(x+1) + 1/(2x(x+1/2)) and T(x) = T(x+1) +
    (x+1/4)/(x^2 (x+1/2)^2), whose terms all have one sign, take x up by
    12; from x = 12 on the 1/x expansions with the coefficients
    (2^(1-k) - 2) B_k / (k (k-1)), k = 2, ..., 20 (DLMF 5.11) give L =
    ln(x)/2 - 1/(8x) + 1/(192 x^3) - ..., D = 1/(2x) + 1/(8x^2) - ...
    and T = 1/(2x^2) + 1/(4x^3) + ....  Against 50-digit mpmath on
    [2**-511, 1e20]: D and T within 8e-16 relative and L within
    4e-16 max(1, |L|) absolute.  L crosses 0 near x = 1.2, so its
    absolute error is what is small everywhere; it is the relative error
    of e^(+-L).

    ``x`` is a float or a 1-D float ndarray; an array returns three
    arrays.  A float runs the array code on one element, so it equals the
    array element bit for bit.  Below 2**-511 T ~ 1/x^2 leaves the double
    range, and a smaller positive x raises DomainError, as does any x
    that is not finite and positive; above 2**511 T ~ 1/(2x^2) underflows
    towards 0.  200 elements take about 80 us, a float about 40 us
    (2-core x86-64 VM); ``models.columns`` spends one such call on the
    three KMB columns that need it.
    """
    if not isinstance(x, np.ndarray):
        require_positive(x, "half_shift_gamma x")
        L, D, T = half_shift_gamma(np.array([x], dtype=float))
        return float(L[0]), float(D[0]), float(T[0])
    x = require_real_array(x, "half_shift_gamma")
    if x.ndim != 1 or not np.all((x >= _SQUARE_FLOOR) & (x < math.inf)):
        require_square_floor(x, "half_shift_gamma")
        raise DomainError("half_shift_gamma requires a 1-D array of finite "
                          "positive arguments")
    # the sums of the recurrence terms of log1p(1/(2x)), 1/(2x(x+1/2)) and
    # (x+1/4)/(x^2 (x+1/2)^2) over x, x+1, ..., x+11 for every x below 12
    steps = np.zeros((3, x.size))
    low = np.flatnonzero(x < _SHIFT_HALF)
    if low.size:
        y = np.add.outer(x[low], _HALF_STEPS)
        half = y + 0.5
        terms = np.empty((3,) + y.shape)
        np.log1p(0.5 / y, out=terms[0])
        np.divide(0.5, y * half, out=terms[1])
        np.divide((y + 0.25) / (y * y), half * half, out=terms[2])
        steps[:, low] = np.add.reduce(terms, axis=2)
        x[low] += _SHIFT_HALF
    u = 1.0 / x
    w = u * u
    tail = _horner(_HALF_SHIFT_COEFFS, w)
    L = (0.5 * np.log(x) + u * tail[0]) - steps[0]
    D = (0.5 * u + w * tail[1]) + steps[1]
    T = (0.5 * w + w * u * tail[2]) + steps[2]
    return L, D, T


def _half_shift_rise(x):
    """L(1/2 + x) - L(1/2) = ln(sqrt(pi) Gamma(1 + x) / Gamma(1/2 + x))
    for a 1-D float array x >= 0, as a sum of positive terms.

    The 12 unit steps of ``half_shift_gamma`` contribute
    sum_{i<12} log1p(x / ((2i+1) (i+1+x))), and from 12.5 on its 1/x
    expansion leaves log1p(x / 12.5) / 2 plus the rise of the tail
    (L - ln(x)/2) from 12.5 to 12.5 + x, below 1e-2.  No term cancels, so
    the relative error is a few ulps at every x, 0 included.
    """
    top = _SHIFT_HALF + 0.5
    steps = np.log1p(x[:, None] / ((2.0 * _HALF_STEPS + 1.0)
                                   * (np.add.outer(x, _HALF_STEPS) + 1.0)))
    u = 1.0 / (top + x)
    tail = _HALF_SHIFT_COEFFS[:, 0]
    rise = u * _horner(tail, u * u) - _horner(tail, 1.0 / (top * top)) / top
    return np.add.reduce(steps, axis=1) + (0.5 * np.log1p(x / top) + rise)


_DILOG = tuple(1.0 / (k * k) for k in range(1, 21))  # Li2(a) / a, 20 terms


def _dilog_small(a: np.ndarray) -> np.ndarray:
    """Li2(a) = sum_{k>=1} a^k / k^2 for a float array with 0 <= a <= 0.15.

    Horner over the first 20 terms: the omitted tail is below
    a^21 / (441 (1 - a)) < 2^-62 a <= 2^-62 Li2(a).  Outside the range the
    sum is silently truncated, so keeping to it is the caller's part.
    """
    return _horner(_DILOG, a) * a


def pochhammer(a: float, n: int) -> float:
    """Rising factorial a (a+1) ... (a+n-1) for a finite a and an integer
    (or integral float) n >= 0; n = 0 gives 1, within about n ulps
    relative.  It stops at an exact 0 (a a non-positive integer above -n),
    keeping its sign, and raises OverflowError once the product leaves the
    double range, so even a huge n costs at most a few hundred factors;
    DomainError for another n or a."""
    if not (0 <= n < math.inf and n == int(n)):
        raise DomainError(f"pochhammer requires a non-negative integer n, got {n!r}")
    if not math.isfinite(a):
        raise DomainError(f"pochhammer requires finite a, got {a!r}")
    out = 1.0
    for k in range(int(n)):
        out *= a + k
        if out == 0.0:
            break
        if math.isinf(out):
            raise OverflowError(
                f"pochhammer({a}, {n}) exceeds the floating range; use log form"
            )
    return out


def _terminating_sum(nums, dens, cut) -> float:
    """Exact sum of the first ``cut`` terms of a terminating series."""
    total = 0.0
    t = 1.0
    for k in range(cut):
        total += t
        r = 1.0 / (k + 1)
        for a in nums:
            r *= a + k
        for b in dens:
            r /= b + k
        t *= r
    return total


def _decay_ceiling(K):
    """|t_K / t_{K-1}| below this puts the terms at K in their decaying
    regime: the local exponent ln|t_{K-1} / t_K| / ln(K / (K - 1)) is
    above 1."""
    return math.exp(-1.000001 * math.log(K / (K - 1.0)))


# the decay ceilings at the first block's ladder points, and the starts of
# its segments [0, 2), [2, 4), ..., [64, 128)
_FIRST_DECAY = np.array([_decay_ceiling(K + 1.0) for K in _CUTS.tolist()])
_FIRST_SEGMENTS = np.concatenate(([0], _CUTS[:-1] + 1))


def _ladder_weights(excess):
    """(2, 7) weights of the seven ladder sums S_j of a series with excess
    s: [0] gives the top value of the 6-level Richardson table with
    exponents s, ..., s + 5, [1] the 5-level value over the last six.

    The error of S_j is sum_i d_i mu^j 2^-ij with mu = 2^-s, so the top
    value is sum_j g_j S_j where sum_j g_j z^j = prod_i (z - mu 2^-i) /
    prod_i (1 - mu 2^-i), i < 6; the level below, over the last six sums,
    likewise with i < 5.  For large s, mu underflows to 0 and the top
    value is the last sum; for s below about 1e-16, mu rounds to 1 and
    the weights are NaN, so that series can only stop on its tail.
    """
    w = np.exp2(-excess) ** _LADDER_POWERS * _LADDER_POLYS
    norm = np.add.reduce(w, axis=1, keepdims=True)
    norm[norm == 0.0] = np.nan  # mu = 1: prod_i (1 - mu 2^-i) = 0
    w /= norm
    return w


def _sum_series(a, b, excess, tol):
    """(value, terms, tail_bound) of one unit-argument series by the rule
    of ``hyp_pfq_at_1``: a, b are lists of the numerator and denominator
    parameters, excess s = sum(b) - sum(a) > 0.

    The partial sums at the last seven ladder points, K = 2, 4, ..., 128
    from the first block's segment sums and then each boundary, are kept
    relative to S_2, so that their differences carry no rounding of the
    leading terms.  S - S_K ~ K^-s (d_0 + d_1/K + ...), so the 6-level
    Richardson table with exponents s, ..., s + 5 over them strips the
    first six terms (``_ladder_weights``).  Once all seven points lie in
    the decaying regime (``_decay_ceiling``), the sum is certified when
    the modelled tail |t_K| K / s is at most tol / 4 (value: S_K) or, from
    the 256 boundary on, where the ladder starts at K >= 4, when the
    table's top level changes the value by at most tol / 2 (value: the
    top value); and at once when its terms underflow to 0.  Before the
    512 boundary the tail must also lie below half an ulp of S_K (2^-54
    |S_K|), so that no later term can change the sum, and the change of
    the 256 table, which reaches back to K = 4, must be at most tol / 32.
    The bound is that change or tail, plus 1e-15 of the value.
    """
    weights = None  # built at 256, where the ladder first certifies
    t0 = 1.0
    k0 = 0
    block = _FIRST_BLOCK
    while True:
        k = np.arange(k0, k0 + block, dtype=float)
        k0 += block
        # 1 * (a_0 + k) is a_0 + k exactly: the first factor needs no product
        ratios = a[0] + k if a else np.ones(block)
        for x in a[1:]:
            ratios *= x + k
        for x in b:
            ratios /= x + k
        ratios /= k + 1.0
        terms = np.empty(block)
        terms[0] = 1.0
        np.multiply.accumulate(ratios[:-1], out=terms[1:])
        terms *= t0
        t_next = terms[-1] * ratios[-1]
        if k0 == _FIRST_BLOCK:
            # the number of trailing ladder points in the decaying regime
            decaying = np.abs(ratios[_CUTS]) < _FIRST_DECAY
            streak = int(np.add.reduce(np.multiply.accumulate(decaying[::-1])))
            # S_2, then the sums over [2, 4), [4, 8), ..., [64, 128)
            segments = np.add.reduceat(terms, _FIRST_SEGMENTS)
            base = segments[0]
            ladder = np.zeros(_LADDER + 1)
            np.add.accumulate(segments[1:], out=ladder[1:])
        else:
            streak = streak + 1 if abs(ratios[-1]) < _decay_ceiling(k0) else 0
            ladder[:-1] = ladder[1:]
            ladder[-1] += np.add.reduce(terms)
        est = base + ladder[-1]
        err = abs(t_next) * (k0 / excess)
        settled = streak > _LADDER
        done = settled and err <= 0.25 * tol
        if k0 < _EARLY_BELOW:
            done = done and err <= _EARLY_TAIL * abs(est)
        if k0 >> _LADDER >= _LADDER_START:
            if weights is None:
                weights = _ladder_weights(excess)
            top, below = np.add.reduce(weights * ladder, axis=1)
            change = abs(top - below)
            bar = _EARLY_CHANGE if k0 < _EARLY_BELOW else 0.5
            if settled and change <= bar * tol and t_next != 0.0:
                done, est, err = True, base + top, change
        if done or t_next == 0.0:
            return float(est), k0, float(err + abs(est) * 1e-15)
        if k0 >= _MAX_TERMS:
            raise ConvergenceError(
                f"pFq(1) did not certify tol={tol} within {_MAX_TERMS} "
                f"terms (numerators {a}, denominators {b})",
                best_estimate=float(est))
        t0 = t_next
        block = k0  # boundaries double: 128, 256, 512, ...


def hyp_pfq_at_1(numerators, denominators, tol) -> SeriesResult:
    """Generalized hypergeometric pFq evaluated at unit argument.

    Terms are generated by the ratio recursion
    t_{k+1}/t_k = prod(a_i + k) / (prod(b_j + k) (k + 1)) and summed in
    blocks of 128, 128, 256, 512, ... terms, so the block boundaries
    double: 128, 256, 512, ....  The terms decay like
    k^(-1-s) with s = sum(b) - sum(a), so the error of the partial sum
    S_K expands in K^-s, K^-(s+1), ...; at each boundary a 6-level
    Richardson table with exactly those exponents runs over the partial
    sums at K/64, K/32, ..., K.  Once the terms are in their decaying
    regime a series stops when the modelled tail |t_K| K / s is at most
    tol / 4, or, with the table's certificate, when its top level
    changes the value by at most tol / 2 (see ``_sum_series``).  Before the
    512 boundary the table starts too early for its expansion: at 128
    (K = 2) it certifies nothing, at 256 (K = 4) only a change of at most
    tol / 32; and a series may stop on its tail only where that tail is
    below half an ulp of its sum, where no further term can change it.
    For example (no library caller sums these; ``models`` reaches the KMB
    factor by a contiguous relation), the 200 KMB series
    3F2(1/2, 1, 2; 3/2, 2 + beta; 1) of a beta grid, Thomae-mapped below
    beta = 2.65, stop at 256 or 512 terms on [0.1, 10] and at 128 or 256
    on [10, 1000], and 3F2(1/2, 1, 2; 3/2, 2.3; 1) (s = 0.3) at tol 1e-10
    at 512.

    Every parameter and ``tol`` is a real number (a Python or numpy int
    or float), and a call sums one series; an ndarray or any other value
    raises DomainError.  A call costs about 20 us per boundary it crosses
    (about 90 us for the 1,024 terms of 3F2(1/2, 1, 2; 3/2, 3; 1) at tol
    1e-12; 2-core x86-64 VM).

    Raises ConvergenceError when s <= 0 (non-terminating series diverges
    at unit argument) or when 10^6 terms do not certify ``tol``.
    """
    for x in (*numerators, *denominators, tol):
        if not isinstance(x, _REALS):
            raise DomainError("hyp_pfq_at_1 sums one series: every parameter "
                              f"and tol must be a real number, got {x!r}")
    nums = [float(x) for x in numerators]
    dens = [float(x) for x in denominators]
    tol = float(tol)
    if not tol > 0:
        raise DomainError(f"tol must be positive, got {tol!r}")
    # 0, -1, -2, ...: a denominator is a pole, a numerator ends the series
    poles = [x for x in dens if x <= 0 and x == np.floor(x)]
    if poles:
        raise DomainError(f"denominator parameter at a pole: {poles[0]!r}")
    ends = [x for x in nums if x <= 0 and x == np.floor(x)]
    if ends:
        cut = 1 - int(max(ends))
        return SeriesResult(_terminating_sum(nums, dens, cut), cut, 0.0)
    excess = sum(dens) - sum(nums)
    if excess <= 0:
        raise ConvergenceError("series diverges at unit argument: "
                               f"sum(den) - sum(num) = {excess}")
    return SeriesResult(*_sum_series(nums, dens, excess, tol))
