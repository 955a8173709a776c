"""Real-argument special functions with explicit accuracy targets.

log_gamma uses upward recurrence into a Stirling series with Bernoulli
coefficients; digamma and trigamma use the same recurrence-shift strategy
(threshold 6) into their Bernoulli asymptotic tails.  The unit-argument
generalized hypergeometric summator works in vectorized blocks with a
local-exponent tail correction, since at unit argument the term ratio
tends to 1 and the tail decays only algebraically.

Accuracy targets (absolute unless noted):
    log_gamma   1e-12 relative to max(1, |ln Gamma|)
    digamma     1e-11 on (0, 1e6]
    trigamma    1e-10 on [2**-511, 1e6]; DomainError below 2**-511

Arrays: log_gamma, digamma and trigamma also take a float ndarray, and
hyp_pfq_at_1 sums a batch of series given as parameter arrays.  Each
element or row equals the corresponding scalar result bit for bit, so the
targets above hold unchanged; the arrays only remove the per-call Python
overhead of evaluating a grid one point at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = [
    "SeriesResult",
    "log_gamma",
    "log_gamma_signed",
    "digamma",
    "trigamma",
    "require_square_floor",
    "pochhammer",
    "hyp_pfq_at_1",
]

_LN_SQRT_2PI = 0.9189385332046727417803297364056176

# B_{2n} / (2n (2n-1)), n = 1..8: Stirling-series coefficients for ln Gamma.
_STIRLING = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
    -3617.0 / 122400.0,
)

# B_{2n} / (2n), n = 1..8: asymptotic tail of psi.
_PSI_TAIL = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
    -3617.0 / 8160.0,
)

# B_{2n}, n = 1..8: asymptotic tail of psi'.
_BERNOULLI = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
)

_SHIFT_GAMMA = 10.0
_SHIFT_PSI = 6.0
# smallest x with x*x a normal double, so 1/(x*x) is finite
_SQUARE_FLOOR = 2.0**-511
_SQUARE_FLOOR_MSG = "{} requires {} >= 2**-511 (about 1.49e-154), got {!r}"

# Unit-argument series: first block length (later blocks double the sum),
# term budget, and float64 per work array of a block (two are live).
_FIRST_BLOCK = 512
_MAX_TERMS = 10**6
_BLOCK_ELEMENTS = 2**15


@dataclass(frozen=True)
class SeriesResult:
    """Outcome of a series summation, or of a batch of them.

    value       partial sum plus tail correction (an array for a batch)
    terms_used  number of terms consumed (>= 1; for a batch, over all rows)
    tail_bound  absolute estimate of the remaining error (>= 0; an array
                for a batch)
    """

    value: float | np.ndarray
    terms_used: int
    tail_bound: float | np.ndarray

    def __post_init__(self):
        if self.terms_used < 1:
            raise ValueError("terms_used must be >= 1")
        if np.any(np.less(self.tail_bound, 0)):
            raise ValueError("tail_bound must be >= 0")


def _require_positive(x, name):
    if not (isinstance(x, (int, float)) and math.isfinite(x)) or x <= 0:
        raise DomainError(f"{name} requires a finite positive argument, got {x!r}")


def _math_log(x):
    """math.log of every element.  np.log can round differently in the
    last ulp (about one argument in a thousand on [1, 10) with numpy 2.4
    on x86-64), and differences of log-gamma values amplify that."""
    return np.fromiter(map(math.log, x.ravel().tolist()), float,
                       x.size).reshape(x.shape)


def _shift_up(x, name, threshold, step):
    """Masked upward recurrence for an array argument.

    Adds ``step(x)`` into an accumulator and ``x += 1`` on the elements
    still below ``threshold`` until none is, exactly as the scalar loops do
    per element.  Returns the shifted copy of ``x``, the accumulator and
    1/x^2.  Overflow and division by zero give inf or 0 without a
    warning (x^2 overflows above x = 1e154).
    """
    x = np.array(x, dtype=float)
    ok = (x > 0) & (x < math.inf)
    if not ok.all():
        raise DomainError(f"{name} requires finite positive arguments, "
                          f"got {x[~ok].flat[0]!r}")
    acc = np.zeros_like(x)
    idx = np.flatnonzero(x < threshold)
    flat_x, flat_acc = x.reshape(-1), acc.reshape(-1)
    with np.errstate(over="ignore", divide="ignore"):
        while idx.size:
            flat_acc[idx] += step(flat_x[idx])
            flat_x[idx] += 1.0
            idx = idx[flat_x[idx] < threshold]
        z = 1.0 / (x * x)
    return x, acc, z


def log_gamma(x: float | np.ndarray) -> float | np.ndarray:
    """Natural log of Gamma(x) for x > 0.

    ``x`` is a float or a float ndarray.  A float runs the scalar
    recurrence and returns a float (about 2 us).  An array runs the same
    recurrence, masked per element, with the same Stirling coefficients,
    shift threshold, Horner order and ``math.log``, and returns an array of
    the same shape whose elements equal the scalar results bit for bit.
    200 elements spread over [0.1, 100] take about 0.2 ms; a 0-d array
    still costs about 60 us, so scalars belong on the float path.  Any
    element that is not finite and positive raises DomainError.
    """
    if isinstance(x, np.ndarray):
        x, shift, z = _shift_up(x, "log_gamma", _SHIFT_GAMMA,
                                lambda v: -_math_log(v))
        log = _math_log
    else:
        _require_positive(x, "log_gamma")
        shift = 0.0
        while x < _SHIFT_GAMMA:
            shift -= math.log(x)
            x += 1.0
        z = 1.0 / (x * x)
        log = math.log
    tail = 0.0
    for c in reversed(_STIRLING):
        tail = tail * z + c
    return shift + (x - 0.5) * log(x) - x + _LN_SQRT_2PI + tail / x


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
    """psi(x) = d/dx ln Gamma(x) for x > 0; a float or a float ndarray,
    on the same two paths as :func:`log_gamma`."""
    if isinstance(x, np.ndarray):
        x, acc, z = _shift_up(x, "digamma", _SHIFT_PSI, lambda v: -1.0 / v)
        log = _math_log
    else:
        _require_positive(x, "digamma")
        acc = 0.0
        while x < _SHIFT_PSI:
            acc -= 1.0 / x
            x += 1.0
        z = 1.0 / (x * x)
        log = math.log
    tail = 0.0
    for c in reversed(_PSI_TAIL):
        tail = tail * z + c
    return acc + log(x) - 0.5 / x - tail * z


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
    """psi'(x) for x >= 2**-511 (about 1.5e-154); a float or a float
    ndarray, on the same two paths as :func:`log_gamma`.  No logarithm
    enters, so the two paths agree exactly.  Below the floor x*x is no
    longer a normal double and psi'(x) ~ 1/x^2 overflows, so a smaller
    positive x raises DomainError on both paths."""
    if isinstance(x, np.ndarray):
        require_square_floor(x, "trigamma")
        x, acc, z = _shift_up(x, "trigamma", _SHIFT_PSI, lambda v: 1.0 / (v * v))
    else:
        _require_positive(x, "trigamma")
        require_square_floor(x, "trigamma")
        acc = 0.0
        while x < _SHIFT_PSI:
            acc += 1.0 / (x * x)
            x += 1.0
        z = 1.0 / (x * x)
    tail = 0.0
    for c in reversed(_BERNOULLI):
        tail = tail * z + c
    return acc + 1.0 / x + 0.5 * z + tail * z / x


def _dilog_small(a: np.ndarray) -> np.ndarray:
    """Li2(a) = sum_{k>=1} a^k / k^2 for a float array with 0 <= a <= 0.15.

    Horner over the first 20 terms: the omitted tail is below
    a^21 / (441 (1 - a)) < 2^-62 a <= 2^-62 Li2(a).  Outside the range the
    sum is silently truncated, so keeping to it is the caller's part.
    """
    acc = np.zeros_like(a)
    for k in range(20, 0, -1):
        acc *= a
        acc += 1.0 / (k * k)
    return acc * a


def pochhammer(a: float, n: int) -> float:
    """Rising factorial a (a+1) ... (a+n-1); n = 0 gives 1."""
    if n < 0 or n != int(n):
        raise DomainError(f"pochhammer requires a non-negative integer n, got {n!r}")
    if not math.isfinite(a):
        raise DomainError(f"pochhammer requires finite a, got {a!r}")
    out = 1.0
    for k in range(int(n)):
        out *= a + k
        if math.isinf(out):
            raise OverflowError(
                f"pochhammer({a}, {n}) exceeds the floating range; use log form"
            )
    return out


def _terminating_index(numerators) -> int | None:
    """Smallest k with (a)_k = 0 for some numerator a, or None."""
    cut = None
    for a in numerators:
        if a <= 0 and a == math.floor(a):
            k = int(-a) + 1  # (a)_k = 0 once k > -a
            cut = k if cut is None else min(cut, k)
    return cut


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


def _block_terms(a, b, k, t0, buf):
    """Sums, last terms and next terms of one block for each row.

    Row i sums t0[i] * prod_{j<m} ratio_i(k[j]) for m = 0..len(k)-1 with
    the scalar ratio recursion, operation for operation.  The two work
    arrays of shape (rows, len(k)) are views of the rows of ``buf``, a
    (2, n) float64 array with n >= rows * len(k) that the caller reuses
    from block to block.
    """
    shape = (len(t0), len(k))
    ratios = buf[0, :shape[0] * shape[1]].reshape(shape)
    work = buf[1, :ratios.size].reshape(shape)
    if a.shape[1]:
        # 1 * (a_0 + k) is a_0 + k exactly: the first factor needs no product
        np.add(a[:, :1], k, out=ratios)
    else:
        ratios.fill(1.0)
    for col in a.T[1:]:
        ratios *= np.add(col[:, None], k, out=work)
    for col in b.T:
        ratios /= np.add(col[:, None], k, out=work)
    ratios /= k + 1.0
    work[:, 0] = 1.0
    np.cumprod(ratios[:, :-1], axis=1, out=work[:, 1:])
    work *= t0[:, None]
    return work.sum(axis=1), work[:, -1].copy(), work[:, -1] * ratios[:, -1]


def _richardson(estimates):
    """Two Richardson sweeps over the corrected estimates; (value, error)
    from the final level, or None while fewer than three estimates exist.

    The corrected estimates carry a smooth error ~ K^-q across the
    doubling boundaries; the sweeps strip its leading powers, and the
    final-level difference is the error estimate.
    """
    seq = estimates
    for _ in range(2):
        if len(seq) < 3:
            break
        refined = []
        for j in range(2, len(seq)):
            d1 = seq[j - 1] - seq[j - 2]
            d2 = seq[j] - seq[j - 1]
            if d2 == 0.0 or abs(d2) >= abs(d1):
                refined.append(seq[j])
            else:
                q = math.log2(abs(d1 / d2))
                refined.append(seq[j] + d2 / (2.0 ** q - 1.0))
        seq = refined
    if len(seq) >= 2 and seq is not estimates:
        return seq[-1], 2.0 * abs(seq[-1] - seq[-2])
    return None


def _sum_rows(a, b, tol, buf):
    """Blocked unit-argument summation of every row of parameters.

    a: (rows, p) numerators, b: (rows, q) denominators, tol: (rows,).
    Returns (value, tail_bound, terms) arrays.  All rows share the block
    boundaries 512, 1024, 2048, ...; at each boundary every live row runs
    the stopping rule on its own and a certified row leaves the batch.
    Rows go through a block a slice at a time, so that the work arrays
    stay within _BLOCK_ELEMENTS float64 each, in ``buf`` (see
    ``_block_terms``) unless a block outgrows it.
    """
    n = len(tol)
    tols = tol.tolist()
    value = np.empty(n)
    bound = np.empty(n)
    terms = np.zeros(n, dtype=np.int64)
    estimates = [[] for _ in range(n)]  # corrected estimates per row
    live = np.arange(n)
    t0 = np.ones(n)
    total = np.zeros(n)
    k0 = 0
    block = _FIRST_BLOCK
    while live.size and k0 < _MAX_TERMS:
        k = np.arange(k0, k0 + block, dtype=float)
        k0 += block
        log_step = math.log(k0 / (k0 - 1.0))
        step = max(1, _BLOCK_ELEMENTS // block)
        need = min(step, live.size) * block
        if buf.shape[1] < need:
            buf = np.empty((2, need))
        keep = []
        for i in range(0, live.size, step):
            rows = live[i:i + step]
            sums, last, t_next = _block_terms(a[rows], b[rows], k, t0[rows],
                                              buf)
            total[rows] += sums
            for row, tot, lt, tn in zip(rows.tolist(), total[rows].tolist(),
                                        last.tolist(), t_next.tolist()):
                if tn == 0.0:
                    value[row], bound[row], terms[row] = tot, 0.0, k0
                    continue
                # local decay exponent p from the last ratio, tail ~ t K/(p-1)
                p_hat = math.log(abs(lt / tn)) / log_step
                if p_hat <= 1.000001:  # not yet in the decaying regime
                    t0[row] = tn
                    keep.append(row)
                    continue
                tail = tn * (k0 / (p_hat - 1.0) + 0.5)
                est = tot + tail
                row_tol = tols[row]
                ests = estimates[row]
                if abs(tail) <= 0.25 * row_tol and ests:
                    value[row], bound[row] = est, abs(tail) + abs(est) * 1e-15
                    terms[row] = k0
                    continue
                ests.append(est)
                refined = _richardson(ests)
                if refined is not None and refined[1] <= 0.5 * row_tol:
                    value[row] = refined[0]
                    bound[row] = refined[1] + abs(refined[0]) * 1e-15
                    terms[row] = k0
                    continue
                t0[row] = tn
                keep.append(row)
        block = k0  # boundaries double: 512, 1024, 2048, ...
        live = np.array(keep, dtype=np.intp)
    if live.size:
        row = int(live[0])
        ests = estimates[row]
        raise ConvergenceError(
            f"pFq(1) did not certify tol={tols[row]} within {_MAX_TERMS} terms "
            f"(numerators {a[row].tolist()}, denominators {b[row].tolist()})",
            best_estimate=ests[-1] if ests else float(total[row]),
        )
    return value, bound, terms


def hyp_pfq_at_1(numerators, denominators, tol) -> SeriesResult:
    """Generalized hypergeometric pFq evaluated at unit argument.

    Terms are generated by the ratio recursion
    t_{k+1}/t_k = prod(a_i + k) / (prod(b_j + k) (k + 1)) and summed in
    vectorized blocks.  Because the terms decay like k^(-1-s) with
    s = sum(b) - sum(a), each block is closed with a tail correction
    from the locally fitted exponent; the summation stops once two
    consecutive corrected estimates agree within ``tol``.

    Batches: every parameter and ``tol`` may be a float or a 1-D array,
    the arrays of equal length; row i sums the series with the i-th
    element of each array (floats broadcast).  Each row follows exactly
    the rule above, so it returns what a one-row call with its own
    parameters returns; a batch saves the per-block Python overhead of
    separate calls.  Float arguments give a float result; otherwise
    ``value`` and ``tail_bound`` are arrays and ``terms_used`` is the sum
    over the rows.  Rows are summed in groups of 64, each to the end, and
    a block's two work arrays hold at most 2^15 float64 each and are
    allocated once per call, so memory does not grow with the batch
    beyond its parameters and results.  One batch of the 200 KMB factors
    of a beta grid on [0.1, 100] takes about 0.4 of the time of 200
    one-row calls (10-12 ms against 22-29 ms on a 2-core x86-64 VM).

    Raises ConvergenceError when s <= 0 (non-terminating series diverges
    at unit argument) or when 10^6 terms do not certify ``tol`` (in a
    batch: for any row).
    """
    p = len(numerators)
    params = [*numerators, *denominators, tol]
    batch = any(isinstance(x, np.ndarray) for x in params)
    if batch:
        try:
            cols = np.broadcast_arrays(*params)
        except ValueError:
            raise DomainError("batched parameters need equal lengths") from None
        if cols[0].ndim != 1 or not cols[0].size:
            raise DomainError("batched parameters must be non-empty 1-D arrays")
        table = np.stack(cols, axis=1).astype(float, copy=False)
    else:
        table = np.array([[float(x) for x in params]])

    value = np.empty(len(table))
    bound = np.zeros(len(table))
    terms = np.empty(len(table), dtype=np.int64)
    series = np.ones(len(table), dtype=bool)  # no terminating numerator
    for i, row in enumerate(map(np.ndarray.tolist, table)):
        nums, dens, row_tol = row[:p], row[p:-1], row[-1]
        if not row_tol > 0:
            raise DomainError(f"tol must be positive, got {row_tol!r}")
        for b in dens:
            if b <= 0 and b == math.floor(b):
                raise DomainError(f"denominator parameter at a pole: {b!r}")
        cut = _terminating_index(nums)
        if cut is not None:
            value[i], terms[i] = _terminating_sum(nums, dens, cut), cut
            series[i] = False
            continue
        excess = sum(dens) - sum(nums)
        if excess <= 0:
            raise ConvergenceError(
                f"series diverges at unit argument: sum(den) - sum(num) = {excess}")
    # Groups of rows whose first block just fills the work arrays are
    # summed to the end one after another, which bounds the per-row
    # Python state of a large batch.  One pair of work arrays serves every
    # block of every group: 256 KB arrays allocated and freed block after
    # block let the allocator return their pages to the system and fault
    # them in again on the next call, which cost 10-18 % of a KMB sweep.
    series = np.flatnonzero(series)
    group = _BLOCK_ELEMENTS // _FIRST_BLOCK
    buf = np.empty((2, min(series.size, group) * _FIRST_BLOCK))
    for lo in range(0, series.size, group):
        rows = series[lo:lo + group]
        value[rows], bound[rows], terms[rows] = _sum_rows(
            table[rows, :p], table[rows, p:-1], table[rows, -1], buf)
    if batch:
        return SeriesResult(value=value, terms_used=int(terms.sum()),
                            tail_bound=bound)
    return SeriesResult(value=float(value[0]), terms_used=int(terms[0]),
                        tail_bound=float(bound[0]))
