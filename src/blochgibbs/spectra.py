"""Spectrum of the averaged n-fold tensor product and derived quantities.

Averaging rho^(x)n over the Bloch ball against the radial weight of the
complex family produces a 2^n x 2^n matrix whose eigenvalues lambda_{n,d}
(d = 0..floor(n/2)) come in gamma-ratio closed form with integer
multiplicities m_{n,d}.  This module carries the closed-form spectrum, the
multiplicity-weighted spin sums, an independent quadrature oracle for the
matrix itself (n <= 10; exact in angle through a spherical design, numerical
only in the radius), the relative entropy of rho^(x)n against the average,
the truncated large-n asymptotics of that relative entropy, and the two
nonlinear solves it gives rise to (stationary point and maximin).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import rootfind
from .errors import ConvergenceError, DomainError, QuadratureError
from .models import (GibbsPoint, ModelKind, atanh_omega, mean_energy,
                     omega_complex, pdf, var_energy)
from .oracles import DensityMatrix2
from .specfun import half_shift_gamma, require_positive

__all__ = [
    "SpectrumEntry",
    "SpectrumTable",
    "spectrum",
    "spin_sum_polarization",
    "zeta_matrix_oracle",
    "relative_entropy_numeric",
    "asymptotic_relent",
    "solve_stationary_point",
    "solve_maximin_beta",
]


@dataclass(frozen=True)
class SpectrumEntry:
    d: int
    lam: float
    multiplicity: int


@dataclass(frozen=True)
class SpectrumTable:
    n: int
    beta: float
    entries: tuple[SpectrumEntry, ...]

    def __post_init__(self):
        if sum(e.multiplicity for e in self.entries) != 2 ** self.n:
            raise DomainError("multiplicities must sum to 2^n")
        if abs(self.trace() - 1.0) > 1e-10:
            raise DomainError(f"unit-trace violation: {self.trace()!r}")

    def trace(self) -> float:
        return math.fsum(e.multiplicity * e.lam for e in self.entries)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "beta": self.beta,
            "entries": [
                {"d": e.d, "lambda": e.lam, "multiplicity": e.multiplicity}
                for e in self.entries
            ],
        }


def _lambda_nd(n: int, beta: float, mults: list[int]) -> list[float]:
    """lambda_{n,d}, d = 0..floor(n/2), by the closed form's exact ratio
    lambda_{n,d+1}/lambda_{n,d} = (d+beta)/(n-d+beta) < 1 from w_0 = 1,
    normalised by its unit trace sum_d m_{n,d} lambda_{n,d} = 1; the sum
    takes m_{n,d}/2^n, finite for n <= 1028, and 2^-n goes on last."""
    w = [1.0]
    for d in range(n // 2):
        w.append(w[-1] * ((d + beta) / (n - d + beta)))
    scaled = math.fsum(m / (1 << n) * wd for m, wd in zip(mults, w))
    return [math.ldexp(wd / scaled, -n) for wd in w]


def _multiplicity(n: int, d: int) -> int:
    # (n-2d+1)^2/(n+1) C(n+1, d) = (n-2d+1) (C(n,d) - C(n,d-1)), an integer
    c = math.comb(n, d) - (math.comb(n, d - 1) if d >= 1 else 0)
    return (n - 2 * d + 1) * c


# Largest n whose multiplicities m_{n,d} all convert to float; at n = 1029
# the largest of them passes 2^1024.
_MAX_SPECTRUM_N = 1028


def _require_n(n, what: str) -> int:
    """n as an int, or DomainError unless it is a finite integer >= 1."""
    if not (1 <= n < math.inf and n == int(n)):
        raise DomainError(f"{what} must be a positive integer, got {n!r}")
    return int(n)


def spectrum(n: int, beta: float) -> SpectrumTable:
    """Eigenvalues and multiplicities of the averaged n-fold tensor product.

    Domain: integer n in 1..1028 and finite beta > 0; DomainError outside
    it, raised before any entry is built.  Past n = 1028 the largest
    multiplicity exceeds the double range, so the trace
    sum_d m_{n,d} lambda_{n,d} cannot be formed in floats.  The table also
    checks its own unit trace to 1e-10 and raises DomainError when that
    fails.  Against mpmath (tests/ref/spectrum_mpmath.json: n up to 1028,
    beta from 2**-511 to 1e300) each lambda is within 5e-14 relative where
    it is a normal double and 2e-321 absolute where it is subnormal (at
    n = 1028 lambda nears 2^-1028), and the trace within 1e-14 of 1.
    """
    n = _require_n(n, "spectrum n")
    if n > _MAX_SPECTRUM_N:
        raise DomainError(
            f"spectrum is limited to n <= {_MAX_SPECTRUM_N}: beyond it the "
            f"multiplicities m_(n,d) exceed the double range")
    require_positive(beta, "spectrum beta")
    mults = [_multiplicity(n, d) for d in range(n // 2 + 1)]
    entries = tuple(SpectrumEntry(d=d, lam=lam, multiplicity=m) for d, (lam, m)
                    in enumerate(zip(_lambda_nd(n, beta, mults), mults)))
    return SpectrumTable(n=n, beta=float(beta), entries=entries)


def spin_sum_polarization(n: int, beta: float) -> float:
    """Net-polarization average sum_d ((n-2d)/n) m_{n,d} lambda_{n,d}.

    Lies in [0, 1] and converges to the complex-family mean polarization
    as n grows, with an O(1/n) gap.  Domain as ``spectrum``: integer n in
    1..1028 and finite beta > 0, DomainError outside it; within 2e-15
    absolute of mpmath on its grid.
    """
    return math.fsum((n - 2 * e.d) / n * e.multiplicity * e.lam
                     for e in spectrum(n, beta).entries)


# The tensor oracle's domain (also relative_entropy_numeric's): n <= 10,
# where the weight-block design holds 12.4 MB, and beta in [1e-300, 1e4].
# Below the floor 50/beta nears the double range (t_up is inf below
# 2.8e-307); above the ceiling the relative error of models.partition,
# which pdf divides by, passes 1e-11 (5e-11 at 3e4, 2e-7 at 1e8).
_MAX_TENSOR_N = 10
_ORACLE_BETA_MIN, _ORACLE_BETA_MAX = 1e-300, 1e4
# Radial Gauss-Legendre levels; successive levels must agree to _DRIFT_TOL.
_RADIAL_LEVELS = (48, 96, 192, 384)
_DRIFT_TOL = 1e-9


@functools.cache
def _gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], built on the first
    request for each size and shared read-only after it.  The rules do not
    depend on beta, and only the radial levels and the n // 2 + 1 angular
    sizes (n <= 10) are ever requested, so the cache stays small."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


@functools.cache
def _radial_rule(levels: tuple[int, ...], split: bool):
    """The radial Gauss-Legendre levels joined on one panel, or on two
    split at t = 6: per node, level by level and within a level panel by
    panel, the unit node x + 1, its weight, whether it lies in the panel
    past t = 6 and that panel's left edge; and the (start, stop) span of
    each level.  None of it depends on beta, so each layout is built on
    its first request and shared read-only."""
    panels = 2 if split else 1
    rules = [_gauss_legendre(nodes) for nodes in levels]
    unit = np.concatenate([np.tile(x + 1.0, panels) for x, _ in rules])
    weight = np.concatenate([np.tile(w, panels) for _, w in rules])
    tail = np.concatenate([np.arange(panels * nodes) >= nodes for nodes in levels])
    edge = 6.0 * tail
    for arr in (unit, weight, tail, edge):
        arr.flags.writeable = False
    ends = list(itertools.accumulate(panels * nodes for nodes in levels))
    return unit, weight, tail, edge, tuple(zip([0] + ends[:-1], ends))


def _radial_moments(n: int, beta: float,
                    levels: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """m_k = <((1+r)/2)^k ((1-r)/2)^(n-k)>, k = 0..n, over the complex-family
    radius r = Omega(E), by Gauss-Legendre in t = sqrt(E) on
    [0, sqrt(50/beta)], one array of moments per rule size in ``levels``.
    All the levels share one ``pdf`` call on their joined nodes
    (``_radial_rule``).  Past t = 6, 1 - r < 1e-16, so a separate panel
    there keeps small beta (a long flat tail) from starving the region
    where r varies."""
    t_up = math.sqrt(50.0 / beta)
    split = t_up > 6.0
    unit, weight, tail, edge, spans = _radial_rule(levels, split)
    # each panel's half-width, (stop - start) / 2
    half = np.where(tail, (t_up - 6.0) / 2.0, 3.0) if split else t_up / 2.0
    t = half * unit + edge
    E = t * t
    # pdf in t is pdf(E) dE/dt = pdf(E) 2t
    w = half * weight * pdf(GibbsPoint(ModelKind.COMPLEX, beta), E) * 2.0 * t
    r = omega_complex(E)
    up = 0.5 * (1.0 + r)
    down = 0.5 * np.exp(-E) / (1.0 + r)  # (1 - r)/2 without cancellation
    k = np.arange(n + 1.0)
    powers = up[:, None] ** k * down[:, None] ** (n - k)
    return tuple(w[a:b] @ powers[a:b] for a, b in spans)


@functools.cache
def _spherical_design(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The spherical n-design as a linear map from the n+1 radial moments
    to zeta_n: zeta_n = sum_k m_k C[k], with
    C[k] = (sum_theta w_theta R^(x)n D_k R^(x)n^T) * [w(i) = w(j)], where
    D_k keeps the basis states with k "+" factors, w(i) counts the "-"
    factors of basis state i, and the mask is the exact average over phi
    of the P^(x)n conjugation phase e^(i phi (w(i) - w(j))).  Only the
    equal-weight blocks w(i) = w(j) = a are kept, built block by block,
    and of each block, which is symmetric, its upper triangle i <= j:
    ``values[k]`` holds C[k] there, block a = 0..n after block, row by
    row, then zeros; ``gather`` maps each entry (i, j) of the flattened
    2^n x 2^n output to its column of ``values``: (i, j) and (j, i) to the
    same one, and every entry off the blocks to the last, zero, column.
    That is (C(2n, n) + 2^n) / 2 values of each 4^n.  C is real and does
    not depend on beta, so each n is built on its first request, in one
    pass over the theta nodes, and shared read-only after it."""
    minus_count = np.array([bin(i).count("1") for i in range(2 ** n)])
    blocks = [np.flatnonzero(minus_count == a) for a in range(n + 1)]
    # per block: its upper triangle (i, j) and its first column in values
    upper = [np.triu_indices(rows.size) for rows in blocks]
    starts = list(itertools.accumulate((i.size for i, _ in upper), initial=0))
    # 1 to 4 zero columns, up to a multiple of 4: BLAS gemv kernels take
    # the output entries four at a time and round a remainder differently,
    # so with them every entry rounds as in a contraction over all 4^n
    values = np.zeros((n + 1, (starts[-1] // 4 + 1) * 4))
    gather = np.full(4 ** n, values.shape[1] - 1, dtype=np.int32)
    for rows, (i, j), start in zip(blocks, upper, starts):
        column = np.arange(start, start + i.size)
        gather[rows[i] * 2 ** n + rows[j]] = gather[rows[j] * 2 ** n + rows[i]] = column
    cos_theta, w_theta = _gauss_legendre(n // 2 + 1)
    for ct, w in zip(cos_theta, 0.5 * w_theta):
        c, s = math.sqrt(0.5 * (1.0 + ct)), math.sqrt(0.5 * (1.0 - ct))
        rot = np.array([[c, -s], [s, c]])  # columns: +1, -1 eigenvectors
        rot_n = functools.reduce(np.kron, [rot] * n)  # R^(x)n
        for rows, triangle, start in zip(blocks, upper, starts):
            for k in range(n + 1):
                cols = rot_n[np.ix_(rows, blocks[n - k])]
                values[k, start:start + triangle[0].size] += \
                    w * (cols @ cols.T)[triangle]
    values.flags.writeable = False
    gather.flags.writeable = False
    return values, gather


def zeta_matrix_oracle(n: int, beta: float) -> np.ndarray:
    """Ball average zeta_n of rho^(x)n against the complex-family radial
    weight, by quadrature; Hermitian 2^n x 2^n output.  Independent of the
    closed form: ``spectrum`` is not used.

    Rule: along a Bloch direction u with eigenbasis V of u.sigma,
    rho(r, u) = V diag((1+r)/2, (1-r)/2) V^dagger, so the radial integral is
    V^(x)n diag(m_k(i)) V^(x)n^dagger, with m_k the ``_radial_moments`` and
    k(i) the number of "+" factors of basis state i.  That is a polynomial
    of degree <= n in u, integrated exactly by a spherical n-design:
    Gauss-Legendre in cos(theta) with floor(n/2)+1 nodes, and phi
    averaged in closed form.  Since V = P R(theta) P^dagger with
    P = diag(1, e^(i phi)) and P^(x)n diagonal, each theta node is one
    real conjugation by R^(x)n, and phi enters only through the entrywise
    phase e^(i phi (w(i) - w(j))), w(i) the number of "-" factors; its
    average over phi is 1 where w(i) = w(j) and 0 elsewhere, because
    |w(i) - w(j)| <= n.  zeta_n is therefore linear in the moments,
    zeta_n = sum_k m_k C_(n,k), real, and zero off the equal-weight
    blocks; the design C_(n,k) on those blocks depends on n alone: it is
    built once per n (``_spherical_design``), and each call contracts the
    n+1 moments with it and gathers the output from the result.  Each
    block of C_(n,k) is symmetric, so only its upper triangle is stored,
    and (i, j) and (j, i) gather the same value: the output is exactly
    Hermitian.  Only the moments are numerical: radial Gauss-Legendre
    levels 48, 96, 192, 384 until two agree to 1e-9; the direction
    weights are positive and sum to 1, so (Weyl) the eigenvalues then
    agree to 1e-9 too.

    Domain: integer n in 1..10 and finite 1e-300 <= beta <= 1e4;
    DomainError outside it, QuadratureError if the radial levels do not
    settle.  Below 1e-300 the radial range sqrt(50/beta) nears the double
    range; above 1e4 the relative error of ``models.partition``, which
    the radial weight divides by, passes 1e-11.

    Accuracy, against ``spectrum`` (itself within 5e-14 relative of
    mpmath): the eigenvalues agree to 5e-14 absolute for n = 1..8 and
    1e-300 <= beta <= 100, and to 1e-13 for n = 9 and 10 on 1e-10..100;
    from 100 to 1e4 the error follows the relative error of
    ``models.partition``, up to 1.3e-11 (n = 1) at 1e4.

    Cost (one core, beta in [0.5, 1.7]): the first call for each n also
    builds the rules it needs (``_gauss_legendre`` and ``_radial_rule``;
    the radial levels stop at 96 nodes for every n <= 10 and beta from
    1e-10 to 100) and the design, and takes 7-12 ms for n = 3, 20-35 ms
    for n = 8 and 0.23-0.31 s for n = 10, most of it building the design
    from n = 8 up.  Later calls pay for one pdf evaluation on the 144 (or
    288) joined radial nodes, one (n+1)-term real contraction and one
    gather into the complex output: about 0.05-0.06 ms for n = 3, 0.3 ms
    for n = 8 and 5-6 ms for n = 10, where the 16 MB output dominates.
    The design holds (n+1) (C(2n, n) + 2^n) / 2 float64 values and a 4^n
    int32 index: 0.8 KB for n = 3, 0.73 MB for n = 8 and 12.4 MB for
    n = 10, where a dense (n+1) 4^n design would take 92 MB.
    """
    n = _require_n(n, "zeta_matrix_oracle n")
    if n > _MAX_TENSOR_N:
        raise DomainError(f"the tensor oracle is limited to n in 1..{_MAX_TENSOR_N}")
    require_positive(beta, "zeta_matrix_oracle beta")
    if not _ORACLE_BETA_MIN <= beta <= _ORACLE_BETA_MAX:
        raise DomainError(
            f"zeta_matrix_oracle beta = {beta!r} is outside its domain "
            f"[{_ORACLE_BETA_MIN:g}, {_ORACLE_BETA_MAX:g}]")
    coarse, moments = _radial_moments(n, beta, _RADIAL_LEVELS[:2])
    finer_levels = iter(_RADIAL_LEVELS[2:])
    # "not <" so that a NaN drift counts as drifting
    while not (drift := float(np.abs(moments - coarse).max())) < _DRIFT_TOL:
        nodes = next(finer_levels, None)
        if nodes is None:
            raise QuadratureError(
                f"tensor average radial moments still drifting ({drift:.2e}) "
                f"at {_RADIAL_LEVELS[-1]} nodes")
        coarse, (moments,) = moments, _radial_moments(n, beta, (nodes,))

    values, gather = _spherical_design(n)
    return (moments @ values).astype(complex)[gather].reshape(2 ** n, 2 ** n)


def relative_entropy_numeric(rho: DensityMatrix2, n: int, beta: float) -> float:
    """Relative entropy of rho^(x)n with respect to the averaged matrix:
    -n S(rho) - Tr(rho^(x)n log zeta_n), natural logs.

    Domain as ``zeta_matrix_oracle`` (integer n in 1..10 and
    1e-300 <= beta <= 1e4), whose DomainError it raises.  For the
    maximally mixed rho it matches the closed form
    -n ln 2 - 2^-n sum_d m_{n,d} ln lambda_{n,d} to within 1e-14 for
    n = 1..10 at beta = 1.  A call takes about 0.03 s at n = 8 and 1.4 s at
    n = 10, mostly the eigendecomposition and the product with the dense
    2^n x 2^n rho^(x)n.
    """
    zeta = zeta_matrix_oracle(n, beta)
    lam, vec = np.linalg.eigh(zeta)
    if np.any(lam <= 0):
        raise DomainError("averaged matrix is numerically singular")
    log_zeta = (vec * np.log(lam)) @ vec.conj().T
    kron = functools.reduce(np.kron, [rho.matrix()] * int(n))
    p, q = rho.eigenvalues
    s_rho = -sum(v * math.log(v) for v in (p, q) if v > 0)
    return float(-n * s_rho - np.trace(kron @ log_zeta).real)


def asymptotic_relent(beta: float, E: float, n: int) -> float:
    """Truncated large-n asymptotics of the relative entropy:
    (3/2) ln n - 1/2 - (3/2) ln 2 + beta E - artanh(Omega)/Omega
    + ln Gamma(beta) - ln Gamma(3/2 + beta).

    The gamma term is -ln beta - L(1 + beta), with the half-shift L of
    ``specfun.half_shift_gamma``: against 60-digit mpmath it is within
    3e-16 of max(1, |term|) for every finite beta > 0 (2.4e-16 on
    [1e-300, 1e15], where the log_gamma difference it replaces was 3.7e-3
    off at 1e15 and read 0 instead of -1036 at 1e300).  Domain: finite
    beta > 0, finite E > 0 with beta E finite, and integer n >= 1;
    DomainError outside it.  The whole sum is within 3e-16 of the sum of
    its terms' magnitudes.  The formula itself approximates the relative
    entropy to O(1/n).
    """
    require_positive(beta, "asymptotic_relent beta")
    require_positive(E, "asymptotic_relent E")
    n = _require_n(n, "asymptotic_relent n")
    if not beta * E < math.inf:
        raise DomainError(f"asymptotic_relent beta E overflows: {beta!r}, {E!r}")
    om = float(omega_complex(E))
    return (1.5 * math.log(n) - 0.5 - 1.5 * math.log(2.0) + beta * E
            - float(atanh_omega(E)) / om
            - math.log(beta) - half_shift_gamma(1.0 + beta)[0])


def _stationarity_system(v: np.ndarray) -> np.ndarray:
    beta, E = float(v[0]), float(v[1])
    om = float(omega_complex(E))
    eq1 = E - mean_energy(GibbsPoint(ModelKind.COMPLEX, beta))
    # d/dE of the truncated asymptotics, rearranged for beta
    eq2 = beta - (2.0 - 2.0 * float(atanh_omega(E)) / (math.exp(E) * om)) \
        / (4.0 * om * om)
    return np.array([eq1, eq2])


def solve_stationary_point() -> tuple[float, float]:
    """Joint zero of the two derivative conditions of the truncated
    asymptotics, from the starting point (0.5, 2.5); residuals < 1e-10."""
    beta, E = rootfind.newton2d(_stationarity_system, (0.5, 2.5))
    res = _stationarity_system(np.array([beta, E]))
    if np.max(np.abs(res)) > 1e-10:
        raise ConvergenceError(f"stationary-point residual too large: {res}")
    return float(beta), float(E)


def solve_maximin_beta() -> float:
    """Root of 2 beta^3 var(E) = 1 on [0.1, 2]; residual < 1e-12."""
    def f(b):
        return 2.0 * b**3 * var_energy(GibbsPoint(ModelKind.COMPLEX, b)) - 1.0

    lo, hi = 0.1, 2.0
    if f(lo) * f(hi) >= 0:
        raise ConvergenceError("maximin equation does not bracket on [0.1, 2]")
    root = rootfind.brent(f, lo, hi, xtol=1e-15)
    if abs(f(root)) >= 1e-12:
        raise ConvergenceError(f"maximin residual {f(root)} >= 1e-12")
    return float(root)
