"""Independent verification machinery.

Two oracles that deliberately avoid the closed forms they are used to
check: an inverse-CDF Gibbs sampler (safeguarded Newton steps on the
numerically integrated density, through ``quadrature.panel_integrals``),
and the partial-trace Monte Carlo that reduces Haar-random bipartite pure
states to 2x2 density matrices.  The sampler takes its density from
``models``; adaptive quadrature lives in ``quadrature``.

The sampler serves any beta > 0 and is tested from beta = 1e-10 to 1e10.
Each draw lies within 0.5e-10 in E (or a few ulp of E, where E > ~5e4)
of the root of the numeric CDF, which for the four power-law families is
within 4e-14 of the exact law 1 - I_{e^-E}(beta, (m+1)/2) for beta from
0.1 to 1e10 (measured against scipy's betainc).  1e5 draws take 30-50 ms
on a 2-core x86-64 VM, against 250-370 ms by bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import models
from .errors import DomainError
from .models import GibbsPoint, ModelKind
from .quadrature import panel_integrals

__all__ = [
    "DensityMatrix2",
    "EnergyInverter",
    "sample_energy",
    "energy_cdf",
    "page_reduced_state",
    "page_energy_samples",
]


@dataclass(frozen=True)
class DensityMatrix2:
    """2x2 density matrix in Bloch parameterization (r, theta, phi).

    Eigenvalues are (1 +- r)/2 and the energy convention is
    E = -ln(1 - r^2), so r = 0 is the fully mixed state (E = 0) and r = 1
    is pure (E = inf).
    """

    r: float
    theta: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.r <= 1.0:
            raise DomainError(f"r must lie in [0, 1], got {self.r!r}")
        if not 0.0 <= self.theta <= math.pi:
            raise DomainError(f"theta must lie in [0, pi], got {self.theta!r}")
        if not 0.0 <= self.phi < 2.0 * math.pi:
            raise DomainError(f"phi must lie in [0, 2 pi), got {self.phi!r}")

    @property
    def bloch_vector(self) -> tuple[float, float, float]:
        st = math.sin(self.theta)
        return (self.r * math.cos(self.phi) * st,
                self.r * math.sin(self.phi) * st,
                self.r * math.cos(self.theta))

    @property
    def energy(self) -> float:
        return float("inf") if self.r == 1.0 else -math.log1p(-self.r * self.r)

    @property
    def eigenvalues(self) -> tuple[float, float]:
        return ((1.0 + self.r) / 2.0, (1.0 - self.r) / 2.0)

    def matrix(self) -> np.ndarray:
        x, y, z = self.bloch_vector
        return 0.5 * np.array([[1.0 + z, x - 1j * y],
                               [x + 1j * y, 1.0 - z]], dtype=complex)

    @classmethod
    def from_matrix(cls, rho: np.ndarray) -> "DensityMatrix2":
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (2, 2):
            raise DomainError("expected a 2x2 matrix")
        if abs(np.trace(rho).real - 1.0) > 1e-10 or abs(np.trace(rho).imag) > 1e-10:
            raise DomainError("matrix must have unit trace")
        if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
            raise DomainError("matrix must be Hermitian")
        x = 2.0 * rho[0, 1].real
        y = -2.0 * rho[0, 1].imag
        z = (rho[0, 0] - rho[1, 1]).real
        r = min(math.sqrt(x * x + y * y + z * z), 1.0)
        theta = math.acos(max(-1.0, min(1.0, z / r))) if r > 0 else 0.0
        phi = math.atan2(y, x) % (2.0 * math.pi) if r > 0 else 0.0
        return cls(r=r, theta=theta, phi=phi)


class EnergyInverter:
    """Numeric CDF of a Gibbs family and its inverse.

    The density g(t) = 2t e^(-beta t^2) Omega(t^2) / Z of t = sqrt(E) (the
    substitution removes the classical family's E^(-1/2) endpoint
    singularity; Omega is ``models.structure_function``) is integrated
    once over 4096 equal panels of [0, T] by the Kronrod-15 rule, with
    T^2 = max(50, 60/beta) up to beta = 7 and 350/beta above it, so that
    every larger beta sees the beta = 7 grid in units of beta*E.  Inside
    a panel [t0, t1] the CDF at t is the grid value at t0 plus Simpson's
    rule on [t0, t]; g(t), that rule's last node, is also the derivative
    for the Newton steps of ``quantile``.
    """

    _GRID_SIZE = 4096
    _WINDOW = 1e-10  # certified quantile window in E units, beta <= 7
    _BETA_SCALE = 7.0
    _MIN_CELL_ULPS = 4  # cells never narrower than this many ulp of t
    _NEWTON_STEPS = 8  # then plain bisection, so every row terminates
    _CHUNK = 4096  # rows inverted together; bounds the work arrays

    def __init__(self, point: GibbsPoint):
        if point.beta <= 0:
            raise DomainError("sampling requires beta > 0")
        self.point = point
        beta = point.beta
        # above beta = 7 the grid's range and the window shrink as 1/beta:
        # there the law of beta*E hardly changes shape
        scale = min(1.0, self._BETA_SCALE / beta)
        self._window = self._WINDOW * scale
        e_up = max(50.0, 60.0 / beta) * scale
        self._T = math.sqrt(e_up)
        self._t = np.linspace(0.0, self._T, self._GRID_SIZE + 1)
        z = models.partition(point)

        def g(t):
            E = t * t
            om = models.structure_function(point.model, E)
            with np.errstate(invalid="ignore"):
                out = 2.0 * t * np.exp(-beta * E) * om / z
            # classical integrand 2t * E^(-1/2) -> 2 at t = 0
            if point.model is ModelKind.CLASSICAL:
                out = np.where(t == 0.0, 2.0 / z, out)
            return out

        self._g = g
        self._g_nodes = g(self._t)
        cdf = np.concatenate(([0.0], np.cumsum(panel_integrals(g, self._t))))
        self._total = cdf[-1]
        self._cdf = cdf / self._total  # self-normalized: CDF(T) = 1 exactly

    def cdf(self, E):
        """CDF evaluated by grid lookup plus a sub-panel Simpson segment."""
        E = np.asarray(E, dtype=float)
        t = np.sqrt(np.clip(E, 0.0, None))
        t = np.minimum(t, self._T)
        idx = self._panel(self._t, t)
        seg, _ = self._segment(self._t[idx], self._g_nodes[idx], t)
        return self._cdf[idx] + seg

    def _panel(self, edges, x):
        return np.clip(np.searchsorted(edges, x, side="right") - 1, 0,
                       self._GRID_SIZE - 1)

    def _segment(self, t0, g0, t1):
        """Simpson's rule for the CDF increment over [t0, t1], and g(t1);
        g0 = g(t0)."""
        h = t1 - t0
        g1 = self._g(t1)
        val = (h / 6.0) * (g0 + 4.0 * self._g(t0 + 0.5 * h) + g1)
        return val / self._total, g1

    def _cells(self, idx):
        """Cell width and cell count 2^k for rows in panels ``idx``."""
        t1 = self._t[idx + 1]
        dt = t1 - self._t[idx]
        # least k with t1 * dt / 2^k <= window / 2: ceil(log2(.)), exactly
        mant, k = np.frexp(t1 * dt / (0.5 * self._window))
        k = np.maximum(k - (mant == 0.5), 0)
        # most k with dt / 2^k >= 4 ulp(t1): floor(log2(.))
        k_max = np.frexp(dt / (self._MIN_CELL_ULPS * np.spacing(t1)))[1] - 1
        k = np.minimum(k, np.maximum(k_max, 0))
        return np.ldexp(dt, -k), np.ldexp(1.0, k)

    def quantile(self, u):
        """Inverse CDF for u in [0, 1) (any shape; NaN raises DomainError),
        by safeguarded Newton steps, vectorised over the draws.

        The panel [t0, t1] holding the root is cut into 2^k equal cells,
        k the least with t1 * cell <= window / 2 (window 1e-10 up to
        beta = 7, 7e-10/beta above), but no cell narrower than four ulp
        of t1.  A row stops on the cell whose left edge has CDF < u and
        whose right edge has CDF >= u (the panel's own edges count
        without a test) and returns the square of its midpoint: within
        window / 2 of the root in E, or within a few ulp of E where
        t1 >~ 240.  The cells depend only on the panel, so the result
        is non-decreasing in u.

        Newton starts from linear interpolation of the grid CDF and
        steps with g as the derivative; each step is rounded to a cell
        edge strictly inside the row's bracket, a step that leaves the
        bracket becomes a bisection, and after eight steps a row only
        bisects.  Most rows are certified after three Simpson
        evaluations (two density values each), against about 29 for
        bisection.
        """
        u = np.asarray(u, dtype=float)
        if not np.all((u >= 0.0) & (u < 1.0)):
            raise DomainError("quantile requires u in [0, 1)")
        shape = u.shape
        u = u.ravel()
        out = np.empty_like(u)
        for i in range(0, u.size, self._CHUNK):
            out[i:i + self._CHUNK] = self._invert(u[i:i + self._CHUNK])
        return out.reshape(shape)

    def _invert(self, u):
        """``quantile`` of a 1-D chunk of u."""
        idx = self._panel(self._cdf, u)
        t0, g0, base = self._t[idx], self._g_nodes[idx], self._cdf[idx]
        cell, hi = self._cells(idx)
        lo = np.zeros_like(u)  # bracket [lo, hi] in cells from t0
        guess = (u - base) / (self._cdf[idx + 1] - base) * hi

        out = np.empty_like(u)
        rows = np.arange(u.size)
        step = 0
        while True:
            done = hi - lo <= 1.0
            if done.any():
                out[rows[done]] = t0[done] + (lo[done] + 0.5) * cell[done]
                keep = ~done
                rows, u, t0, g0, base, cell, lo, hi, guess = (
                    a[keep] for a in (rows, u, t0, g0, base, cell, lo, hi, guess))
            if not rows.size:
                break
            if step >= self._NEWTON_STEPS:
                guess = 0.5 * (lo + hi)
            j = np.clip(np.rint(guess), lo + 1.0, hi - 1.0)
            seg, g = self._segment(t0, g0, t0 + j * cell)
            resid = u - (base + seg)
            below = resid > 0.0
            lo = np.where(below, j, lo)
            hi = np.where(below, hi, j)
            with np.errstate(all="ignore"):
                guess = j + resid * self._total / (g * cell)
            bad = ~((guess > lo) & (guess < hi))  # also catches nan
            guess[bad] = 0.5 * (lo[bad] + hi[bad])
            step += 1
        return out * out


def energy_cdf(point: GibbsPoint, E):
    """Numeric CDF of the Gibbs energy law (vectorized over E)."""
    return EnergyInverter(point).cdf(E)


def _require_count(count) -> int:
    if (isinstance(count, (bool, np.bool_))
            or not isinstance(count, (int, np.integer))):
        raise DomainError(f"count must be an integer, got {count!r}")
    if count <= 0:
        raise DomainError("count must be positive")
    return int(count)


def sample_energy(point: GibbsPoint, rng_seed: int, count: int) -> np.ndarray:
    """``count`` i.i.d. energy draws by inverse-CDF; deterministic per seed."""
    count = _require_count(count)
    inverter = EnergyInverter(point)
    u = np.random.default_rng(rng_seed).random(count)
    return inverter.quantile(u)


def _haar_bipartite_energies(m: int, rng: np.random.Generator,
                             count: int) -> np.ndarray:
    """Energies E = -ln(1 - r^2) of 2x2 reductions of Haar-random pure
    states in C^2 (x) C^m; vectorized over draws."""
    v = rng.standard_normal((count, 2, m)) + 1j * rng.standard_normal((count, 2, m))
    v /= np.sqrt((np.abs(v) ** 2).sum(axis=(1, 2)))[:, None, None]
    p00 = (np.abs(v[:, 0, :]) ** 2).sum(axis=1)
    p11 = (np.abs(v[:, 1, :]) ** 2).sum(axis=1)
    off = (v[:, 0, :] * v[:, 1, :].conj()).sum(axis=1)
    det = p00 * p11 - np.abs(off) ** 2  # = (1 - r^2)/4
    return -np.log(np.clip(4.0 * det, 1e-300, None))


def page_energy_samples(m: int, rng_seed: int, count: int) -> np.ndarray:
    """Monte Carlo energies of reduced states; their law is the complex
    Gibbs family at beta = m - 1."""
    if m < 2:
        raise DomainError("page sampling requires m >= 2")
    count = _require_count(count)
    rng = np.random.default_rng(rng_seed)
    return _haar_bipartite_energies(m, rng, count)


def page_reduced_state(m: int, rng_seed: int) -> DensityMatrix2:
    """One 2x2 reduction of a Haar-random pure state in C^2 (x) C^m.

    A unit vector of 2m complex standard Gaussians is reshaped to 2 x m
    and the m-dimensional factor traced out: rho = V V^dagger.
    """
    if m < 2:
        raise DomainError("page_reduced_state requires m >= 2")
    rng = np.random.default_rng(rng_seed)
    v = rng.standard_normal((2, m)) + 1j * rng.standard_normal((2, m))
    v /= np.linalg.norm(v)
    rho = v @ v.conj().T
    return DensityMatrix2.from_matrix(rho)
