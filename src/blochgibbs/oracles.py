"""Independent verification machinery.

Two oracles that deliberately avoid the closed forms they are used to
check: an inverse-CDF Gibbs sampler (bisection against the numerically
integrated density, through ``quadrature.panel_integrals``), and the
partial-trace Monte Carlo that reduces Haar-random bipartite pure states
to 2x2 density matrices.  The sampler takes its density from ``models``;
adaptive quadrature lives in ``quadrature``.
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

    The density 2t e^(-beta t^2) Omega(t^2) / Z of t = sqrt(E) (the
    substitution removes the classical family's E^(-1/2) endpoint
    singularity; Omega is ``models.structure_function``) is integrated
    once over 4096 equal panels by the Kronrod-15 rule; quantiles are then
    located by bisection inside the bracketing grid panel, with the
    sub-panel integral supplied by Simpson's rule on the smooth
    transformed integrand.
    """

    _GRID_SIZE = 4096
    _SIMPSON_TOL = 1e-10  # bisection window in E units

    def __init__(self, point: GibbsPoint):
        if point.beta <= 0:
            raise DomainError("sampling requires beta > 0")
        self.point = point
        beta = point.beta
        e_up = max(50.0, 60.0 / beta)
        self._T = math.sqrt(e_up)
        self._t = np.linspace(0.0, self._T, self._GRID_SIZE + 1)
        z = models.partition(point)

        def g(t):
            t = np.asarray(t, dtype=float)
            E = t * t
            om = models.structure_function(point.model, E)
            with np.errstate(invalid="ignore"):
                out = 2.0 * t * np.exp(-beta * E) * om / z
            # classical integrand 2t * E^(-1/2) -> 2 at t = 0
            if point.model is ModelKind.CLASSICAL:
                out = np.where(t == 0.0, 2.0 / z, out)
            return out

        self._g = g
        cdf = np.concatenate(([0.0], np.cumsum(panel_integrals(g, self._t))))
        self._total = cdf[-1]
        self._cdf = cdf / self._total  # self-normalized: CDF(T) = 1 exactly

    def cdf(self, E):
        """CDF evaluated by grid lookup plus a sub-panel Simpson segment."""
        E = np.asarray(E, dtype=float)
        t = np.sqrt(np.clip(E, 0.0, None))
        t = np.minimum(t, self._T)
        idx = np.clip(np.searchsorted(self._t, t, side="right") - 1, 0,
                      len(self._t) - 2)
        t0 = self._t[idx]
        return self._cdf[idx] + self._segment(t0, t)

    def _segment(self, t0, t1):
        h = t1 - t0
        mid = t0 + 0.5 * h
        val = (h / 6.0) * (self._g(t0) + 4.0 * self._g(mid) + self._g(t1))
        return val / self._total

    def quantile(self, u):
        """Inverse CDF by per-panel bisection; monotone in u."""
        u = np.asarray(u, dtype=float)
        if np.any((u < 0) | (u >= 1)):
            raise DomainError("quantile requires u in [0, 1)")
        idx = np.clip(np.searchsorted(self._cdf, u, side="right") - 1, 0,
                      len(self._t) - 2)
        lo = self._t[idx].copy()
        hi = self._t[idx + 1].copy()
        base = self._cdf[idx]
        t0 = self._t[idx]
        # bisect until the E-window 2 t dt is below the tolerance
        width = float(np.max(hi * (hi - lo)))
        while width > 0.5 * self._SIMPSON_TOL:
            mid = 0.5 * (lo + hi)
            below = base + self._segment(t0, mid) < u
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
            width = float(np.max(hi * (hi - lo)))
        t = 0.5 * (lo + hi)
        return t * t


def energy_cdf(point: GibbsPoint, E):
    """Numeric CDF of the Gibbs energy law (vectorized over E)."""
    return EnergyInverter(point).cdf(E)


def sample_energy(point: GibbsPoint, rng_seed: int, count: int) -> np.ndarray:
    """``count`` i.i.d. energy draws by inverse-CDF; deterministic per seed."""
    if count <= 0:
        raise DomainError("count must be positive")
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
    if count <= 0:
        raise DomainError("count must be positive")
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
