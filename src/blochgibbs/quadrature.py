"""Adaptive Gauss-Kronrod quadrature on finite and semi-infinite ranges.

One engine serves both entry points.  It keeps a set of panels and works
in levels: each level evaluates every new panel with the Kronrod-15 rule
and its embedded Gauss-7 rule, in one call of f on the flat 1-D float
array of all their nodes.  While the summed |Kronrod - Gauss| exceeds
the tolerance, it halves every panel whose own |Kronrod - Gauss| exceeds
tol / (panel count).  Past 10^4 panels, or on any f value that is +-inf
or NaN, it raises QuadratureError.  The tolerance is
absolute throughout.

Semi-infinite integrals substitute E = t^2 (which regularizes the
integrable E^(-1/2)-type endpoint singularities that occur here) and run
the engine once over 16 fixed t-panels: 0, 1, ..., 8, then 1.5x growth
out to t ~ 205 (E ~ 4.2e4).  Those panels ignore the scale of the
integrand: a small integral gets few significant digits, and one whose
mass lies past E ~ 4.2e4 raises (see ``integrate_semiinfinite``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureError
from .specfun import require_positive

__all__ = ["QuadratureResult", "integrate_interval", "integrate_semiinfinite",
           "panel_integrals"]

# Kronrod-15 abscissae on [-1, 1] (positive half) and weights; the odd
# entries carry the embedded Gauss-7 rule.
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

_NODES = np.concatenate((-_XGK[:-1], _XGK[::-1]))          # 15 ascending nodes
_WEIGHTS_K = np.concatenate((_WGK[:-1], _WGK[::-1]))
_WEIGHTS_G = np.zeros(15)
_WEIGHTS_G[1:14:2] = np.concatenate((_WG[:-1], _WG[::-1]))

_MAX_PANELS = 10**4


@dataclass(frozen=True)
class QuadratureResult:
    """Integral value with an absolute error estimate and evaluation count."""

    value: float
    abs_error_estimate: float
    evaluations: int

    def __post_init__(self):
        if self.abs_error_estimate < 0:
            raise ValueError("abs_error_estimate must be >= 0")
        if self.evaluations < 15:
            raise ValueError("evaluations must be >= 15")


def _kronrod(f, lo, hi):
    """Kronrod-15 integrals of f over the panels [lo[i], hi[i]] and their
    |Kronrod - Gauss-7| error estimates, from one call of f on the flat
    1-D array of every node.  QuadratureError ("interval quadrature
    stalled") if any f value is +-inf or NaN."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * _NODES[None, :]
    fx = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    # tested before the rules: the Gauss weight 0 times inf would be NaN
    if not np.isfinite(fx).all():
        raise QuadratureError(
            "interval quadrature stalled at error nan: an f value is not finite")
    k = (fx @ _WEIGHTS_K) * half
    return k, np.abs(k - (fx @ _WEIGHTS_G) * half)


def panel_integrals(f, edges: np.ndarray) -> np.ndarray:
    """Kronrod-15 integral of f over each panel [edges[i], edges[i+1]],
    from one call of f on the flat 1-D array of every node.  No refinement:
    the caller chooses panels narrow enough for its needs."""
    return _kronrod(f, edges[:-1], edges[1:])[0]


def _adapt(f, edges, tol):
    """The engine of the module docstring on the panels between edges;
    (left ends, Kronrod integrals) of the final panels, their summed error
    estimate and the number of f values."""
    lo, hi = edges[:-1], edges[1:]
    k, e = _kronrod(f, lo, hi)
    evals = 15 * k.size
    while not (err := float(e.sum())) <= tol:
        split = e > tol / lo.size
        # a NaN error (finite f values whose panel sums overflow) has no
        # panel to refine
        if math.isnan(err) or lo.size + split.sum() > _MAX_PANELS:
            raise QuadratureError(
                f"interval quadrature stalled at error {err:.3e} "
                f"> tol {tol:.3e}",
                best_estimate=None if math.isnan(err) else math.fsum(k),
            )
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate((lo[split], mid))
        new_hi = np.concatenate((mid, hi[split]))
        evals += 15 * new_lo.size
        new = (new_lo, new_hi, *_kronrod(f, new_lo, new_hi))
        lo, hi, k, e = (np.concatenate((old[~split], add))
                        for old, add in zip((lo, hi, k, e), new))
    return lo, k, err, evals


def integrate_interval(f, a: float, b: float, tol: float) -> QuadratureResult:
    """Integrate f over the finite [a, b] to the absolute tolerance ``tol``
    by the engine, starting from the one panel [a, b].  f takes a 1-D
    float array and returns one value per element; QuadratureError
    ("interval quadrature stalled") when 10^4 panels cannot meet ``tol``
    or an f value is not finite."""
    if not (math.isfinite(a) and math.isfinite(b)) or b < a:
        raise DomainError(f"bad interval [{a}, {b}]")
    require_positive(tol, "integrate_interval tol")
    if a == b:
        return QuadratureResult(0.0, 0.0, 15)
    _, k, err, evals = _adapt(f, np.array([a, b], dtype=float), tol)
    return QuadratureResult(math.fsum(k), err, evals)


def integrate_semiinfinite(f, tol: float) -> QuadratureResult:
    """Integrate f over [0, infinity) to the absolute tolerance ``tol``.

    f takes a 1-D float array of E and returns one value per element.  The
    engine runs once on 2t f(t^2) over the fixed t-panels of the module
    docstring, so the integrand must have (at worst) an integrable
    algebraic singularity at 0 and its mass inside E < 4.2e4.  The mass of
    the last t-panel (t > 137) must be <= tol / 8, else QuadratureError
    "did not converge by t = 205"; it is added to the returned error
    estimate.  A result whose every panel integral is 0, as when every f
    value underflows, raises QuadratureError instead of returning 0.

    Known limits: the panels ignore the scale of f and ``tol`` is absolute,
    so a small integral gets few digits.  ``E * pdf`` of the classical
    family at beta = 1e6 returns 2.8e-12 against the true 5.0e-7, and a
    mass spread past E = 4.2e4 (beta <= 1e-3) raises.
    """
    require_positive(tol, "integrate_semiinfinite tol")

    def g(t):
        return 2.0 * t * np.asarray(f(t * t), dtype=float)

    edges = np.concatenate((np.arange(9.0), 8.0 * 1.5 ** np.arange(1, 9)))
    lo, k, err, evals = _adapt(g, edges, tol)
    value = math.fsum(k)
    if not k.any():
        raise QuadratureError(
            "semi-infinite quadrature found no mass: every panel integral is 0",
            best_estimate=value,
        )
    tail = abs(math.fsum(k[lo >= edges[-2]]))
    if tail > tol / 8.0:
        raise QuadratureError(
            f"semi-infinite quadrature did not converge by t = {edges[-1]:.0f}",
            best_estimate=value,
        )
    return QuadratureResult(value, err + tail, evals)
