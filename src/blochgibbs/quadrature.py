"""Adaptive Gauss-Kronrod quadrature on finite and semi-infinite ranges.

The 7/15 embedded pair drives error-directed bisection on finite panels.
Semi-infinite integrals substitute E = t^2 (which regularizes the
integrable E^(-1/2)-type endpoint singularities that occur here) and march
outward over widening panels until a geometric tail estimate certifies the
remainder.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureError

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

_MAX_SUBDIVISIONS = 10**4


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


def _gk15(f, a, b):
    """(kronrod, |kronrod - gauss|) on [a, b]; f must accept ndarray."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fx = np.asarray(f(mid + half * _NODES), dtype=float)
    k = half * float(fx @ _WEIGHTS_K)
    g = half * float(fx @ _WEIGHTS_G)
    return k, abs(k - g)


def panel_integrals(f, edges: np.ndarray) -> np.ndarray:
    """Kronrod-15 integral of f over each panel [edges[i], edges[i+1]].

    f is called once, on the (panels, 15) array of every node, and must
    return an array of that shape.  No error estimate and no refinement:
    the caller chooses panels narrow enough for the rule to be exact to
    its needs.
    """
    lo, hi = edges[:-1], edges[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * _NODES[None, :]
    return (f(nodes) @ _WEIGHTS_K) * half


def integrate_interval(f, a: float, b: float, tol: float) -> QuadratureResult:
    """Adaptive GK7/15 integration of f over [a, b] to absolute tolerance;
    QuadratureError after 10^4 bisections."""
    if not (math.isfinite(a) and math.isfinite(b)) or b < a:
        raise DomainError(f"bad interval [{a}, {b}]")
    if tol <= 0:
        raise DomainError("tol must be positive")
    if a == b:
        return QuadratureResult(0.0, 0.0, 15)
    val, err = _gk15(f, a, b)
    heap = [(-err, a, b, val)]
    total_err = err
    evals = 15
    n = 1
    while total_err > tol and n < _MAX_SUBDIVISIONS:
        neg_err, lo, hi, v = heapq.heappop(heap)
        total_err += neg_err  # removes the panel's error
        mid = 0.5 * (lo + hi)
        v1, e1 = _gk15(f, lo, mid)
        v2, e2 = _gk15(f, mid, hi)
        evals += 30
        heapq.heappush(heap, (-e1, lo, mid, v1))
        heapq.heappush(heap, (-e2, mid, hi, v2))
        total_err += e1 + e2
        n += 1
    value = math.fsum(item[3] for item in heap)
    if total_err > tol:
        raise QuadratureError(
            f"interval quadrature stalled at error {total_err:.3e} > tol {tol:.3e}",
            best_estimate=value,
        )
    return QuadratureResult(value, total_err, evals)


def _panel_edges():
    """0, 1, 2, ..., 8, then 1.5x growth out to t ~ 200 (E ~ 4e4)."""
    edges = list(range(0, 9))
    t = 8.0
    while t < 200.0:
        t *= 1.5
        edges.append(t)
    return edges


def integrate_semiinfinite(f, tol: float) -> QuadratureResult:
    """Integrate f over [0, infinity) to absolute tolerance ``tol``.

    The integrand is assumed absolutely integrable with (at worst) an
    integrable algebraic singularity at 0 and eventually geometric decay
    of the panel masses under E = t^2; both hold for every exponentially
    damped density in this package.  The returned error estimate includes
    the geometric tail bound for the un-integrated remainder.
    """
    if tol <= 0:
        raise DomainError("tol must be positive")

    def g(t):
        t = np.asarray(t, dtype=float)
        return 2.0 * t * np.asarray(f(t * t), dtype=float)

    edges = _panel_edges()
    total = 0.0
    err = 0.0
    evals = 0
    panel_mags = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        res = integrate_interval(g, lo, hi, tol / 32.0)
        total += res.value
        err += res.abs_error_estimate
        evals += res.evaluations
        panel_mags.append(abs(res.value))
        if len(panel_mags) >= 3:
            scale = max(max(panel_mags), 1e-300)
            last, prev = panel_mags[-1], panel_mags[-2]
            if last == 0.0 or (prev > 0 and last / prev < 0.9):
                rho = last / prev if prev > 0 else 0.0
                tail = last * rho / (1.0 - rho) if rho > 0 else 0.0
                if last + tail <= tol / 8.0 or last <= 1e-16 * scale:
                    return QuadratureResult(total, err + last + tail, evals)
    raise QuadratureError(
        f"semi-infinite quadrature did not converge by t = {edges[-1]:.0f}",
        best_estimate=total,
    )
