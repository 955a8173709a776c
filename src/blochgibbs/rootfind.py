"""Bracketed scalar root finding and a small damped Newton for 2-D systems."""

from __future__ import annotations

import math

import numpy as np

from .errors import BracketingError, ConvergenceError

__all__ = ["brent", "scan_bracket", "newton2d"]

_EPS = 2.220446049250313e-16
_MAX_ITER = 200  # either solver's iteration budget
_NEWTON_TOL = 1e-11  # newton2d stops once max |F| is below this


def brent(f, a: float, b: float, xtol: float = 1e-13) -> float:
    """Brent's method on a sign-change interval [a, b]."""
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0:
        raise BracketingError(f"f({a}) = {fa} and f({b}) = {fb} do not bracket a root")
    c, fc = a, fa
    d = e = b - a
    for _ in range(_MAX_ITER):
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * _EPS * abs(b) + xtol
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b
        if abs(e) < tol or abs(fa) <= abs(fb):
            d = e = m
        else:
            s = fb / fa
            if a == c:
                p = 2.0 * m * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e = d
                d = p / q
            else:
                d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = f(b)
        if fb == 0.0:
            return b
        if (fb > 0) == (fc > 0):
            c, fc = a, fa
            d = e = b - a
    raise ConvergenceError(f"brent did not converge in {_MAX_ITER} iterations",
                           best_estimate=b)


def scan_bracket(f, lo: float, hi: float, points: int = 400):
    """First sign-change subinterval of f on a log-spaced scan grid over
    [lo, hi] (0 < lo < hi), or BracketingError.

    f must accept an array: it is called once, on the whole grid, and
    returns one value per grid point.  The error message reports the
    smallest |f| seen, which is what a caller needs to document a
    genuinely rootless curve difference.
    """
    grid = np.logspace(math.log10(lo), math.log10(hi), points)
    vals = np.asarray(f(grid), dtype=float)
    sign = np.sign(vals)
    change = np.nonzero((sign[:-1] * sign[1:]) < 0)[0]
    if len(change) == 0:
        i = int(np.argmin(np.abs(vals)))
        raise BracketingError(
            f"no sign change of f on [{lo}, {hi}] over {points} points; "
            f"min |f| = {abs(vals[i]):.6e} at x = {grid[i]:.6g}")
    i = int(change[0])
    return float(grid[i]), float(grid[i + 1])


def newton2d(F, x0):
    """Damped Newton iteration for a 2-D system with numeric Jacobian."""
    x = np.asarray(x0, dtype=float)
    for _ in range(_MAX_ITER):
        fx = np.asarray(F(x), dtype=float)
        if np.max(np.abs(fx)) < _NEWTON_TOL:
            return x
        J = np.empty((2, 2))
        for j in range(2):
            h = 1e-7 * max(1.0, abs(x[j]))
            xp = x.copy()
            xp[j] += h
            J[:, j] = (np.asarray(F(xp)) - fx) / h
        try:
            step = np.linalg.solve(J, -fx)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"singular Jacobian at {x}") from exc
        lam = 1.0
        norm0 = np.max(np.abs(fx))
        while lam > 1e-6:
            xn = x + lam * step
            if np.max(np.abs(np.asarray(F(xn)))) < norm0:
                break
            lam *= 0.5
        x = x + lam * step
    raise ConvergenceError(f"newton2d did not converge in {_MAX_ITER} iterations",
                           best_estimate=tuple(x))
