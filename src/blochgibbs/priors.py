"""One-parameter prior families over the Bloch ball and its analogues.

One ball law gives all five.  A power-law family (m = ``ModelKind.m``)
lives on the unit ball of R^(m+1), where for u < 1 the prior is
q_u(x) = Gamma((m+3)/2 - u) / (pi^((m+1)/2) Gamma(1 - u)) (1 - |x|^2)^-u.
Its radial marginal is |S^m| r^m q_u(r), |S^k| = 2 pi^((k+1)/2) /
Gamma((k+1)/2), and its m angles carry the uniform measure of S^m; the
classical family (m = 0) is folded onto r in [0, 1) with no angle.  KMB
lives on the complex ball with marginal beta r 2 artanh(r) times the
classical one.  Under u = 1 - beta, r = sqrt(1 - e^-E) each marginal
becomes its Gibbs energy density.  The r and E functions take a float or
an array, checked element by element; a float in gives a float out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .models import GibbsPoint, ModelKind, atanh_omega, omega_complex, pdf
from .specfun import log_gamma, require_positive

__all__ = [
    "PriorKind",
    "angle_count",
    "prior_density",
    "radial_density",
    "transform_to_gibbs",
    "bloch_cartesian_density",
    "dirichlet_density",
]


def angle_count(model: ModelKind) -> int:
    """Angles beyond the radius on a family's state space: m (theta, phi
    on the ball; theta1..theta3, phi on the 5-ball; phi on the disk; none
    on the interval), and 2 for KMB, which shares the complex ball."""
    return ModelKind.COMPLEX.m if model.m is None else model.m


@dataclass(frozen=True)
class PriorKind:
    """A prior family member: the Gibbs family whose state space it lives
    on, and the exponent u < 1."""

    model: ModelKind
    u: float

    def __post_init__(self):
        if not isinstance(self.model, ModelKind):
            raise DomainError(f"model must be a ModelKind, got {self.model!r}")
        if not math.isfinite(self.u) or self.u >= 1.0:
            raise DomainError(
                f"u must be < 1 (normalizable range), got {self.u!r}")

    @property
    def beta(self) -> float:
        return 1.0 - self.u


def _checked(x, ok, what: str) -> np.ndarray:
    """x as a float array (0-d for a float) whose every element passes ok."""
    arr = np.asarray(x, dtype=float)
    bad = arr[~ok(arr)]
    if bad.size:
        raise DomainError(f"{what}, got {float(bad[0])!r}")
    return arr


def _check_angles(model: ModelKind, angles: tuple[float, ...]):
    count = angle_count(model)
    if len(angles) != count:
        raise DomainError(f"the {model.value} prior expects {count} angular "
                          f"coordinates, got {len(angles)}")
    if not angles:
        return
    *thetas, phi = angles
    for th in thetas:
        if not 0.0 <= th <= math.pi:
            raise DomainError(f"polar angle out of [0, pi]: {th!r}")
    if not 0.0 <= phi < 2.0 * math.pi:
        raise DomainError(f"azimuthal angle out of [0, 2 pi): {phi!r}")


def _sphere_area(k: int) -> float:
    """|S^k| = 2 pi^((k+1)/2) / Gamma((k+1)/2)."""
    return 2.0 * math.pi ** ((k + 1) / 2.0) / math.gamma((k + 1) / 2.0)


def _ball_normaliser(model: ModelKind, u: float) -> float:
    """Gamma((m+3)/2 - u) / (pi^((m+1)/2) Gamma(1 - u)), which gives q_u unit
    mass on the unit ball of R^(m+1); (m+1)/2 is ``model.half_dof``."""
    h = model.half_dof
    return math.exp(log_gamma(h + 1.0 - u) - log_gamma(1.0 - u)) / math.pi**h


def radial_density(kind: PriorKind, r):
    """Marginal density in r after integrating out every angle; r is a
    float or an array with every element in [0, 1)."""
    r = _checked(r, lambda a: (a >= 0.0) & (a < 1.0), "r must lie in [0, 1)")
    # np.power: array ** -0.5 takes a 1/sqrt shortcut a float does not
    out = _marginal(kind, r, np.power(1.0 - r * r, -kind.u),
                    lambda: np.log1p(r) - np.log1p(-r))
    return out if r.ndim else float(out)


def _marginal(kind: PriorKind, r: np.ndarray, weight, two_atanh):
    """The radial marginal at r, given weight = (1 - r^2)^-u and a function
    returning 2 artanh r (called for KMB only), so that callers holding E
    can supply both without forming 1 - r^2."""
    model = kind.model
    if model is ModelKind.KMB:  # beta r 2 artanh(r) x the classical marginal
        model = ModelKind.CLASSICAL
        factor = kind.beta * r * two_atanh()
    else:
        factor = 1.0
    return (factor * _sphere_area(model.m) * _ball_normaliser(model, kind.u)
            * r**model.m * weight)


def prior_density(kind: PriorKind, r, *angles: float):
    """Density value at (r, angles), Jacobian factors included: the radial
    marginal times prod_j sin^(k-1-j)(angle_j) / |S^k| over the k angles.

    Coordinates per family: ball families take (r, theta, phi) [the
    5-ball takes (r, theta1, theta2, theta3, phi)], the disk takes
    (r, phi), the interval family takes r alone.  r is a float or an
    array, as in ``radial_density``; the angles are floats.
    """
    out = radial_density(kind, r)
    _check_angles(kind.model, angles)
    k = len(angles)
    if k == 0:
        return out
    jac = math.prod(math.sin(a) ** (k - 1 - j) for j, a in enumerate(angles))
    return out * jac / _sphere_area(k)


def transform_to_gibbs(kind: PriorKind, E, beta: float):
    """Energy density induced by u = 1 - beta and r = sqrt(1 - e^-E):
    radial marginal times dr/dE = e^-E / (2 r).  Must match the matching
    Gibbs family's pdf pointwise; it does to 1e-13 relative (tested up to
    E = 600).  E is a float or an array with every element finite and
    >= 0; at E = 0 the value is the r -> 0 limit: inf (classical), beta
    (real), 0 otherwise."""
    E = _checked(E, lambda a: (a >= 0.0) & (a < math.inf), "E must be >= 0")
    require_positive(beta, "transform_to_gibbs beta")
    if abs(kind.beta - beta) > 1e-12:
        raise DomainError(
            f"inconsistent pair: kind.u = {kind.u} implies beta = {kind.beta}, "
            f"got beta = {beta}")
    limit = {ModelKind.CLASSICAL: math.inf,
             ModelKind.REAL: beta}.get(kind.model, 0.0)
    r = omega_complex(E)
    # (1 - r^2)^-u e^-E = e^((u-1) E) and artanh r = atanh_omega(E), both
    # exact in E: 1 - r^2 rebuilt from r loses all digits as r -> 1
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(E == 0.0, limit,
                       _marginal(kind, r, np.exp((kind.u - 1.0) * E),
                                 lambda: 2.0 * atanh_omega(E)) / (2.0 * r))
    return out if E.ndim else float(out)


def bloch_cartesian_density(u: float, x: float, y: float, z: float) -> float:
    """The complex-family prior in Cartesian ball coordinates (no Jacobian):
    Gamma(5/2-u) / (pi^(3/2) Gamma(1-u) (1-x^2-y^2-z^2)^u)."""
    PriorKind(model=ModelKind.COMPLEX, u=u)  # DomainError unless u < 1
    rsq = x * x + y * y + z * z
    if rsq >= 1.0:
        raise DomainError("(x, y, z) must lie inside the unit ball")
    return _ball_normaliser(ModelKind.COMPLEX, u) / (1.0 - rsq) ** u


def dirichlet_density(u: float, X: float, Y: float, Z: float) -> float:
    """The same family as a Dirichlet law on the simplex, after
    (X, Y, Z) = (x^2, y^2, z^2):
    Gamma(5/2-u) / (pi^(3/2) Gamma(1-u) sqrt(XYZ) (1-X-Y-Z)^u)."""
    PriorKind(model=ModelKind.COMPLEX, u=u)  # DomainError unless u < 1
    if min(X, Y, Z) <= 0.0 or X + Y + Z >= 1.0:
        raise DomainError("(X, Y, Z) must be an interior simplex point")
    return (_ball_normaliser(ModelKind.COMPLEX, u)
            / (math.sqrt(X * Y * Z) * (1.0 - X - Y - Z) ** u))


def prior_for_model(model: ModelKind, beta: float) -> PriorKind:
    """The PriorKind matching a Gibbs family at the given beta (u = 1-beta)."""
    return PriorKind(model=model, u=1.0 - beta)


def gibbs_pdf_reference(model: ModelKind, beta: float, E: float) -> float:
    """Convenience wrapper used in identities: pdf of the matching family."""
    return float(pdf(GibbsPoint(model, beta), E))
