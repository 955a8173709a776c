"""One-parameter prior families over the Bloch ball and its analogues.

Each family q(u) lives on the state space of one of the five models
(ball, 5-ball, disk, interval; the log-weighted family shares the ball)
and transforms into the corresponding Gibbs energy density under
u = 1 - beta, r = sqrt(1 - e^-E) once the angles are integrated out.
Densities are normalized for u < 1; the improper range u >= 1 is rejected
at construction.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import DomainError
from .models import GibbsPoint, ModelKind, omega_complex, pdf
from .specfun import log_gamma

__all__ = [
    "PriorTag",
    "PriorKind",
    "prior_density",
    "radial_density",
    "transform_to_gibbs",
    "bloch_cartesian_density",
    "dirichlet_density",
]

_SQRT_PI = math.sqrt(math.pi)


class PriorTag(enum.Enum):
    """The five prior families, one record each: the tag, the Gibbs family
    it maps onto, the number of angles beyond the radius (theta, phi on the
    ball; theta1..theta3, phi on the 5-ball; phi on the disk; none on the
    interval) and the total mass of the angular measure, used when folding
    the angles into the radial marginal."""

    COMPLEX_Q = "complex_q", ModelKind.COMPLEX, 2, 4.0 * math.pi
    QUAT_Q = "quat_q", ModelKind.QUATERNIONIC, 4, 8.0 * math.pi**2 / 3.0
    REAL_Q = "real_q", ModelKind.REAL, 1, 2.0 * math.pi
    CLASS_Q = "class_q", ModelKind.CLASSICAL, 0, 1.0
    KMB_Q = "kmb_q", ModelKind.KMB, 2, 4.0 * math.pi

    def __new__(cls, tag: str, model: ModelKind, angle_count: int,
                angular_volume: float):
        member = object.__new__(cls)
        member._value_ = tag
        member.model = model
        member.angle_count = angle_count
        member.angular_volume = angular_volume
        return member


@dataclass(frozen=True)
class PriorKind:
    """A prior family member: which state space, and the exponent u < 1."""

    tag: PriorTag
    u: float

    def __post_init__(self):
        if not isinstance(self.tag, PriorTag):
            raise DomainError(f"tag must be a PriorTag, got {self.tag!r}")
        if not math.isfinite(self.u) or self.u >= 1.0:
            raise DomainError(
                f"u must be < 1 (normalizable range), got {self.u!r}")

    @property
    def beta(self) -> float:
        return 1.0 - self.u


def _check_r(r: float):
    if not (math.isfinite(r) and 0.0 <= r < 1.0):
        raise DomainError(f"r must lie in [0, 1), got {r!r}")


def _check_angles(tag: PriorTag, angles: tuple[float, ...]):
    if len(angles) != tag.angle_count:
        raise DomainError(
            f"{tag.value} expects {tag.angle_count} angular coordinates, "
            f"got {len(angles)}")
    if not angles:
        return
    *thetas, phi = angles
    for th in thetas:
        if not 0.0 <= th <= math.pi:
            raise DomainError(f"polar angle out of [0, pi]: {th!r}")
    if not 0.0 <= phi < 2.0 * math.pi:
        raise DomainError(f"azimuthal angle out of [0, 2 pi): {phi!r}")


def _weight(u: float, r: float) -> float:
    """(1 - r^2)^(-u)."""
    return (1.0 - r * r) ** (-u)


def _log_ratio(r: float) -> float:
    """ln((1+r)/(1-r)) = 2 artanh r."""
    return math.log1p(r) - math.log1p(-r)


def prior_density(kind: PriorKind, r: float, *angles: float) -> float:
    """Density value at (r, angles), Jacobian factors included.

    Coordinates per family: ball families take (r, theta, phi) [the
    5-ball takes (r, theta1, theta2, theta3, phi)], the disk takes
    (r, phi), the interval family takes r alone.
    """
    _check_r(r)
    _check_angles(kind.tag, tuple(angles))
    u = kind.u
    tag = kind.tag
    if tag is PriorTag.COMPLEX_Q:
        theta = angles[0]
        return (math.exp(log_gamma(2.5 - u) - log_gamma(1.0 - u))
                * r * r * math.sin(theta) * _weight(u, r) / math.pi**1.5)
    if tag is PriorTag.QUAT_Q:
        t1, t2, t3 = angles[0], angles[1], angles[2]
        return (math.exp(log_gamma(3.5 - u) - log_gamma(1.0 - u))
                * r**4 * math.sin(t1)**3 * math.sin(t2)**2 * math.sin(t3)
                * _weight(u, r) / math.pi**2.5)
    if tag is PriorTag.REAL_Q:
        return (1.0 - u) * r * _weight(u, r) / math.pi
    if tag is PriorTag.CLASS_Q:
        return (2.0 * math.exp(log_gamma(1.5 - u) - log_gamma(1.0 - u))
                * _weight(u, r) / _SQRT_PI)
    # KMB ball family with the log-weighted radial factor
    theta = angles[0]
    return ((1.0 - u) * math.exp(log_gamma(1.5 - u) - log_gamma(1.0 - u))
            * r * _log_ratio(r) * math.sin(theta) * _weight(u, r)
            / (2.0 * math.pi**1.5))


def radial_density(kind: PriorKind, r: float) -> float:
    """Marginal density in r after integrating out every angle."""
    _check_r(r)
    tag = kind.tag
    vol = tag.angular_volume
    if tag is PriorTag.CLASS_Q:
        return prior_density(kind, r)
    if tag is PriorTag.REAL_Q:
        return vol * prior_density(kind, r, 0.0)
    # ball families: evaluate at theta = pi/2 where every sin factor is 1
    ref_angles = (math.pi / 2.0,) * (tag.angle_count - 1) + (0.0,)
    return vol * prior_density(kind, r, *ref_angles)


def transform_to_gibbs(kind: PriorKind, E: float, beta: float) -> float:
    """Energy density induced by u = 1 - beta and r = sqrt(1 - e^-E):
    radial marginal times dr/dE = e^-E / (2 r).  Must match the matching
    Gibbs family's pdf pointwise."""
    if not math.isfinite(E) or E < 0:
        raise DomainError("E must be >= 0")
    if not math.isfinite(beta) or beta <= 0:
        raise DomainError("beta must be positive")
    if abs(kind.beta - beta) > 1e-12:
        raise DomainError(
            f"inconsistent pair: kind.u = {kind.u} implies beta = {kind.beta}, "
            f"got beta = {beta}")
    if E == 0.0:
        # r -> 0 limits of radial_density(r) e^-E/(2r)
        if kind.tag is PriorTag.CLASS_Q:
            return math.inf
        return beta if kind.tag is PriorTag.REAL_Q else 0.0
    r = float(omega_complex(E))
    jac = math.exp(-E) / (2.0 * r)
    return radial_density(kind, r) * jac


def bloch_cartesian_density(u: float, x: float, y: float, z: float) -> float:
    """The complex-family prior in Cartesian ball coordinates (no Jacobian):
    Gamma(5/2-u) / (pi^(3/2) Gamma(1-u) (1-x^2-y^2-z^2)^u)."""
    if u >= 1.0:
        raise DomainError("u must be < 1")
    rsq = x * x + y * y + z * z
    if rsq >= 1.0:
        raise DomainError("(x, y, z) must lie inside the unit ball")
    return (math.exp(log_gamma(2.5 - u) - log_gamma(1.0 - u))
            / (math.pi**1.5 * (1.0 - rsq) ** u))


def dirichlet_density(u: float, X: float, Y: float, Z: float) -> float:
    """The same family as a Dirichlet law on the simplex, after
    (X, Y, Z) = (x^2, y^2, z^2):
    Gamma(5/2-u) / (pi^(3/2) Gamma(1-u) sqrt(XYZ) (1-X-Y-Z)^u)."""
    if u >= 1.0:
        raise DomainError("u must be < 1")
    if min(X, Y, Z) <= 0.0 or X + Y + Z >= 1.0:
        raise DomainError("(X, Y, Z) must be an interior simplex point")
    return (math.exp(log_gamma(2.5 - u) - log_gamma(1.0 - u))
            / (math.pi**1.5 * math.sqrt(X * Y * Z) * (1.0 - X - Y - Z) ** u))


def prior_for_model(model: ModelKind, beta: float) -> PriorKind:
    """The PriorKind matching a Gibbs family at the given beta (u = 1-beta)."""
    tag = next(t for t in PriorTag if t.model is model)
    return PriorKind(tag=tag, u=1.0 - beta)


def gibbs_pdf_reference(model: ModelKind, beta: float, E: float) -> float:
    """Convenience wrapper used in identities: pdf of the matching family."""
    return float(pdf(GibbsPoint(model, beta), E))
