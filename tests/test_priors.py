import math

import numpy as np
import pytest
from scipy import integrate as sci

from blochgibbs.errors import DomainError
from blochgibbs.models import GibbsPoint, ModelKind, pdf
from blochgibbs.priors import (PriorKind, angle_count,
                               bloch_cartesian_density, dirichlet_density,
                               prior_density, prior_for_model, radial_density,
                               transform_to_gibbs)
from blochgibbs.specfun import log_gamma


def _angular_quadrature(model):
    """Gauss-Legendre nodes/weights per angular coordinate (exact for the
    sin-power integrands), azimuth handled by its measure 2 pi."""
    nodes, weights = np.polynomial.legendre.leggauss(32)
    theta = 0.5 * math.pi * (nodes + 1.0)
    w = 0.5 * math.pi * weights
    return theta, w


def full_mass(kind: PriorKind) -> float:
    """Integral of prior_density over its whole state space, via scipy
    radial quadrature x Gauss-Legendre angular sums (independent of the
    package's own quadrature)."""
    model = kind.model
    theta, w = _angular_quadrature(model)
    if model is ModelKind.CLASSICAL:
        val, _ = sci.quad(lambda r: prior_density(kind, r), 0, 1)
        return val
    if model is ModelKind.REAL:
        val, _ = sci.quad(lambda r: prior_density(kind, r, 1.0), 0, 1)
        return val * 2 * math.pi
    if model in (ModelKind.COMPLEX, ModelKind.KMB):
        ang = sum(wi * prior_density(kind, 0.5, ti, 0.0) for ti, wi in
                  zip(theta, w)) / prior_density(kind, 0.5, math.pi / 2, 0.0)
        radial, _ = sci.quad(
            lambda r: prior_density(kind, r, math.pi / 2, 0.0), 0, 1)
        return radial * ang * 2 * math.pi
    # quaternionic: three polar angles
    ref = prior_density(kind, 0.5, math.pi / 2, math.pi / 2, math.pi / 2, 0.0)
    ang = 1.0
    for pos in range(3):
        tot = 0.0
        for ti, wi in zip(theta, w):
            angles = [math.pi / 2] * 3
            angles[pos] = ti
            tot += wi * prior_density(kind, 0.5, *angles, 0.0)
        ang *= tot / ref
    radial, _ = sci.quad(
        lambda r: prior_density(kind, r, math.pi / 2, math.pi / 2,
                                math.pi / 2, 0.0), 0, 1)
    return radial * ang * 2 * math.pi


class TestPriorKind:
    def test_u_beta_link(self):
        kind = PriorKind(model=ModelKind.COMPLEX, u=0.25)
        assert kind.beta == 0.75

    def test_improper_range_rejected(self):
        for bad_u in (1.0, 1.2, 1.5, math.inf):
            with pytest.raises(DomainError):
                PriorKind(model=ModelKind.COMPLEX, u=bad_u)


class TestPriorDensity:
    def test_complex_uniform_ball_example(self):
        kind = PriorKind(model=ModelKind.COMPLEX, u=0.0)
        got = prior_density(kind, 0.5, math.pi / 2, 1.23)
        assert got == pytest.approx(0.1875 / math.pi, abs=1e-10)
        assert got == pytest.approx(0.0596831, abs=1e-7)

    def test_real_disk_example(self):
        kind = PriorKind(model=ModelKind.REAL, u=0.0)
        assert prior_density(kind, 0.5, 0.3) == \
            pytest.approx(0.5 / math.pi, abs=1e-12)
        assert 0.5 / math.pi == pytest.approx(0.1591549, abs=1e-7)

    def test_phi_independence(self):
        kind = PriorKind(model=ModelKind.KMB, u=0.5)
        a = prior_density(kind, 0.4, 1.0, 0.0)
        b = prior_density(kind, 0.4, 1.0, 5.5)
        assert a == b

    @pytest.mark.parametrize("model", list(ModelKind))
    @pytest.mark.parametrize("u", [-1.0, 0.0, 0.5])
    def test_unit_mass(self, model, u):
        kind = PriorKind(model=model, u=u)
        assert full_mass(kind) == pytest.approx(1.0, abs=1e-7)

    def test_angle_count_enforced(self):
        kind = PriorKind(model=ModelKind.COMPLEX, u=0.0)
        with pytest.raises(DomainError):
            prior_density(kind, 0.5)
        with pytest.raises(DomainError):
            prior_density(kind, 0.5, 1.0, 1.0, 1.0)

    def test_coordinate_ranges_enforced(self):
        kind = PriorKind(model=ModelKind.COMPLEX, u=0.0)
        with pytest.raises(DomainError):
            prior_density(kind, 1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            prior_density(kind, 0.5, -0.1, 1.0)
        with pytest.raises(DomainError):
            prior_density(kind, 0.5, 1.0, 7.0)


class TestTransformToGibbs:
    @pytest.mark.parametrize("model", [ModelKind.COMPLEX, ModelKind.QUATERNIONIC,
                                       ModelKind.REAL, ModelKind.CLASSICAL,
                                       ModelKind.KMB])
    def test_matches_pdf_on_grid(self, model):
        for beta in np.linspace(0.25, 4.0, 20):
            kind = prior_for_model(model, float(beta))
            point = GibbsPoint(model, float(beta))
            for E in np.linspace(0.05, 6.0, 20):
                got = transform_to_gibbs(kind, float(E), float(beta))
                assert got == pytest.approx(pdf(point, float(E)), abs=1e-10)

    def test_spec_cases(self):
        pairs = [(ModelKind.COMPLEX, 1.0, 1.0),
                 (ModelKind.QUATERNIONIC, 0.5, 2.0),
                 (ModelKind.KMB, 1.0, 0.7)]
        for model, beta, E in pairs:
            kind = prior_for_model(model, beta)
            assert transform_to_gibbs(kind, E, beta) == \
                pytest.approx(pdf(GibbsPoint(model, beta), E), abs=1e-12)

    @pytest.mark.parametrize("model", list(ModelKind))
    def test_matches_pdf_at_large_E(self, model):
        # 1 - r^2 rebuilt from r = sqrt(1 - e^-E) lost every digit here
        E = np.array([10.0, 30.0, 37.5, 100.0, 600.0])
        for beta in (0.25, 0.7, 1.0):
            kind = prior_for_model(model, beta)
            got = transform_to_gibbs(kind, E, beta)
            want = pdf(GibbsPoint(model, beta), E)
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    def test_inconsistent_pair_rejected(self):
        kind = PriorKind(model=ModelKind.COMPLEX, u=0.0)  # beta = 1
        with pytest.raises(DomainError):
            transform_to_gibbs(kind, 1.0, 2.0)


class TestDirichletForm:
    def test_jacobian_identity_at_random_points(self, rng):
        worst = 0.0
        count = 0
        while count < 100:
            x, y, z = rng.uniform(-0.55, 0.55, 3)
            if x * x + y * y + z * z >= 0.95 or min(abs(x), abs(y), abs(z)) < 1e-3:
                continue
            count += 1
            u = float(rng.uniform(-1.0, 0.9))
            lhs = dirichlet_density(u, x * x, y * y, z * z)
            rhs = bloch_cartesian_density(u, x, y, z) / abs(x * y * z)
            worst = max(worst, abs(lhs - rhs) / rhs)
        assert worst <= 1e-10

    def test_cartesian_matches_spherical(self):
        kind = PriorKind(model=ModelKind.COMPLEX, u=0.3)
        r, theta, phi = 0.6, 1.1, 0.7
        x = r * math.cos(phi) * math.sin(theta)
        y = r * math.sin(phi) * math.sin(theta)
        z = r * math.cos(theta)
        # spherical density = cartesian density * r^2 sin(theta)
        want = bloch_cartesian_density(0.3, x, y, z) * r * r * math.sin(theta)
        assert prior_density(kind, r, theta, phi) == pytest.approx(want,
                                                                   rel=1e-12)

    def test_simplex_domain(self):
        with pytest.raises(DomainError):
            dirichlet_density(0.5, 0.5, 0.5, 0.2)


class TestRadialDensity:
    @pytest.mark.parametrize("model", list(ModelKind))
    def test_consistent_with_scipy_marginal(self, model):
        kind = PriorKind(model=model, u=0.2)
        # radial marginal must integrate to 1 on its own
        val, _ = sci.quad(lambda r: radial_density(kind, r), 0, 1)
        assert val == pytest.approx(1.0, abs=1e-8)


MODELS_U = [(model, u) for model in ModelKind for u in (-1.0, 0.0, 0.5, 0.9)]
R_GRID = np.concatenate([[0.0], np.linspace(1e-3, 0.999, 49)])
ANGLES = {0: (), 1: (0.7,), 2: (1.1, 0.7), 4: (1.1, 0.4, 2.0, 0.7)}


def _reference_density(kind, r, *angles):
    """The five hand-written family branches the ball law replaced."""
    u, model = kind.u, kind.model
    w = (1.0 - r * r) ** (-u)
    if model is ModelKind.COMPLEX:
        return (math.exp(log_gamma(2.5 - u) - log_gamma(1.0 - u))
                * r * r * math.sin(angles[0]) * w / math.pi**1.5)
    if model is ModelKind.QUATERNIONIC:
        t1, t2, t3 = angles[:3]
        return (math.exp(log_gamma(3.5 - u) - log_gamma(1.0 - u))
                * r**4 * math.sin(t1)**3 * math.sin(t2)**2 * math.sin(t3)
                * w / math.pi**2.5)
    if model is ModelKind.REAL:
        return (1.0 - u) * r * w / math.pi
    if model is ModelKind.CLASSICAL:
        return (2.0 * math.exp(log_gamma(1.5 - u) - log_gamma(1.0 - u))
                * w / math.sqrt(math.pi))
    log_ratio = math.log1p(r) - math.log1p(-r)
    return ((1.0 - u) * math.exp(log_gamma(1.5 - u) - log_gamma(1.0 - u))
            * r * log_ratio * math.sin(angles[0]) * w / (2.0 * math.pi**1.5))


class TestBallLaw:
    @pytest.mark.parametrize("model, u", MODELS_U)
    def test_matches_family_branches(self, model, u):
        kind = PriorKind(model=model, u=u)
        angles = ANGLES[angle_count(model)]
        for r in R_GRID:
            want = _reference_density(kind, float(r), *angles)
            got = prior_density(kind, float(r), *angles)
            assert got == pytest.approx(want, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("model, u", MODELS_U)
    def test_array_r_equals_float_r(self, model, u):
        kind = PriorKind(model=model, u=u)
        angles = ANGLES[angle_count(model)]
        radial = radial_density(kind, R_GRID)
        density = prior_density(kind, R_GRID, *angles)
        assert radial.shape == density.shape == R_GRID.shape
        for i, r in enumerate(R_GRID):
            one = radial_density(kind, float(r))
            assert type(one) is float
            assert radial[i] == one
            assert density[i] == prior_density(kind, float(r), *angles)

    @pytest.mark.parametrize("model", list(ModelKind))
    @pytest.mark.parametrize("beta", [2.0, 1.0, 0.5, 0.1])
    def test_array_e_equals_float_e(self, model, beta):
        kind = prior_for_model(model, beta)
        es = np.concatenate([[0.0], np.geomspace(1e-8, 30.0, 40)])
        got = transform_to_gibbs(kind, es, beta)
        assert got.shape == es.shape
        for i, e in enumerate(es):
            one = transform_to_gibbs(kind, float(e), beta)
            assert type(one) is float
            assert got[i] == one

    @pytest.mark.parametrize("model, limit", [
        (ModelKind.CLASSICAL, math.inf), (ModelKind.REAL, 0.75),
        (ModelKind.COMPLEX, 0.0), (ModelKind.QUATERNIONIC, 0.0),
        (ModelKind.KMB, 0.0)])
    def test_zero_energy_limits_in_an_array(self, model, limit):
        kind = PriorKind(model=model, u=0.25)
        got = transform_to_gibbs(kind, np.array([0.5, 0.0, 2.0, 0.0]), 0.75)
        assert got[1] == got[3] == limit
        assert np.all(np.isfinite(got[[0, 2]])) and np.all(got[[0, 2]] > 0)
        assert transform_to_gibbs(kind, 0.0, 0.75) == limit

    @pytest.mark.parametrize("bad", [1.0, -1e-3, math.nan, math.inf])
    def test_bad_r_element_rejected(self, bad):
        kind = PriorKind(model=ModelKind.KMB, u=0.0)
        r = np.array([0.1, bad, 0.5])
        with pytest.raises(DomainError, match=r"r must lie in \[0, 1\)"):
            radial_density(kind, r)
        with pytest.raises(DomainError, match=r"r must lie in \[0, 1\)"):
            prior_density(kind, r, 1.0, 1.0)
        with pytest.raises(DomainError):
            radial_density(kind, bad)

    @pytest.mark.parametrize("bad", [-1e-3, math.inf, math.nan])
    def test_bad_e_element_rejected(self, bad):
        kind = PriorKind(model=ModelKind.COMPLEX, u=0.0)
        with pytest.raises(DomainError, match="E must be >= 0"):
            transform_to_gibbs(kind, np.array([0.1, bad, 1.0]), 1.0)
        with pytest.raises(DomainError, match="E must be >= 0"):
            transform_to_gibbs(kind, bad, 1.0)

    def test_angle_counts_follow_m(self):
        assert [angle_count(model) for model in ModelKind] == [1, 2, 4, 0, 2]
        for model in ModelKind:
            if model.m is not None:
                assert angle_count(model) == model.m
