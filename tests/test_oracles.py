import math

import numpy as np
import pytest
from scipy import integrate as sci

from blochgibbs.errors import DomainError
from blochgibbs.models import (GibbsPoint, ModelKind, mean_energy, partition,
                               pdf, var_energy)
from blochgibbs.oracles import (DensityMatrix2, EnergyInverter, energy_cdf,
                                page_energy_samples, page_reduced_state,
                                sample_energy)
from blochgibbs.quadrature import integrate_interval, integrate_semiinfinite


class TestIntegrateSemiInfinite:
    def test_exponential(self):
        res = integrate_semiinfinite(lambda E: np.exp(-E), tol=1e-12)
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert res.abs_error_estimate <= 1e-12
        assert res.evaluations >= 15

    def test_gibbs_normalization(self):
        point = GibbsPoint(ModelKind.COMPLEX, 1.0)
        res = integrate_semiinfinite(lambda E: pdf(point, E), tol=1e-10)
        assert res.value == pytest.approx(1.0, abs=1e-10)

    def test_kmb_partition(self):
        from blochgibbs.models import structure_function
        f = lambda E: np.exp(-E) * structure_function(ModelKind.KMB,
                                                      np.asarray(E, float))
        res = integrate_semiinfinite(f, tol=1e-9)
        assert res.value == pytest.approx(2.0, abs=1e-9)

    def test_matches_scipy_on_awkward_integrand(self):
        f = lambda E: np.exp(-0.25 * E) / np.sqrt(E + 1e-300)
        res = integrate_semiinfinite(f, tol=1e-9)
        want, _ = sci.quad(lambda E: math.exp(-0.25 * E) / math.sqrt(E), 0,
                           np.inf)
        assert res.value == pytest.approx(want, rel=1e-9)

    def test_bad_tol(self):
        with pytest.raises(DomainError):
            integrate_semiinfinite(lambda E: np.exp(-E), tol=-1.0)


class TestIntegrateInterval:
    def test_polynomial_exact(self):
        res = integrate_interval(lambda x: 3 * np.asarray(x)**2, 0.0, 2.0,
                                 tol=1e-12)
        assert res.value == pytest.approx(8.0, abs=1e-12)

    def test_error_estimate_honest(self):
        res = integrate_interval(lambda x: np.sin(np.asarray(x) * 7.3), 0.0,
                                 5.0, tol=1e-11)
        want = (1 - math.cos(7.3 * 5.0)) / 7.3
        assert abs(res.value - want) <= max(res.abs_error_estimate, 1e-12)


class TestDensityMatrix2:
    def test_roundtrip_through_matrix(self):
        dm = DensityMatrix2(r=0.6, theta=1.1, phi=2.5)
        back = DensityMatrix2.from_matrix(dm.matrix())
        assert back.r == pytest.approx(0.6, abs=1e-12)
        assert back.theta == pytest.approx(1.1, abs=1e-12)
        assert back.phi == pytest.approx(2.5, abs=1e-12)

    def test_trace_and_hermiticity(self):
        m = DensityMatrix2(r=0.3, theta=0.4, phi=5.0).matrix()
        assert np.trace(m) == pytest.approx(1.0, abs=1e-15)
        assert np.max(np.abs(m - m.conj().T)) < 1e-15

    def test_energy_convention(self):
        dm = DensityMatrix2(r=0.5, theta=0.0, phi=0.0)
        assert dm.energy == pytest.approx(-math.log(0.75), abs=1e-15)
        assert dm.eigenvalues == (0.75, 0.25)
        # det = (1 - r^2)/4 and E = -ln(4 det)
        det = np.linalg.det(dm.matrix()).real
        assert dm.energy == pytest.approx(-math.log(4 * det), abs=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            DensityMatrix2(r=1.2, theta=0.0, phi=0.0)
        with pytest.raises(DomainError):
            DensityMatrix2(r=0.5, theta=4.0, phi=0.0)
        with pytest.raises(DomainError):
            DensityMatrix2.from_matrix(np.eye(2))


class TestEnergySampler:
    def test_moments_against_closed_forms(self):
        point = GibbsPoint(ModelKind.COMPLEX, 1.0)
        draws = sample_energy(point, rng_seed=20250808, count=200_000)
        se = math.sqrt(var_energy(point) / len(draws))
        assert np.mean(draws) == pytest.approx(mean_energy(point), abs=4 * se)
        assert np.var(draws, ddof=1) == pytest.approx(var_energy(point),
                                                      rel=0.02)

    def test_deterministic_per_seed(self):
        point = GibbsPoint(ModelKind.CLASSICAL, 0.7)
        a = sample_energy(point, rng_seed=5, count=512)
        b = sample_energy(point, rng_seed=5, count=512)
        c = sample_energy(point, rng_seed=6, count=512)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_quantile_monotone(self):
        inv = EnergyInverter(GibbsPoint(ModelKind.KMB, 0.7))
        u = np.linspace(1e-6, 1 - 1e-9, 4000)
        q = inv.quantile(u)
        assert np.all(np.diff(q) >= 0)

    def test_quantile_inverts_cdf(self):
        point = GibbsPoint(ModelKind.QUATERNIONIC, 1.3)
        inv = EnergyInverter(point)
        u = np.array([0.05, 0.3, 0.5, 0.77, 0.99])
        e = inv.quantile(u)
        assert np.max(np.abs(inv.cdf(e) - u)) < 1e-8

    @pytest.mark.parametrize("model", [ModelKind.COMPLEX, ModelKind.CLASSICAL,
                                       ModelKind.KMB])
    def test_ks_statistic_at_one_percent_level(self, model):
        point = GibbsPoint(model, 1.0)
        n = 100_000
        draws = np.sort(sample_energy(point, rng_seed=99, count=n))
        cdf = energy_cdf(point, draws)
        emp = np.arange(1, n + 1) / n
        ks = max(np.max(np.abs(emp - cdf)), np.max(np.abs(cdf - emp + 1.0 / n)))
        assert ks < 1.63 / math.sqrt(n)

    def test_cdf_matches_direct_quadrature(self):
        point = GibbsPoint(ModelKind.COMPLEX, 0.5)
        for e0 in (0.2, 1.0, 4.0):
            want, _ = sci.quad(lambda E: pdf(point, E), 0, e0)
            assert float(energy_cdf(point, e0)) == pytest.approx(want, abs=1e-9)

    def test_requires_positive_beta(self):
        with pytest.raises(DomainError):
            sample_energy(GibbsPoint(ModelKind.COMPLEX, 0.0), 1, 10)


class TestInverterDensity:
    @pytest.mark.parametrize("model", list(ModelKind))
    def test_is_two_t_times_models_pdf(self, model):
        point = GibbsPoint(model, 0.7)
        inv = EnergyInverter(point)
        t = np.linspace(0.01, 6.0, 301)
        np.testing.assert_allclose(inv._g(t), 2.0 * t * pdf(point, t * t),
                                   rtol=1e-15, atol=0)

    def test_classical_limit_at_origin(self):
        point = GibbsPoint(ModelKind.CLASSICAL, 0.7)
        got = EnergyInverter(point)._g(np.array([0.0, 1e-8]))
        assert got[0] == 2.0 / partition(point)
        assert got[1] == pytest.approx(got[0], rel=1e-12)


class TestPageReducedState:
    def test_single_draw_properties(self):
        dm = page_reduced_state(3, rng_seed=123)
        m = dm.matrix()
        assert np.trace(m).real == pytest.approx(1.0, abs=1e-14)
        assert min(dm.eigenvalues) >= 0.0
        assert sum(dm.eigenvalues) == pytest.approx(1.0, abs=1e-14)

    def test_deterministic(self):
        a = page_reduced_state(2, rng_seed=55)
        b = page_reduced_state(2, rng_seed=55)
        assert (a.r, a.theta, a.phi) == (b.r, b.theta, b.phi)

    @pytest.mark.parametrize("m", [2, 3])
    def test_energy_law_is_gibbs_at_beta_m_minus_1(self, m):
        n = 200_000
        e = np.sort(page_energy_samples(m, rng_seed=777, count=n))
        cdf = energy_cdf(GibbsPoint(ModelKind.COMPLEX, float(m - 1)), e)
        emp = np.arange(1, n + 1) / n
        ks = max(np.max(np.abs(emp - cdf)), np.max(np.abs(cdf - emp + 1.0 / n)))
        assert ks < 0.004  # 1% asymptotic level is 1.63/sqrt(n) ~ 0.0036

    def test_rejects_small_m(self):
        with pytest.raises(DomainError):
            page_reduced_state(1, rng_seed=1)
