import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate as sci
from scipy.special import betainc
from scipy.stats import ks_2samp

import blochgibbs
from blochgibbs.errors import DomainError, QuadratureError
from blochgibbs.models import (GibbsPoint, ModelKind, POWER_LAW_MODELS,
                               mean_energy, partition, pdf, var_energy)
from blochgibbs.oracles import (DensityMatrix2, EnergyInverter, energy_cdf,
                                page_energy_samples, page_reduced_state,
                                sample_energy)
from blochgibbs.quadrature import (integrate_interval, integrate_semiinfinite,
                                   panel_integrals)


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

    @pytest.mark.parametrize("model", [ModelKind.COMPLEX, ModelKind.KMB,
                                       ModelKind.CLASSICAL])
    def test_underflowed_integrand_raises_instead_of_zero(self, model):
        # at beta = 1e9 every node value of E * pdf underflows to 0, while
        # the true <E> is about 1e-9
        point = GibbsPoint(model, 1e9)
        with pytest.raises(QuadratureError, match="found no mass"):
            integrate_semiinfinite(lambda E: E * pdf(point, E), tol=1e-10)

    def test_nan_integrand_raises(self):
        f = lambda E: np.where(E > 3.0, np.nan, np.exp(-E))
        with pytest.raises(QuadratureError, match="error nan"):
            integrate_semiinfinite(f, tol=1e-10)

    def test_mass_past_last_panel_raises(self):
        point = GibbsPoint(ModelKind.COMPLEX, 1e-3)
        with pytest.raises(QuadratureError,
                           match="did not converge by t = 205"):
            integrate_semiinfinite(lambda E: E * pdf(point, E), tol=1e-10)


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

    # endpoint singularities: the summed error over all panels, not a
    # width-proportional share of tol per panel, decides when to stop
    @pytest.mark.parametrize("f, want", [
        (lambda x: -np.log(x), 1.0),
        (lambda x: -np.log1p(-x), 1.0),
        (lambda x: 1.0 / np.sqrt(x), 2.0),
    ], ids=["log_at_0", "log_at_1", "inverse_sqrt_at_0"])
    def test_endpoint_singularity(self, f, want):
        res = integrate_interval(f, 0.0, 1.0, tol=1e-11)
        assert res.value == pytest.approx(want, abs=1e-10)
        assert res.abs_error_estimate <= 1e-11

    def test_nan_integrand_raises_instead_of_nan(self):
        f = lambda x: np.where(x > 0.5, np.nan, x)
        with pytest.raises(QuadratureError, match="error nan") as err:
            integrate_interval(f, 0.0, 1.0, tol=1e-10)
        assert err.value.best_estimate is None


class TestNonFiniteIntegrand:
    # the Kronrod kernel tests f before its rules: a Gauss weight of 0
    # times inf would otherwise leak "invalid value encountered in matmul"
    ENTRY_POINTS = {
        "interval": lambda f: integrate_interval(f, 0.0, 1.0, tol=1e-10),
        "semiinfinite": lambda f: integrate_semiinfinite(f, tol=1e-10),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan],
                             ids=["inf", "-inf", "nan"])
    def test_raises_without_warning(self, entry, bad):
        f = lambda x: np.where(x < 0.25, bad, x)
        with pytest.raises(QuadratureError,
                           match="^interval quadrature stalled") as err:
            self.ENTRY_POINTS[entry](f)
        assert err.value.best_estimate is None


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

    @pytest.mark.parametrize("u", [np.nan, -0.1, 1.0, np.inf])
    def test_quantile_rejects_u_outside_unit_interval(self, u):
        inv = EnergyInverter(GibbsPoint(ModelKind.COMPLEX, 1.0))
        with pytest.raises(DomainError):
            inv.quantile(np.array([0.5, u]))
        with pytest.raises(DomainError):
            inv.quantile(u)

    @pytest.mark.parametrize("count", [10.0, np.float64(10.0), True, "10", None])
    def test_count_must_be_an_integer(self, count):
        point = GibbsPoint(ModelKind.COMPLEX, 1.0)
        with pytest.raises(DomainError, match="count must be an integer"):
            sample_energy(point, 1, count)
        with pytest.raises(DomainError, match="count must be an integer"):
            page_energy_samples(2, 1, count)

    def test_numpy_integer_count_accepted(self):
        point = GibbsPoint(ModelKind.COMPLEX, 1.0)
        assert sample_energy(point, 1, np.int64(7)).shape == (7,)
        assert page_energy_samples(2, 1, np.int32(7)).shape == (7,)


def reference_quantile(inv, u):
    """Bisection in E on ``inv.cdf`` until lo and hi are adjacent doubles:
    the root of the same numeric CDF that ``quantile`` inverts."""
    lo = np.zeros_like(u)
    hi = np.full_like(u, inv._T ** 2)  # cdf is 1 from here on
    while True:
        mid = 0.5 * (lo + hi)
        moving = (mid > lo) & (mid < hi)
        if not moving.any():
            return lo, hi
        below = inv.cdf(mid) < u
        lo = np.where(moving & below, mid, lo)
        hi = np.where(moving & ~below, mid, hi)


class TestQuantileAccuracy:
    FAMILIES = list(ModelKind)

    @pytest.mark.parametrize("beta", [0.3, 1.0, 7.0])
    @pytest.mark.parametrize("model", FAMILIES)
    def test_draws_within_window_of_reference_inversion(self, model, beta):
        inv = EnergyInverter(GibbsPoint(model, beta))
        u = np.random.default_rng(123).random(2000)
        got = inv.quantile(u)
        lo, hi = reference_quantile(inv, u)
        # certified: within 0.5e-10 of the root, plus the rounding of t^2
        slack = 0.5e-10 + 4 * np.spacing(hi)
        assert np.all(got >= lo - slack)
        assert np.all(got <= hi + slack)

    @pytest.mark.parametrize("beta", [1e-10, 1.0, 1e10])
    @pytest.mark.parametrize("model", FAMILIES)
    def test_monotone_across_ulp_neighbours(self, model, beta):
        inv = EnergyInverter(GibbsPoint(model, beta))
        u = np.random.default_rng(5).random(5000)
        tails = np.concatenate((np.logspace(-300, -1, 300),
                                1.0 - np.logspace(-16, -1, 300)))
        u = np.concatenate((u, tails))
        u = np.sort(np.concatenate((u, np.nextafter(u, 0.0),
                                    np.nextafter(u, 1.0), [0.0])))
        u = u[u < 1.0]
        q = inv.quantile(u)
        assert np.all(np.diff(q) >= 0)

    def test_shape_is_kept(self):
        inv = EnergyInverter(GibbsPoint(ModelKind.REAL, 1.0))
        u = np.random.default_rng(3).random((4, 5))
        got = inv.quantile(u)
        assert got.shape == (4, 5)
        np.testing.assert_array_equal(got.ravel(), inv.quantile(u.ravel()))
        assert inv.quantile(np.empty(0)).shape == (0,)
        assert inv.quantile(0.5).shape == ()


class TestExactBetaLaw:
    """For the power-law families E = -ln Y with Y ~ Beta(beta, (m+1)/2),
    so CDF(E) = 1 - I_{e^-E}(beta, (m+1)/2) in closed form."""

    @pytest.mark.parametrize("beta", [1.0, 7.0])
    @pytest.mark.parametrize("model", POWER_LAW_MODELS)
    def test_cdf_equals_regularized_incomplete_beta(self, model, beta):
        # The complement form keeps the reference accurate in the tail
        # (betainc((m+1)/2, beta, 1 - e^-E) loses ~1e-7 near E = 50); below
        # E ~ 1e-2 rounding e^-E to a double costs the reference digits.
        E = np.geomspace(1e-2, 50.0, 400)
        got = energy_cdf(GibbsPoint(model, beta), E)
        want = 1.0 - betainc(beta, model.half_dof, np.exp(-E))
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("beta", [0.3, 1.0, 7.0, 1e3, 1e10])
    @pytest.mark.parametrize("model", POWER_LAW_MODELS)
    def test_ks_two_sample_against_beta_draws(self, model, beta):
        n = 20_000
        draws = sample_energy(GibbsPoint(model, beta), rng_seed=31, count=n)
        ref = -np.log(np.random.default_rng(47).beta(beta, model.half_dof, n))
        assert ks_2samp(draws, ref).pvalue > 1e-3


class TestBetaDomain:
    @pytest.mark.parametrize("beta", [1e3, 1e6, 1e10])
    @pytest.mark.parametrize("model", list(ModelKind))
    def test_large_beta_mean_within_five_sigma(self, model, beta):
        point = GibbsPoint(model, beta)
        draws = sample_energy(point, rng_seed=8, count=1000)
        se = math.sqrt(var_energy(point) / len(draws))
        assert np.all(np.isfinite(draws))
        assert abs(np.mean(draws) - mean_energy(point)) <= 5 * se

    def test_small_beta_terminates_in_a_subprocess(self):
        # Draws reach E ~ 1e11 here, where an absolute 1e-10 window in E
        # is below double resolution: a stop rule that waits for it spins
        # forever.  A child process with a timeout turns a hang into a
        # failure.
        script = """
import json, math
import numpy as np
from blochgibbs.models import GibbsPoint, ModelKind, mean_energy, var_energy
from blochgibbs.oracles import sample_energy
out = []
for beta in (1e-10, 1e-5):
    for model in ModelKind:
        point = GibbsPoint(model, beta)
        draws = sample_energy(point, 17, 1000)
        se = math.sqrt(var_energy(point) / len(draws))
        out.append([model.value, beta, bool(np.all(np.isfinite(draws))),
                    float((np.mean(draws) - mean_energy(point)) / se)])
print(json.dumps(out))
"""
        env = dict(os.environ,
                   PYTHONPATH=str(Path(blochgibbs.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        rows = json.loads(proc.stdout)
        assert len(rows) == 10
        for model, beta, finite, z in rows:
            assert finite, (model, beta)
            assert abs(z) <= 5.0, (model, beta, z)


class TestSamplerDomain:
    """The sampler serves 2**-511 <= beta <= 1e100 and raises a DomainError
    naming itself outside: never a numpy warning, an OverflowError or a
    structure-function error about NaN E."""

    @pytest.mark.parametrize("beta", [5e-324, 1e-300, 1e-10, 1e10, 1e100,
                                      1e300])
    @pytest.mark.parametrize("model", list(ModelKind))
    def test_finite_draws_or_named_domain_error(self, model, beta):
        point = GibbsPoint(model, beta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if 2.0**-511 <= beta <= 1e100:
                assert np.all(np.isfinite(sample_energy(point, 3, 200)))
            else:
                with pytest.raises(DomainError, match="inverse-CDF sampler"):
                    sample_energy(point, 3, 200)
                with pytest.raises(DomainError, match="inverse-CDF sampler"):
                    energy_cdf(point, 1.0)

    @pytest.mark.parametrize("beta", [np.array([1.0]), np.array([1.0, 2.0])])
    def test_array_beta_raises_domain_error(self, beta):
        point = GibbsPoint(ModelKind.COMPLEX, beta)
        with pytest.raises(DomainError, match="takes a float beta"):
            EnergyInverter(point)
        with pytest.raises(DomainError, match="takes a float beta"):
            sample_energy(point, 1, 10)
        with pytest.raises(DomainError, match="takes a float beta"):
            energy_cdf(point, 1.0)

    @pytest.mark.parametrize("beta, outside", [
        (2.0**-511, np.nextafter(2.0**-511, 0.0)),
        (1e100, np.nextafter(1e100, math.inf))], ids=["floor", "ceiling"])
    @pytest.mark.parametrize("model", list(ModelKind))
    def test_law_of_beta_e_at_the_edges(self, model, beta, outside):
        # near beta = 0 the law of beta*E tends to Gamma(1) (Gamma(2) for
        # KMB, whose Omega grows like E), at large beta to Gamma(h) with
        # h = (m+1)/2 (3/2 for KMB)
        if beta < 1.0:
            h = 2.0 if model is ModelKind.KMB else 1.0
        else:
            h = 1.5 if model is ModelKind.KMB else model.half_dof
        n = 4000
        x = beta * sample_energy(GibbsPoint(model, beta), 12, n)
        assert abs(np.mean(x) - h) <= 5.0 * math.sqrt(h / n)
        with pytest.raises(DomainError, match="inverse-CDF sampler"):
            EnergyInverter(GibbsPoint(model, float(outside)))


class TestInverterChunks:
    """The CDF, the grid and the draws are computed 4096 rows at a time;
    every value equals the one-piece computation bit for bit."""

    @staticmethod
    def one_piece_cdf(inv, E):
        t = np.minimum(np.sqrt(np.clip(E, 0.0, None)), inv._T)
        idx = inv._panel(inv._t, t)
        seg, _ = inv._segment(inv._t[idx], inv._g_nodes[idx], t)
        return inv._cdf[idx] + seg

    @pytest.mark.parametrize("model", list(ModelKind))
    def test_cdf_equals_one_piece_evaluation(self, model):
        point = GibbsPoint(model, 0.8)
        inv = EnergyInverter(point)
        E = np.random.default_rng(4).exponential(2.0, 3 * 4096 + 4)
        E[:4] = [0.0, -1.0, math.inf, 1e-300]
        got = energy_cdf(point, E)
        assert np.array_equal(got, self.one_piece_cdf(inv, E))
        assert np.array_equal(inv.cdf(E.reshape(-1, 7)), got.reshape(-1, 7))
        scalar = energy_cdf(point, 1.5)
        assert type(scalar) is np.float64
        assert scalar == self.one_piece_cdf(inv, np.array([1.5]))[0]

    def test_cdf_rejects_nan(self):
        with pytest.raises(DomainError, match="not NaN"):
            energy_cdf(GibbsPoint(ModelKind.COMPLEX, 1.0),
                       np.array([1.0] * 5000 + [math.nan]))

    def test_grid_equals_one_piece_integration(self):
        inv = EnergyInverter(GibbsPoint(ModelKind.KMB, 0.7))
        panels = np.cumsum(panel_integrals(inv._g, inv._t))
        assert np.array_equal(inv._cdf[1:], panels / panels[-1])

    @pytest.mark.parametrize("k", [4095, 4096, 4097])
    def test_draws_do_not_depend_on_count(self, k):
        point = GibbsPoint(ModelKind.CLASSICAL, 1.3)
        assert np.array_equal(sample_energy(point, 41, 10_000)[:k],
                              sample_energy(point, 41, k))

    def test_draws_equal_one_piece_inversion(self):
        point = GibbsPoint(ModelKind.REAL, 2.0)
        u = np.random.default_rng(41).random(10_000)
        assert np.array_equal(sample_energy(point, 41, 10_000),
                              EnergyInverter(point).quantile(u))


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

    @pytest.mark.parametrize("m", [1, np.int64(1), 2.5, 3.0, True, "3", None])
    def test_m_must_be_an_integer_of_at_least_two(self, m):
        with pytest.raises(DomainError, match="m must be an integer >= 2"):
            page_reduced_state(m, 1)
        with pytest.raises(DomainError, match="m must be an integer >= 2"):
            page_energy_samples(m, 1, 10)

    def test_numpy_integer_m_accepted(self):
        want = page_energy_samples(3, 1, 10)
        np.testing.assert_array_equal(page_energy_samples(np.int64(3), 1, 10),
                                      want)
        assert (page_reduced_state(np.int32(3), 1).energy
                == page_reduced_state(3, 1).energy)

    @pytest.mark.parametrize("m", [2, 3, 8])
    def test_energy_equals_one_page_sample(self, m):
        for seed in range(50):
            want = page_energy_samples(m, seed, 1)[0]
            got = page_reduced_state(m, rng_seed=seed).energy
            assert got == pytest.approx(want, rel=1e-13, abs=0)


class TestPageChunks:
    """``page_energy_samples`` draws and reduces 4096 states at a time."""

    @pytest.mark.parametrize("count", [1, 4095, 4096, 4097, 8193])
    def test_counts_around_chunk_boundaries(self, count):
        e = page_energy_samples(3, 5, count)
        assert e.shape == (count,) and e.dtype == np.float64
        assert np.all(np.isfinite(e)) and np.all(e >= 0.0)

    def test_same_seed_same_draws(self):
        np.testing.assert_array_equal(page_energy_samples(4, 9, 8193),
                                      page_energy_samples(4, 9, 8193))

    @pytest.mark.parametrize("m", [2, 5])
    def test_first_chunk_does_not_depend_on_count(self, m):
        # each chunk takes its real parts, then its imaginary parts, from
        # the stream, so a longer run starts with the shorter one
        np.testing.assert_array_equal(page_energy_samples(m, 21, 8192)[:4096],
                                      page_energy_samples(m, 21, 4096))
