import math

import numpy as np
import pytest
from scipy import integrate as sci
from scipy import special as sps

from blochgibbs.duality import (DualExperimentReport, dual_density,
                                mean_beta_closed, prior_over_meanE,
                                run_duality_experiment, var_beta_closed)
from blochgibbs.errors import DomainError, QuadratureError
from blochgibbs.models import GibbsPoint, ModelKind, mean_energy
from blochgibbs.verify import PAPER


class TestDualDensity:
    def test_matches_independent_construction(self):
        # same formula assembled from scipy's gamma/polygamma machinery
        for model, c, a in ((ModelKind.COMPLEX, 3.0, 1.5),
                            (ModelKind.QUATERNIONIC, 5.0, 2.5)):
            z = lambda b: math.exp(sps.gammaln(a) + sps.gammaln(b)
                                   - sps.gammaln(a + b))
            for beta in (0.05, 0.3, 1.0):
                var = sps.polygamma(1, beta) - sps.polygamma(1, a + beta)
                want = (c / 2) * math.exp(-beta * 16.3) * math.sqrt(var) \
                    * z(c / 32.6) / z(beta)
                assert dual_density(model, 16.3, beta) == \
                    pytest.approx(want, rel=1e-12)

    def test_decays_at_infinity(self):
        assert dual_density(ModelKind.COMPLEX, 16.3, 100.0) < 1e-300

    def test_nonnegative_and_normalizable(self):
        for meanE in (1.0, 8.0, 30.0):
            vals = [dual_density(ModelKind.COMPLEX, meanE, b)
                    for b in np.linspace(1e-4, 100 / meanE, 200)]
            assert all(v >= 0 for v in vals)
            norm, _ = sci.quad(
                lambda b: dual_density(ModelKind.COMPLEX, meanE, b),
                0, 2000.0 / meanE, limit=300)
            assert 0.1 < norm < 10.0

    def test_domain(self):
        with pytest.raises(DomainError):
            dual_density(ModelKind.REAL, 16.3, 1.0)
        with pytest.raises(DomainError):
            dual_density(ModelKind.COMPLEX, -1.0, 1.0)
        with pytest.raises(DomainError):
            dual_density(ModelKind.COMPLEX, 16.3, 0.0)

    @pytest.mark.parametrize("model", [ModelKind.COMPLEX,
                                       ModelKind.QUATERNIONIC])
    def test_array_equals_float_path(self, model):
        # then the domain's edges: var E's floor 2**-511, where
        # e^(-beta <E>) underflows (beta = 45.7 at <E> = 16.3) and up to
        # the log_gamma ceiling of Z
        betas = np.concatenate((np.logspace(-6, 2.1, 300), [122.7],
                                [2.0**-511, 1e-100, 45.0, 46.0, 1e10, 1e300,
                                 2.5e305]))
        got = dual_density(model, 16.3, betas)
        assert got.tolist() == [dual_density(model, 16.3, float(b))
                                for b in betas]

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_array_element_outside_domain_rejected(self, bad):
        with pytest.raises(DomainError):
            dual_density(ModelKind.COMPLEX, 16.3, np.array([0.5, bad]))
        with pytest.raises(DomainError):
            dual_density(ModelKind.COMPLEX, 16.3, np.array([[0.5, 1.0]]))


class TestRoundTripExperiment:
    @staticmethod
    def _assert_paper_point(model):
        rep = run_duality_experiment(model, 16.3)
        for got, name in ((rep.normalizer, "normalizer"),
                          (rep.mean_beta, "mean_beta"),
                          (rep.roundtrip_meanE, "roundtrip")):
            want, tol = PAPER[f"dual_{model.value}_{name}"]
            assert got == pytest.approx(want, abs=tol)

    def test_complex_paper_point(self):
        self._assert_paper_point(ModelKind.COMPLEX)

    def test_quaternionic_paper_point(self):
        self._assert_paper_point(ModelKind.QUATERNIONIC)

    def test_contraction_within_half_percent(self):
        for meanE in (8.0, 12.0, 16.3):
            rep = run_duality_experiment(ModelKind.COMPLEX, meanE)
            assert abs(rep.roundtrip_meanE - meanE) / meanE <= 0.005

    def test_graceful_degradation_at_8(self):
        rep = run_duality_experiment(ModelKind.COMPLEX, 8.0)
        assert isinstance(rep, DualExperimentReport)
        quoted = PAPER["dual_complex_roundtrip"][0]
        assert abs(rep.roundtrip_meanE - 8.0) < abs(quoted - 16.3)

    @pytest.mark.parametrize("model", [ModelKind.COMPLEX,
                                       ModelKind.QUATERNIONIC])
    @pytest.mark.parametrize("meanE", [1e-16, 1e-300])
    def test_normaliser_far_from_one_is_a_quadrature_error(self, model,
                                                           meanE):
        # 1e-300: every density value underflows and the normaliser is 0;
        # 1e-16: the partition functions' log_gamma differences have lost
        # their digits and it is 1.5e-31 (complex) or 5.3e-59 (quaternionic)
        with pytest.raises(QuadratureError, match="normaliser"):
            run_duality_experiment(model, meanE)

    @pytest.mark.parametrize("model", [ModelKind.COMPLEX,
                                       ModelKind.QUATERNIONIC])
    @pytest.mark.parametrize("meanE", [4e8, 1e9, 1e10])
    def test_first_moment_near_tol_is_a_quadrature_error(self, model, meanE):
        # the first moment, about 1/<E>, falls below the absolute tol from
        # 3.98e8 up, where the round trip would be 26 times <E>
        with pytest.raises(QuadratureError, match="first moment"):
            run_duality_experiment(model, meanE)

    @pytest.mark.parametrize("model", [ModelKind.COMPLEX,
                                       ModelKind.QUATERNIONIC])
    @pytest.mark.parametrize("meanE", [1e8, 3.16e8])
    def test_roundtrip_holds_while_first_moment_is_resolved(self, model,
                                                            meanE):
        rep = run_duality_experiment(model, meanE)
        assert rep.roundtrip_meanE == pytest.approx(meanE, rel=1e-11)

    def test_roundtrip_is_mean_energy_of_mean_beta(self):
        rep = run_duality_experiment(ModelKind.COMPLEX, 12.0)
        want = mean_energy(GibbsPoint(ModelKind.COMPLEX, rep.mean_beta))
        assert rep.roundtrip_meanE == pytest.approx(want, rel=1e-14)


class TestClosedForms:
    def test_mean_beta_closed_formula(self):
        for meanE in (0.5, 2.0, 16.3):
            s = 1.5 / meanE
            want = (1.5 / meanE**2) * (sps.digamma(1.5 + s) - sps.digamma(s))
            assert mean_beta_closed(meanE) == pytest.approx(want, rel=1e-12)

    def test_mean_beta_vs_experiment_quality(self):
        # the closed form tracks the quadrature experiment to a percent
        assert mean_beta_closed(16.3) == \
            pytest.approx(PAPER["dual_complex_mean_beta"][0], rel=0.15)

    def test_var_beta_closed_formula(self):
        for meanE in (0.5, 2.0, 16.3):
            s = 1.5 / meanE
            dpsi = sps.digamma(1.5 + s) - sps.digamma(s)
            dpsi1 = sps.polygamma(1, 1.5 + s) - sps.polygamma(1, s)
            want = (3.0 / (4 * meanE**4)) * (4 * meanE * dpsi + 3 * dpsi1)
            assert var_beta_closed(meanE) == pytest.approx(want, rel=1e-12)

    def test_var_beta_small_meanE_limit(self):
        assert var_beta_closed(0.01) * 0.01**2 == pytest.approx(1.5, rel=0.01)

    def test_both_finite_positive_at_one(self):
        assert mean_beta_closed(1.0) > 0
        assert var_beta_closed(1.0) > 0

    def test_domains(self):
        for f in (mean_beta_closed, var_beta_closed, prior_over_meanE):
            with pytest.raises(DomainError):
                f(0.0)


class TestClosedFormArrays:
    E0S = np.concatenate((np.linspace(1.0, 30.0, 100),
                          [2.0**-511, 1e-100, 1e100, 1.5 * 2.0**511]))

    @pytest.mark.parametrize("fn", [mean_beta_closed, var_beta_closed],
                             ids=lambda f: f.__name__)
    def test_array_equals_float_path(self, fn):
        got = fn(self.E0S)
        assert got.tolist() == [fn(e) for e in self.E0S.tolist()]
        assert np.all(np.isfinite(got) & (got > 0))

    def test_prior_pair_array_equals_float_path(self):
        a, b = prior_over_meanE(self.E0S)
        pairs = [prior_over_meanE(e) for e in self.E0S.tolist()]
        assert a.tolist() == [p[0] for p in pairs]
        assert b.tolist() == [p[1] for p in pairs]

    @pytest.mark.parametrize("fn", [mean_beta_closed, var_beta_closed,
                                    prior_over_meanE],
                             ids=lambda f: f.__name__)
    @pytest.mark.parametrize("bad", [2.0**-511 * (1 - 2.0**-53),
                                     1.5 * 2.0**511 * (1 + 2.0**-52)])
    def test_domain_edges(self, fn, bad):
        with pytest.raises(DomainError, match="2\\*\\*-511"):
            fn(bad)
        with pytest.raises(DomainError, match="1-D array"):
            fn(np.array([1.0, bad]))
        with pytest.raises(DomainError, match="1-D array"):
            fn(np.array([[1.0]]))


class TestPriorOverMeanE:
    def test_pair_finite_positive(self):
        a, b = prior_over_meanE(16.3)
        assert a > 0 and b > 0

    def test_strictly_decreasing(self):
        e0s = np.linspace(1.0, 30.0, 100)
        pairs = [prior_over_meanE(e) for e in e0s]
        a = [p[0] for p in pairs]
        b = [p[1] for p in pairs]
        assert all(x > y for x, y in zip(a, a[1:]))
        assert all(x > y for x, y in zip(b, b[1:]))

    def test_log_correlation_above_0_9(self):
        e0s = np.linspace(1.0, 30.0, 100)
        pairs = [prior_over_meanE(e) for e in e0s]
        la = np.log([p[0] for p in pairs])
        lb = np.log([p[1] for p in pairs])
        assert np.corrcoef(la, lb)[0, 1] > 0.9
