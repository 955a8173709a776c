import math

import mpmath as mp
import numpy as np
import pytest

from blochgibbs.errors import BracketingError, DomainError
from blochgibbs.magnetics import (IntersectionReport, brillouin_tanh,
                                  brosseau_polarization, critical_beta,
                                  intersect_brosseau, kmb_density_crossing,
                                  langevin, langevin_partition, loglinear_fit,
                                  order_parameter, reduced_temperature)
from blochgibbs.models import (GibbsPoint, ModelKind, integrated_density,
                               mean_polarization)
from blochgibbs.verify import PAPER

LN2 = math.log(2.0)


class TestComparisonLaws:
    def test_brillouin_values(self):
        assert brillouin_tanh(0.0) == 0.0
        assert brillouin_tanh(1.0) == pytest.approx(0.7615942, abs=1e-7)
        assert brillouin_tanh(20.0) == \
            pytest.approx(1.0 - 2 * math.exp(-40.0), abs=1e-12)

    def test_langevin_small_argument_series(self):
        assert langevin(0.0) == 0.0
        assert langevin(0.01) == pytest.approx(0.00333331, abs=1e-8)

    def test_langevin_partition(self):
        assert langevin_partition(1.0) == pytest.approx(math.sinh(1.0), rel=1e-14)

    @pytest.mark.parametrize("beta", [709.9, 710.0, 712.5, 717.0, -715.0])
    def test_langevin_partition_up_to_its_overflow(self, beta):
        # sinh overflows from 710.5; e^(|b|/2) (e^(|b|/2) / (2|b|)) does not
        want = mp.sinh(mp.mpf(beta)) / beta
        assert abs(langevin_partition(beta) / want - 1) <= 5e-16
        with pytest.raises(DomainError, match="717"):
            langevin_partition(math.copysign(717.0001, beta))

    def test_langevin_is_log_derivative_of_partition(self):
        h = 1e-6
        fd = (math.log(langevin_partition(2 + h))
              - math.log(langevin_partition(2 - h))) / (2 * h)
        assert abs(fd - langevin(2.0)) < 1e-6

    def test_brosseau_values(self):
        assert brosseau_polarization(1.0) == pytest.approx(0.7615942, abs=1e-7)
        assert brosseau_polarization(0.5) == pytest.approx(math.tanh(2.0),
                                                           rel=1e-14)
        assert brosseau_polarization(1e6) < 1.1e-6

    def test_brosseau_domain(self):
        with pytest.raises(DomainError):
            brosseau_polarization(0.0)


class TestBrosseauCrossings:
    @pytest.mark.parametrize("model", [ModelKind.QUATERNIONIC,
                                       ModelKind.COMPLEX, ModelKind.REAL,
                                       ModelKind.CLASSICAL])
    def test_quoted_roots(self, model):
        target, tol = PAPER[f"brosseau_crossing_{model.value}"]
        rep = intersect_brosseau(model)
        assert isinstance(rep, IntersectionReport)
        assert rep.beta_star == pytest.approx(target, abs=tol)
        assert abs(rep.residual) <= 1e-10

    def test_roots_ordered_like_polarization_dominance(self):
        roots = [intersect_brosseau(m).beta_star
                 for m in (ModelKind.QUATERNIONIC, ModelKind.COMPLEX,
                           ModelKind.REAL, ModelKind.CLASSICAL)]
        assert roots == sorted(roots)

    def test_kmb_not_supported(self):
        with pytest.raises(DomainError):
            intersect_brosseau(ModelKind.KMB)


class TestKmbDensityCrossings:
    def test_classical_crossing(self):
        want, rtol = PAPER["kmb_density_crossing_classical"]
        assert kmb_density_crossing(ModelKind.CLASSICAL) == \
            pytest.approx(want, rel=rtol)

    def test_real_crossing(self):
        want, rtol = PAPER["kmb_density_crossing_real"]
        assert kmb_density_crossing(ModelKind.REAL) == \
            pytest.approx(want, rel=rtol)

    @pytest.mark.parametrize("model", [ModelKind.COMPLEX,
                                       ModelKind.QUATERNIONIC])
    def test_kmb_density_exceeds_dominated_curves(self, model):
        e0s = np.logspace(-7, math.log10(60.0), 10**4)
        gap = (integrated_density(ModelKind.KMB, e0s)
               - integrated_density(model, e0s))
        assert np.all(gap > 0)

    @pytest.mark.parametrize("model", [ModelKind.COMPLEX,
                                       ModelKind.QUATERNIONIC])
    def test_no_crossing_against_dominated_curves(self, model):
        # the KMB integrated density dominates twice these curves pointwise;
        # the scan must report the absence rather than fabricate a root
        with pytest.raises(BracketingError):
            kmb_density_crossing(model)


class TestReducedTemperature:
    def test_at_one(self):
        assert reduced_temperature(1.0) == pytest.approx(math.atanh(0.75),
                                                         abs=1e-13)

    def test_strictly_decreasing(self):
        betas = np.logspace(-1, 4, 60)
        vals = [reduced_temperature(b) for b in betas]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_asymptotic_two_term_form(self):
        for beta in (1e3, 1e4):
            want = (2.0 / math.sqrt(math.pi * beta)
                    + (32 - 15 * math.pi) / (12 * math.pi**1.5 * beta**1.5))
            got = reduced_temperature(beta)
            # next correction is O(beta^-2)
            assert abs(got - want) < 5.0 / beta**2

    def test_array_equals_float_path(self):
        # the fig6 grid, then the domain's edges: just above saturation
        # (<r> rounds to 1 below about 2e-14) and the <r> ceiling 1e11
        betas = np.concatenate((np.logspace(-2, 3, 400),
                                [2e-14, 1e-13, 1e10, 1e11]))
        got = reduced_temperature(betas)
        assert got.tolist() == [reduced_temperature(float(b)) for b in betas]

    def test_saturation_rejected_for_any_element(self):
        with pytest.raises(DomainError):
            reduced_temperature(1e-16)
        with pytest.raises(DomainError):
            reduced_temperature(np.array([1.0, 1e-16, 2.0]))

    @pytest.mark.parametrize("betas", [
        np.array([1.0, 0.0]), np.array([1.0, -2.0]), np.array([1.0, math.inf]),
        np.array([1.0, math.nan]), np.array([[1.0, 2.0]]), np.array(1.0),
    ], ids=["zero", "negative", "inf", "nan", "2-D", "0-d"])
    def test_bad_array_rejected(self, betas):
        with pytest.raises(DomainError):
            reduced_temperature(betas)

    def test_log_value_at_e10(self):
        got = math.log(reduced_temperature(math.exp(10.0)))
        assert got == pytest.approx(PAPER["loglinear_intercept"][0] - 5.0,
                                    abs=1e-3)

    def test_loglinear_fit(self):
        slope, intercept = loglinear_fit()
        assert slope == pytest.approx(-0.5, abs=0.002)
        want, tol = PAPER["loglinear_intercept"]
        assert intercept == pytest.approx(want, abs=tol)
        assert intercept == pytest.approx(LN2 - 0.5 * math.log(math.pi),
                                          abs=1e-3)


class TestMeanField:
    def test_critical_beta_value(self):
        want, tol = PAPER["critical_beta_unit"]
        assert critical_beta(1.0) == pytest.approx(want, abs=tol)

    def test_linearity_and_inversion(self):
        assert critical_beta(2.0) == pytest.approx(2 * critical_beta(1.0),
                                                   rel=1e-14)
        assert 4 * (2 * LN2 - 1) * critical_beta(1.0) == \
            pytest.approx(1.0, abs=1e-12)

    def test_order_parameter_branches(self):
        bc = critical_beta(1.0)
        assert order_parameter(bc, 1.0) == (0.0, 0.0)
        assert order_parameter(0.5 * bc, 1.0) == (0.0, 0.0)
        plus, minus = order_parameter(2 * bc, 1.0)
        assert plus == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert minus == -plus

    def test_order_parameter_exponent_half(self):
        bc = critical_beta(1.0)
        eps = np.logspace(-4, -2, 40)
        vals = [order_parameter(bc / (1 - e), 1.0)[0] for e in eps]
        slope = np.polyfit(np.log(eps), np.log(vals), 1)[0]
        assert slope == pytest.approx(0.5, abs=1e-3)

    def test_rederived_quadratic_flags_inverted_ratio(self):
        # substituting beta -> beta/(lambda <r>) into <r> ~ 1-(2 ln2 -1) beta
        # gives the quadratic <r>^2 - <r> + (2 ln2 - 1) beta/lambda = 0, whose
        # symmetric-root form is 2<r> - 1 = +-sqrt(1 - beta/beta_c): the
        # printed law carries beta_c/beta instead.  Both vanish at beta_c and
        # share the 1/2 exponent; the implementation follows the printed law.
        lam = 1.0
        bc = critical_beta(lam)
        for beta in (0.2 * bc, 0.7 * bc):
            disc = 1.0 - 4.0 * (2 * LN2 - 1) * beta / lam
            r_plus = 0.5 * (1.0 + math.sqrt(disc))
            assert 2 * r_plus - 1 == pytest.approx(math.sqrt(1 - beta / bc),
                                                   rel=1e-12)
            # and the printed direction is real only above beta_c
            assert order_parameter(beta, lam) == (0.0, 0.0)

    def test_domains(self):
        with pytest.raises(DomainError):
            critical_beta(0.0)
        with pytest.raises(DomainError):
            order_parameter(-1.0, 1.0)


class TestChainIdentities:
    def test_half_log_ratio_equals_atanh(self):
        for r in np.linspace(0.0, 0.97, 40):
            lhs = 0.5 * (math.log1p(r) - math.log1p(-r))
            assert lhs == pytest.approx(math.atanh(r), abs=1e-12)

    def test_maclaurin_partial_sum_bound(self):
        for r in np.linspace(0.05, 0.5, 19):
            partial = r + r**3 / 3 + r**5 / 5
            bound = r**7 / (7 * (1 - r * r))
            assert abs(math.atanh(r) - partial) <= bound

    def test_crossing_consistency_with_polarization(self):
        # at the crossing the model's polarization equals tanh(1/beta)
        rep = intersect_brosseau(ModelKind.COMPLEX)
        pol = mean_polarization(GibbsPoint(ModelKind.COMPLEX, rep.beta_star))
        assert pol == pytest.approx(math.tanh(1 / rep.beta_star), abs=1e-10)
