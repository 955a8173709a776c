import functools
import importlib.util
import json
import math
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sps

from blochgibbs import models
from blochgibbs.errors import DomainError, PoleProximityError
from blochgibbs.models import (GibbsPoint, ModelKind, POWER_LAW_MODELS,
                               approx_beta_large, approx_beta_small,
                               atanh_omega, integrated_density, mean_energy,
                               mean_energy_asymptotic, mean_energy_series,
                               mean_polarization, modal_beta_estimate,
                               modal_curvature, omega_complex, partition, pdf,
                               polarization_asymptotic,
                               reflection_identity_residual,
                               structure_function, var_energy)
from blochgibbs.quadrature import integrate_semiinfinite
from blochgibbs.specfun import hyp_pfq_at_1
from blochgibbs.verify import PAPER

LN2 = math.log(2.0)
ALL_MODELS = POWER_LAW_MODELS + (ModelKind.KMB,)
BETA_GRID = (0.3, 1.0, 3.0, 10.0)
SMALLEST_NORMAL = 2.2250738585072014e-308


def quad_moment(point, weight):
    f = lambda E: weight(np.asarray(E, dtype=float)) * pdf(point, E)
    return integrate_semiinfinite(f, tol=1e-10).value


class TestTypes:
    def test_dimensions(self):
        assert [m.m for m in (ModelKind.REAL, ModelKind.COMPLEX,
                              ModelKind.QUATERNIONIC, ModelKind.CLASSICAL)] == \
            [1, 2, 4, 0]
        assert ModelKind.KMB.m is None

    def test_omega_exponents(self):
        assert ModelKind.REAL.omega_exponent == 0.0
        assert ModelKind.COMPLEX.omega_exponent == 0.5
        assert ModelKind.QUATERNIONIC.omega_exponent == 1.5
        assert ModelKind.CLASSICAL.omega_exponent == -0.5

    def test_gibbs_point_validation(self):
        with pytest.raises(DomainError):
            GibbsPoint(ModelKind.COMPLEX, -0.1)
        with pytest.raises(DomainError):
            GibbsPoint(ModelKind.COMPLEX, math.nan)
        with pytest.raises(DomainError):
            GibbsPoint("complex", 1.0)

    def test_beta_zero_only_for_polarization(self):
        point = GibbsPoint(ModelKind.COMPLEX, 0.0)
        assert mean_polarization(point) == 1.0
        for op in (partition, mean_energy, var_energy):
            with pytest.raises(DomainError):
                op(point)

    def test_energy_value_bijection(self):
        from blochgibbs.models import EnergyValue
        ev = EnergyValue.from_polarization(0.5)
        assert ev.E == pytest.approx(-math.log(0.75), abs=1e-15)
        assert ev.r == pytest.approx(0.5, abs=1e-15)
        assert EnergyValue(0.0).r == 0.0
        assert EnergyValue.from_polarization(1.0).E == math.inf
        assert EnergyValue.from_polarization(1.0).r == 1.0
        with pytest.raises(DomainError):
            EnergyValue(-0.1)
        with pytest.raises(DomainError):
            EnergyValue.from_polarization(1.5)


class TestStructureFunction:
    def test_complex_at_ln2(self):
        assert structure_function(ModelKind.COMPLEX, LN2) == \
            pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_real_constant(self):
        assert structure_function(ModelKind.REAL, 17.3) == 1.0

    def test_kmb_at_ln2(self):
        want = 2 * math.atanh(math.sqrt(0.5))
        assert structure_function(ModelKind.KMB, LN2) == \
            pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(1.7627471740, abs=1e-9)

    def test_classical_divergence_marker(self):
        assert structure_function(ModelKind.CLASSICAL, 0.0) == math.inf

    def test_negative_energy_rejected(self):
        with pytest.raises(DomainError):
            structure_function(ModelKind.COMPLEX, -0.5)

    @pytest.mark.parametrize("model", list(ModelKind))
    @pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf, -0.5, -5e-324))
    def test_domain_in_every_shape(self, model, bad):
        for E in (bad, np.array(bad), np.array([0.3, bad]),
                  np.array([[0.3, 1.0], [bad, 2.0]])):
            with pytest.raises(DomainError, match="finite E >= 0"):
                structure_function(model, E)

    @pytest.mark.parametrize("model", list(ModelKind))
    def test_negative_zero_and_empty(self, model):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            at_zero = structure_function(model, 0.0)
            got = structure_function(model, -0.0)
            assert got == at_zero and math.copysign(1.0, got) == 1.0
            assert np.array_equal(structure_function(model, np.array([-0.0, 0.0])),
                                  [at_zero, at_zero])
            for shape in ((0,), (2, 0)):
                empty = structure_function(model, np.zeros(shape))
                assert empty.shape == shape and empty.dtype == np.float64
        assert math.copysign(1.0, omega_complex(-0.0)) == 1.0

    def test_classical_inf_at_zero_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert structure_function(ModelKind.CLASSICAL, 0.0) == math.inf
            got = structure_function(ModelKind.CLASSICAL, np.array([0.0, 1.0]))
            assert got[0] == math.inf and math.isfinite(got[1])

    @pytest.mark.parametrize("model", POWER_LAW_MODELS)
    def test_power_law_values_are_omega_powers(self, model):
        E = np.linspace(0.0, 700.0, 7001)
        with np.errstate(divide="ignore"):
            want = omega_complex(E) ** (2.0 * model.omega_exponent)
        assert np.array_equal(structure_function(model, E), want)
        for e, w in zip(E[::350].tolist(), want[::350].tolist()):
            assert structure_function(model, e) == w

    def test_kmb_equals_2atanh_everywhere(self):
        # naive atanh is well-conditioned only while 1 - om^2 stays large;
        # past that the high-precision oracle takes over
        import mpmath as mp
        mp.mp.dps = 40
        for e in np.logspace(-4, 0.7, 30):
            om = float(omega_complex(e))
            assert structure_function(ModelKind.KMB, e) == \
                pytest.approx(2 * math.atanh(om), abs=1e-12)
        for e in (10.0, 40.0, 200.0):
            # ln((1+om)/(1-om)) with 1-om = e^-E/(1+om) substituted, so the
            # oracle stays finite at any E
            s = mp.sqrt(1 - mp.exp(-mp.mpf(e)))
            want = float(2 * mp.log(1 + s) + mp.mpf(e))
            assert structure_function(ModelKind.KMB, e) == \
                pytest.approx(want, abs=1e-12)


class TestPartition:
    def test_examples(self):
        assert partition(GibbsPoint(ModelKind.COMPLEX, 1.0)) == \
            pytest.approx(2.0 / 3.0, abs=1e-13)
        assert partition(GibbsPoint(ModelKind.REAL, 2.0)) == \
            pytest.approx(0.5, abs=1e-14)
        assert partition(GibbsPoint(ModelKind.KMB, 1.0)) == \
            pytest.approx(2.0, abs=1e-13)

    def test_unified_formula_matches_per_family_quotients(self):
        for beta in (0.1, 0.5, 1.0, 2.0, 10.0, 100.0):
            g = math.gamma
            per_family = {
                ModelKind.COMPLEX: math.sqrt(math.pi) * g(beta) / (2 * g(1.5 + beta)),
                ModelKind.QUATERNIONIC:
                    3 * math.sqrt(math.pi) * g(beta) / (4 * g(2.5 + beta)),
                ModelKind.REAL: 1.0 / beta,
                ModelKind.CLASSICAL: math.sqrt(math.pi) * g(beta) / g(0.5 + beta),
            }
            for model, want in per_family.items():
                got = partition(GibbsPoint(model, beta))
                assert got == pytest.approx(want, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            partition(GibbsPoint(ModelKind.CLASSICAL, 0.0))


class TestKmbPartitionFloor:
    FLOOR = 2.0**-511

    def test_floor_is_finite_on_both_paths(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = partition(GibbsPoint(ModelKind.KMB, self.FLOOR))
            assert math.isfinite(got) and got > 1e307
            arr = partition(GibbsPoint(ModelKind.KMB, np.array([1.0, self.FLOOR])))
            assert arr[1] == got

    @pytest.mark.parametrize("beta", [2.0**-512, 7e-155, 1e-200, 5e-324])
    def test_below_floor_raises_on_both_paths(self, beta):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for arg in (beta, np.array([1.0, beta])):
                with pytest.raises(DomainError,
                                   match=r"KMB partition requires beta >= 2\*\*-511"):
                    partition(GibbsPoint(ModelKind.KMB, arg))


class TestPdf:
    def test_complex_vanishes_at_zero(self):
        assert pdf(GibbsPoint(ModelKind.COMPLEX, 1.0), 0.0) == 0.0

    def test_real_exponential(self):
        got = pdf(GibbsPoint(ModelKind.REAL, 2.0), 0.25)
        assert got == pytest.approx(2.0 * math.exp(-0.5), abs=1e-12)

    @pytest.mark.parametrize("model", ALL_MODELS)
    @pytest.mark.parametrize("beta", (0.3, 1.0, 3.0))
    def test_normalization(self, model, beta):
        point = GibbsPoint(model, beta)
        res = integrate_semiinfinite(lambda E: pdf(point, E), tol=1e-9)
        assert res.value == pytest.approx(1.0, abs=1e-8)

    def test_vectorized(self):
        point = GibbsPoint(ModelKind.QUATERNIONIC, 0.7)
        es = np.array([0.1, 1.0, 5.0])
        batch = pdf(point, es)
        for e, v in zip(es, batch):
            assert v == pytest.approx(pdf(point, float(e)), rel=1e-15)


class TestMoments:
    def test_mean_examples(self):
        assert mean_energy(GibbsPoint(ModelKind.REAL, 4.0)) == \
            pytest.approx(0.25, abs=1e-13)
        assert mean_energy(GibbsPoint(ModelKind.COMPLEX, 1.0)) == \
            pytest.approx(8.0 / 3.0 - 2 * LN2, abs=1e-12)
        assert mean_energy(GibbsPoint(ModelKind.CLASSICAL, 1.0)) == \
            pytest.approx(2.0 - 2 * LN2, abs=1e-12)

    def test_var_examples(self):
        assert var_energy(GibbsPoint(ModelKind.COMPLEX, 1.0)) == \
            pytest.approx(40.0 / 9.0 - math.pi**2 / 3.0, abs=1e-11)
        assert var_energy(GibbsPoint(ModelKind.REAL, 3.0)) == \
            pytest.approx(1.0 / 9.0, abs=1e-13)

    def test_var_large_beta_approximation(self):
        got = var_energy(GibbsPoint(ModelKind.COMPLEX, 100.0))
        assert got == pytest.approx(1.5e-4, rel=0.03)

    @pytest.mark.parametrize("model", ALL_MODELS)
    @pytest.mark.parametrize("beta", (0.5, 1.0, 3.0))
    def test_match_log_partition_derivatives(self, model, beta):
        # h = 1e-5 for the first difference; the second difference divides
        # float rounding by h^2, so it needs the wider step to stay below
        # its 1e-5 tolerance
        lz = lambda b: math.log(partition(GibbsPoint(model, b)))
        h = 1e-5
        fd_mean = -(lz(beta + h) - lz(beta - h)) / (2 * h)
        assert abs(fd_mean - mean_energy(GibbsPoint(model, beta))) <= 1e-6
        h = 1e-4
        fd_var = (lz(beta + h) - 2 * lz(beta) + lz(beta - h)) / h**2
        assert abs(fd_var - var_energy(GibbsPoint(model, beta))) <= 1e-5

    @pytest.mark.parametrize("model", ALL_MODELS)
    @pytest.mark.parametrize("beta", BETA_GRID)
    def test_quadrature_equivalence(self, model, beta):
        point = GibbsPoint(model, beta)
        qe = quad_moment(point, lambda E: E)
        qr = quad_moment(point, omega_complex)
        assert qe == pytest.approx(mean_energy(point), rel=1e-8)
        assert qr == pytest.approx(mean_polarization(point), rel=1e-8)

    def test_var_positive(self):
        for model in ALL_MODELS:
            for beta in BETA_GRID:
                assert var_energy(GibbsPoint(model, beta)) > 0


class TestEnergyMomentsReference:
    """<E> and var E of all five families against the 40-digit mpmath
    values in tests/ref/energy_moments_mpmath.json (regenerated by
    energy_moments_mpmath.py there): 121 beta on [1e-10, 1e20] plus
    2**-511, 1e100 and 1e300.  Within 2e-15 relative where the value is
    a normal double, else within 1e-323 absolute; KMB above 2**511
    raises DomainError."""

    DOC = json.loads((Path(__file__).resolve().parent / "ref"
                      / "energy_moments_mpmath.json").read_text())
    BETAS = np.array(DOC["beta"])

    def test_every_beta_is_stored(self):
        assert len(self.BETAS) == 124
        assert {2.0**-511, 1e-10, 1e20, 1e100, 1e300} <= set(self.DOC["beta"])

    @pytest.mark.parametrize("op", (mean_energy, var_energy),
                             ids=lambda f: f.__name__)
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.value)
    def test_float_and_array_match_mpmath(self, model, op):
        want = self.DOC[model.value][op.__name__]
        inside = np.array([w is not None for w in want])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = op(GibbsPoint(model, self.BETAS[inside]))
            floats = [op(GibbsPoint(model, b))
                      for b in self.BETAS[inside].tolist()]
            for b in self.BETAS[~inside].tolist():
                with pytest.raises(DomainError, match="2\\*\\*511"):
                    op(GibbsPoint(model, b))
        assert all(type(f) is float for f in floats)
        assert floats == got.tolist()  # bit for bit
        with mp.workdps(40):
            for g, w in zip(floats, [mp.mpf(w) for w in want if w]):
                if w >= SMALLEST_NORMAL:
                    assert abs(g - w) <= 2e-15 * w
                else:
                    assert abs(g - w) <= 1e-323

    def test_one_rule_without_psi_differences(self):
        from blochgibbs import models
        assert "digamma" not in vars(models)
        assert "trigamma" not in vars(models)

    @pytest.mark.parametrize("model", POWER_LAW_MODELS, ids=lambda m: m.value)
    def test_mean_energy_floor(self, model):
        # the half-shift D of the even-m families starts at 2**-511; the
        # real family's 1/beta is finite down to 2**-1024
        below = 2.0**-511 * (1 - 2.0**-53)
        if model is ModelKind.REAL:
            assert mean_energy(GibbsPoint(model, below)) == 1.0 / below
        else:
            with pytest.raises(DomainError, match="2\\*\\*-511"):
                mean_energy(GibbsPoint(model, below))


class TestMeanPolarization:
    def test_examples(self):
        assert mean_polarization(GibbsPoint(ModelKind.COMPLEX, 1.0)) == \
            pytest.approx(0.75, abs=1e-13)
        assert mean_polarization(GibbsPoint(ModelKind.QUATERNIONIC, 1.0)) == \
            pytest.approx(5.0 / 6.0, abs=1e-13)

    def test_quat_complex_ratio(self):
        for beta in (0.2, 1.0, 4.0, 50.0):
            ratio = (mean_polarization(GibbsPoint(ModelKind.QUATERNIONIC, beta))
                     / mean_polarization(GibbsPoint(ModelKind.COMPLEX, beta)))
            assert ratio == pytest.approx(2 * (3 + 2 * beta) / (3 * (2 + beta)),
                                          rel=1e-12)

    def test_unit_limit_all_models(self):
        for model in ALL_MODELS:
            assert mean_polarization(GibbsPoint(model, 0.0)) == 1.0

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_decreasing_to_zero(self, model):
        betas = np.logspace(-2, 3, 40)
        vals = [mean_polarization(GibbsPoint(model, b)) for b in betas]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.1

    def test_kmb_gap_location(self):
        beta = PAPER["kmb_polarization_gap_argmax"][0]
        got = (mean_polarization(GibbsPoint(ModelKind.KMB, beta))
               - mean_polarization(GibbsPoint(ModelKind.COMPLEX, beta)))
        want, tol = PAPER["kmb_polarization_gap_max"]
        assert got == pytest.approx(want, abs=tol)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=0.02, max_value=50.0))
    def test_dominance_ordering(self, beta):
        vals = [mean_polarization(GibbsPoint(m, beta)) for m in POWER_LAW_MODELS]
        assert vals[0] > vals[1] > vals[2] > vals[3]

    @pytest.mark.parametrize("beta", (1e-12, 1e-10, 1e-8))
    def test_kmb_small_beta_not_above_one(self, beta):
        # the 3F2 form rounded to 1.0000000000000013 at 1e-10 and
        # 1.0000000000000009 at 1e-8; mpmath gives 1.0 and 0.9999999999999999
        want = _benchmark_checks().mpmath_row("kmb", beta)[3]
        for got in (mean_polarization(GibbsPoint(ModelKind.KMB, beta)),
                    mean_polarization(GibbsPoint(ModelKind.KMB,
                                                 np.array([beta])))[0]):
            assert got <= 1.0
            assert abs(got - want) <= 1e-10

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_never_above_one(self, model):
        betas = np.logspace(-16, -4, 121)
        assert np.all(mean_polarization(GibbsPoint(model, betas)) <= 1.0)
        assert all(mean_polarization(GibbsPoint(model, b)) <= 1.0
                   for b in betas.tolist())


def _benchmark_checks():
    """The benchmark's mpmath reference rows (perfbench/checks.py)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the whole documented beta range of the array path
ARRAY_GRID = np.logspace(-10, 10, 401)


class TestArrayBeta:
    """Array beta against one scalar call per element."""

    @pytest.mark.parametrize("model", ALL_MODELS)
    @pytest.mark.parametrize("op", (partition, mean_energy, var_energy,
                                    mean_polarization),
                             ids=lambda f: f.__name__)
    def test_matches_scalar_elementwise(self, model, op):
        betas = ARRAY_GRID
        if op is mean_polarization:
            betas = np.concatenate(([0.0], betas))
        got = op(GibbsPoint(model, betas))
        want = np.array([op(GibbsPoint(model, b)) for b in betas.tolist()])
        assert got.shape == betas.shape
        # the same operations (math.exp and math.log per element; a float
        # KMB beta on a one-element array): equal bit for bit, stricter
        # than 1e-15 relative
        np.testing.assert_array_equal(got, want)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(min_value=1e-10, max_value=1e10), min_size=1,
                    max_size=12),
           st.sampled_from(ALL_MODELS))
    def test_property_matches_scalar(self, betas, model):
        point = GibbsPoint(model, np.array(betas))
        for op in (partition, mean_energy, var_energy, mean_polarization):
            got = op(point)
            for g, b in zip(got.tolist(), betas):
                want = op(GibbsPoint(model, b))
                assert abs(g - want) <= 1e-15 * abs(want)

    def test_float_beta_stays_float(self):
        for model in ALL_MODELS:
            point = GibbsPoint(model, 0.7)
            for op in (partition, mean_energy, var_energy, mean_polarization):
                assert type(op(point)) is float
        assert type(mean_polarization(GibbsPoint(ModelKind.KMB, 0.0))) is float

    def test_beta_array_validated_and_frozen(self):
        for bad in (np.array([1.0, -0.5]), np.array([1.0, math.nan]),
                    np.array([math.inf]), np.ones((2, 2))):
            with pytest.raises(DomainError):
                GibbsPoint(ModelKind.COMPLEX, bad)
        betas = np.array([0.5, 2.0])
        point = GibbsPoint(ModelKind.COMPLEX, betas)
        betas[0] = 7.0
        assert point.beta[0] == 0.5
        assert not point.beta.flags.writeable

    def test_zero_beta_only_for_polarization(self):
        point = GibbsPoint(ModelKind.KMB, np.array([0.0, 1.0]))
        assert mean_polarization(point)[0] == 1.0
        for op in (partition, mean_energy, var_energy):
            with pytest.raises(DomainError):
                op(point)

    def test_pdf_rejects_array_beta(self):
        with pytest.raises(DomainError):
            pdf(GibbsPoint(ModelKind.COMPLEX, np.array([1.0, 2.0])), 0.5)


class TestColumns:
    """``models.columns`` against the four public calls it bundles."""

    OPS = (partition, mean_energy, var_energy, mean_polarization)
    # both sides of half_shift_gamma's x = 12, the KMB log form's 2.65 and
    # the 3F2 relation's 20
    FLOATS = (1e-10, 0.457, 1.0, 2.65, 11.999, 12.0, 20.0, 1e4, 1e10)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_array_columns_equal_public_calls(self, model):
        point = GibbsPoint(model, ARRAY_GRID)
        got = models.columns(point)
        assert len(got) == 4
        for column, op in zip(got, self.OPS):
            assert isinstance(column, np.ndarray)
            np.testing.assert_array_equal(column, op(point))

    @pytest.mark.parametrize("model", ALL_MODELS)
    @pytest.mark.parametrize("beta", FLOATS)
    def test_float_columns_equal_public_calls(self, model, beta):
        point = GibbsPoint(model, beta)
        got = models.columns(point)
        assert [type(v) for v in got] == [float] * 4
        assert list(got) == [op(point) for op in self.OPS]

    @pytest.mark.parametrize("model", ALL_MODELS)
    @pytest.mark.parametrize("beta", [
        np.array([0.0, 1.0]), np.array([1e-200, 1.0]),
        np.array([1e-320, 1.0]), np.array([1.0, 1e12]),
        np.array([1.0, 1e160]), np.array([1.0, 1e306]), 1e-200, 1e12])
    def test_first_domain_error_is_the_public_calls(self, model, beta):
        # the error the four calls raise run in order, message and all
        point = GibbsPoint(model, beta)
        try:
            want = [op(point) for op in self.OPS]
        except DomainError as exc:
            with pytest.raises(DomainError) as info:
                models.columns(point)
            assert str(info.value) == str(exc)
        else:
            for column, value in zip(models.columns(point), want):
                np.testing.assert_array_equal(column, value)


class TestMeanEnergySeries:
    """The Pochhammer series against the 40-digit complex <E> of
    tests/ref/energy_moments_mpmath.json, at all of its 124 beta."""

    DOC = TestEnergyMomentsReference.DOC

    def test_matches_mpmath(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = [mean_energy_series(b) for b in self.DOC["beta"]]
        with mp.workdps(40):
            for res, want in zip(results, self.DOC["complex"]["mean_energy"]):
                assert abs(mp.mpf(res.value) / mp.mpf(want) - 1) <= 1e-15
                assert 0.0 <= res.tail_bound <= 1e-18 * res.value

    def test_terms_used_is_the_fixed_length(self):
        k = models._POCHHAMMER_SERIES[0].size
        assert k == 64
        for beta in (2.0**-511, 0.5, 19.9, 20.0, 1e300):
            assert mean_energy_series(beta).terms_used == k


class TestKmbPolarizationReference:
    """KMB <r> against 2 beta / sqrt(pi) Gamma(1/2+beta) / Gamma(2+beta)
    times the 40-digit mpmath values of 3F2({1/2,1,2};{3/2,2+beta};1)
    stored in tests/ref/kmb_3f2_mpmath.json (regenerated by
    kmb_3f2_mpmath.py there; about 10 s, too slow to compute here).
    The factor is ``models._kmb_3f2`` (its series from 20 up, the
    contiguous relation below); <r> takes it in log form below
    beta = 2.65 and times the log_gamma-difference gamma ratio from 2.65
    up.  The summator's own test of the direct rows stays here."""

    ROWS = json.loads((Path(__file__).resolve().parent / "ref"
                       / "kmb_3f2_mpmath.json").read_text())

    def _errors(self, rows):
        betas = np.array([row[0] for row in rows])
        got = mean_polarization(GibbsPoint(ModelKind.KMB, betas))
        with mp.workdps(40):
            err = [float(abs(mp.mpf(g) / (2 * mp.mpf(b) / mp.sqrt(mp.pi)
                                          * mp.gamma(0.5 + mp.mpf(b))
                                          / mp.gamma(2 + mp.mpf(b))
                                          * mp.mpf(want)) - 1))
                   for g, (b, want) in zip(got.tolist(), rows)]
        # the float path gives the same values
        assert [mean_polarization(GibbsPoint(ModelKind.KMB, b))
                for b in betas.tolist()] == got.tolist()
        return err

    def test_every_row_is_checked(self):
        assert len(self.ROWS) == 66

    def test_mapped_rows_relative_error(self):
        err = self._errors([row for row in self.ROWS if row[0] < 2.65])
        assert len(err) >= 40
        assert max(err) <= 4e-15  # the mapped form's own error at the switch
        assert float(np.median(err)) <= 1e-16

    def test_direct_rows_relative_error(self):
        # the series is certified to 1e-15 relative here; the gamma ratio
        # is still a log_gamma difference, good to 1e-15 |ln Gamma(2 + beta)|
        rows = [row for row in self.ROWS if row[0] >= 2.65]
        err = self._errors(rows)
        assert len(err) >= 20
        for e, (b, _) in zip(err, rows):
            assert e <= 1e-14 + 1e-15 * math.lgamma(2.0 + b)

    def test_direct_series_relative_error(self):
        # the summator on the direct series of the same rows
        rows = [row for row in self.ROWS if row[0] >= 2.65]
        betas = np.array([row[0] for row in rows])
        got = hyp_pfq_at_1([0.5, 1.0, 2.0], [1.5, 2.0 + betas], 1e-13).value
        with mp.workdps(40):
            err = [float(abs(mp.mpf(g) / mp.mpf(want) - 1))
                   for g, (_, want) in zip(got.tolist(), rows)]
        assert max(err) <= 4e-15
        assert float(np.median(err)) <= 5e-16

    def test_factor_relative_error(self):
        betas = np.array([row[0] for row in self.ROWS])
        got = models._kmb_3f2(betas)
        with mp.workdps(40):
            err = [float(abs(mp.mpf(g) / mp.mpf(want) - 1))
                   for g, (_, want) in zip(got.tolist(), self.ROWS)]
        assert max(err) <= 1e-15
        assert float(np.median(err)) <= 2e-16

    def test_log_form_rows_within_1e_15(self):
        err = self._errors([row for row in self.ROWS if row[0] < 2.65])
        assert max(err) <= 1e-15

    def test_factor_obeys_its_relation_across_the_series_start(self):
        # F(x) = 1/(2x) + (2x+3)/(2x+4) F(x+1) where F(x) comes from the
        # relation and F(x+1) from the series, or both from the series
        x = np.linspace(18.0, 21.0, 61)
        f, f1 = models._kmb_3f2(x), models._kmb_3f2(x + 1.0)
        rhs = 0.5 / x + (2.0 * x + 3.0) / (2.0 * x + 4.0) * f1
        assert np.max(np.abs(f / rhs - 1.0)) <= 1e-15  # a few ulps

    def test_float_equals_its_array_element(self):
        betas = np.concatenate(([row[0] for row in self.ROWS],
                                np.linspace(19.9, 20.1, 9),
                                np.nextafter(2.65, [0.0, 5.0])))
        got = mean_polarization(GibbsPoint(ModelKind.KMB, betas))
        for b, g in zip(betas.tolist(), got.tolist()):
            assert mean_polarization(GibbsPoint(ModelKind.KMB, b)) == g

    @pytest.mark.parametrize("beta", [5e-324, 1e-310, 5.5e-309, 1e-300])
    def test_tiny_beta_is_one(self, beta):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mean_polarization(GibbsPoint(ModelKind.KMB, beta)) == 1.0
            got = mean_polarization(GibbsPoint(ModelKind.KMB,
                                               np.array([beta, 1.0])))
        assert got[0] == 1.0


@functools.cache
def _kmb_reference(beta):
    """(Z, <E>, var E, <r>) of the KMB family at 40 digits.  <r> is the
    Thomae-mapped 3F2 below beta = 2.65 and otherwise 2 e^L F /
    (sqrt(pi) (1 + beta)) with F = sum_k (k+1)! / ((2k+1) (2+beta)_k)
    summed term by term, which the domain points from 1e5 up make short."""
    # ln Gamma(beta) has about log10(beta) digits before the point
    with mp.workdps(40 + max(0, int(math.log10(beta)))):
        b = mp.mpf(beta)
        lg = mp.loggamma(b + 0.5) - mp.loggamma(b)
        z = mp.sqrt(mp.pi) * mp.exp(-lg) / b
        e = 1 / b + mp.digamma(b + 0.5) - mp.digamma(b)
        v = 1 / b**2 + mp.psi(1, b) - mp.psi(1, b + 0.5)
        if beta < 2.65:
            r = mp.hyp3f2(-0.5, b, b, 1 + b, 0.5 + b, 1)
        else:
            assert beta >= 1e5
            f, c, k = mp.mpf(0), mp.mpf(1), 0
            while c > mp.mpf(10)**-45:
                f += c / (2 * k + 1)
                c *= (k + 2) / (2 + b + k)
                k += 1
            r = 2 * f * mp.exp(lg) / (mp.sqrt(mp.pi) * (1 + b))
        return z, e, v, r


class TestKmbDomain:
    """The KMB moments at the corners of their domain, float and array
    alike, with warnings as errors: each call matches 40-digit mpmath
    within its docstring's accuracy or, outside 2**-511 <= beta <= 2**511
    for Z, <E> and var E and above beta = 1e11 for <r>, raises
    DomainError."""

    BETAS = (2.0**-512, 2.0**-511, 1e-10, 1e-5, 1.0, 1e5, 1e10, 1e20, 1e300)
    OPS = (partition, mean_energy, var_energy, mean_polarization)

    @staticmethod
    def _bound(op, beta):
        if op in (mean_energy, var_energy):
            return 1e-15
        if op is mean_polarization:
            if beta < 2.65:
                return 4e-15
            return 1e-14 + 1e-15 * math.lgamma(2.0 + beta)
        # Z carries e^-L, and so the absolute error of L, 4e-16 max(1, |L|)
        return 8e-15 if beta >= 1e-10 else 4e-16 * abs(math.log(beta))

    @pytest.mark.parametrize("beta", BETAS)
    @pytest.mark.parametrize("op", OPS, ids=lambda f: f.__name__)
    def test_matches_mpmath_or_raises(self, op, beta):
        if op is mean_polarization:
            outside = beta > 1e11
        else:
            outside = not 2.0**-511 <= beta <= 2.0**511
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for arg in (beta, np.array([beta]), np.array([1.0, beta])):
                point = GibbsPoint(ModelKind.KMB, arg)
                if outside:
                    with pytest.raises(DomainError, match="KMB"):
                        op(point)
                    continue
                got = op(point)
                got = float(got[-1]) if isinstance(arg, np.ndarray) else got
                want = _kmb_reference(beta)[self.OPS.index(op)]
                with mp.workdps(40):
                    err = float(abs(mp.mpf(got) / want - 1))
                assert err <= self._bound(op, beta)


class TestIntegratedDensity:
    def test_complex_closed_form(self):
        want = 2 * (math.atanh(math.sqrt(0.5)) - math.sqrt(0.5))
        assert integrated_density(ModelKind.COMPLEX, LN2) == \
            pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(0.3485336, abs=1e-6)

    def test_classical_closed_form(self):
        assert integrated_density(ModelKind.CLASSICAL, LN2) == \
            pytest.approx(1.7627472, abs=1e-6)

    def test_real_is_identity(self):
        assert integrated_density(ModelKind.REAL, 7.3) == 7.3

    def test_difference_limit(self):
        got = (integrated_density(ModelKind.COMPLEX, 40.0)
               - integrated_density(ModelKind.QUATERNIONIC, 40.0))
        assert got == pytest.approx(2.0 / 3.0, abs=1e-8)

    def test_difference_monotone(self):
        es = np.linspace(0.05, 25.0, 60)
        diffs = [integrated_density(ModelKind.COMPLEX, e)
                 - integrated_density(ModelKind.QUATERNIONIC, e) for e in es]
        assert all(a < b for a, b in zip(diffs, diffs[1:]))

    def test_inversion_identity(self):
        for e0 in np.logspace(math.log10(0.01), math.log10(30.0), 60):
            om = float(omega_complex(e0))
            n = integrated_density(ModelKind.COMPLEX, e0)
            assert abs(om - math.tanh((n + 2 * om) / 2)) <= 1e-10

    def test_kmb_against_dilogarithm_closed_form(self):
        # independent oracle: scipy's Li2, not the library's own series
        li2 = lambda z: sps.spence(1.0 - z)
        for e0 in (0.01, 0.3, LN2, 1.57565, 5.0, 20.0):
            r = float(omega_complex(e0))
            want = (e0**2 / 2 + 2 * li2((1 - r) / 2) - 2 * li2(0.5)
                    - 2 * LN2 * (-e0 - math.log1p(r)) - math.log1p(r)**2)
            assert integrated_density(ModelKind.KMB, e0) == \
                pytest.approx(want, abs=2e-10)

    def test_kmb_against_mpmath_on_fig4_grid(self):
        import mpmath as mp

        def reference(e0):
            e0 = mp.mpf(e0)
            r = mp.sqrt(-mp.expm1(-e0))
            lp = mp.log1p(r)
            return (e0**2 / 2 + 2 * mp.polylog(2, (1 - r) / 2)
                    - 2 * mp.polylog(2, mp.mpf(1) / 2)
                    + 2 * mp.log(2) * (e0 + lp) - lp**2)

        e0s = np.logspace(-5, 1.7, 400)
        got = integrated_density(ModelKind.KMB, e0s)
        with mp.workdps(40):
            rel = [float(abs(mp.mpf(g) / reference(float(e)) - 1))
                   for g, e in zip(got.tolist(), e0s)]
        assert max(rel) <= 5e-16
        assert float(np.median(rel)) <= 1.5e-16

    @pytest.mark.parametrize("model, bound", [(ModelKind.COMPLEX, 8e-16),
                                              (ModelKind.QUATERNIONIC, 4.5e-15)])
    def test_power_law_relative_error(self, model, bound):
        # the closed forms cancel at small E0 (quaternionic 4.9e-6 and
        # complex 2.7e-11 relative at E0 = 1e-5 before the series)
        e0 = -math.log1p(-0.49)
        e0s = np.concatenate((np.logspace(-5, 1.7, 400), [1e-20, 1e-12],
                              e0 + np.spacing(e0) * np.arange(-4, 5)))
        got = integrated_density(model, e0s)
        with mp.workdps(80):
            err = []
            for g, e in zip(got.tolist(), e0s.tolist()):
                w = mp.sqrt(-mp.expm1(-mp.mpf(e)))
                want = 2 * (mp.atanh(w) - w)
                if model is ModelKind.QUATERNIONIC:
                    want -= 2 * w**3 / 3
                err.append(float(abs(mp.mpf(g) / want - 1)))
        assert max(err) <= bound
        assert max(err[:1] + err[400:402]) <= 4e-16  # E0 = 1e-5, 1e-20, 1e-12

    @pytest.mark.parametrize("model", (ModelKind.COMPLEX,
                                       ModelKind.QUATERNIONIC))
    def test_power_law_series_at_the_switch(self, model):
        # 65 consecutive doubles around omega^2 = 0.49, where the series
        # hands over to the closed form: float equals array bit for bit
        e0 = -math.log1p(-0.49)
        e0s = e0 + np.spacing(e0) * np.arange(-32, 33)
        got = integrated_density(model, e0s)
        assert got.tolist() == [integrated_density(model, e)
                                for e in e0s.tolist()]
        r2 = -np.expm1(-e0s)
        assert (r2 < 0.49).any() and (r2 >= 0.49).any()

    def test_kmb_forms_agree_at_the_switch(self):
        # 65 consecutive doubles around r = 0.7, where the series hands over
        # to the dilogarithm form: the jump between them is at most 2 ulp
        from blochgibbs.models import (_kmb_density_dilog,
                                       _kmb_density_series)
        e0 = -math.log1p(-0.49)
        e0s = e0 + np.spacing(e0) * np.arange(-32, 33)
        r2 = -np.expm1(-e0s)
        series = _kmb_density_series(r2)
        dilog = _kmb_density_dilog(e0s, r2)
        assert np.all(np.abs(series - dilog) <= 2 * np.spacing(series))
        assert (r2 < 0.49).any() and (r2 >= 0.49).any()

    def test_all_derivatives_are_structure_functions(self):
        h = 1e-6
        for model in ALL_MODELS:
            for e0 in (0.5, 2.0):
                fd = (integrated_density(model, e0 + h)
                      - integrated_density(model, e0 - h)) / (2 * h)
                assert fd == pytest.approx(structure_function(model, e0),
                                           rel=1e-5)

    def test_domain(self):
        with pytest.raises(DomainError):
            integrated_density(ModelKind.COMPLEX, -1.0)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_array_equals_float_path(self, model):
        e0s = np.logspace(-5, 1.7, 400)
        got = integrated_density(model, e0s)
        want = [integrated_density(model, float(e)) for e in e0s]
        assert got.shape == e0s.shape
        assert got.tolist() == want

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_array_in_any_order_with_repeats(self, model):
        e0s = np.array([0.0, 0.0, 0.5, 0.5, 2.0, 0.7, 0.0, 40.0, 0.5])
        got = integrated_density(model, e0s)
        assert got[0] == 0.0
        assert got.tolist() == [integrated_density(model, float(e))
                                for e in e0s]

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_decreasing_array_is_per_element(self, model):
        got = integrated_density(model, np.array([1.0, 0.5]))
        assert got.tolist() == [integrated_density(model, 1.0),
                                integrated_density(model, 0.5)]

    @pytest.mark.parametrize("model", ALL_MODELS)
    @pytest.mark.parametrize("e0s", [
        np.array([-1.0, 0.5]), np.array([0.5, math.inf]),
        np.array([0.5, math.nan]), np.array([[0.1, 0.2]]), np.array(0.5),
    ], ids=["negative", "inf", "nan", "2-D", "0-d"])
    def test_bad_array_rejected(self, model, e0s):
        with pytest.raises(DomainError):
            integrated_density(model, e0s)

    def test_kmb_overflow_rejected(self):
        assert integrated_density(ModelKind.KMB, 2.0**511) < math.inf
        with pytest.raises(DomainError):
            integrated_density(ModelKind.KMB, 2.0**512)
        with pytest.raises(DomainError):
            integrated_density(ModelKind.KMB, np.array([1.0, 1e300]))


class TestModalEstimates:
    def test_complex_example(self):
        assert modal_beta_estimate(ModelKind.COMPLEX, LN2) == \
            pytest.approx(0.5, abs=1e-14)

    def test_real_zero(self):
        assert modal_beta_estimate(ModelKind.REAL, 5.0) == 0.0

    def test_quaternionic_matches_brute_derivative(self):
        h = 1e-7
        brute = (math.log(structure_function(ModelKind.QUATERNIONIC, LN2 + h))
                 - math.log(structure_function(ModelKind.QUATERNIONIC, LN2 - h))) \
            / (2 * h)
        got = modal_beta_estimate(ModelKind.QUATERNIONIC, LN2)
        assert got == pytest.approx(1.5, abs=1e-12)
        assert got == pytest.approx(brute, abs=1e-7)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_curvature_matches_finite_difference(self, model):
        if model is ModelKind.REAL:
            assert modal_curvature(model, 1.0) == 0.0
            return
        h = 1e-4
        for e in (0.7, 2.5):
            lnom = lambda x: math.log(structure_function(model, x))
            fd = -(lnom(e + h) - 2 * lnom(e) + lnom(e - h)) / h**2
            assert modal_curvature(model, e) == pytest.approx(fd, rel=1e-5)

    def test_domain(self):
        with pytest.raises(DomainError):
            modal_beta_estimate(ModelKind.COMPLEX, 0.0)


class TestBetaApproximations:
    def test_large_beta_moderate_regime(self):
        # exact inverse of the mean-energy law at <E> = <E>(beta=1)
        target = mean_energy(GibbsPoint(ModelKind.COMPLEX, 1.0))
        approx = approx_beta_large(target)
        assert approx == pytest.approx(1.1716, abs=1e-4)
        assert abs(approx - 1.0) / 1.0 < 0.20

    def test_large_beta_deep_regime(self):
        from blochgibbs import rootfind
        f = lambda b: mean_energy(GibbsPoint(ModelKind.COMPLEX, b)) - 0.15
        root = rootfind.brent(f, 1.0, 100.0)
        assert approx_beta_large(0.15) == pytest.approx(10.0, abs=1e-12)
        assert abs(10.0 - root) / root < 0.03

    def test_small_beta_arithmetic(self):
        assert approx_beta_small(16.3) == \
            pytest.approx(1.0 / (16.3 - 2.0 - LN2), abs=1e-15)

    def test_domains(self):
        with pytest.raises(DomainError):
            approx_beta_small(2.0)
        with pytest.raises(DomainError):
            approx_beta_large(0.0)


class TestAsymptoticExpansions:
    def test_five_term_sum_near_exact(self):
        got = mean_energy_asymptotic(10.0, 5)
        want = mean_energy(GibbsPoint(ModelKind.COMPLEX, 10.0))
        assert got == pytest.approx(0.1464865625, abs=1e-12)
        assert abs(got - want) <= 1e-6

    def test_leading_term(self):
        assert mean_energy_asymptotic(100.0, 1) == pytest.approx(0.015, abs=1e-15)

    def test_residual_order_six_scaling(self):
        r2 = abs(mean_energy_asymptotic(2.0, 5)
                 - mean_energy(GibbsPoint(ModelKind.COMPLEX, 2.0)))
        r4 = abs(mean_energy_asymptotic(4.0, 5)
                 - mean_energy(GibbsPoint(ModelKind.COMPLEX, 4.0)))
        assert r2 / r4 == pytest.approx(64.0, rel=0.5)

    def test_polarization_expansion_beta25(self):
        want = mean_polarization(GibbsPoint(ModelKind.COMPLEX, 25.0))
        assert abs(polarization_asymptotic(25.0) - want) <= 1e-5

    def test_polarization_expansion_beta100(self):
        want = mean_polarization(GibbsPoint(ModelKind.COMPLEX, 100.0))
        got = polarization_asymptotic(100.0)
        assert abs(got - want) <= 1e-6
        leading = 2.0 / (math.sqrt(math.pi) * 10.0)
        assert abs(got - leading) < 0.01 * leading

    def test_expansion_is_asymptotic_only(self):
        assert abs(polarization_asymptotic(1.0) - 0.75) > 0.01

    def test_domains(self):
        with pytest.raises(DomainError):
            mean_energy_asymptotic(1.0, 6)
        with pytest.raises(DomainError):
            polarization_asymptotic(-1.0)
        # below beta = 1 the terms grow: the expansions say nothing there
        with pytest.raises(DomainError, match="beta >= 1"):
            mean_energy_asymptotic(0.999, 3)
        with pytest.raises(DomainError, match="beta >= 1"):
            polarization_asymptotic(0.999)

    @pytest.mark.parametrize("beta", (1e300, 1.7e308))
    def test_horner_sums_at_large_beta(self, beta):
        # the leading terms, with no power of beta to overflow
        assert mean_energy_asymptotic(beta, 5) == pytest.approx(
            1.5 / beta, rel=1e-15, abs=0)
        assert polarization_asymptotic(beta) == pytest.approx(
            2.0 / math.sqrt(math.pi) / math.sqrt(beta), rel=1e-15, abs=0)


class TestReflectionIdentity:
    @pytest.mark.parametrize("beta", (0.25, 1.3))
    def test_residual_tiny(self, beta):
        assert reflection_identity_residual(beta) <= 1e-9

    def test_pole_rejected(self):
        with pytest.raises(PoleProximityError):
            reflection_identity_residual(0.5)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=0.05, max_value=4.0))
    def test_residual_away_from_poles(self, beta):
        if abs(2 * beta - round(2 * beta)) < 5e-3:
            return
        assert reflection_identity_residual(beta) <= 1e-8


class TestStableHelpers:
    def test_atanh_omega_large_argument(self):
        # naive artanh overflows past E ~ 36; the stable form must not
        got = float(atanh_omega(200.0))
        assert got == pytest.approx(math.log(2.0) + 100.0, abs=1e-10)
