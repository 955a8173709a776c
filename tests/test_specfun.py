import json
import math
import sys
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochgibbs import models, specfun
from blochgibbs.errors import ConvergenceError, DomainError
from blochgibbs.specfun import (SeriesResult, digamma, half_shift_gamma,
                                hyp_pfq_at_1, log_gamma, log_gamma_signed,
                                pochhammer, trigamma)

mp.mp.dps = 50

EULER_GAMMA = 0.57721566490153286061


class TestBernoulliTable:
    def test_exact_pairs(self):
        assert [k for k, _, _ in specfun._BERNOULLI] == list(range(2, 22, 2))
        for k, p, q in specfun._BERNOULLI:
            assert mp.bernfrac(k) == (p, q)

    def test_derived_coefficients_are_correctly_rounded(self):
        # 60 digits, then one rounding to the nearest double; no coefficient
        # is a dyadic rational, so none sits on a rounding tie
        with mp.workdps(60):
            b = {k: mp.bernoulli(k) for k in range(2, 22, 2)}
            want = {
                "_STIRLING": [b[k] / (k * (k - 1)) for k in range(2, 18, 2)],
                "_PSI_TAIL": [b[k] / k for k in range(2, 18, 2)],
                "_TRIGAMMA_TAIL": [b[k] for k in range(2, 18, 2)],
                "_HALF_SHIFT_B": [b[k] * (1 - 2**k) / 2**(k - 1)
                                  for k in range(2, 22, 2)],
            }
            for name, values in want.items():
                got = [float(c) for c in getattr(specfun, name)]
                assert got == [float(v) for v in values], name


BITS = json.loads((Path(__file__).resolve().parent / "ref"
                   / "specfun_bits.json").read_text())["pins"]


def _pinned(name):
    """fn of a float argument returning a tuple of floats, for each pin."""
    if name.startswith("integrated_density"):
        model = models.ModelKind(name.split()[1])
        return lambda x: models.integrated_density(model, x)
    return getattr(specfun, name)


class TestGoldenBits:
    """Every pinned value, bit for bit (float.hex), on the float path and as
    an element of one 1-D array of all the pinned arguments; the pins cover
    the shift thresholds 6, 10 and 12 to the ulp and the series switches."""

    @pytest.mark.parametrize("name", sorted(BITS))
    def test_pins(self, name):
        args = np.array([float.fromhex(a) for a, _ in BITS[name]])
        want = [tuple(v) for _, v in BITS[name]]
        fn = _pinned(name)
        got = fn(args)
        columns = got if isinstance(got, tuple) else (got,)
        assert [tuple(float(c[i]).hex() for c in columns)
                for i in range(args.size)] == want
        if name == "_dilog_small":  # array-only
            return
        for x, values in zip(args.tolist(), want):
            got = fn(x)
            assert tuple(v.hex() for v in (got if isinstance(got, tuple)
                                           else (got,))) == values


class TestLogGamma:
    def test_at_one(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)

    def test_at_half(self):
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), abs=1e-14)

    def test_against_high_precision_oracle(self):
        # 50-digit reference value
        want = 7.052185450738539444926
        got = log_gamma(7.25)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("x", [1e-3, 0.1, 0.9, 2.3, 17.0, 150.5, 1e4, 1e6])
    def test_accuracy_grid(self, x):
        want = float(mp.loggamma(mp.mpf(repr(x))))
        assert abs(log_gamma(x) - want) <= 1e-12 * max(1.0, abs(want))

    def test_domain(self):
        for bad in (0.0, -1.5, math.inf, math.nan):
            with pytest.raises(DomainError):
                log_gamma(bad)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=0.01, max_value=500.0))
    def test_recurrence_property(self, x):
        lhs = log_gamma(x + 1.0) - log_gamma(x) - math.log(x)
        assert abs(lhs) <= 1e-12 * max(1.0, abs(log_gamma(x + 1.0)))

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=0.01, max_value=250.0))
    def test_duplication_property(self, x):
        lhs = log_gamma(2 * x)
        rhs = (log_gamma(x) + log_gamma(x + 0.5) + (2 * x - 1) * math.log(2)
               - 0.5 * math.log(math.pi))
        assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs))


class TestSignedLogGamma:
    @pytest.mark.parametrize("x", [-0.5, -1.3, -2.7, -5.25, 0.75, 3.5])
    def test_matches_reference(self, x):
        want = mp.gamma(mp.mpf(repr(x)))
        mag, sign = log_gamma_signed(x)
        assert sign == (1 if want > 0 else -1)
        assert math.exp(mag) == pytest.approx(float(abs(want)), rel=1e-12)

    def test_pole_rejected(self):
        with pytest.raises(DomainError):
            log_gamma_signed(-3.0)


class TestDigamma:
    def test_at_one(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-12)

    def test_at_half(self):
        assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2 * math.log(2),
                                             abs=1e-12)

    @pytest.mark.parametrize("x", [1e-3, 0.05, 0.8, 3.7, 42.0, 1e3, 1e6])
    def test_accuracy_grid(self, x):
        want = float(mp.digamma(mp.mpf(repr(x))))
        assert abs(digamma(x) - want) <= 1e-11

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=0.01, max_value=100.0))
    def test_functional_equation(self, x):
        assert abs(digamma(1 + x) - digamma(x) - 1.0 / x) <= 1e-10

    def test_matches_log_gamma_derivative(self):
        h = 1e-5
        for x in (0.3, 1.7, 8.0, 55.0):
            fd = (log_gamma(x + h) - log_gamma(x - h)) / (2 * h)
            assert abs(fd - digamma(x)) <= 1e-6

    def test_domain(self):
        with pytest.raises(DomainError):
            digamma(0.0)
        with pytest.raises(DomainError):
            digamma(-2.0)


class TestTrigamma:
    def test_at_one(self):
        assert trigamma(1.0) == pytest.approx(math.pi**2 / 6, abs=1e-12)

    def test_at_half(self):
        assert trigamma(0.5) == pytest.approx(math.pi**2 / 2, abs=1e-11)

    def test_recurrence_value(self):
        assert trigamma(2.5) == pytest.approx(math.pi**2 / 2 - 4 - 4.0 / 9.0,
                                              abs=1e-12)

    @pytest.mark.parametrize("x", [1e-3, 0.2, 1.9, 12.0, 1e4, 1e6])
    def test_accuracy_grid(self, x):
        want = float(mp.polygamma(1, mp.mpf(repr(x))))
        # 1e-10 absolute, except where the value itself is so large that a
        # single ulp exceeds it (psi' ~ 1/x^2 for tiny x)
        assert abs(trigamma(x) - want) <= max(1e-10, 4e-16 * abs(want))

    def test_matches_digamma_derivative(self):
        h = 1e-5
        for x in (0.4, 2.2, 9.0):
            fd = (digamma(x + h) - digamma(x - h)) / (2 * h)
            assert abs(fd - trigamma(x)) <= 1e-5

    def test_domain(self):
        with pytest.raises(DomainError):
            trigamma(-0.1)


class TestTrigammaFloor:
    FLOOR = 2.0**-511

    def test_floor_is_finite_on_both_paths(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = trigamma(self.FLOOR)
            assert math.isfinite(got)
            assert got == pytest.approx(2.0**1022, rel=1e-15)
            assert trigamma(np.array([1.0, self.FLOOR]))[1] == got

    @pytest.mark.parametrize("x", [2.0**-512, 7e-155, 2e-162, 1e-200, 5e-324])
    def test_below_floor_raises_on_both_paths(self, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for arg in (x, np.array([1.0, x])):
                with pytest.raises(DomainError, match=r"2\*\*-511"):
                    trigamma(arg)


class TestHalfShiftGamma:
    """L = ln Gamma(x+1/2) - ln Gamma(x), D = L' and T = -L''."""

    GRID = np.concatenate((np.logspace(-10, 20, 151),
                           [2.0**-511, 1e-100, 0.5, 1.2, 1.26, 11.999, 12.0,
                            12.001, 24.0]))

    def test_against_mpmath(self):
        L, D, T = half_shift_gamma(self.GRID)
        for x, lv, dv, tv in zip(self.GRID.tolist(), L, D, T):
            # ln Gamma(x) has about log10(x) digits before the point
            with mp.workdps(50 + max(0, int(math.log10(x)))):
                X = mp.mpf(x)
                ml = mp.loggamma(X + 0.5) - mp.loggamma(X)
                md = mp.digamma(X + 0.5) - mp.digamma(X)
                mt = mp.psi(1, X) - mp.psi(1, X + 0.5)
                assert abs(lv - ml) <= 4e-16 * max(1.0, abs(ml))
                assert abs(dv / md - 1) <= 8e-16
                assert abs(tv / mt - 1) <= 8e-16

    def test_float_equals_array_element(self):
        L, D, T = half_shift_gamma(self.GRID)
        for i, x in enumerate(self.GRID.tolist()):
            got = half_shift_gamma(x)
            assert all(type(v) is float for v in got)
            assert got == (L[i], D[i], T[i])

    def test_leading_terms(self):
        x = 1e6
        L, D, T = half_shift_gamma(x)
        assert L == pytest.approx(0.5 * math.log(x) - 1 / (8 * x), rel=1e-15)
        assert D == pytest.approx(1 / (2 * x) + 1 / (8 * x * x), rel=1e-15)
        assert T == pytest.approx(1 / (2 * x * x) + 1 / (4 * x**3), rel=1e-15)

    @pytest.mark.parametrize("bad", [0.0, -1.0, 2.0**-512, math.inf,
                                     math.nan])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            half_shift_gamma(bad)
        with pytest.raises(DomainError):
            half_shift_gamma(np.array([1.0, bad]))

    def test_array_must_be_one_dimensional(self):
        with pytest.raises(DomainError):
            half_shift_gamma(np.ones((2, 2)))

    def test_extremes_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            L, D, T = half_shift_gamma(np.array([2.0**-511, 1e300]))
        assert np.all(np.isfinite(L)) and np.all(np.isfinite(D))
        assert T[0] == pytest.approx(2.0**1022, rel=1e-15)
        assert L[1] == pytest.approx(0.5 * math.log(1e300), rel=1e-15)

    def test_argument_not_modified(self):
        x = np.array([0.3, 5.0, 40.0])
        half_shift_gamma(x)
        assert x.tolist() == [0.3, 5.0, 40.0]


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(1.5, 0) == 1.0

    def test_small_product(self):
        assert pochhammer(1.5, 3) == pytest.approx(13.125, abs=0.0)

    def test_zero_factor(self):
        assert pochhammer(-2.0, 4) == 0.0

    def test_overflow_reported(self):
        with pytest.raises(OverflowError):
            pochhammer(300.0, 200)

    def test_bad_n(self):
        for n in (-1, math.inf, math.nan):
            with pytest.raises(DomainError):
                pochhammer(1.0, n)

    def test_huge_step_count_stops_at_its_zero(self):
        # (-3)(-2)(-1)(0) = -0.0, and every later factor is positive; the
        # product must end there, not after 10^12 steps
        got = pochhammer(-3.0, 10**12)
        assert got == 0.0 and math.copysign(1.0, got) == -1.0
        assert math.copysign(1.0, pochhammer(-3.0, 10)) == -1.0
        with pytest.raises(OverflowError):
            pochhammer(1.5, 10**12)


class TestHypPfqAtUnit:
    def test_divergent_series_rejected(self):
        # excess 2 - 1 - 1 = 0: the classic log-divergent edge case
        with pytest.raises(ConvergenceError):
            hyp_pfq_at_1([1.0, 1.0], [2.0], tol=1e-10)

    def test_example_3f2(self):
        want = 1.590862907413260412556  # extended-precision summation
        res = hyp_pfq_at_1([0.5, 1.0, 2.0], [1.5, 3.0], tol=1e-12)
        assert res.value == pytest.approx(want, abs=1e-10)
        assert res.tail_bound <= 1e-12
        assert res.terms_used >= 1

    def test_zero_numerator_degenerates_to_one(self):
        res = hyp_pfq_at_1([0.0, 2.5], [4.0], tol=1e-12)
        assert res.value == 1.0
        assert res.tail_bound == 0.0

    def test_terminating_polynomial(self):
        # 2F1(-2, 1; 1; 1) with unit argument = sum of 3 exact terms
        res = hyp_pfq_at_1([-2.0, 1.0], [1.0], tol=1e-12)
        # (1 - 1)^2 expanded: 1 - 2 + 1 = 0
        assert res.value == pytest.approx(0.0, abs=1e-15)
        assert res.terms_used == 3

    def test_denominator_pole_rejected(self):
        with pytest.raises(DomainError):
            hyp_pfq_at_1([0.5], [-1.0, 3.0], tol=1e-10)

    @pytest.mark.parametrize("b2", [2.3, 3.0, 5.5, 12.0])
    def test_against_mpmath_grid(self, b2):
        # excess b2 - 2: the 0.3 case is the slow-convergence stress point,
        # certifiable to 1e-10 (1e-12 needs excess >= ~1/2)
        want = float(mp.hyper([mp.mpf(1) / 2, 1, 2], [mp.mpf(3) / 2, b2], 1))
        res = hyp_pfq_at_1([0.5, 1.0, 2.0], [1.5, b2], tol=1e-10)
        assert res.value == pytest.approx(want, rel=1e-10)
        assert res.tail_bound <= 1e-10

    def test_bad_tol(self):
        with pytest.raises(DomainError):
            hyp_pfq_at_1([0.5], [1.5], tol=0.0)

    def test_tiny_excess_runs_out_of_terms(self):
        # excess 1e-17: 2^-s rounds to 1, where the extrapolation weights
        # have no finite value; the row must still end in the budget error
        with pytest.raises(ConvergenceError):
            hyp_pfq_at_1([1e-17, 1e-17], [3e-17], tol=1e-10)

    @pytest.mark.parametrize("a", [300.0, 600.0, 2000.0])
    def test_late_decay_regime(self, a):
        # 2F1(a, 1; a + 3/2; 1) = 2a + 1 (Gauss).  For a >= 256 the local
        # decay exponent at the first boundary is below 1; the next block
        # must still continue from the last term (it restarted from the
        # first one and returned 3951.8 for a = 600).
        res = hyp_pfq_at_1([a, 1.0], [a + 1.5], tol=1.0)
        assert abs(res.value - (2.0 * a + 1.0)) <= 1.0

    def test_scalar_call_types(self):
        res = hyp_pfq_at_1([0.5, 1.0, 2.0], [1.5, 3.0], tol=1e-12)
        assert type(res.value) is float
        assert type(res.tail_bound) is float
        assert type(res.terms_used) is int

    @pytest.mark.parametrize("bad", [np.array([3.0, 4.0]), np.array(3.0),
                                     1 + 0j, "3.0", None])
    @pytest.mark.parametrize("slot", ["numerator", "denominator", "tol"])
    def test_one_real_series_per_call(self, bad, slot):
        nums, dens, tol = [0.5, 1.0], [3.0], 1e-10
        if slot == "numerator":
            nums = [0.5, bad]
        elif slot == "denominator":
            dens = [bad]
        else:
            tol = bad
        with pytest.raises(DomainError, match="sums one series"):
            hyp_pfq_at_1(nums, dens, tol)

    def test_numpy_and_int_parameters(self):
        want = hyp_pfq_at_1([0.5, 1.0, 2.0], [1.5, 3.0], tol=1e-12)
        got = hyp_pfq_at_1([np.float64(0.5), 1, np.int64(2)],
                           [1.5, np.float32(3.0)], np.float64(1e-12))
        assert got == want


class TestBlockSchedule:
    """Blocks of 128, 128, 256, ... terms; before the 512 boundary a row
    stops on its tail only below half an ulp of its sum, and the ladder
    certifies from 256 on, there only a change of at most tol / 32."""

    @pytest.mark.parametrize("b2", [102.0, 1002.0])
    def test_tail_stop_at_the_first_block_cannot_change_the_sum(self, b2):
        # the direct KMB series at beta = 100 and 1000: its terms fall
        # below half an ulp of the sum within 128
        res = hyp_pfq_at_1([0.5, 1.0, 2.0], [1.5, b2], tol=1e-13)
        assert res.terms_used == 128
        with mp.workdps(40):
            want, c, k = mp.mpf(0), mp.mpf(1), 0
            while c > mp.mpf(10)**-45:
                want += c / (2 * k + 1)
                c *= (k + 2) / (b2 + k)
                k += 1
        assert abs(res.value - want) <= math.ulp(res.value)

    def test_ladder_first_certifies_at_256(self):
        # excess 1: its tail is never below tol / 4 early, so only the
        # ladder stops it, and not before its points reach K = 4
        for tol in (1e-3, 1e-8):
            res = hyp_pfq_at_1([0.5, 1.0, 2.0], [1.5, 3.0], tol=tol)
            assert res.terms_used == 256
            assert abs(res.value - 1.590862907413260412556) <= tol

    def test_early_certificate_is_stricter(self, monkeypatch):
        rows = ([0.5, 1.0, 2.0], [1.5, 3.0], 5e-10)
        assert hyp_pfq_at_1(*rows).terms_used == 512
        monkeypatch.setattr(specfun, "_EARLY_CHANGE", 0.5)
        assert hyp_pfq_at_1(*rows).terms_used == 256


class TestSeriesResult:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            SeriesResult(value=1.0, terms_used=0, tail_bound=0.0)
        with pytest.raises(ValueError):
            SeriesResult(value=1.0, terms_used=3, tail_bound=-1e-3)


KERNELS = (log_gamma, digamma, trigamma)
# beta itself and the shifted arguments the model formulas pass on
KERNEL_GRID = np.concatenate([np.logspace(-10, 10, 401) + off
                              for off in (0.0, 0.5, 1.5, 2.5)])


class TestArrayKernels:
    """The array path against the scalar path, element by element."""

    @pytest.mark.parametrize("fn", KERNELS, ids=lambda f: f.__name__)
    def test_matches_scalar_elementwise(self, fn):
        got = fn(KERNEL_GRID)
        want = np.array([fn(x) for x in KERNEL_GRID.tolist()])
        assert got.shape == KERNEL_GRID.shape
        # same operations and the same np.log: equal bit for bit, which
        # is stricter than the 1e-15 relative the models rely on
        np.testing.assert_array_equal(got, want)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(min_value=1e-10, max_value=1e10), min_size=1,
                    max_size=30),
           st.sampled_from(KERNELS))
    def test_property_matches_scalar(self, xs, fn):
        got = fn(np.array(xs))
        for g, x in zip(got.tolist(), xs):
            want = fn(x)
            assert abs(g - want) <= 1e-15 * abs(want)

    @pytest.mark.parametrize("fn", KERNELS, ids=lambda f: f.__name__)
    def test_shape_kept(self, fn):
        x = np.array([[0.3, 2.0], [7.5, 40.0]])
        assert fn(x).shape == (2, 2)
        assert fn(np.array(2.0)).shape == ()
        assert fn(np.array([])).shape == (0,)
        assert x[0, 0] == 0.3  # the argument is not shifted in place

    @pytest.mark.parametrize("fn", KERNELS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, -math.inf, math.nan])
    def test_bad_element_rejected(self, fn, bad):
        with pytest.raises(DomainError):
            fn(np.array([1.0, bad, 3.0]))

    @pytest.mark.parametrize("fn", KERNELS, ids=lambda f: f.__name__)
    def test_float_stays_float(self, fn):
        assert type(fn(2.5)) is float
        assert type(fn(0.01)) is float

    def test_huge_argument_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fn in KERNELS:
                # below 2**-511 trigamma raises (TestTrigammaFloor)
                tiny = 2.0**-511 if fn is trigamma else 1e-200
                got = fn(np.array([1e200, tiny]))
                assert got[0] == fn(1e200)


_TINY = 5e-324
_HUGE = sys.float_info.max
# Every numpy ufunc the library applies to a float and to an array alike,
# with the ends of the arguments it takes there and the points where the
# ufunc changes regime: 0, 1, the underflow and overflow thresholds of exp
# and expm1, where tanh reaches 1, the poles of arctanh.
UFUNC_EDGES = {
    "log": (0.0, _TINY, 2.0**-1022, 1.0 - 2.0**-53, 1.0, 1.0 + 2.0**-52, _HUGE),
    "log1p": (-1.0, -1.0 + 2.0**-53, -_TINY, 0.0, _TINY, 1e-16, 1.0, _HUGE),
    "exp": (-745.2, -745.1, -708.4, -_TINY, 0.0, _TINY, 1.0, 709.78, 709.8),
    "expm1": (-745.2, -37.5, -_TINY, 0.0, _TINY, 1e-16, 709.78, 709.8),
    "sqrt": (0.0, _TINY, 2.0**-1022, 1.0, 2.0, _HUGE),
    "tanh": (-_HUGE, -19.1, -_TINY, 0.0, _TINY, 1e-8, 19.1, 22.0, _HUGE),
    "arctanh": (-1.0, -1.0 + 2.0**-53, -_TINY, 0.0, _TINY, 1e-8, 0.5,
                1.0 - 2.0**-53, 1.0),
}


def _ufunc_arguments(name, count=20_000, seed=20261022):
    """``count`` seeded arguments inside the ufunc's domain: the edges and
    their neighbouring doubles, then magnitudes log-uniform over the
    domain's binades with either sign where the domain allows it."""
    edges = np.array(UFUNC_EDGES[name])
    lo, hi = edges.min(), edges.max()
    rng = np.random.default_rng(seed)
    with np.errstate(all="ignore"):  # inf past the largest double
        near = np.concatenate([np.nextafter(edges, -math.inf),
                               edges, np.nextafter(edges, math.inf)])
        draws = 4 * count  # enough that count of them lie in the domain
        magnitude = 2.0 ** rng.uniform(-1074.0, 1024.0, draws)
    sign = rng.choice((-1.0, 1.0), draws) if lo < 0 else 1.0
    # half of the draws on the part of the domain that holds the regimes
    scale = rng.uniform(lo, min(hi, 40.0), draws)
    x = np.where(rng.random(draws) < 0.5, sign * magnitude, scale)
    x = np.concatenate([near, x])
    return x[(x >= lo) & (x <= hi)][:count]


class TestUfuncPremise:
    """A numpy ufunc gives a Python float the bits it gives an array
    element, which the one rounding convention of the library rests on
    (``specfun``'s module docstring)."""

    @pytest.mark.parametrize("name", sorted(UFUNC_EDGES))
    def test_float_equals_array_element(self, name):
        ufunc = getattr(np, name)
        x = _ufunc_arguments(name)
        with np.errstate(all="ignore"):  # -inf, inf at the domain's ends
            array = ufunc(x)
            floats = np.array([ufunc(v) for v in x.tolist()])
        assert x.size == 20_000
        mismatched = x[array.view(np.int64) != floats.view(np.int64)]
        assert mismatched.tolist() == []


# [numerators, denominators, tol, value, tail_bound, terms_used], floats as
# float.hex (tests/ref/pfq_rows.py): the summator's numbers, pinned
PFQ_ROWS = [[[float.fromhex(x) for x in row[0]],
             [float.fromhex(x) for x in row[1]],
             *map(float.fromhex, row[2:5]), row[5]]
            for row in json.loads((Path(__file__).resolve().parent / "ref"
                                   / "pfq_rows.json").read_text())]


class TestPfqRowsPin:
    """Every pinned row bit for bit: KMB direct and Thomae rows, seeded
    random rows with 1 to 3 numerators, and the rows this suite sums."""

    def test_one_row_calls(self):
        for nums, dens, tol, value, bound, terms in PFQ_ROWS:
            res = hyp_pfq_at_1(nums, dens, tol)
            assert (res.value.hex(), res.tail_bound.hex(), res.terms_used) \
                == (value.hex(), bound.hex(), terms), (nums, dens, tol)
