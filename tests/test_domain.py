"""Argument domains: the one positive-scalar check and its callers, and
the modal pair at the corners of its energy domain."""

import dataclasses
import math
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest

from blochgibbs import (cli, duality, magnetics, models, oracles, priors,
                        quadrature, spectra, specfun)
from blochgibbs.errors import DomainError, QuadratureError
from blochgibbs.models import ModelKind

# caller -> (a call of one scalar argument, a float and an integer value
# it accepts); every scalar argument that goes through require_positive
CALLERS = {
    "log_gamma": (specfun.log_gamma, 2.5, 3),
    "digamma": (specfun.digamma, 2.5, 3),
    "trigamma": (specfun.trigamma, 2.5, 3),
    "half_shift_gamma": (specfun.half_shift_gamma, 2.5, 3),
    "mean_energy_series": (models.mean_energy_series, 0.8, 2),
    "modal_beta_estimate": (
        lambda E: models.modal_beta_estimate(ModelKind.COMPLEX, E), 0.7, 2),
    "modal_curvature": (
        lambda E: models.modal_curvature(ModelKind.KMB, E), 0.7, 2),
    "approx_beta_large": (models.approx_beta_large, 0.5, 2),
    "mean_energy_asymptotic": (
        lambda b: models.mean_energy_asymptotic(b, 3), 5.0, 5),
    "polarization_asymptotic": (models.polarization_asymptotic, 5.0, 5),
    "reflection_identity_residual": (
        models.reflection_identity_residual, 0.7, None),  # poles at integers
    "dual_density meanE": (
        lambda e: duality.dual_density(ModelKind.COMPLEX, e, 0.1), 16.3, 16),
    "run_duality_experiment": (
        lambda e: duality.run_duality_experiment(ModelKind.QUATERNIONIC, e),
        16.3, 16),
    "mean_beta_closed": (duality.mean_beta_closed, 16.3, 16),
    "var_beta_closed": (duality.var_beta_closed, 16.3, 16),
    "prior_over_meanE": (duality.prior_over_meanE, 16.3, 16),
    "brosseau_polarization": (magnetics.brosseau_polarization, 0.5, 2),
    "critical_beta": (magnetics.critical_beta, 1.5, 2),
    "order_parameter beta": (
        lambda b: magnetics.order_parameter(b, 1.0), 0.8, 1),
    "order_parameter lambda_mf": (
        lambda lam: magnetics.order_parameter(1.0, lam), 1.5, 2),
    "spectrum": (lambda b: spectra.spectrum(4, b), 0.7, 1),
    "zeta_matrix_oracle": (lambda b: spectra.zeta_matrix_oracle(2, b), 0.7, 1),
    "asymptotic_relent beta": (
        lambda b: spectra.asymptotic_relent(b, 2.5, 10), 0.7, 1),
    "asymptotic_relent E": (
        lambda E: spectra.asymptotic_relent(0.7, E, 10), 2.5, 2),
    "transform_to_gibbs": (
        lambda b: priors.transform_to_gibbs(
            priors.PriorKind(model=ModelKind.KMB, u=0.0), 1.0, b), 1.0, 1),
    "integrate_interval": (
        lambda tol: quadrature.integrate_interval(np.exp, 0.0, 1.0, tol), 1e-9,
        1),
    "integrate_semiinfinite": (
        lambda tol: quadrature.integrate_semiinfinite(
            lambda E: np.exp(-E), tol), 1e-9, 1),
    "cli": (lambda x: cli._require_positive(x, "--beta"), 0.7, 1),
}


@pytest.mark.parametrize("name", list(CALLERS))
def test_require_positive_callers(name):
    fn, good, whole = CALLERS[name]
    rejected = cli._UsageError if name == "cli" else DomainError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (0.0, -1.0, math.inf, -math.inf, math.nan, 0, -1, 10**400):
            with pytest.raises(rejected, match="must be finite and > 0"):
                fn(bad)
        fn(good)
        fn(np.float64(good))
        if whole is not None:
            fn(whole)
            fn(np.int64(whole))


@pytest.mark.parametrize("bad", [np.array(1.0), np.array([1.0]), "1.0", None,
                                 1j])
def test_require_positive_rejects_non_reals(bad):
    with pytest.raises(DomainError, match="log_gamma x must be finite"):
        specfun.require_positive(bad, "log_gamma x")


# every integer-n argument in spectra: the caller, and the name its
# DomainError gives
N_CALLERS = {
    "spectrum": (lambda n: spectra.spectrum(n, 1.0), "spectrum n"),
    "spin_sum_polarization": (
        lambda n: spectra.spin_sum_polarization(n, 1.0), "spectrum n"),
    "zeta_matrix_oracle": (
        lambda n: spectra.zeta_matrix_oracle(n, 1.0), "zeta_matrix_oracle n"),
    "relative_entropy_numeric": (
        lambda n: spectra.relative_entropy_numeric(
            oracles.DensityMatrix2(r=0.5, theta=0.0, phi=0.0), n, 1.0),
        "zeta_matrix_oracle n"),
    "asymptotic_relent": (
        lambda n: spectra.asymptotic_relent(1.0, 1.0, n),
        "asymptotic_relent n"),
}


@pytest.mark.parametrize("name", list(N_CALLERS))
def test_integer_n_callers(name):
    fn, what = N_CALLERS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (2.5, math.inf, -math.inf, math.nan, 0, -1, 0.999):
            with pytest.raises(DomainError,
                               match=f"{what} must be a positive integer"):
                fn(bad)
        fn(2)
        fn(2.0)
        fn(np.int64(2))


def test_asymptotic_relent_overflow_raises():
    with pytest.raises(DomainError, match="beta E overflows"):
        spectra.asymptotic_relent(1e10, 1e300, 10)


MODAL_E = [5e-324, 1e-300, 2.0**-511, 1e-8, 1.0, 700.0, 800.0, 1e308]
SMALLEST_NORMAL = 2.2250738585072014e-308


def _modal_reference(model, E, curvature):
    """d/dE ln Omega (or minus its derivative) in 60-digit arithmetic."""
    with mp.workdps(60):
        E = mp.mpf(E)
        if model is ModelKind.REAL:
            return mp.mpf(0)
        if model is ModelKind.KMB:
            r = mp.sqrt(-mp.expm1(-E))
            a = mp.log1p(r) + E / 2  # artanh r, exact in E as r -> 1
            if curvature:
                return (mp.exp(-E) * a / (2 * r) + mp.mpf(1) / 2) / (2 * (r * a)**2)
            return 1 / (2 * r * a)
        k = mp.mpf(model.m - 1) / 2
        if curvature:
            return k * mp.exp(E) / mp.expm1(E)**2
        return k / mp.expm1(E)


@pytest.mark.parametrize("curvature", [False, True])
@pytest.mark.parametrize("model", list(ModelKind))
@pytest.mark.parametrize("E", MODAL_E)
def test_modal_pair_domain(E, model, curvature):
    fn = models.modal_curvature if curvature else models.modal_beta_estimate
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if E < 2.0**-511:
            with pytest.raises(DomainError, match="2\\*\\*-511"):
                fn(model, E)
            return
        got = fn(model, E)
    assert type(got) is float and math.isfinite(got)
    want = _modal_reference(model, E, curvature)
    if abs(want) >= SMALLEST_NORMAL:
        assert abs(got - want) <= 1e-15 * abs(want)
    else:  # subnormal or below: the docstrings' absolute bound
        assert abs(got - want) <= 1e-323


# the corners of the three recurrence domains: below, at and above the
# floors 2**-1024 (digamma) and 2**-511 (trigamma), and on either side of
# log_gamma's ceiling 2.5563e305
KERNEL_CORNERS = [1e-320, 5.5e-309, 2.0**-511, 1.0, 2.5e305, 1e306]
# function, its mpmath reference, the docstring's accuracy relative to
# max(1, |value|), and its domain
KERNELS = {
    "log_gamma": (specfun.log_gamma, mp.loggamma, 1e-12,
                  lambda x: x <= 2.5563481638716906e305),
    "digamma": (specfun.digamma, mp.digamma, 1e-11, lambda x: x > 2.0**-1024),
    "trigamma": (specfun.trigamma, lambda x: mp.polygamma(1, x), 1e-10,
                 lambda x: x >= 2.0**-511),
}


@pytest.mark.parametrize("as_array", [False, True])
@pytest.mark.parametrize("name", list(KERNELS))
@pytest.mark.parametrize("x", KERNEL_CORNERS)
def test_recurrence_domain_corners(x, name, as_array):
    fn, reference, accuracy, inside = KERNELS[name]
    arg = np.array([x]) if as_array else x
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if not inside(x):
            with pytest.raises(DomainError, match=f"{name} requires"):
                fn(arg)
            return
        got = fn(arg)
    if as_array:
        assert got.shape == (1,)
        got = float(got[0])
    assert math.isfinite(got)
    with mp.workdps(40 + max(0, int(math.log10(x)))):
        want = reference(mp.mpf(x))
        assert abs(got - want) <= accuracy * max(1, abs(want))


@pytest.mark.parametrize("as_array", [False, True])
@pytest.mark.parametrize("model", models.POWER_LAW_MODELS)
@pytest.mark.parametrize("beta", KERNEL_CORNERS)
def test_power_law_moments_at_the_recurrence_corners(beta, model, as_array):
    # each moment is finite or raises DomainError, without a numpy warning;
    # where Z ~ 1/beta or <E> ~ 1/beta overflows, and above log_gamma's
    # ceiling, it raises (the finite values at large beta are not accurate:
    # the log_gamma differences cancel there); the real Z is 1/beta, which
    # has no ceiling
    point = models.GibbsPoint(model, np.array([beta]) if as_array else beta)
    real = model is ModelKind.REAL
    must_raise = {models.partition: beta < 5.56e-309
                  or beta > 2.6e305 and not real,
                  models.mean_energy: beta < 5.56e-309,
                  models.var_energy: beta < 2.0**-511,
                  models.mean_polarization: beta > 2.6e305}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn, raises in must_raise.items():
            if raises:
                with pytest.raises(DomainError):
                    fn(point)
            else:
                assert np.all(np.isfinite(fn(point))), fn.__name__
    if real and beta > 5.56e-309:
        assert np.all(models.partition(point) == 1.0 / beta)


# the ends of the real family's Z domain beta > 2**-1024 and points between
REAL_Z_BETAS = [math.nextafter(2.0**-1024, 1.0), 1e-300, 2.0**-511, 1e-10,
                7.0, 1e10, 1e306, sys.float_info.max]


@pytest.mark.parametrize("beta", REAL_Z_BETAS)
def test_real_partition_is_one_over_beta(beta):
    # Gamma(1) Gamma(beta) / Gamma(1 + beta) = 1/beta, correctly rounded,
    # a float equal to its array element bit for bit
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z = models.partition(models.GibbsPoint(ModelKind.REAL, beta))
        row = models.partition(models.GibbsPoint(ModelKind.REAL,
                                                 np.array([beta, 2.0])))
    assert type(z) is float
    assert z.hex() == (1.0 / beta).hex() == row[0].hex()
    with mp.workdps(40):
        assert z == float(1 / mp.mpf(beta))


@pytest.mark.parametrize("as_array", [False, True])
def test_real_partition_overflow_raises(as_array):
    # 1/beta is inf from 2**-1024 down; below it the corners test covers
    beta = 2.0**-1024
    point = models.GibbsPoint(ModelKind.REAL,
                              np.array([1.0, beta]) if as_array else beta)
    with pytest.raises(DomainError,
                       match="real partition overflows below beta of about"):
        models.partition(point)


@pytest.mark.parametrize("model,low,high", [
    ("real", "1e-320", "1e-300"), ("complex", "1e305", "1e307")])
def test_sweep_beyond_the_recurrence_domain_exits_3(model, low, high, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["sweep", "--model", model, "--beta-min", low,
                         "--beta-max", high, "--points", "3"])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err.startswith("numerical failure: ")
    assert "requires" in err or "overflows" in err


# every caller above (the CLI check aside) and langevin_partition at the
# extreme positive doubles: a finite value or DomainError, or at tiny x
# the QuadratureError that the quadrature entries document for a tol
# below reach and run_duality_experiment for a normaliser that has
# underflowed; never another exception, inf, NaN or a warning
EXTREME_ARGS = [5e-324, 1e-300, 2.0**-511, 1e300, 1.7e308]
EXTREME_CALLERS = {name: entry[0] for name, entry in CALLERS.items()
                   if name != "cli"}
EXTREME_CALLERS["langevin_partition"] = magnetics.langevin_partition


def _numbers(value):
    """Every float a result carries: its own, its array elements, and those
    of its tuple items and dataclass fields."""
    if dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from _numbers(getattr(value, field.name))
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _numbers(item)
    elif isinstance(value, (float, int, complex, np.ndarray, np.number)):
        flat = np.ravel(value)
        yield from flat.real.tolist() + flat.imag.tolist()


@pytest.mark.parametrize("x", EXTREME_ARGS)
@pytest.mark.parametrize("name", list(EXTREME_CALLERS))
def test_callers_at_extreme_positive_arguments(name, x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            got = EXTREME_CALLERS[name](x)
        except DomainError:
            return
        except QuadratureError:
            assert (name.startswith("integrate_") or
                    name == "run_duality_experiment") and x < 1e-15
            return
    values = list(_numbers(got))
    assert values and all(math.isfinite(v) for v in values), values
