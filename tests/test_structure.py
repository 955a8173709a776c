"""Timing-free guards on how the work is done: no quadrature behind the
integrated densities, one f call per root scan, the terms a unit-argument
series spends and no library call of that summator, no log-gamma behind
the spectrum, one level-batched quadrature engine, oracles whose work
arrays do not grow with the draw or point count, and a light CLI import."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from blochgibbs import (duality, magnetics, models, oracles, priors,
                        quadrature, rootfind, specfun, spectra, verify)
from blochgibbs.errors import BracketingError
from blochgibbs.figures import render_figure_csv
from blochgibbs.models import POWER_LAW_MODELS, GibbsPoint, ModelKind

REF = Path(__file__).resolve().parent / "ref"


def _no_quadrature(*args, **kwargs):
    raise AssertionError("quadrature called")


def _density_crossings():
    out = {}
    for model in POWER_LAW_MODELS:
        try:
            out[model] = magnetics.kmb_density_crossing(model)
        except BracketingError:
            out[model] = None
    return out


def _brosseau_crossings():
    return [magnetics.intersect_brosseau(m) for m in POWER_LAW_MODELS]


class TestNoQuadrature:
    def test_models_does_not_import_quadrature(self):
        assert "quadrature" not in vars(models)

    def test_results_unchanged_with_quadrature_disabled(self, monkeypatch):
        crossings, brosseau = _density_crossings(), _brosseau_crossings()
        assert crossings[ModelKind.COMPLEX] is None
        assert crossings[ModelKind.QUATERNIONIC] is None
        assert None not in (crossings[ModelKind.CLASSICAL],
                            crossings[ModelKind.REAL])
        monkeypatch.setattr(quadrature, "integrate_interval", _no_quadrature)
        monkeypatch.setattr(quadrature, "integrate_semiinfinite",
                            _no_quadrature)
        assert render_figure_csv("fig4") == (REF / "fig4.csv").read_text()
        assert _density_crossings() == crossings
        assert _brosseau_crossings() == brosseau


class TestOneCallScans:
    def test_each_scan_calls_f_once(self, monkeypatch):
        calls = []
        scan = rootfind.scan_bracket

        def counting_scan(f, *args, **kwargs):
            count = 0

            def counted(x):
                nonlocal count
                count += 1
                return f(x)

            try:
                return scan(counted, *args, **kwargs)
            finally:
                calls.append(count)

        monkeypatch.setattr(rootfind, "scan_bracket", counting_scan)
        _density_crossings()
        _brosseau_crossings()
        verify._solve_mean_energy_beta(0.15)
        assert calls == [1] * 9


def _kmb_row_terms(rows, betas):
    nums, dens = rows(betas)
    return [specfun.hyp_pfq_at_1([x[i] for x in nums], [x[i] for x in dens],
                                 1e-13).terms_used
            for i in range(len(betas))]


class TestSeriesTermCounts:
    """The known-exponent ladder certifies the KMB 3F2 rows within 512
    terms; a rule that estimates the decay exponent instead runs most of
    them to 4,096 terms, and the excess-0.3 row to 32,768."""

    def test_kmb_grid_rows_stop_at_the_first_block(self, kmb_3f2_rows):
        terms = _kmb_row_terms(kmb_3f2_rows, np.logspace(-1, 1, 200))
        assert max(terms) <= 512

    def test_kmb_large_beta_rows_stop_within_256(self, kmb_3f2_rows):
        # from beta = 10 the direct series falls below half an ulp of its
        # sum within 128 or 256 terms
        terms = _kmb_row_terms(kmb_3f2_rows, np.logspace(1, 3, 200))
        assert max(terms) <= 256

    def test_kmb_polarization_calls_no_summator(self, monkeypatch):
        # the KMB 3F2 factor and the Pochhammer series of the complex <E>
        # are fixed-length series and a contiguous relation, at every beta;
        # verify's 3F2 example is that factor too, so no check sums a series
        def refuse(*args):
            raise AssertionError("hyp_pfq_at_1 called")

        monkeypatch.setattr(specfun, "hyp_pfq_at_1", refuse)
        betas = np.concatenate(([0.0, 5e-324], np.logspace(-10, 11, 300)))
        models.mean_polarization(GibbsPoint(ModelKind.KMB, betas))
        for b in (1e-300, 0.5, 2.65, 5.0, 20.0, 50.0, 1e11):
            models.mean_polarization(GibbsPoint(ModelKind.KMB, b))
        for b in (2.0**-511, 0.5, 20.0, 1e300):
            models.mean_energy_series(b)
        assert all(c.passed for c in verify.run_suite("all"))

    def test_slow_excess_row(self):
        res = specfun.hyp_pfq_at_1([0.5, 1.0, 2.0], [1.5, 2.3], tol=1e-10)
        assert res.terms_used <= 1024


class TestNoLogGammaSpectrum:
    def test_spectrum_calls_no_log_gamma(self, monkeypatch):
        # lambda_{n,d} by its ratio recurrence, not by log-gamma differences
        def refuse(*args):
            raise AssertionError("log_gamma called")

        # spectra binds no log_gamma of its own (asymptotic_relent takes
        # the half-shift L)
        assert "log_gamma" not in vars(spectra)
        monkeypatch.setattr(specfun, "log_gamma", refuse)
        for n in (1, 2, 13, 1028):
            for b in (2.0**-511, 1.0, 1e5, 1e300):
                spectra.spectrum(n, b)
                spectra.spin_sum_polarization(n, b)


def _recording(f, calls):
    def recorded(x):
        calls.append(x)
        return f(x)
    return recorded


class TestOneQuadratureEngine:
    def test_each_call_of_f_gets_one_flat_float_array(self, monkeypatch):
        calls = []
        for module, name in ((quadrature, "integrate_interval"),
                             (quadrature, "integrate_semiinfinite"),
                             (oracles, "panel_integrals")):
            entry = getattr(module, name)
            monkeypatch.setattr(
                module, name,
                lambda f, *a, entry=entry, **k: entry(_recording(f, calls),
                                                      *a, **k))
        # the KMB prior's endpoint log singularity takes several levels
        verify._radial_norm(priors.PriorKind(model=ModelKind.KMB, u=0.5))
        duality.run_duality_experiment(ModelKind.COMPLEX, 16.3)
        point = GibbsPoint(ModelKind.CLASSICAL, 0.3)
        quadrature.integrate_semiinfinite(lambda E: E * models.pdf(point, E),
                                          tol=1e-10)
        oracles.EnergyInverter(GibbsPoint(ModelKind.KMB, 0.7))
        assert len(calls) > 10
        for x in calls:
            assert type(x) is np.ndarray
            assert x.ndim == 1 and x.dtype == np.float64

    def test_gibbs_mean_energy_takes_at_most_three_calls(self):
        point = GibbsPoint(ModelKind.COMPLEX, 1.0)
        calls = []
        res = quadrature.integrate_semiinfinite(
            _recording(lambda E: E * models.pdf(point, E), calls), tol=1e-10)
        assert abs(res.value - models.mean_energy(point)) <= 1e-10
        assert len(calls) <= 3

    def test_duality_experiment_takes_at_most_22_density_calls(
            self, monkeypatch):
        calls = []
        density = duality.dual_density

        def counted(model, meanE, beta):
            calls.append(beta)
            return density(model, meanE, beta)

        monkeypatch.setattr(duality, "dual_density", counted)
        duality.run_duality_experiment(ModelKind.COMPLEX, 16.3)
        assert len(calls) <= 22

    def test_semiinfinite_does_not_call_interval(self, monkeypatch):
        monkeypatch.setattr(quadrature, "integrate_interval", _no_quadrature)
        for model in ModelKind:
            point = GibbsPoint(model, 2.0)
            res = quadrature.integrate_semiinfinite(
                lambda E: models.pdf(point, E), tol=1e-10)
            assert abs(res.value - 1.0) <= 1e-10


def _peak_mb(fn):
    """Peak of the numpy and Python allocations made while fn runs, in MB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    # 1e5 float64 draws are 0.8 MB and the chunked work arrays about 2 MB
    # more; one complex array of all 1e5 states of C^2 (x) C^m is 3.2 m MB
    LIMIT_MB = 4.0

    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_page_monte_carlo(self, m):
        peak = _peak_mb(lambda: oracles.page_energy_samples(m, 1, 100_000))
        assert peak <= self.LIMIT_MB

    @pytest.mark.parametrize("model", [ModelKind.COMPLEX, ModelKind.CLASSICAL,
                                       ModelKind.KMB])
    def test_inverse_cdf_sampler(self, model):
        point = GibbsPoint(model, 1.0)
        peak = _peak_mb(lambda: oracles.sample_energy(point, 1, 100_000))
        assert peak <= self.LIMIT_MB

    # a one-piece CDF of 1e5 points makes about a dozen 0.8 MB
    # temporaries (10.5 MB); per chunk it is the output plus about 0.6 MB
    def test_energy_cdf(self):
        point = GibbsPoint(ModelKind.COMPLEX, 1.0)
        energies = np.sort(oracles.page_energy_samples(2, 1, 100_000))
        assert _peak_mb(lambda: oracles.energy_cdf(point, energies)) <= 2.0

    # one call of g on all 61,440 Kronrod nodes of the grid peaks at 3.1 MB
    @pytest.mark.parametrize("model", [ModelKind.CLASSICAL, ModelKind.KMB])
    def test_inverter_build(self, model):
        point = GibbsPoint(model, 1.0)
        assert _peak_mb(lambda: oracles.EnergyInverter(point)) <= 1.0

    # verify's sampler and KS checks with four live 1e5-row arrays and a
    # one-piece CDF peak at 12.9 MB
    def test_verify_models_suite(self):
        assert _peak_mb(lambda: verify._suite_models(0)) <= self.LIMIT_MB


class TestImportWeight:
    # numpy.random alone adds about 10 ms to every interpreter start that
    # imports the CLI; scipy and mpmath are test and reference tools only
    HEAVY = ("numpy.random", "scipy", "mpmath")

    def test_cli_import_and_sweeps_leave_heavy_modules_out(self):
        script = ("import contextlib, io, sys\n"
                  "import blochgibbs.cli\n"
                  f"heavy = {self.HEAVY!r}\n"
                  "print([m for m in heavy if m in sys.modules])\n"
                  "with contextlib.redirect_stdout(io.StringIO()):\n"
                  "    for name in ('real', 'complex', 'quat', 'class', 'kmb'):\n"
                  "        blochgibbs.cli.main(['sweep', '--model', name])\n"
                  "print([m for m in heavy if m in sys.modules])\n")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve()
                                              .parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n[]\n"
