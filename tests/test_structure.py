"""Timing-free guards on how the work is done: no quadrature behind the
integrated densities, one f call per root scan, one pair of work arrays
per unit-argument series call, and one level-batched quadrature engine."""

from pathlib import Path

import numpy as np

from blochgibbs import (duality, magnetics, models, oracles, priors,
                        quadrature, rootfind, specfun, verify)
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


class TestSeriesWorkArrays:
    def test_one_buffer_serves_every_block(self, monkeypatch):
        buffers = []
        block_terms = specfun._block_terms

        def recording(a, b, k, t0, buf):
            buffers.append(buf)
            return block_terms(a, b, k, t0, buf)

        monkeypatch.setattr(specfun, "_block_terms", recording)
        betas = np.logspace(-1, 2, 200)
        models.mean_polarization(GibbsPoint(ModelKind.KMB, betas))
        assert len(buffers) > 4
        assert all(buf is buffers[0] for buf in buffers)


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
        verify._radial_norm(priors.PriorKind(tag=priors.PriorTag.KMB_Q, u=0.5))
        duality.run_duality_experiment(ModelKind.COMPLEX, 16.3)
        verify._quad_expectation(GibbsPoint(ModelKind.CLASSICAL, 0.3),
                                 lambda E: E)
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
