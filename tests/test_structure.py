"""Timing-free guards on how the work is done: no quadrature behind the
integrated densities, one f call per root scan, and one pair of work
arrays per unit-argument series call."""

from pathlib import Path

import numpy as np

from blochgibbs import (magnetics, models, quadrature, rootfind, specfun,
                        verify)
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
