"""Acceptance battery: one test per exit criterion, each printing a
[PASS]/[FAIL] line (visible under pytest -s / -rA) and enforcing its
stated runtime budget.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from blochgibbs.magnetics import (critical_beta, intersect_brosseau,
                                  kmb_density_crossing, loglinear_fit,
                                  order_parameter)
from blochgibbs.models import (GibbsPoint, ModelKind, POWER_LAW_MODELS,
                               integrated_density, mean_energy,
                               mean_energy_asymptotic, mean_polarization,
                               omega_complex, partition, pdf,
                               polarization_asymptotic, structure_function,
                               var_energy)
from blochgibbs.oracles import energy_cdf, page_energy_samples, sample_energy
from blochgibbs.quadrature import integrate_semiinfinite
from blochgibbs.duality import run_duality_experiment
from blochgibbs.spectra import (solve_maximin_beta, solve_stationary_point,
                                spectrum, spin_sum_polarization,
                                zeta_matrix_oracle)

ALL_MODELS = POWER_LAW_MODELS + (ModelKind.KMB,)
SEED = 20250808


@contextmanager
def criterion(name: str, seconds: float):
    t0 = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - t0
        assert elapsed < seconds, \
            f"{name}: runtime {elapsed:.2f}s exceeds the {seconds:.0f}s budget"
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name} ({elapsed:.2f}s)")


def test_criterion_01_stationary_point():
    with criterion("criterion 1: stationary point (0.457407, 2.58527)", 1.0):
        beta, energy = solve_stationary_point()
        assert beta == pytest.approx(0.457407, abs=1e-4)
        assert energy == pytest.approx(2.58527, abs=1e-4)


def test_criterion_02_maximin():
    with criterion("criterion 2: maximin beta 0.468733 and 1/3 variant", 1.0):
        assert solve_maximin_beta() == pytest.approx(0.468733, abs=1e-5)
        from blochgibbs.rootfind import brent
        simplified = brent(lambda b: 2 * b**3 * (1.5 / b**2) - 1.0, 0.1, 2.0)
        assert simplified == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_criterion_03_duality_round_trips():
    with criterion("criterion 3: duality round trips at <E> = 16.3", 10.0):
        rep = run_duality_experiment(ModelKind.COMPLEX, 16.3)
        assert rep.normalizer == pytest.approx(0.984296, abs=0.002)
        assert rep.mean_beta == pytest.approx(0.0636579, abs=5e-4)
        assert rep.roundtrip_meanE == pytest.approx(16.2805, abs=0.02)
        rep = run_duality_experiment(ModelKind.QUATERNIONIC, 16.3)
        assert rep.normalizer == pytest.approx(0.902062, abs=0.002)
        assert rep.mean_beta == pytest.approx(0.0664174, abs=5e-4)
        assert rep.roundtrip_meanE == pytest.approx(16.2645, abs=0.02)


def test_criterion_04_brosseau_crossings():
    with criterion("criterion 4: tanh(1/beta) crossings", 1.0):
        targets = [(ModelKind.QUATERNIONIC, 0.76007),
                   (ModelKind.COMPLEX, 1.04585),
                   (ModelKind.REAL, 1.46249),
                   (ModelKind.CLASSICAL, 3.1857)]
        for model, want in targets:
            assert intersect_brosseau(model).beta_star == \
                pytest.approx(want, abs=1e-3)


def test_criterion_05a_density_crossings_classical_real_and_limit():
    with criterion("criterion 5a: KMB density crossings (classical, real) "
                   "and the 2/3 limit", 5.0):
        assert kmb_density_crossing(ModelKind.CLASSICAL) == \
            pytest.approx(1.57565, rel=0.01)
        assert kmb_density_crossing(ModelKind.REAL) == \
            pytest.approx(0.53341, rel=0.01)
        diff = (integrated_density(ModelKind.COMPLEX, 40.0)
                - integrated_density(ModelKind.QUATERNIONIC, 40.0))
        assert diff == pytest.approx(2.0 / 3.0, abs=1e-8)


def test_criterion_05b_density_crossings_complex_quaternionic():
    # Stated targets: 0.000111286 (complex) and 0.0000405489 (quaternionic).
    # No such roots exist: the KMB structure function dominates twice either
    # curve pointwise, so N_kmb - N_model stays strictly positive; this
    # faithful implementation of the criterion is expected to fail.
    with criterion("criterion 5b: KMB density crossings (complex, "
                   "quaternionic)", 5.0):
        assert kmb_density_crossing(ModelKind.COMPLEX) == \
            pytest.approx(0.000111286, rel=0.01)
        assert kmb_density_crossing(ModelKind.QUATERNIONIC) == \
            pytest.approx(0.0000405489, rel=0.01)


def test_criterion_06_loglinear_law():
    with criterion("criterion 6: log-linear slope -0.5, intercept 0.120782",
                   1.0):
        slope, intercept = loglinear_fit()
        assert slope == pytest.approx(-0.5, abs=0.002)
        assert intercept == pytest.approx(0.120782, abs=0.002)


def test_criterion_07_kmb_polarization_gap():
    with criterion("criterion 7: KMB polarization gap 0.0526 at 0.49825",
                   10.0):
        def gap(b):
            return (mean_polarization(GibbsPoint(ModelKind.KMB, b))
                    - mean_polarization(GibbsPoint(ModelKind.COMPLEX, b)))

        # golden-section maximum over the bracket around the quoted point
        invphi = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = 0.2, 1.2
        c, d = b - invphi * (b - a), a + invphi * (b - a)
        fc, fd = gap(c), gap(d)
        for _ in range(60):
            if fc > fd:
                b, d, fd = d, c, fc
                c = b - invphi * (b - a)
                fc = gap(c)
            else:
                a, c, fc = c, d, fd
                d = a + invphi * (b - a)
                fd = gap(d)
        beta_star = 0.5 * (a + b)
        assert gap(beta_star) == pytest.approx(0.0526, abs=5e-4)
        assert beta_star == pytest.approx(0.49825, abs=0.01)


def test_criterion_08_mean_field():
    with criterion("criterion 8: critical beta and order-parameter exponent",
                   1.0):
        assert critical_beta(1.0) == pytest.approx(0.647175, abs=1e-6)
        bc = critical_beta(1.0)
        eps = np.logspace(-4, -2, 40)
        vals = [order_parameter(bc / (1 - e), 1.0)[0] for e in eps]
        slope = np.polyfit(np.log(eps), np.log(vals), 1)[0]
        assert slope == pytest.approx(0.5, abs=1e-3)


def test_criterion_09_oracle_equivalence():
    with criterion("criterion 9: closed forms vs oracles "
                   "(quadrature, spectra, Monte Carlo)", 300.0):
        # quadrature equivalence for Z, <E>, var, <r>, all five families
        for model in ALL_MODELS:
            for beta in (0.3, 1.0, 3.0, 10.0):
                point = GibbsPoint(model, beta)
                z = integrate_semiinfinite(
                    lambda E: np.exp(-beta * np.asarray(E, float))
                    * structure_function(model, E), tol=1e-10).value
                assert z == pytest.approx(partition(point), rel=1e-8)
                me = integrate_semiinfinite(
                    lambda E: np.asarray(E, float) * pdf(point, E),
                    tol=1e-10).value
                assert me == pytest.approx(mean_energy(point), rel=1e-8)
                mu = me
                vr = integrate_semiinfinite(
                    lambda E: (np.asarray(E, float) - mu) ** 2 * pdf(point, E),
                    tol=1e-10).value
                assert vr == pytest.approx(var_energy(point), rel=1e-8)
                pol = integrate_semiinfinite(
                    lambda E: omega_complex(E) * pdf(point, E),
                    tol=1e-10).value
                assert pol == pytest.approx(mean_polarization(point), rel=1e-8)

        # tensor quadrature eigenvalues against the closed-form spectrum
        for n in (1, 2, 3):
            for beta in (0.5, 1.0):
                z = zeta_matrix_oracle(n, beta)
                eig = np.sort(np.linalg.eigvalsh(z))
                want = np.sort(np.concatenate(
                    [[e.lam] * e.multiplicity
                     for e in spectrum(n, beta).entries]))
                assert np.max(np.abs(eig - want)) < 1e-6

        # spin sums approach the polarization law at rate 1/n
        for beta in (0.5, 1.0, 2.0):
            exact = mean_polarization(GibbsPoint(ModelKind.COMPLEX, beta))
            gaps = [spin_sum_polarization(n, beta) - exact
                    for n in (100, 200, 400)]
            assert gaps[0] / gaps[1] == pytest.approx(2.0, abs=0.3)
            assert gaps[1] / gaps[2] == pytest.approx(2.0, abs=0.3)

        # reduced Haar-random states follow the complex family at beta = m-1
        for m in (2, 3):
            e = np.sort(page_energy_samples(m, rng_seed=SEED, count=1_000_000))
            cdf = energy_cdf(GibbsPoint(ModelKind.COMPLEX, float(m - 1)), e)
            emp = np.arange(1, len(e) + 1) / len(e)
            ks = max(np.max(np.abs(emp - cdf)),
                     np.max(np.abs(cdf - emp + 1.0 / len(e))))
            assert ks < 0.002

        # inverse-CDF sampler reproduces the first two moments
        point = GibbsPoint(ModelKind.COMPLEX, 1.0)
        draws = sample_energy(point, rng_seed=SEED, count=1_000_000)
        assert np.mean(draws) == pytest.approx(mean_energy(point), abs=0.004)
        assert np.var(draws, ddof=1) == pytest.approx(var_energy(point),
                                                      abs=0.01)


def test_criterion_10_asymptotic_expansions():
    with criterion("criterion 10: asymptotic expansions", 1.0):
        exact = mean_energy(GibbsPoint(ModelKind.COMPLEX, 10.0))
        assert abs(mean_energy_asymptotic(10.0, 5) - exact) <= 1e-6
        exact = mean_polarization(GibbsPoint(ModelKind.COMPLEX, 25.0))
        assert abs(polarization_asymptotic(25.0) - exact) <= 1e-5
