"""Named verification checks behind the CLI ``verify`` command.

Each check records a target, the computed value, the tolerance applied
and a pass flag; suites group them by module.  The full battery
re-derives every numerical constant the library is built around.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import (duality, magnetics, models, oracles, priors, quadrature,
               rootfind, spectra, specfun)
from .errors import BracketingError, DomainError
from .models import POWER_LAW_MODELS, GibbsPoint, ModelKind
from .specfun import per_element

__all__ = ["Check", "PAPER", "SUITES", "run_suite", "run_verify"]

_SQRT_PI = math.sqrt(math.pi)
_LN2 = math.log(2.0)

# The paper's quoted constants, typed once for verify and the tests: check
# name -> (value, tolerance), absolute except for the two KMB density
# crossings (relative); the two "_absent" crossings do not exist.
PAPER = {
    "stationary_point_beta": (0.457407, 1e-4),
    "stationary_point_E": (2.58527, 1e-4),
    "maximin_beta": (0.468733, 1e-5),
    "brosseau_crossing_quaternionic": (0.76007, 1e-4),
    "brosseau_crossing_complex": (1.04585, 1e-4),
    "brosseau_crossing_real": (1.46249, 1e-3),
    "brosseau_crossing_classical": (3.1857, 1e-3),
    "kmb_density_crossing_classical": (1.57565, 0.01),
    "kmb_density_crossing_real": (0.53341, 0.01),
    "kmb_density_crossing_complex_absent": (0.000111286, 0.0),
    "kmb_density_crossing_quaternionic_absent": (0.0000405489, 0.0),
    "dual_complex_normalizer": (0.984296, 0.002),
    "dual_complex_mean_beta": (0.0636579, 5e-4),
    "dual_complex_roundtrip": (16.2805, 0.02),
    "dual_quaternionic_normalizer": (0.902062, 0.002),
    "dual_quaternionic_mean_beta": (0.0664174, 5e-4),
    "dual_quaternionic_roundtrip": (16.2645, 0.02),
    "loglinear_intercept": (0.120782, 0.002),
    "kmb_polarization_gap_max": (0.0526, 5e-4),
    "kmb_polarization_gap_argmax": (0.49825, 0.01),
    "critical_beta_unit": (0.647175, 1e-6),
}


@dataclass(frozen=True)
class Check:
    check: str
    target: float
    got: float
    tolerance: float
    passed: bool


def _close(name: str, got: float, target: float, tol: float) -> Check:
    return Check(check=name, target=float(target), got=float(got),
                 tolerance=float(tol), passed=bool(abs(got - target) <= tol))


def _rel(name: str, got: float, target: float, rtol: float) -> Check:
    ok = abs(got - target) <= rtol * abs(target)
    return Check(check=name, target=float(target), got=float(got),
                 tolerance=float(rtol), passed=bool(ok))


def _flag(name: str, ok: bool, got: float = float("nan"),
          target: float = 1.0) -> Check:
    return Check(check=name, target=float(target), got=float(got),
                 tolerance=0.0, passed=bool(ok))


def _paper(name: str, got: float) -> Check:
    """The check of a quoted constant against its PAPER entry."""
    check = _rel if name.startswith("kmb_density_crossing") else _close
    return check(name, got, *PAPER[name])


def _worst(name: str, errors, tol: float) -> Check:
    """The check that the largest |error| of an array (or of a list of
    equal-length arrays, or of floats) is within tol of 0."""
    return _close(name, float(np.max(np.abs(errors))), 0.0, tol)


# ----------------------------------------------------------------- specfun


def _suite_specfun(seed: int) -> list[Check]:
    rng = np.random.default_rng(7)
    xs = 10 ** rng.uniform(-2, 2, 200)
    lg = specfun.log_gamma
    checks = [
        _worst("digamma_functional_equation",
               specfun.digamma(1 + xs) - specfun.digamma(xs) - 1 / xs, 1e-10),
        _close("digamma_at_half", specfun.digamma(0.5),
               -0.5772156649015328606 - 2 * _LN2, 1e-12),
        _close("trigamma_at_one", specfun.trigamma(1.0), math.pi**2 / 6, 1e-12),
        _close("trigamma_at_half", specfun.trigamma(0.5), math.pi**2 / 2, 1e-11),
        _close("log_gamma_at_half", specfun.log_gamma(0.5),
               0.5 * math.log(math.pi), 1e-14),
        _close("pochhammer_negative_hits_zero", specfun.pochhammer(-2.0, 4), 0.0, 0.0),
    ]
    dup = lg(2 * xs) - (lg(xs) + lg(xs + 0.5) + (2 * xs - 1) * _LN2
                        - 0.5 * math.log(math.pi))
    checks.append(_worst("log_gamma_duplication",
                         dup / np.maximum(1.0, np.abs(lg(2 * xs))), 1e-11))
    # central differences need x away from the origin, where psi''' ~ 6/x^4
    # would swamp the h^2 truncation budget
    h = 1e-5
    xs = 0.3 + (100.0 - 0.3) * rng.random(50)
    checks.append(_worst("digamma_vs_log_gamma_fd",
                         (lg(xs + h) - lg(xs - h)) / (2 * h)
                         - specfun.digamma(xs), 1e-6))
    checks.append(_worst("trigamma_vs_digamma_fd",
                         (specfun.digamma(xs + h) - specfun.digamma(xs - h))
                         / (2 * h) - specfun.trigamma(xs), 1e-5))
    # 3F2(1/2, 1, 2; 3/2, 3; 1), the KMB factor F(1) by its contiguous
    # relation
    checks.append(_close("hyp_3f2_unit_example",
                         models._kmb_3f2(np.array([1.0]))[0],
                         1.5908629074132602, 1e-10))
    return checks


# ------------------------------------------------------------------ models


def _per_family_partition(model: ModelKind, beta: np.ndarray) -> np.ndarray:
    # direct Gamma quotients: safe for beta <= 100, exactly the per-family
    # printed forms the unified expression must reproduce
    g = lambda x: per_element(math.gamma, x)
    if model is ModelKind.COMPLEX:
        return _SQRT_PI * g(beta) / (2 * g(1.5 + beta))
    if model is ModelKind.QUATERNIONIC:
        return 3 * _SQRT_PI * g(beta) / (4 * g(2.5 + beta))
    if model is ModelKind.REAL:
        return 1.0 / beta
    return _SQRT_PI * g(beta) / g(0.5 + beta)


def _suite_models(seed: int) -> list[Check]:
    betas = np.array([0.1, 0.5, 1.0, 2.0, 10.0, 100.0])
    refs = [_per_family_partition(m, betas) for m in POWER_LAW_MODELS]
    checks = [_worst("unified_partition_formula_rel",
                     [(models.partition(GibbsPoint(m, betas)) - ref) / ref
                      for m, ref in zip(POWER_LAW_MODELS, refs)], 1e-12)]
    checks.append(_close("partition_complex_beta1",
                         models.partition(GibbsPoint(ModelKind.COMPLEX, 1.0)),
                         2.0 / 3.0, 1e-14))
    checks.append(_close("partition_real_beta2",
                         models.partition(GibbsPoint(ModelKind.REAL, 2.0)),
                         0.5, 1e-14))
    checks.append(_close("partition_kmb_beta1",
                         models.partition(GibbsPoint(ModelKind.KMB, 1.0)),
                         2.0, 1e-13))

    checks.append(_worst("pdf_normalization", [
        quadrature.integrate_semiinfinite(
            lambda E: models.pdf(GibbsPoint(model, beta), E), tol=1e-9).value
        - 1.0 for model in ModelKind for beta in (0.3, 1.0, 3.0)], 1e-8))

    betas = np.array([0.5, 1.0, 3.0])
    err_mean, err_var = [], []
    for model in ModelKind:
        lz = lambda b: per_element(math.log,
                                   models.partition(GibbsPoint(model, b)))
        h = 1e-5
        num_mean = -(lz(betas + h) - lz(betas - h)) / (2 * h)
        h = 1e-4  # second difference amplifies rounding by 1/h^2
        num_var = (lz(betas + h) - 2 * lz(betas) + lz(betas - h)) / h**2
        point = GibbsPoint(model, betas)
        err_mean.append(num_mean - models.mean_energy(point))
        err_var.append(num_var - models.var_energy(point))
    checks.append(_worst("mean_energy_vs_logZ_fd", err_mean, 1e-6))
    checks.append(_worst("var_energy_vs_logZ_fd", err_var, 1e-5))

    betas = (0.3, 1.0, 3.0, 10.0)
    err_e, err_r = [], []
    for model in ModelKind:
        point = GibbsPoint(model, np.array(betas))
        for err, weight, exact in (
                (err_e, lambda E: E, models.mean_energy(point)),
                (err_r, models.omega_complex, models.mean_polarization(point))):
            quad = [quadrature.integrate_semiinfinite(
                lambda E: weight(E) * models.pdf(GibbsPoint(model, b), E),
                tol=1e-10).value for b in betas]
            err.append((quad - exact) / exact)
    checks.append(_worst("mean_energy_vs_quadrature_rel", err_e, 1e-8))
    checks.append(_worst("polarization_vs_quadrature_rel", err_r, 1e-8))

    # one array per family and moment; rows m descending, columns beta
    points = [GibbsPoint(m, np.logspace(-2, 2, 25)) for m in POWER_LAW_MODELS]
    ordered = all(bool(np.all(np.diff([fn(p) for p in points], axis=0) < 0))
                  for fn in (models.mean_polarization, models.mean_energy,
                             models.var_energy))
    checks.append(_flag("dominance_ordering_quat_complex_real_classical",
                        ordered))

    betas = (0.5, 1.0, 5.0)
    series = [models.mean_energy_series(beta) for beta in betas]
    exact = models.mean_energy(GibbsPoint(ModelKind.COMPLEX, np.array(betas)))
    checks.append(_worst("pochhammer_series_mean_energy",
                         [s.value for s in series] - exact, 1e-8))
    used = max(s.terms_used for s in series)
    checks.append(_flag("pochhammer_series_terms_within_1e4", used <= 10**4,
                        got=used))

    e0 = np.logspace(math.log10(0.01), math.log10(30.0), 40)
    om = models.omega_complex(e0)
    n = models.integrated_density(ModelKind.COMPLEX, e0)
    checks.append(_worst("integrated_density_inversion_identity",
                         om - per_element(math.tanh, (n + 2 * om) / 2), 1e-10))

    # naive atanh reference is well-conditioned only while 1 - om^2 is large
    e0 = np.logspace(-3, 0.7, 40)
    checks.append(_worst("kmb_structure_is_2atanh",
                         models.structure_function(ModelKind.KMB, e0)
                         - 2 * per_element(math.atanh, models.omega_complex(e0)),
                         1e-12))

    got = models.var_energy(GibbsPoint(ModelKind.COMPLEX, 100.0))
    checks.append(_rel("var_large_beta_3_over_2b2", got, 1.5 / 100.0**2, 0.03))

    r_c, r_q = (models.mean_polarization(GibbsPoint(m, 1.0))
                for m in (ModelKind.COMPLEX, ModelKind.QUATERNIONIC))
    checks.append(_close("polarization_complex_beta1", r_c, 0.75, 1e-13))
    checks.append(_close("polarization_quaternionic_beta1", r_q, 5.0 / 6.0,
                         1e-13))
    b = np.logspace(-2, 2, 30)
    ratio = (models.mean_polarization(GibbsPoint(ModelKind.QUATERNIONIC, b))
             / models.mean_polarization(GibbsPoint(ModelKind.COMPLEX, b)))
    checks.append(_worst("polarization_ratio_closed_form",
                         ratio - 2 * (3 + 2 * b) / (3 * (2 + b)), 1e-12))
    checks.append(_close("polarization_ratio_at_1", r_q / r_c, 10.0 / 9.0,
                         1e-13))

    betas = (10.0, 2.0, 4.0)
    approx = [models.mean_energy_asymptotic(b, 5) for b in betas]
    exact = models.mean_energy(GibbsPoint(ModelKind.COMPLEX, np.array(betas)))
    checks.append(_close("mean_energy_asymptotic_5term_beta10", approx[0],
                         exact[0], 1e-6))
    r2, r4 = np.abs(approx[1:] - exact[1:])
    checks.append(_close("mean_energy_asymptotic_order6_scaling",
                         r2 / r4 / 64.0, 1.0, 0.5))

    betas = (25.0, 100.0)
    exact = models.mean_polarization(GibbsPoint(ModelKind.COMPLEX,
                                                np.array(betas)))
    for beta, want, tol in zip(betas, exact, (1e-5, 1e-6)):
        checks.append(_close(f"polarization_asymptotic_beta{beta:g}",
                             models.polarization_asymptotic(beta), want, tol))
    miss = abs(models.polarization_asymptotic(1.0) - 0.75)
    checks.append(_flag("polarization_asymptotic_beta1_is_asymptotic_only",
                        miss > 0.01, got=miss))

    for beta in (0.25, 1.3):
        checks.append(_close(f"reflection_identity_residual_beta{beta}",
                             models.reflection_identity_residual(beta),
                             0.0, 1e-9))

    diff40 = (models.integrated_density(ModelKind.COMPLEX, 40.0)
              - models.integrated_density(ModelKind.QUATERNIONIC, 40.0))
    checks.append(_close("density_difference_limit_two_thirds", diff40,
                         2.0 / 3.0, 1e-8))
    e0 = np.linspace(0.1, 20, 30)
    diffs = (models.integrated_density(ModelKind.COMPLEX, e0)
             - models.integrated_density(ModelKind.QUATERNIONIC, e0))
    checks.append(_flag("density_difference_monotone_increasing",
                        np.all(np.diff(diffs) > 0)))

    gap_beta, gap = _kmb_gap_maximum()
    checks.append(_paper("kmb_polarization_gap_max", gap))
    checks.append(_paper("kmb_polarization_gap_argmax", gap_beta))

    for name, mean_e, rtol in (("moderate", 1.28037231, 0.20),
                               ("deep", 0.15, 0.03)):
        checks.append(_rel(f"approx_beta_large_{name}",
                           models.approx_beta_large(mean_e),
                           _solve_mean_energy_beta(mean_e), rtol))
    checks.append(_close("approx_beta_small_arithmetic",
                         models.approx_beta_small(16.3),
                         1.0 / (16.3 - 2.0 - _LN2), 1e-15))

    checks.append(_close("modal_estimate_complex_ln2",
                         models.modal_beta_estimate(ModelKind.COMPLEX, _LN2),
                         0.5, 1e-14))
    checks.append(_close("modal_estimate_real",
                         models.modal_beta_estimate(ModelKind.REAL, 5.0),
                         0.0, 0.0))
    h = 1e-6
    brute = (3 * math.log(float(models.omega_complex(_LN2 + h)))
             - 3 * math.log(float(models.omega_complex(_LN2 - h)))) / (2 * h)
    checks.append(_close("modal_estimate_quaternionic_ln2",
                         models.modal_beta_estimate(ModelKind.QUATERNIONIC, _LN2),
                         brute, 1e-8))

    # statistical smoke checks (seeded; acceptance-scale runs live in tests),
    # in place where they can be: at most two 1e5-row arrays live at once
    point = GibbsPoint(ModelKind.COMPLEX, 1.0)
    draws = oracles.sample_energy(point, rng_seed=seed, count=100_000)
    checks.append(_close("sampler_mean_100k", float(np.mean(draws)),
                         models.mean_energy(point), 0.012))
    del draws
    n = 100_000
    e_page = oracles.page_energy_samples(2, rng_seed=seed, count=n)
    e_page.sort()
    dev = oracles.energy_cdf(point, e_page)
    del e_page
    emp = np.arange(1.0, n + 1.0)
    emp /= n
    dev -= emp  # |cdf - emp| = |emp - cdf| exactly
    checks.append(_close("page_ks_m2_100k", float(np.abs(dev, out=dev).max()),
                         0.0, 0.006))
    return checks


def _kmb_gap_maximum() -> tuple[float, float]:
    """Maximum of the KMB-minus-complex polarization gap on [0.2, 1.2]:
    one 21-point grid call, then three parabola steps through three
    points around the best so far, their spacing 0.05, 2.5e-3 and
    1.25e-4, and the gap at the last vertex: five gap evaluations in all,
    against 51 one-beta ones of a golden-section search, which finds the
    same maximum to 4e-15."""
    def gap(b):
        return (models.mean_polarization(GibbsPoint(ModelKind.KMB, b))
                - models.mean_polarization(GibbsPoint(ModelKind.COMPLEX, b)))

    betas = np.linspace(0.2, 1.2, 21)
    x = float(betas[np.argmax(gap(betas))])
    step = 0.05
    for _ in range(3):
        f0, f1, f2 = gap(np.array([x - step, x, x + step])).tolist()
        x += 0.5 * step * (f0 - f2) / (f0 - 2.0 * f1 + f2)
        step *= 0.05
    return x, gap(x)


def _solve_mean_energy_beta(target: float) -> float:
    f = lambda b: models.mean_energy(GibbsPoint(ModelKind.COMPLEX, b)) - target
    lo, hi = rootfind.scan_bracket(f, 1e-3, 1e3, points=200)
    return rootfind.brent(f, lo, hi)


# ----------------------------------------------------------------- spectra


def _suite_spectra(seed: int) -> list[Check]:
    checks: list[Check] = []
    t1 = spectra.spectrum(1, 2.7)
    checks.append(_close("spectrum_n1_lambda", t1.entries[0].lam, 0.5, 1e-14))
    checks.append(_flag("spectrum_n1_multiplicity",
                        t1.entries[0].multiplicity == 2,
                        got=t1.entries[0].multiplicity, target=2.0))
    t2 = spectra.spectrum(2, 1.0)
    checks.append(_close("spectrum_n2_lambda0", t2.entries[0].lam, 0.3, 1e-13))
    checks.append(_close("spectrum_n2_lambda1", t2.entries[1].lam, 0.1, 1e-13))
    checks.append(_flag("spectrum_n2_multiplicities",
                        (t2.entries[0].multiplicity, t2.entries[1].multiplicity)
                        == (3, 1)))

    tables = [spectra.spectrum(n, beta)
              for n in range(1, 13) for beta in (0.3, 1.0, 3.0)]
    checks.append(_worst("spectrum_unit_trace_n_le_12",
                         [t.trace() - 1.0 for t in tables], 1e-10))
    checks.append(_flag("spectrum_multiplicities_sum_2n", all(
        sum(e.multiplicity for e in t.entries) == 2**t.n for t in tables)))

    checks.append(_close("spin_sum_n2_beta1",
                         spectra.spin_sum_polarization(2, 1.0), 0.9, 1e-13))
    checks.append(_close("spin_sum_n1", spectra.spin_sum_polarization(1, 0.7),
                         1.0, 1e-13))

    betas = (0.5, 1.0, 2.0)
    exact = models.mean_polarization(GibbsPoint(ModelKind.COMPLEX,
                                                np.array(betas)))
    gaps = np.array([[spectra.spin_sum_polarization(n, beta) for beta in betas]
                     for n in (100, 200, 400)]) - exact
    worst_ratio = float(np.max(np.abs(gaps[:-1] / gaps[1:] - 2.0)))
    checks.append(_flag("spin_sum_gap_halves_when_n_doubles",
                        worst_ratio <= 0.3, got=worst_ratio, target=0.0))

    checks.append(_worst("zeta_oracle_n1_identity_over_2",
                         spectra.zeta_matrix_oracle(1, 2.0) - np.eye(2) / 2,
                         1e-10))
    eig2 = np.sort(np.linalg.eigvalsh(spectra.zeta_matrix_oracle(2, 1.0)))
    checks.append(_worst("zeta_oracle_n2_eigs",
                         eig2 - np.array([0.1, 0.3, 0.3, 0.3]), 1e-6))
    z3 = spectra.zeta_matrix_oracle(3, 0.5)
    eig3 = np.sort(np.linalg.eigvalsh(z3))
    ref3 = np.sort(np.concatenate([[e.lam] * e.multiplicity
                                   for e in spectra.spectrum(3, 0.5).entries]))
    checks.append(_worst("zeta_oracle_n3_eigs_vs_closed_form", eig3 - ref3,
                         1e-6))
    checks.append(_close("zeta_oracle_n3_trace",
                         float(np.trace(z3).real), 1.0, 1e-8))
    checks.append(_flag("zeta_oracle_n3_psd", bool(np.all(eig3 >= 0)),
                        got=float(eig3[0])))

    mixed = oracles.DensityMatrix2(r=0.0, theta=0.0, phi=0.0)
    want = -2 * _LN2 - 0.25 * (3 * math.log(0.3) + math.log(0.1))
    checks.append(_close("relative_entropy_mixed_n2_beta1",
                         spectra.relative_entropy_numeric(mixed, 2, 1.0),
                         want, 1e-8))
    checks.append(_close("relative_entropy_mixed_n1_beta3",
                         spectra.relative_entropy_numeric(mixed, 1, 3.0),
                         0.0, 1e-9))
    nearly_pure = oracles.DensityMatrix2(r=0.999999, theta=1.0, phi=2.0)
    rel_pure = spectra.relative_entropy_numeric(nearly_pure, 2, 1.0)
    checks.append(_flag("relative_entropy_pure_nonnegative", rel_pure >= 0,
                        got=rel_pure))

    beta_st, e_st = spectra.solve_stationary_point()
    checks.append(_paper("stationary_point_beta", beta_st))
    checks.append(_paper("stationary_point_E", e_st))
    checks.append(_close("stationary_point_consistency", e_st,
                         models.mean_energy(GibbsPoint(ModelKind.COMPLEX, beta_st)),
                         1e-8))
    h = 1e-6
    gb = (spectra.asymptotic_relent(beta_st + h, e_st, 1000)
          - spectra.asymptotic_relent(beta_st - h, e_st, 1000)) / (2 * h)
    ge = (spectra.asymptotic_relent(beta_st, e_st + h, 1000)
          - spectra.asymptotic_relent(beta_st, e_st - h, 1000)) / (2 * h)
    checks.append(_close("stationary_point_gradient_norm",
                         math.hypot(gb, ge), 0.0, 1e-6))

    exact_e = models.mean_energy(GibbsPoint(ModelKind.COMPLEX, 1.0))
    gb1 = (spectra.asymptotic_relent(1.0 + h, exact_e, 50)
           - spectra.asymptotic_relent(1.0 - h, exact_e, 50)) / (2 * h)
    checks.append(_close("relent_beta_derivative_is_energy_condition",
                         gb1, 0.0, 1e-6))

    bmax = spectra.solve_maximin_beta()
    checks.append(_paper("maximin_beta", bmax))
    sub = rootfind.brent(lambda b: 2 * b**3 * (1.5 / b**2) - 1.0, 0.1, 2.0)
    checks.append(_close("maximin_with_approximate_variance", sub,
                         1.0 / 3.0, 1e-10))
    checks.append(_flag("solver_outputs_in_monotone_range",
                        0 < bmax <= 0.5 and 0 < beta_st <= 0.5,
                        got=max(bmax, beta_st), target=0.5))
    return checks


# ----------------------------------------------------------------- duality


def _suite_duality(seed: int) -> list[Check]:
    checks: list[Check] = []
    reports = {}
    for model in (ModelKind.COMPLEX, ModelKind.QUATERNIONIC):
        rep = reports[model] = duality.run_duality_experiment(model, 16.3)
        for field, got in (("normalizer", rep.normalizer),
                           ("mean_beta", rep.mean_beta),
                           ("roundtrip", rep.roundtrip_meanE)):
            checks.append(_paper(f"dual_{model.value}_{field}", got))

    # run_duality_experiment is deterministic: each mean energy runs once
    rep8 = duality.run_duality_experiment(ModelKind.COMPLEX, 8.0)
    rep12 = duality.run_duality_experiment(ModelKind.COMPLEX, 12.0)
    checks.append(_worst("dual_roundtrip_contraction", [
        (rep.roundtrip_meanE - meanE) / meanE for meanE, rep in
        ((8.0, rep8), (12.0, rep12), (16.3, reports[ModelKind.COMPLEX]))],
        0.005))

    quoted_miss = abs(PAPER["dual_complex_roundtrip"][0] - 16.3)
    checks.append(_flag("dual_roundtrip_graceful_at_8",
                        abs(rep8.roundtrip_meanE - 8.0) < quoted_miss,
                        got=abs(rep8.roundtrip_meanE - 8.0),
                        target=quoted_miss))

    checks.append(_rel("mean_beta_closed_vs_experiment",
                       duality.mean_beta_closed(16.3),
                       PAPER["dual_complex_mean_beta"][0], 0.15))
    checks.append(_rel("var_beta_small_meanE_limit",
                       duality.var_beta_closed(0.01) * 0.01**2, 1.5, 0.01))
    checks.append(_flag("dual_density_vanishes_at_infinity",
                        duality.dual_density(ModelKind.COMPLEX, 16.3, 100.0)
                        < 1e-300))

    a1, a2 = duality.prior_over_meanE(np.linspace(1.0, 30.0, 100))
    corr = float(np.corrcoef(np.log(a1), np.log(a2))[0, 1])
    checks.append(_flag("prior_curves_monotone_decreasing",
                        bool(np.all(np.diff(a1) < 0) and np.all(np.diff(a2) < 0))))
    checks.append(_flag("prior_curves_log_correlation", corr > 0.9, got=corr,
                        target=0.9))
    return checks


# --------------------------------------------------------------- magnetics


def _suite_magnetics(seed: int) -> list[Check]:
    checks: list[Check] = []
    checks.append(_close("brillouin_at_1", magnetics.brillouin_tanh(1.0),
                         0.76159415595576488, 1e-12))
    checks.append(_close("langevin_series_at_0.01", magnetics.langevin(0.01),
                         0.0033333111111, 1e-8))
    checks.append(_close("langevin_partition_at_1",
                         magnetics.langevin_partition(1.0), math.sinh(1.0), 1e-14))
    h = 1e-6
    fd = (math.log(magnetics.langevin_partition(2 + h))
          - math.log(magnetics.langevin_partition(2 - h))) / (2 * h)
    checks.append(_close("langevin_is_dlog_partition", fd,
                         magnetics.langevin(2.0), 1e-6))
    checks.append(_close("brosseau_at_1", magnetics.brosseau_polarization(1.0),
                         math.tanh(1.0), 1e-14))
    checks.append(_close("brosseau_at_half", magnetics.brosseau_polarization(0.5),
                         math.tanh(2.0), 1e-14))

    # in order of dominance, so the crossings must come out ascending
    roots = []
    for model in (ModelKind.QUATERNIONIC, ModelKind.COMPLEX, ModelKind.REAL,
                  ModelKind.CLASSICAL):
        roots.append(magnetics.intersect_brosseau(model).beta_star)
        checks.append(_paper(f"brosseau_crossing_{model.value}", roots[-1]))
    checks.append(_flag("brosseau_crossings_ordered",
                        np.all(np.diff(roots) > 0)))

    for model in (ModelKind.CLASSICAL, ModelKind.REAL):
        checks.append(_paper(f"kmb_density_crossing_{model.value}",
                             magnetics.kmb_density_crossing(model)))
    # The quoted complex and quaternionic crossings do not exist: the KMB
    # structure function dominates twice either one pointwise, so the
    # difference of integrated densities is strictly positive.  The checks
    # below document that absence.
    for model in (ModelKind.COMPLEX, ModelKind.QUATERNIONIC):
        name = f"kmb_density_crossing_{model.value}_absent"
        try:
            magnetics.kmb_density_crossing(model)
            found = True
        except BracketingError:
            found = False
        checks.append(_flag(name, not found, target=PAPER[name][0]))

    checks.append(_close("reduced_temperature_beta1",
                         magnetics.reduced_temperature(1.0),
                         math.atanh(0.75), 1e-13))
    bs = np.logspace(-1, 3, 40)
    vals = magnetics.reduced_temperature(bs)
    checks.append(_flag("reduced_temperature_decreasing",
                        bool(np.all(np.diff(vals) < 0))))
    checks.append(_close("reduced_temperature_log_at_e10",
                         math.log(magnetics.reduced_temperature(math.exp(10.0))),
                         PAPER["loglinear_intercept"][0] - 5.0, 1e-3))
    # two-term large-beta expansion of artanh <r>; next order is O(beta^-2)
    bs = np.array([1e3, 1e4])
    two_term = per_element(lambda b: 2.0 / math.sqrt(math.pi * b) + (
        32 - 15 * math.pi) / (12 * math.pi**1.5 * b**1.5), bs)
    checks.append(_worst("reduced_temperature_two_term_asymptotic",
                         (magnetics.reduced_temperature(bs) - two_term)
                         * bs**2, 5.0))
    slope, intercept = magnetics.loglinear_fit()
    checks.append(_close("loglinear_slope", slope, -0.5, 0.002))
    checks.append(_paper("loglinear_intercept", intercept))

    bc = magnetics.critical_beta(1.0)
    checks.append(_paper("critical_beta_unit", bc))
    checks.append(_close("critical_beta_linearity",
                         magnetics.critical_beta(2.0), 2 * bc, 1e-12))
    checks.append(_close("critical_beta_inversion", 4 * (2 * _LN2 - 1) * bc,
                         1.0, 1e-12))
    checks.append(_flag("order_parameter_zero_at_critical",
                        magnetics.order_parameter(bc, 1.0) == (0.0, 0.0)))
    plus, minus = magnetics.order_parameter(2 * bc, 1.0)
    checks.append(_close("order_parameter_at_2bc", plus, math.sqrt(0.5), 1e-12))
    eps = np.logspace(-4, -2, 30)
    op = [magnetics.order_parameter(bc / (1 - e), 1.0)[0] for e in eps]
    slope_op = float(np.polyfit(np.log(eps), np.log(op), 1)[0])
    checks.append(_close("order_parameter_loglog_slope", slope_op, 0.5, 1e-3))

    r = np.linspace(0.0, 0.95, 30)
    checks.append(_worst("half_log_ratio_is_atanh",
                         0.5 * (per_element(math.log1p, r)
                                - per_element(math.log1p, -r))
                         - per_element(math.atanh, r), 1e-12))
    r = np.linspace(0.05, 0.5, 10)
    part = r + r**3 / 3 + r**5 / 5
    checks.append(_flag("atanh_maclaurin_tail_bound", np.all(
        np.abs(per_element(math.atanh, r) - part) <= r**7 / (7 * (1 - r * r)))))
    return checks


# ------------------------------------------------------------------ priors


def _radial_norm(kind: priors.PriorKind) -> float:
    """Integral of the radial marginal via the r = sin(chi) substitution."""
    def f(chi):
        r = np.minimum(np.sin(chi), 1 - 1e-16)
        return priors.radial_density(kind, r) * np.cos(chi)

    return quadrature.integrate_interval(f, 0.0, math.pi / 2 - 1e-9,
                                         tol=1e-9).value


def _suite_priors(seed: int) -> list[Check]:
    checks = [_worst("prior_unit_mass_radial", [
        _radial_norm(priors.PriorKind(model=model, u=u)) - 1.0
        for model in ModelKind for u in (-1.0, 0.0, 0.5)], 1e-7)]

    kind0 = priors.PriorKind(model=ModelKind.COMPLEX, u=0.0)
    checks.append(_close("complex_prior_example_value",
                         priors.prior_density(kind0, 0.5, math.pi / 2, 1.0),
                         0.1875 / math.pi, 1e-10))
    kindr = priors.PriorKind(model=ModelKind.REAL, u=0.0)
    checks.append(_close("real_prior_example_value",
                         priors.prior_density(kindr, 0.5, 1.0),
                         0.5 / math.pi, 1e-12))

    es = np.linspace(0.05, 6.0, 20)
    checks.append(_worst("prior_transforms_to_gibbs_pdf", [
        priors.transform_to_gibbs(priors.prior_for_model(model, beta), es, beta)
        - models.pdf(GibbsPoint(model, beta), es)
        for model in ModelKind for beta in np.linspace(0.25, 4.0, 20)], 1e-10))

    rng = np.random.default_rng(11)
    errors = []
    for _ in range(100):
        x, y, z = rng.uniform(-0.55, 0.55, 3)
        if x * x + y * y + z * z >= 0.98 or min(abs(x), abs(y), abs(z)) < 1e-3:
            continue
        u = float(rng.uniform(-1.0, 0.9))
        rhs = priors.bloch_cartesian_density(u, x, y, z) / abs(x * y * z)
        errors.append(
            (priors.dirichlet_density(u, x * x, y * y, z * z) - rhs) / rhs)
    checks.append(_worst("dirichlet_jacobian_identity_rel", errors, 1e-10))

    try:
        priors.PriorKind(model=ModelKind.COMPLEX, u=1.2)
        rejected = False
    except DomainError:
        rejected = True
    checks.append(_flag("improper_u_range_rejected", rejected))
    return checks


# Every suite takes the verify seed; only the statistical smoke checks in
# "models" draw from it.
SUITES = {
    "specfun": _suite_specfun,
    "models": _suite_models,
    "spectra": _suite_spectra,
    "duality": _suite_duality,
    "magnetics": _suite_magnetics,
    "priors": _suite_priors,
}


def run_suite(name: str, seed: int = 12345) -> list[Check]:
    if name == "all":
        return [c for suite in SUITES.values() for c in suite(seed)]
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; know {sorted(SUITES)} and 'all'")
    return SUITES[name](seed)


def run_verify(suite: str = "all", seed: int = 12345) -> tuple[int, dict]:
    """Run a suite and build the machine-readable report.

    Exit code 0 iff every check passes, 1 otherwise.
    """
    checks = run_suite(suite, seed=seed)
    report = {
        "schema": 1,
        "suite": suite,
        "all_pass": all(c.passed for c in checks),
        "checks": [
            {"check": c.check, "target": c.target, "got": c.got,
             "tolerance": c.tolerance, "pass": c.passed}
            for c in checks
        ],
    }
    return (0 if report["all_pass"] else 1), report
