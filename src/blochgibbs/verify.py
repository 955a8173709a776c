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
               spectra, specfun)
from .errors import BracketingError
from .models import POWER_LAW_MODELS, GibbsPoint, ModelKind

__all__ = ["Check", "SUITES", "run_suite", "run_verify"]

_SQRT_PI = math.sqrt(math.pi)
_LN2 = math.log(2.0)


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


# ----------------------------------------------------------------- specfun


def _suite_specfun(seed: int) -> list[Check]:
    rng = np.random.default_rng(7)
    xs = 10 ** rng.uniform(-2, 2, 200)
    worst = max(abs(specfun.digamma(1 + x) - specfun.digamma(x) - 1 / x)
                for x in xs)
    checks = [
        _close("digamma_functional_equation", worst, 0.0, 1e-10),
        _close("digamma_at_half", specfun.digamma(0.5),
               -0.5772156649015328606 - 2 * _LN2, 1e-12),
        _close("trigamma_at_one", specfun.trigamma(1.0), math.pi**2 / 6, 1e-12),
        _close("trigamma_at_half", specfun.trigamma(0.5), math.pi**2 / 2, 1e-11),
        _close("log_gamma_at_half", specfun.log_gamma(0.5),
               0.5 * math.log(math.pi), 1e-14),
        _close("pochhammer_negative_hits_zero", specfun.pochhammer(-2.0, 4), 0.0, 0.0),
    ]
    dup = max(abs(specfun.log_gamma(2 * x)
                  - (specfun.log_gamma(x) + specfun.log_gamma(x + 0.5)
                     + (2 * x - 1) * _LN2 - 0.5 * math.log(math.pi)))
              / max(1.0, abs(specfun.log_gamma(2 * x))) for x in xs)
    checks.append(_close("log_gamma_duplication", dup, 0.0, 1e-11))
    # central differences need x away from the origin, where psi''' ~ 6/x^4
    # would swamp the h^2 truncation budget
    h = 1e-5
    xs_fd = 0.3 + (100.0 - 0.3) * rng.random(50)
    fd = max(abs((specfun.log_gamma(x + h) - specfun.log_gamma(x - h)) / (2 * h)
                 - specfun.digamma(x)) for x in xs_fd)
    checks.append(_close("digamma_vs_log_gamma_fd", fd, 0.0, 1e-6))
    fd2 = max(abs((specfun.digamma(x + h) - specfun.digamma(x - h)) / (2 * h)
                  - specfun.trigamma(x)) for x in xs_fd)
    checks.append(_close("trigamma_vs_digamma_fd", fd2, 0.0, 1e-5))
    res = specfun.hyp_pfq_at_1([0.5, 1.0, 2.0], [1.5, 3.0], tol=1e-12)
    checks.append(_close("hyp_3f2_unit_example", res.value,
                         1.5908629074132602, 1e-10))
    return checks


# ------------------------------------------------------------------ models


def _per_family_partition(model: ModelKind, beta: float) -> float:
    # direct Gamma quotients: safe for beta <= 100, exactly the per-family
    # printed forms the unified expression must reproduce
    g = math.gamma
    if model is ModelKind.COMPLEX:
        return _SQRT_PI * g(beta) / (2 * g(1.5 + beta))
    if model is ModelKind.QUATERNIONIC:
        return 3 * _SQRT_PI * g(beta) / (4 * g(2.5 + beta))
    if model is ModelKind.REAL:
        return 1.0 / beta
    return _SQRT_PI * g(beta) / g(0.5 + beta)


def _quad_expectation(point: GibbsPoint, weight) -> float:
    f = lambda E: weight(E) * models.pdf(point, E)
    return quadrature.integrate_semiinfinite(f, tol=1e-10).value


def _suite_models(seed: int) -> list[Check]:
    checks: list[Check] = []

    worst = 0.0
    for beta in (0.1, 0.5, 1.0, 2.0, 10.0, 100.0):
        for model in POWER_LAW_MODELS:
            mine = models.partition(GibbsPoint(model, beta))
            ref = _per_family_partition(model, beta)
            worst = max(worst, abs(mine - ref) / abs(ref))
    checks.append(_close("unified_partition_formula_rel", worst, 0.0, 1e-12))

    checks.append(_close("partition_complex_beta1",
                         models.partition(GibbsPoint(ModelKind.COMPLEX, 1.0)),
                         2.0 / 3.0, 1e-14))
    checks.append(_close("partition_real_beta2",
                         models.partition(GibbsPoint(ModelKind.REAL, 2.0)),
                         0.5, 1e-14))
    checks.append(_close("partition_kmb_beta1",
                         models.partition(GibbsPoint(ModelKind.KMB, 1.0)),
                         2.0, 1e-13))

    worst = 0.0
    for model in ModelKind:
        for beta in (0.3, 1.0, 3.0):
            res = quadrature.integrate_semiinfinite(
                lambda E: models.pdf(GibbsPoint(model, beta), E), tol=1e-9)
            worst = max(worst, abs(res.value - 1.0))
    checks.append(_close("pdf_normalization", worst, 0.0, 1e-8))

    worst_mean = worst_var = 0.0
    for model in ModelKind:
        for beta in (0.5, 1.0, 3.0):
            lz = lambda b: math.log(models.partition(GibbsPoint(model, b)))
            h = 1e-5
            num_mean = -(lz(beta + h) - lz(beta - h)) / (2 * h)
            h = 1e-4  # second difference amplifies rounding by 1/h^2
            num_var = (lz(beta + h) - 2 * lz(beta) + lz(beta - h)) / h**2
            worst_mean = max(worst_mean, abs(
                num_mean - models.mean_energy(GibbsPoint(model, beta))))
            worst_var = max(worst_var, abs(
                num_var - models.var_energy(GibbsPoint(model, beta))))
    checks.append(_close("mean_energy_vs_logZ_fd", worst_mean, 0.0, 1e-6))
    checks.append(_close("var_energy_vs_logZ_fd", worst_var, 0.0, 1e-5))

    worst_e = worst_r = 0.0
    for model in ModelKind:
        for beta in (0.3, 1.0, 3.0, 10.0):
            point = GibbsPoint(model, beta)
            qe = _quad_expectation(point, lambda E: E)
            qr = _quad_expectation(point, models.omega_complex)
            worst_e = max(worst_e, abs(qe - models.mean_energy(point))
                          / models.mean_energy(point))
            worst_r = max(worst_r, abs(qr - models.mean_polarization(point))
                          / models.mean_polarization(point))
    checks.append(_close("mean_energy_vs_quadrature_rel", worst_e, 0.0, 1e-8))
    checks.append(_close("polarization_vs_quadrature_rel", worst_r, 0.0, 1e-8))

    ordered = True
    for beta in np.logspace(-2, 2, 25):
        points = [GibbsPoint(m, beta) for m in POWER_LAW_MODELS]
        pols = [models.mean_polarization(p) for p in points]
        eng = [models.mean_energy(p) for p in points]
        var = [models.var_energy(p) for p in points]
        for seq in (pols, eng, var):
            ordered &= all(a > b for a, b in zip(seq, seq[1:]))
    checks.append(_flag("dominance_ordering_quat_complex_real_classical",
                        ordered))

    worst = 0.0
    used = 0
    for beta in (0.5, 1.0, 5.0):
        res = models.mean_energy_series(beta, tol=1e-9)
        exact = models.mean_energy(GibbsPoint(ModelKind.COMPLEX, beta))
        worst = max(worst, abs(res.value - exact))
        used = max(used, res.terms_used)
    checks.append(_close("pochhammer_series_mean_energy", worst, 0.0, 1e-8))
    checks.append(_flag("pochhammer_series_terms_within_1e4", used <= 10**4,
                        got=used))

    worst = 0.0
    for e0 in np.logspace(math.log10(0.01), math.log10(30.0), 40):
        om = float(models.omega_complex(e0))
        n = models.integrated_density(ModelKind.COMPLEX, e0)
        worst = max(worst, abs(om - math.tanh((n + 2 * om) / 2)))
    checks.append(_close("integrated_density_inversion_identity", worst,
                         0.0, 1e-10))

    # naive atanh reference is well-conditioned only while 1 - om^2 is large
    worst = 0.0
    for e0 in np.logspace(-3, 0.7, 40):
        om = float(models.omega_complex(e0))
        worst = max(worst, abs(models.structure_function(ModelKind.KMB, e0)
                               - 2 * math.atanh(om)))
    checks.append(_close("kmb_structure_is_2atanh", worst, 0.0, 1e-12))

    got = models.var_energy(GibbsPoint(ModelKind.COMPLEX, 100.0))
    checks.append(_rel("var_large_beta_3_over_2b2", got, 1.5 / 100.0**2, 0.03))

    checks.append(_close("polarization_complex_beta1",
                         models.mean_polarization(GibbsPoint(ModelKind.COMPLEX, 1.0)),
                         0.75, 1e-13))
    checks.append(_close("polarization_quaternionic_beta1",
                         models.mean_polarization(
                             GibbsPoint(ModelKind.QUATERNIONIC, 1.0)),
                         5.0 / 6.0, 1e-13))
    worst = 0.0
    for beta in np.logspace(-2, 2, 30):
        ratio = (models.mean_polarization(GibbsPoint(ModelKind.QUATERNIONIC, beta))
                 / models.mean_polarization(GibbsPoint(ModelKind.COMPLEX, beta)))
        worst = max(worst, abs(ratio - 2 * (3 + 2 * beta) / (3 * (2 + beta))))
    checks.append(_close("polarization_ratio_closed_form", worst, 0.0, 1e-12))
    checks.append(_close("polarization_ratio_at_1",
                         models.mean_polarization(GibbsPoint(ModelKind.QUATERNIONIC, 1.0))
                         / models.mean_polarization(GibbsPoint(ModelKind.COMPLEX, 1.0)),
                         10.0 / 9.0, 1e-13))

    exact10 = models.mean_energy(GibbsPoint(ModelKind.COMPLEX, 10.0))
    checks.append(_close("mean_energy_asymptotic_5term_beta10",
                         models.mean_energy_asymptotic(10.0, 5), exact10, 1e-6))
    r2 = abs(models.mean_energy_asymptotic(2.0, 5)
             - models.mean_energy(GibbsPoint(ModelKind.COMPLEX, 2.0)))
    r4 = abs(models.mean_energy_asymptotic(4.0, 5)
             - models.mean_energy(GibbsPoint(ModelKind.COMPLEX, 4.0)))
    checks.append(_close("mean_energy_asymptotic_order6_scaling",
                         r2 / r4 / 64.0, 1.0, 0.5))

    exact25 = models.mean_polarization(GibbsPoint(ModelKind.COMPLEX, 25.0))
    checks.append(_close("polarization_asymptotic_beta25",
                         models.polarization_asymptotic(25.0), exact25, 1e-5))
    exact100 = models.mean_polarization(GibbsPoint(ModelKind.COMPLEX, 100.0))
    checks.append(_close("polarization_asymptotic_beta100",
                         models.polarization_asymptotic(100.0), exact100, 1e-6))
    checks.append(_flag("polarization_asymptotic_beta1_is_asymptotic_only",
                        abs(models.polarization_asymptotic(1.0) - 0.75) > 0.01,
                        got=abs(models.polarization_asymptotic(1.0) - 0.75)))

    for beta in (0.25, 1.3):
        checks.append(_close(f"reflection_identity_residual_beta{beta}",
                             models.reflection_identity_residual(beta),
                             0.0, 1e-9))

    diff40 = (models.integrated_density(ModelKind.COMPLEX, 40.0)
              - models.integrated_density(ModelKind.QUATERNIONIC, 40.0))
    checks.append(_close("density_difference_limit_two_thirds", diff40,
                         2.0 / 3.0, 1e-8))
    diffs = [models.integrated_density(ModelKind.COMPLEX, e)
             - models.integrated_density(ModelKind.QUATERNIONIC, e)
             for e in np.linspace(0.1, 20, 30)]
    checks.append(_flag("density_difference_monotone_increasing",
                        all(a < b for a, b in zip(diffs, diffs[1:]))))

    gap_beta, gap = _kmb_gap_maximum()
    checks.append(_close("kmb_polarization_gap_max", gap, 0.0526, 5e-4))
    checks.append(_close("kmb_polarization_gap_argmax", gap_beta, 0.49825, 0.01))

    root1 = _solve_mean_energy_beta(1.28037231)
    checks.append(_rel("approx_beta_large_moderate",
                       models.approx_beta_large(1.28037231), root1, 0.20))
    root2 = _solve_mean_energy_beta(0.15)
    checks.append(_rel("approx_beta_large_deep",
                       models.approx_beta_large(0.15), root2, 0.03))
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

    # statistical smoke checks (seeded; acceptance-scale runs live in tests)
    point = GibbsPoint(ModelKind.COMPLEX, 1.0)
    draws = oracles.sample_energy(point, rng_seed=seed, count=100_000)
    checks.append(_close("sampler_mean_100k", float(np.mean(draws)),
                         models.mean_energy(point), 0.012))
    e_page = oracles.page_energy_samples(2, rng_seed=seed, count=100_000)
    cdf = oracles.energy_cdf(point, np.sort(e_page))
    emp = np.arange(1, len(e_page) + 1) / len(e_page)
    checks.append(_close("page_ks_m2_100k",
                         float(np.max(np.abs(emp - cdf))), 0.0, 0.006))
    return checks


def _kmb_gap_maximum() -> tuple[float, float]:
    """Golden-section maximum of the KMB-minus-complex polarization gap."""
    def gap(b):
        return (models.mean_polarization(GibbsPoint(ModelKind.KMB, b))
                - models.mean_polarization(GibbsPoint(ModelKind.COMPLEX, b)))

    lo, hi = 0.2, 1.2
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = gap(c), gap(d)
    for _ in range(80):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = gap(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = gap(d)
        if abs(b - a) < 1e-10:
            break
    x = 0.5 * (a + b)
    return x, gap(x)


def _solve_mean_energy_beta(target: float) -> float:
    from . import rootfind
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

    worst = 0.0
    mult_ok = True
    for n in range(1, 13):
        for beta in (0.3, 1.0, 3.0):
            table = spectra.spectrum(n, beta)
            worst = max(worst, abs(table.trace() - 1.0))
        mult_ok &= sum(e.multiplicity for e in spectra.spectrum(n, 1.0).entries) == 2**n
    checks.append(_close("spectrum_unit_trace_n_le_12", worst, 0.0, 1e-10))
    checks.append(_flag("spectrum_multiplicities_sum_2n", mult_ok))

    checks.append(_close("spin_sum_n2_beta1",
                         spectra.spin_sum_polarization(2, 1.0), 0.9, 1e-13))
    checks.append(_close("spin_sum_n1", spectra.spin_sum_polarization(1, 0.7),
                         1.0, 1e-13))

    ratios_ok = True
    worst_ratio = 0.0
    for beta in (0.5, 1.0, 2.0):
        exact = models.mean_polarization(GibbsPoint(ModelKind.COMPLEX, beta))
        g100 = spectra.spin_sum_polarization(100, beta) - exact
        g200 = spectra.spin_sum_polarization(200, beta) - exact
        g400 = spectra.spin_sum_polarization(400, beta) - exact
        for ratio in (g100 / g200, g200 / g400):
            ratios_ok &= abs(ratio - 2.0) <= 0.3
            worst_ratio = max(worst_ratio, abs(ratio - 2.0))
    checks.append(_flag("spin_sum_gap_halves_when_n_doubles", ratios_ok,
                        got=worst_ratio, target=0.0))

    z1 = spectra.zeta_matrix_oracle(1, 2.0)
    checks.append(_close("zeta_oracle_n1_identity_over_2",
                         float(np.max(np.abs(z1 - np.eye(2) / 2))), 0.0, 1e-10))
    z2 = spectra.zeta_matrix_oracle(2, 1.0)
    eig2 = np.sort(np.linalg.eigvalsh(z2))
    checks.append(_close("zeta_oracle_n2_eigs", float(np.max(np.abs(
        eig2 - np.array([0.1, 0.3, 0.3, 0.3])))), 0.0, 1e-6))
    z3 = spectra.zeta_matrix_oracle(3, 0.5)
    eig3 = np.sort(np.linalg.eigvalsh(z3))
    tab3 = spectra.spectrum(3, 0.5)
    ref3 = np.sort(np.concatenate(
        [[e.lam] * e.multiplicity for e in tab3.entries]))
    checks.append(_close("zeta_oracle_n3_eigs_vs_closed_form",
                         float(np.max(np.abs(eig3 - ref3))), 0.0, 1e-6))
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
    checks.append(_close("stationary_point_beta", beta_st, 0.457407, 1e-4))
    checks.append(_close("stationary_point_E", e_st, 2.58527, 1e-4))
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
    checks.append(_close("maximin_beta", bmax, 0.468733, 1e-5))
    from . import rootfind
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
    rep_c = duality.run_duality_experiment(ModelKind.COMPLEX, 16.3)
    checks.append(_close("dual_complex_normalizer", rep_c.normalizer,
                         0.984296, 0.002))
    checks.append(_close("dual_complex_mean_beta", rep_c.mean_beta,
                         0.0636579, 5e-4))
    checks.append(_close("dual_complex_roundtrip", rep_c.roundtrip_meanE,
                         16.2805, 0.02))
    rep_q = duality.run_duality_experiment(ModelKind.QUATERNIONIC, 16.3)
    checks.append(_close("dual_quaternionic_normalizer", rep_q.normalizer,
                         0.902062, 0.002))
    checks.append(_close("dual_quaternionic_mean_beta", rep_q.mean_beta,
                         0.0664174, 5e-4))
    checks.append(_close("dual_quaternionic_roundtrip", rep_q.roundtrip_meanE,
                         16.2645, 0.02))

    worst = 0.0
    for meanE in (8.0, 12.0, 16.3):
        rep = duality.run_duality_experiment(ModelKind.COMPLEX, meanE)
        worst = max(worst, abs(rep.roundtrip_meanE - meanE) / meanE)
    checks.append(_close("dual_roundtrip_contraction", worst, 0.0, 0.005))

    rep8 = duality.run_duality_experiment(ModelKind.COMPLEX, 8.0)
    checks.append(_flag("dual_roundtrip_graceful_at_8",
                        abs(rep8.roundtrip_meanE - 8.0) < abs(16.2805 - 16.3),
                        got=abs(rep8.roundtrip_meanE - 8.0),
                        target=abs(16.2805 - 16.3)))

    checks.append(_rel("mean_beta_closed_vs_experiment",
                       duality.mean_beta_closed(16.3), 0.0636579, 0.15))
    checks.append(_rel("var_beta_small_meanE_limit",
                       duality.var_beta_closed(0.01) * 0.01**2, 1.5, 0.01))
    checks.append(_flag("dual_density_vanishes_at_infinity",
                        duality.dual_density(ModelKind.COMPLEX, 16.3, 100.0)
                        < 1e-300))

    e0s = np.linspace(1.0, 30.0, 100)
    pairs = [duality.prior_over_meanE(e) for e in e0s]
    a1 = np.array([p[0] for p in pairs])
    a2 = np.array([p[1] for p in pairs])
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

    targets = {
        ModelKind.QUATERNIONIC: (0.76007, 1e-4),
        ModelKind.COMPLEX: (1.04585, 1e-4),
        ModelKind.REAL: (1.46249, 1e-3),
        ModelKind.CLASSICAL: (3.1857, 1e-3),
    }
    roots = {}
    for model, (target, tol) in targets.items():
        rep = magnetics.intersect_brosseau(model)
        roots[model] = rep.beta_star
        checks.append(_close(f"brosseau_crossing_{model.value}",
                             rep.beta_star, target, tol))
    checks.append(_flag("brosseau_crossings_ordered",
                        roots[ModelKind.QUATERNIONIC] < roots[ModelKind.COMPLEX]
                        < roots[ModelKind.REAL] < roots[ModelKind.CLASSICAL]))

    checks.append(_rel("kmb_density_crossing_classical",
                       magnetics.kmb_density_crossing(ModelKind.CLASSICAL),
                       1.57565, 0.01))
    checks.append(_rel("kmb_density_crossing_real",
                       magnetics.kmb_density_crossing(ModelKind.REAL),
                       0.53341, 0.01))
    # The quoted complex (0.000111286) and quaternionic (0.0000405489)
    # crossings do not exist: the KMB structure function dominates twice
    # either one pointwise, so the difference of integrated densities is
    # strictly positive.  The checks below document that absence.
    for model, quoted in ((ModelKind.COMPLEX, 0.000111286),
                          (ModelKind.QUATERNIONIC, 0.0000405489)):
        try:
            magnetics.kmb_density_crossing(model)
            found = True
        except BracketingError:
            found = False
        checks.append(_flag(f"kmb_density_crossing_{model.value}_absent",
                            not found, got=float("nan"), target=quoted))

    checks.append(_close("reduced_temperature_beta1",
                         magnetics.reduced_temperature(1.0),
                         math.atanh(0.75), 1e-13))
    bs = np.logspace(-1, 3, 40)
    vals = magnetics.reduced_temperature(bs)
    checks.append(_flag("reduced_temperature_decreasing",
                        bool(np.all(np.diff(vals) < 0))))
    checks.append(_close("reduced_temperature_log_at_e10",
                         math.log(magnetics.reduced_temperature(math.exp(10.0))),
                         0.120782 - 5.0, 1e-3))
    # two-term large-beta expansion of artanh <r>; next order is O(beta^-2)
    worst = 0.0
    for beta in (1e3, 1e4):
        two_term = (2.0 / math.sqrt(math.pi * beta)
                    + (32 - 15 * math.pi) / (12 * math.pi**1.5 * beta**1.5))
        worst = max(worst, abs(magnetics.reduced_temperature(beta) - two_term)
                    * beta**2)
    checks.append(_close("reduced_temperature_two_term_asymptotic",
                         worst, 0.0, 5.0))
    slope, intercept = magnetics.loglinear_fit()
    checks.append(_close("loglinear_slope", slope, -0.5, 0.002))
    checks.append(_close("loglinear_intercept", intercept, 0.120782, 0.002))

    checks.append(_close("critical_beta_unit", magnetics.critical_beta(1.0),
                         0.647175, 1e-6))
    checks.append(_close("critical_beta_linearity",
                         magnetics.critical_beta(2.0),
                         2 * magnetics.critical_beta(1.0), 1e-12))
    checks.append(_close("critical_beta_inversion",
                         4 * (2 * _LN2 - 1) * magnetics.critical_beta(1.0),
                         1.0, 1e-12))
    bc = magnetics.critical_beta(1.0)
    checks.append(_flag("order_parameter_zero_at_critical",
                        magnetics.order_parameter(bc, 1.0) == (0.0, 0.0)))
    plus, minus = magnetics.order_parameter(2 * bc, 1.0)
    checks.append(_close("order_parameter_at_2bc", plus, math.sqrt(0.5), 1e-12))
    eps = np.logspace(-4, -2, 30)
    op = [magnetics.order_parameter(bc / (1 - e), 1.0)[0] for e in eps]
    slope_op = float(np.polyfit(np.log(eps), np.log(op), 1)[0])
    checks.append(_close("order_parameter_loglog_slope", slope_op, 0.5, 1e-3))

    worst = 0.0
    for r in np.linspace(0.0, 0.95, 30):
        lhs = 0.5 * (math.log1p(r) - math.log1p(-r))
        worst = max(worst, abs(lhs - math.atanh(r)))
    checks.append(_close("half_log_ratio_is_atanh", worst, 0.0, 1e-12))
    ok = True
    for r in np.linspace(0.05, 0.5, 10):
        part = r + r**3 / 3 + r**5 / 5
        bound = r**7 / (7 * (1 - r * r))
        ok &= abs(math.atanh(r) - part) <= bound
    checks.append(_flag("atanh_maclaurin_tail_bound", ok))
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
    checks: list[Check] = []
    worst = 0.0
    for tag in priors.PriorTag:
        for u in (-1.0, 0.0, 0.5):
            kind = priors.PriorKind(tag=tag, u=u)
            worst = max(worst, abs(_radial_norm(kind) - 1.0))
    checks.append(_close("prior_unit_mass_radial", worst, 0.0, 1e-7))

    kind0 = priors.PriorKind(tag=priors.PriorTag.COMPLEX_Q, u=0.0)
    checks.append(_close("complex_prior_example_value",
                         priors.prior_density(kind0, 0.5, math.pi / 2, 1.0),
                         0.1875 / math.pi, 1e-10))
    kindr = priors.PriorKind(tag=priors.PriorTag.REAL_Q, u=0.0)
    checks.append(_close("real_prior_example_value",
                         priors.prior_density(kindr, 0.5, 1.0),
                         0.5 / math.pi, 1e-12))

    worst = 0.0
    es = np.linspace(0.05, 6.0, 20)
    for model in ModelKind:
        for beta in np.linspace(0.25, 4.0, 20):
            kind = priors.prior_for_model(model, beta)
            worst = max(worst, float(np.max(np.abs(
                priors.transform_to_gibbs(kind, es, beta)
                - models.pdf(GibbsPoint(model, beta), es)))))
    checks.append(_close("prior_transforms_to_gibbs_pdf", worst, 0.0, 1e-10))

    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        x, y, z = rng.uniform(-0.55, 0.55, 3)
        if x * x + y * y + z * z >= 0.98 or min(abs(x), abs(y), abs(z)) < 1e-3:
            continue
        u = float(rng.uniform(-1.0, 0.9))
        lhs = priors.dirichlet_density(u, x * x, y * y, z * z)
        rhs = priors.bloch_cartesian_density(u, x, y, z) / abs(x * y * z)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    checks.append(_close("dirichlet_jacobian_identity_rel", worst, 0.0, 1e-10))

    try:
        priors.PriorKind(tag=priors.PriorTag.COMPLEX_Q, u=1.2)
        rejected = False
    except Exception:
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
