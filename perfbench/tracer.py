"""Span and counter recorder for the benchmark's traced runs.

The tracer wraps the public functions of each blochgibbs layer from the
outside: it replaces every module-level binding of a wrapped function
(``models`` binds ``log_gamma`` by name, ``oracles`` binds
``integrate_interval``, and so on), the ``EnergyInverter`` methods and the
entries of ``verify.SUITES``, and restores the originals on ``uninstall``.

Spans are not kept one per call: a call's duration and self time (its
duration minus the time spent in wrapped child calls) are added to per-name
aggregates, which ``take`` hands out and resets once per benchmark
operation.  Work counts come from what the layers already return
(``SeriesResult.terms_used``, ``QuadratureResult.evaluations``) or from the
sizes of their array arguments.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

import numpy as np

# Public functions wrapped per module.  Layer metrics group them by the
# module prefix of the span name.
TARGETS = {
    "specfun": ("log_gamma", "log_gamma_signed", "digamma", "trigamma",
                "pochhammer", "hyp_pfq_at_1"),
    "models": ("structure_function", "partition", "pdf", "mean_energy",
               "var_energy", "mean_polarization", "mean_energy_series",
               "integrated_density", "modal_beta_estimate", "modal_curvature",
               "approx_beta_small", "approx_beta_large",
               "mean_energy_asymptotic", "polarization_asymptotic",
               "reflection_identity_residual", "omega_complex", "atanh_omega"),
    "quadrature": ("integrate_interval", "integrate_semiinfinite"),
    "oracles": ("sample_energy", "energy_cdf", "page_reduced_state",
                "page_energy_samples"),
    "spectra": ("spectrum", "spin_sum_polarization", "zeta_matrix_oracle",
                "relative_entropy_numeric", "asymptotic_relent",
                "solve_stationary_point", "solve_maximin_beta"),
    "duality": ("dual_density", "run_duality_experiment", "mean_beta_closed",
                "var_beta_closed", "prior_over_meanE"),
    "rootfind": ("brent", "scan_bracket", "newton2d"),
    "magnetics": ("brillouin_tanh", "langevin", "langevin_partition",
                  "brosseau_polarization", "intersect_brosseau",
                  "kmb_density_crossing", "reduced_temperature",
                  "loglinear_fit", "critical_beta", "order_parameter"),
    "figures": ("figure_table", "write_csv", "render_figure_csv"),
    "priors": ("prior_density", "radial_density", "transform_to_gibbs",
               "bloch_cartesian_density", "dirichlet_density",
               "prior_for_model", "gibbs_pdf_reference"),
    "cli": ("main",),
}
METHODS = {"oracles": {"EnergyInverter": ("__init__", "quantile", "cdf")}}

_QUADRATURE = ("quadrature.integrate_interval", "quadrature.integrate_semiinfinite")
_SCALAR = ("specfun.log_gamma", "specfun.log_gamma_signed", "specfun.digamma",
           "specfun.trigamma", "specfun.pochhammer")


class Tracer:
    """Per-name call counts, inclusive and self times, failures and work."""

    def __init__(self):
        self.stack: list[list] = []  # [span name, time spent in child spans]
        self.calls = Counter()
        self.total_s = Counter()
        self.self_s = Counter()
        self.failures = Counter()
        self.work = Counter()
        self._patches: list[tuple] = []

    # ---------------------------------------------------------- recording

    def span(self, name, fn, before=None, after=None):
        """Wrap ``fn`` so each call is timed under ``name``.

        ``before(args, kwargs)`` may replace the arguments (it sees the
        caller's span on top of the stack); ``after(args, kwargs, result)``
        records work counts.
        """
        stack, calls, total_s, self_s, failures = (
            self.stack, self.calls, self.total_s, self.self_s, self.failures)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                failures[name] += 1
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                calls[name] += 1
                total_s[name] += dt
                self_s[name] += dt - frame[1]
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def take(self) -> dict:
        """Return the aggregates recorded since the last call and reset them."""
        snap = {
            "spans": {k: [self.calls[k], self.total_s[k], self.self_s[k],
                          self.failures[k]] for k in self.calls},
            "work": dict(self.work),
        }
        for c in (self.calls, self.total_s, self.self_s, self.failures, self.work):
            c.clear()
        return snap

    # ------------------------------------------------------- installation

    def _hooks(self, name):
        work = self.work
        stack = self.stack

        def parent():
            return stack[-1][0] if stack else None

        if name == "specfun.hyp_pfq_at_1":
            def after(args, kwargs, res):
                work["specfun.hyp_pfq_at_1.terms"] += res.terms_used
            return None, after
        if name == "models.pdf":
            def after(args, kwargs, res):
                work["models.pdf.points"] += int(np.size(_arg(args, kwargs, 1, "E")))
            return None, after
        if name == "oracles.EnergyInverter.quantile":
            def after(args, kwargs, res):
                work["oracles.quantile.draws"] += int(np.size(_arg(args, kwargs, 1, "u")))
            return None, after
        if name == "oracles.page_energy_samples":
            def after(args, kwargs, res):
                work["oracles.page.draws"] += int(_arg(args, kwargs, 2, "count"))
            return None, after
        if name == "figures.write_csv":
            def after(args, kwargs, res):
                work["figures.rows"] += len(_arg(args, kwargs, 1, "rows"))
            return None, after
        if name in _QUADRATURE:
            integrand_after = _count_points(work, "quadrature.integrand.points")

            def before(args, kwargs):
                # integrate_semiinfinite hands its own t-substituted wrapper
                # of the caller's integrand to integrate_interval; the
                # caller's integrand is already wrapped one level up.
                if parent() != "quadrature.integrate_semiinfinite":
                    args = (self.span("quadrature.integrand", args[0],
                                      after=integrand_after),) + args[1:]
                return args, kwargs

            def after(args, kwargs, res):
                if parent() not in _QUADRATURE:
                    work["quadrature.evals"] += res.evaluations
            return before, after
        if name.startswith("rootfind."):
            def before(args, kwargs):
                f = args[0]

                def counted(*a, **k):
                    work["rootfind.f_evals"] += 1
                    return f(*a, **k)
                return (counted,) + args[1:], kwargs
            return before, None
        return None, None

    def install(self) -> None:
        """Wrap every target and rebind it wherever blochgibbs bound it."""
        import blochgibbs.cli  # noqa: F401  (imports every layer)

        pkg = {n: m for n, m in sys.modules.items()
               if n == "blochgibbs" or n.startswith("blochgibbs.")}
        replace = {}
        for mod, names in TARGETS.items():
            module = pkg[f"blochgibbs.{mod}"]
            for attr in names:
                fn = getattr(module, attr)
                name = f"{mod}.{attr}"
                replace[id(fn)] = (fn, self.span(name, fn, *self._hooks(name)))
        verify = pkg["blochgibbs.verify"]
        for suite, fn in verify.SUITES.items():
            replace[id(fn)] = (fn, self.span(f"verify.{suite}", fn))
        for mod, classes in METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(pkg[f"blochgibbs.{mod}"], cls_name)
                for attr in methods:
                    fn = cls.__dict__[attr]
                    name = f"{mod}.{cls_name}.{attr}"
                    self._patches.append((cls, attr, fn))
                    setattr(cls, attr, self.span(name, fn, *self._hooks(name)))
        for module in pkg.values():
            for attr, value in list(vars(module).items()):
                if id(value) in replace and replace[id(value)][0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, replace[id(value)][1])
        for suite, fn in list(verify.SUITES.items()):
            self._patches.append((verify.SUITES, suite, fn))
            verify.SUITES[suite] = replace[id(fn)][1]

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patches):
            if isinstance(obj, dict):
                obj[attr] = original
            else:
                setattr(obj, attr, original)
        self._patches.clear()


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _count_points(work, key):
    def after(args, kwargs, res):
        work[key] += int(np.size(_arg(args, kwargs, 0, "E")))
    return after


def merge(snaps) -> dict:
    """Sum several ``take`` snapshots."""
    spans: dict[str, list] = {}
    work = Counter()
    for snap in snaps:
        for k, v in snap["spans"].items():
            acc = spans.setdefault(k, [0, 0.0, 0.0, 0])
            for i in range(4):
                acc[i] += v[i]
        work.update(snap["work"])
    return {"spans": spans, "work": dict(work)}


def layer_metrics(snap: dict) -> dict:
    """Per-layer metrics from one (merged) snapshot.

    Counts are whole numbers; names ending in ``_s`` are seconds.
    """
    spans, work = snap["spans"], snap["work"]

    def calls(*names):
        return sum(spans.get(n, (0,))[0] for n in names)

    def total(*names):
        return sum(spans.get(n, (0, 0.0))[1] for n in names)

    def self_time(prefix):
        return sum(v[2] for k, v in spans.items() if k.startswith(prefix))

    def fails(prefix):
        return sum(v[3] for k, v in spans.items() if k.startswith(prefix))

    hyp = "specfun.hyp_pfq_at_1"
    out = {
        "specfun.log_gamma.calls": calls("specfun.log_gamma"),
        "specfun.digamma.calls": calls("specfun.digamma"),
        "specfun.trigamma.calls": calls("specfun.trigamma"),
        "specfun.scalar.self_s": sum(spans.get(n, (0, 0, 0.0))[2] for n in _SCALAR),
        "specfun.hyp_pfq_at_1.calls": calls(hyp),
        "specfun.hyp_pfq_at_1.terms": work.get(f"{hyp}.terms", 0),
        "specfun.hyp_pfq_at_1.self_s": spans.get(hyp, (0, 0, 0.0))[2],
        "specfun.hyp_pfq_at_1.failures": fails(hyp),
        "models.partition.calls": calls("models.partition"),
        "models.pdf.calls": calls("models.pdf"),
        "models.pdf.points": work.get("models.pdf.points", 0),
        "models.mean_polarization.calls": calls("models.mean_polarization"),
        "models.moments.calls": calls("models.mean_energy", "models.var_energy"),
        "models.integrated_density.calls": calls("models.integrated_density"),
        "models.self_s": self_time("models."),
        "quadrature.integrate_interval.calls": calls("quadrature.integrate_interval"),
        "quadrature.integrate_semiinfinite.calls":
            calls("quadrature.integrate_semiinfinite"),
        "quadrature.evals": work.get("quadrature.evals", 0),
        "quadrature.integrand.calls": calls("quadrature.integrand"),
        "quadrature.integrand.points": work.get("quadrature.integrand.points", 0),
        "quadrature.integrand_s": total("quadrature.integrand"),
        "quadrature.self_s": sum(spans.get(n, (0, 0, 0.0))[2] for n in _QUADRATURE),
        "quadrature.failures": sum(spans.get(n, (0, 0, 0, 0))[3] for n in _QUADRATURE),
        "oracles.inverter.builds": calls("oracles.EnergyInverter.__init__"),
        "oracles.inverter.build_s": total("oracles.EnergyInverter.__init__"),
        "oracles.quantile.draws": work.get("oracles.quantile.draws", 0),
        "oracles.quantile_s": total("oracles.EnergyInverter.quantile"),
        "oracles.page.draws": work.get("oracles.page.draws", 0),
        "oracles.page_s": total("oracles.page_energy_samples"),
        "oracles.energy_cdf.calls": calls("oracles.energy_cdf"),
        "spectra.zeta.calls": calls("spectra.zeta_matrix_oracle"),
        "spectra.relent.calls": calls("spectra.relative_entropy_numeric"),
        "spectra.spectrum.calls": calls("spectra.spectrum"),
        "spectra.zeta_s": total("spectra.zeta_matrix_oracle"),
        "spectra.relent_s": total("spectra.relative_entropy_numeric"),
        "spectra.solve_s": total("spectra.solve_stationary_point",
                                 "spectra.solve_maximin_beta"),
        "duality.experiment.calls": calls("duality.run_duality_experiment"),
        "duality.experiment_s": total("duality.run_duality_experiment"),
        "duality.dual_density.calls": calls("duality.dual_density"),
        "rootfind.calls": calls("rootfind.brent", "rootfind.scan_bracket",
                                "rootfind.newton2d"),
        "rootfind.f_evals": work.get("rootfind.f_evals", 0),
        "rootfind.self_s": self_time("rootfind."),
        "rootfind.failures": fails("rootfind."),
        "magnetics.self_s": self_time("magnetics."),
        "figures.self_s": self_time("figures."),
        "figures.rows": work.get("figures.rows", 0),
        "priors.self_s": self_time("priors."),
        "cli.main_s": total("cli.main"),
    }
    for suite in ("specfun", "models", "spectra", "duality", "magnetics", "priors"):
        out[f"verify.{suite}_s"] = total(f"verify.{suite}")
    return out


def self_check() -> list[str]:
    """Known call counts the wrappers must record; returns the mismatches."""
    from blochgibbs.models import (GibbsPoint, ModelKind, mean_polarization,
                                   partition)

    tracer = Tracer()
    problems = []
    tracer.install()
    try:
        tracer.take()
        mean_polarization(GibbsPoint(ModelKind.COMPLEX, 1.7))
        got = tracer.take()["spans"].get("specfun.log_gamma", [0])[0]
        if got != 4:
            problems.append(f"complex mean_polarization: {got} log_gamma calls, want 4")
        partition(GibbsPoint(ModelKind.QUATERNIONIC, 0.8))
        got = tracer.take()["spans"].get("specfun.log_gamma", [0])[0]
        if got != 3:
            problems.append(f"partition: {got} log_gamma calls, want 3")
    finally:
        tracer.uninstall()
    return problems
