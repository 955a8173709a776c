"""The benchmark's three workloads.

Each runs as one client in a closed loop: an operation starts only after
the previous one has finished.  A workload is a sequence of passes; pass
``p`` is a fixed mix of operation kinds whose parameters are drawn from
the seed, so pass times from different seeds are comparable.

Every operation is one of
  ``light`` - the workload's cheapest kind, which per-call overhead moves;
  ``heavy`` - the kind that dominates the pass;
  ``other``.
``run_pass`` only runs operations; ``check`` inspects their outputs
afterwards, outside the timed pass and with the tracer removed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

import checks

PERFBENCH = Path(__file__).resolve().parent
FAMILIES = ("real", "complex", "quaternionic", "classical", "kmb")


class Op:
    """One timed operation and what its check needs."""

    __slots__ = ("kind", "cls", "seconds", "params", "result", "error",
                 "trace", "problems")

    def __init__(self, kind, cls, params):
        self.kind, self.cls, self.params = kind, cls, params
        self.seconds = 0.0
        self.result = self.error = self.trace = None
        self.problems: list[str] = []

    def run(self, fn, tracer):
        if tracer is not None:
            tracer.take()
        t0 = perf_counter()
        try:
            self.result = fn()
        except Exception as exc:  # a failed operation is counted, not fatal
            self.error = f"{type(exc).__name__}: {exc}"
        self.seconds = perf_counter() - t0
        if tracer is not None:
            self.trace = tracer.take()
        return self


# ------------------------------------------------------------- reproduce


class Reproduce:
    """Every CLI command behind the paper's numbers, each in its own process."""

    name = "reproduce"
    in_process = False
    imports = "import blochgibbs.cli"
    COMMANDS = (
        ("verify", ["verify", "--suite", "all"]),
        *((f"fig{i}", ["figure", f"fig{i}"]) for i in range(1, 7)),
        ("solve", ["solve"]),
        ("sweep", ["sweep", "--model", "kmb", "--points", "400"]),
        ("duality_complex", ["duality", "--model", "complex"]),
        ("duality_quat", ["duality", "--model", "quat"]),
        ("spectrum", ["spectrum", "--n", "12", "--beta", "1.0"]),
    )

    def __init__(self, rng, env, out_dir):
        self.env, self.out_dir = env, out_dir
        # The seed only sets the order in which a pass runs the commands;
        # every pass runs the same commands on the same inputs.
        self.commands = [self.COMMANDS[i] for i in rng.permutation(len(self.COMMANDS))]
        self.identical = 0
        self.compared = 0

    def warm_up(self):
        pass

    def run_pass(self, p, tracer):
        traced = tracer is not None  # the children trace themselves
        ops = []
        for i, (kind, argv) in enumerate(self.commands):
            op = Op(kind, "heavy" if kind == "verify" else "light", argv)
            trace_path = self.out_dir / f"child-{i}.json"
            if traced:
                cmd = [sys.executable, str(PERFBENCH / "shim.py"), str(trace_path),
                       repr(time.monotonic())] + argv
            else:
                cmd = [sys.executable, "-m", "blochgibbs.cli"] + argv
            t0 = perf_counter()
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True)
            op.seconds = perf_counter() - t0
            op.result = proc
            if proc.returncode != 0:
                last = proc.stderr.strip().splitlines()[-1:] or [""]
                op.error = f"exit {proc.returncode}: {last[0][:300]}"
            if traced:  # a child that died early wrote no trace
                op.trace = (json.loads(trace_path.read_text()) if trace_path.exists()
                            else {"spans": {}, "work": {}})
                trace_path.unlink(missing_ok=True)
            ops.append(op)
        return ops

    def check(self, ops, p):
        for op in ops:
            if op.error:
                continue
            out = op.result.stdout
            identical = None
            if op.kind == "verify":
                op.problems = checks.check_verify(out)
            elif op.kind.startswith("fig"):
                op.problems, identical = checks.compare_csv(out, f"{op.kind}.csv")
            elif op.kind == "solve":
                op.problems = checks.check_solve(out)
            elif op.kind == "sweep":
                op.problems, identical = checks.check_sweep_csv(out, "sweep_kmb_400.csv")
            elif op.kind.startswith("duality"):
                model = "complex" if op.kind.endswith("complex") else "quaternionic"
                op.problems = checks.check_duality(out, model)
            else:
                op.problems, identical = checks.check_spectrum(out)
            if identical is not None:
                self.compared += 1
                self.identical += identical
            op.result = None

    def finish(self):
        pass

    def report(self, passes):
        verify = [op.seconds for ops in passes for op in ops if op.kind == "verify"]
        figures = [sum(op.seconds for op in ops if op.kind.startswith("fig"))
                   for ops in passes]
        return {
            "verify_all_s": (median(verify), "s", len(verify)),
            "figures_s": (median(figures), "s", len(figures)),
            "byte_identical_outputs": (self.identical, "count", self.compared),
        }


# ----------------------------------------------------------------- sweep


class Sweep:
    """In-process ``cli.main(["sweep", ...])`` grids at fresh beta ranges."""

    name = "sweep"
    in_process = True
    imports = "import blochgibbs.cli"
    POINTS = 200
    OPS_PER_PASS = 10  # two per family; one spans an edge range
    EDGES = {"low": (1e-10, 1e-2), "high": (1e3, 1e10)}
    CHECKED_PASSES = 10  # passes with one row per grid compared with mpmath
    EDGE_ROWS = 8  # evenly spaced rows of an edge grid compared with mpmath

    def __init__(self, rng, env, out_dir):
        import blochgibbs.cli
        self.cli = blochgibbs.cli
        self.rng = rng
        self.shift = int(rng.integers(5))
        self.check_rng = np.random.default_rng(int(rng.integers(2**63)))
        self.samples = []  # (op, family, row, edge) for the mpmath comparison
        self.edge_defect_rows = 0
        self.checked_passes = 0

    def _params(self, p, j):
        family = FAMILIES[(j + self.shift) % 5]
        # The edge operation's family cycles with the pass and its side
        # alternates, so ten passes cover every (family, side) pair.
        if j == 5 + p % 5:
            edge = "low" if p % 2 == 0 else "high"
            lo, hi = self.EDGES[edge]
        else:
            edge = None
            a = self.rng.uniform(-2.0, 2.5)
            lo, hi = 10.0 ** a, 10.0 ** self.rng.uniform(a + 0.5, 3.0)
        return family, lo, hi, edge

    def _op(self, family, lo, hi, edge, tracer):
        argv = ["sweep", "--model", family, "--beta-min", repr(lo),
                "--beta-max", repr(hi), "--points", str(self.POINTS)]

        def call():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(argv)
            if code != 0:
                raise RuntimeError(f"sweep exited {code}")
            return buf.getvalue()

        return Op(family, "heavy" if family == "kmb" else "light",
                  (family, lo, hi, edge)).run(call, tracer)

    def warm_up(self):
        for family in FAMILIES:
            self._op(family, 0.1, 10.0, None, None)

    def run_pass(self, p, tracer):
        return [self._op(*self._params(p, j), tracer)
                for j in range(self.OPS_PER_PASS)]

    def check(self, ops, p):
        self.checked_passes = min(p + 1, self.CHECKED_PASSES)
        for op in ops:
            if op.error:
                continue
            family, lo, hi, edge = op.params
            header, rows = checks.parse_csv(op.result)
            op.result = None
            grid = np.logspace(math.log10(lo), math.log10(hi), self.POINTS)
            if (header[0] != "beta" or len(rows) != self.POINTS
                    or not np.allclose([r[0] for r in rows], grid, rtol=1e-14, atol=0)):
                op.problems.append("grid differs from the requested one")
                continue
            if not all(math.isfinite(v) and v > 0 for r in rows for v in r):
                op.problems.append("non-finite or non-positive value")
            over = sum(r[4] > 1.0 for r in rows)
            if over and edge:
                self.edge_defect_rows += over if p < self.CHECKED_PASSES else 0
            elif over:
                op.problems.append(f"{over} rows with <r> > 1")
            if p < self.CHECKED_PASSES:
                if edge:
                    idx = np.linspace(0, self.POINTS - 1, self.EDGE_ROWS).astype(int)
                else:
                    idx = [int(self.check_rng.integers(self.POINTS))]
                self.samples += [(op, family, rows[i], edge) for i in idx]

    def finish(self):
        for op, family, row, edge in self.samples:
            err = checks.sweep_row_error(family, row)
            if err <= checks.MPMATH_RTOL:
                continue
            if not edge:
                op.problems.append(f"beta={row[0]!r}: relative error {err:.1e} "
                                   f"> {checks.MPMATH_RTOL}")
            elif row[4] <= 1.0:  # rows above 1 were counted in check()
                self.edge_defect_rows += 1
        self.samples = []

    def report(self, passes):
        times = sorted(op.seconds * 1e3 for ops in passes for op in ops)
        q = np.percentile(times, [50, 90]) if times else (math.nan, math.nan)
        return {
            "op_p50_ms": (float(q[0]), "ms", len(times)),
            "op_p90_ms": (float(q[1]), "ms", len(times)),
            "edge_defect_rows": (self.edge_defect_rows, "count", self.checked_passes),
        }


# --------------------------------------------------------------- oracles


class Oracles:
    """In-process calls to the independent oracles, one kind at a time."""

    name = "oracles"
    in_process = True
    imports = ("import blochgibbs.oracles, blochgibbs.spectra, "
               "blochgibbs.duality, blochgibbs.quadrature")
    # kind -> operations per pass; a pass runs the kinds in this order.
    MIX = {"expect": 10, "sample_small": 5, "duality": 2, "page": 3,
           "sample_large": 1, "tensor": 1}
    CLASS = {"expect": "light", "tensor": "heavy"}
    PAGE_M = (2, 4, 8)

    def __init__(self, rng, env, out_dir):
        from blochgibbs import duality, models, oracles, quadrature, spectra
        from blochgibbs.models import GibbsPoint, ModelKind
        self.m = models
        self.oracles, self.quadrature = oracles, quadrature
        self.spectra, self.duality = spectra, duality
        self.GibbsPoint, self.ModelKind = GibbsPoint, ModelKind
        self.rng = rng
        self.shift = int(rng.integers(5))

    def _family(self, i):
        return self.ModelKind(FAMILIES[(i + self.shift) % 5])

    def _log_uniform(self, lo, hi):
        return float(10.0 ** self.rng.uniform(math.log10(lo), math.log10(hi)))

    def _calls(self, kind, p, j):
        """(params, zero-argument callable) of operation j of a kind in pass p."""
        m, o = self.m, self.oracles
        if kind == "expect":
            point = self.GibbsPoint(self._family(j), self._log_uniform(0.1, 30.0))

            def run():
                q = self.quadrature.integrate_semiinfinite
                e = q(lambda E: E * m.pdf(point, E), 1e-10).value
                r = q(lambda E: m.omega_complex(E) * m.pdf(point, E), 1e-10).value
                return e, r
            return point, run
        if kind in ("sample_small", "sample_large"):
            count = 100 if kind == "sample_small" else 100_000
            i = j if kind == "sample_small" else p
            point = self.GibbsPoint(self._family(i), self._log_uniform(0.5, 10.0))
            seed = int(self.rng.integers(2**31))
            return (point, count), lambda: o.sample_energy(point, seed, count)
        if kind == "page":
            mm, seed = self.PAGE_M[j], int(self.rng.integers(2**31))
            return mm, lambda: o.page_energy_samples(mm, seed, 100_000)
        if kind == "duality":
            model = (self.ModelKind.COMPLEX, self.ModelKind.QUATERNIONIC)[j % 2]
            mean_e = float(self.rng.uniform(4.0, 30.0))
            return (model, mean_e), lambda: self.duality.run_duality_experiment(model, mean_e)
        beta = self._log_uniform(0.3, 5.0)
        return beta, lambda: self.spectra.zeta_matrix_oracle(3, beta)

    def warm_up(self):
        for kind in self.MIX:
            self._calls(kind, 0, 0)[1]()

    def run_pass(self, p, tracer):
        ops = []
        for kind, count in self.MIX.items():
            for j in range(count):
                params, fn = self._calls(kind, p, j)
                ops.append(Op(kind, self.CLASS.get(kind, "other"), params).run(fn, tracer))
        return ops

    def check(self, ops, p):
        m = self.m
        for op in ops:
            if op.error:
                continue
            kind, res = op.kind, op.result
            op.result = None
            if kind == "expect":
                want = (m.mean_energy(op.params), m.mean_polarization(op.params))
                for name, got, ref in zip(("<E>", "<r>"), res, want):
                    if abs(got / ref - 1.0) > 1e-8:
                        op.problems.append(f"{name} {got!r} vs closed form {ref!r}")
            elif kind in ("sample_small", "sample_large", "page"):
                if kind == "page":
                    point, count = self.GibbsPoint(self.ModelKind.COMPLEX, op.params - 1), 100_000
                else:
                    point, count = op.params
                mean, sigma = m.mean_energy(point), math.sqrt(m.var_energy(point) / count)
                if len(res) != count or not np.all(np.isfinite(res)) or np.min(res) < 0:
                    op.problems.append("draws not finite and non-negative")
                elif abs(float(np.mean(res)) - mean) > 5.0 * sigma:
                    op.problems.append(f"sample mean {np.mean(res)!r} outside 5 sigma of {mean!r}")
            elif kind == "duality":
                model, mean_e = op.params
                if abs(res.roundtrip_meanE / mean_e - 1.0) > 0.005:
                    op.problems.append(f"round trip {res.roundtrip_meanE!r} vs {mean_e!r}")
            else:
                table = self.spectra.spectrum(3, op.params)
                ref = np.sort(np.concatenate([[e.lam] * e.multiplicity
                                              for e in table.entries]))
                err = float(np.max(np.abs(np.sort(np.linalg.eigvalsh(res)) - ref)))
                if err > 1e-6:
                    op.problems.append(f"zeta eigenvalues off the spectrum by {err:.1e}")

    def finish(self):
        pass

    def report(self, passes):
        out = {}
        for kind in self.MIX:
            t = [op.seconds * 1e3 for ops in passes for op in ops if op.kind == kind]
            out[f"{kind}_ms"] = (median(t), "ms", len(t))
        return out


WORKLOADS = {w.name: w for w in (Reproduce, Sweep, Oracles)}
