"""Benchmark for blochgibbs: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {reproduce,sweep,oracles} \
        --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all ...   # each workload in turn

Run it from the repository root.  It measures the package under ``src/``
of the tree it sits in and refuses to run against any other copy.

With ``--trace 0`` it times passes untraced and reports the end-to-end
metrics; with ``--trace 1`` it alternates traced and untraced passes and
reports the per-layer metrics of the traced ones, plus the tracing
overhead.  Either way it checks every output.  A human-readable report
goes to stdout first; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Traced runs also
write their per-operation aggregates to ``perfbench/out/`` as JSONL.
"""

from __future__ import annotations

import os

# BLAS and OpenMP get one thread, here and in every child process: the
# reference machine has two cores and the workloads run one client.
THREAD_ENV = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS")}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_LAUNCHES = 7

# Printed with --trace 0.  heavy_op_ms is the median of the operation kind
# that dominates the workload's pass (see workloads.py and README.md).
END_TO_END = {"setup_s": "s", "heavy_op_ms": "ms", "peak_rss_mb": "MB"}
# Printed with --trace 1: counts from the first traced pass, times as the
# median over traced passes.  Only layers every workload runs report a
# time here; the rest are in the report and the JSONL trace.
PER_LAYER = {
    "specfun.log_gamma.calls": "count", "specfun.digamma.calls": "count",
    "specfun.trigamma.calls": "count", "specfun.scalar.self_s": "s",
    "specfun.hyp_pfq_at_1.calls": "count", "specfun.hyp_pfq_at_1.terms": "count",
    "specfun.hyp_pfq_at_1.failures": "count",
    "models.partition.calls": "count", "models.pdf.calls": "count",
    "models.pdf.points": "count", "models.mean_polarization.calls": "count",
    "models.moments.calls": "count", "models.integrated_density.calls": "count",
    "models.self_s": "s",
    "quadrature.integrate_interval.calls": "count",
    "quadrature.integrate_semiinfinite.calls": "count",
    "quadrature.evals": "count", "quadrature.integrand.calls": "count",
    "quadrature.integrand.points": "count", "quadrature.failures": "count",
    "oracles.inverter.builds": "count", "oracles.quantile.draws": "count",
    "oracles.page.draws": "count", "oracles.energy_cdf.calls": "count",
    "spectra.zeta.calls": "count", "spectra.relent.calls": "count",
    "spectra.spectrum.calls": "count",
    "duality.experiment.calls": "count", "duality.dual_density.calls": "count",
    "rootfind.calls": "count", "rootfind.f_evals": "count",
    "rootfind.failures": "count", "figures.rows": "count",
    "sweep.edge_defect_rows": "count", "trace.overhead_ratio": "ratio",
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def import_package() -> None:
    """Import blochgibbs from this tree's src/, or stop."""
    if not (SRC / "blochgibbs" / "__init__.py").is_file():
        fail(f"no package at {SRC / 'blochgibbs'}; run from a full checkout")
    sys.path.insert(1, str(SRC))
    import blochgibbs
    if Path(blochgibbs.__file__).resolve().parent != SRC / "blochgibbs":
        fail(f"blochgibbs imported from {blochgibbs.__file__}, not from {SRC}")


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = dirty = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True)
        if top.returncode == 0 and Path(top.stdout.strip()).resolve() == ROOT:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "-C", str(ROOT), "status", "--porcelain", "--", "src"],
                capture_output=True, text=True).stdout.strip())
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "commit": commit,
            "src_dirty": dirty}


def measure_setup(imports: str, env: dict) -> list[float]:
    """Wall times of fresh interpreters that import what the workload calls."""
    code = f"{imports}; import blochgibbs; print(blochgibbs.__file__)"
    times = []
    for _ in range(SETUP_LAUNCHES):
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        times.append(perf_counter() - t0)
        if proc.returncode != 0:
            fail(f"set-up import failed: {proc.stderr.strip()[-300:]}")
        if Path(proc.stdout.strip()).resolve().parent != SRC / "blochgibbs":
            fail(f"child imported blochgibbs from {proc.stdout.strip()}")
    return times


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np

    import tracer as tracing
    import workloads

    env = child_env()
    OUT_DIR.mkdir(exist_ok=True)
    setup = measure_setup(workloads.WORKLOADS[name].imports, env)
    wl = workloads.WORKLOADS[name](np.random.default_rng(seed), env, OUT_DIR)
    wl.warm_up()
    rec = None
    if trace:
        problems = tracing.self_check()
        if problems:
            fail("tracer self-check: " + "; ".join(problems))
        rec = tracing.Tracer()

    # Closed loop over passes; a pass starts only if a typical pass still
    # fits in the time left.  Traced runs alternate traced and untraced
    # passes and run at least one of each.
    passes = []  # (seconds, traced, ops)
    start = perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 0
        if traced and wl.in_process:
            rec.install()
        t0 = perf_counter()
        try:
            ops = wl.run_pass(len(passes), rec if traced else None)
        finally:
            dt = perf_counter() - t0
            if traced and wl.in_process:
                rec.uninstall()
        wl.check(ops, len(passes))
        passes.append((dt, traced, ops))
        typical = median(p[0] for p in passes)
        if (len(passes) >= (2 if trace else 1)
                and perf_counter() - start + typical > seconds):
            break
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    all_ops = [op for _, _, ops in passes for op in ops]
    wl.finish()

    plain = [p for p in passes if not p[1]]
    plain_ops = [op for _, _, ops in plain for op in ops]
    e2e = {
        "setup_s": (median(setup), "s", len(setup)),
        "heavy_op_ms": _class_median(plain_ops, "heavy"),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
    }
    # Reported, not gated: pass times and the cheap, interpreter-bound
    # operations spread more between runs on a shared host (README.md).
    extra = {"pass_s": (median(p[0] for p in plain), "s", len(plain)),
             "light_op_ms": _class_median(plain_ops, "light"),
             **wl.report([ops for _, _, ops in plain])}
    failed_ops = [op for op in all_ops if op.error or op.problems]
    result = {
        "workload": name, "seed": seed, "passes": len(passes),
        "attempted": len(all_ops), "failed": len(failed_ops),
        "failures": [f"{op.kind}: {op.error or '; '.join(op.problems)}"
                     for op in failed_ops[:10]],
        "e2e": e2e, "extra": extra,
    }
    if trace:
        result["layers"] = _layers(passes, tracing, wl)
        _write_jsonl(name, seed, passes)
    return result


def _class_median(ops, cls):
    ms = [op.seconds * 1e3 for op in ops if op.cls == cls]
    return (median(ms), "ms", len(ms))


def _layers(passes, tracing, wl) -> dict:
    traced = [(dt, ops) for dt, t, ops in passes if t]
    per_pass = []
    for _, ops in traced:
        layer = tracing.layer_metrics(tracing.merge(op.trace for op in ops))
        layer["cli.startup_s"] = sum(op.trace.get("startup_s", 0.0) for op in ops)
        per_pass.append(layer)
    out = dict(per_pass[0])
    for key in out:
        if key.endswith("_s"):
            out[key] = median(layer[key] for layer in per_pass)
    plain = [dt for dt, t, _ in passes if not t]
    out["trace.overhead_ratio"] = median(dt for dt, _ in traced) / median(plain)
    out["sweep.edge_defect_rows"] = getattr(wl, "edge_defect_rows", 0)
    return out


def _write_jsonl(name, seed, passes):
    path = OUT_DIR / f"trace-{name}-seed{seed}.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps({"workload": name, "seed": seed,
                             "environment": environment()}) + "\n")
        for p, (dt, traced, ops) in enumerate(passes):
            if not traced:
                continue
            for i, op in enumerate(ops):
                fh.write(json.dumps({"pass": p, "op": i, "kind": op.kind,
                                     "seconds": op.seconds, **op.trace}) + "\n")


def report(result: dict, env_info: dict, trace: bool) -> None:
    print(f"perfbench workload={result['workload']} seed={result['seed']} "
          f"passes={result['passes']} trace={int(trace)}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env_info.items()))
    for name, (value, unit, n) in {**result["e2e"], **result["extra"]}.items():
        print(f"  {name:<24} {value:14.6g} {unit:<6} n={n}")
    ratio = result["failed"] / result["attempted"]
    print(f"  {'error_ratio':<24} {ratio:14.6g} {'':<6} "
          f"({result['failed']} of {result['attempted']} operations)")
    for line in result["failures"]:
        print(f"    failed: {line}")
    if trace:
        for name, value in result["layers"].items():
            print(f"  {name:<40} {value:14.6g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("reproduce", "sweep", "oracles", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_package()
    trace = bool(args.trace)

    if args.workload == "all":
        # Each workload in its own process, so none inherits another's
        # imports, caches or peak memory.
        merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in ("reproduce", "sweep", "oracles"):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed",
                 str(args.seed), "--seconds", str(args.seconds), "--trace",
                 str(args.trace)], capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0:
                fail(f"{name} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
            part = json.loads(lines[-1])
            merged["correct"] &= part["correct"]
            merged["attempted"] += part["attempted"]
            merged["failed"] += part["failed"]
            merged["metrics"].update({f"{name}.{k}": v
                                      for k, v in part["metrics"].items()})
        print(json.dumps(merged))
        return 0

    result = run_workload(args.workload, args.seed, args.seconds, trace)
    report(result, environment(), trace)
    if trace:
        metrics = {k: {"value": result["layers"][k], "unit": u}
                   for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": result["e2e"][k][0], "unit": u}
                   for k, u in END_TO_END.items()}
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
