"""Output checks behind the benchmark's ``correct`` and ``failed`` fields.

Reproduce outputs are compared with references captured at commit
3eefde3 (``ref/``, written by ``capture_refs.py``) and with the constants
the verify suite asserts.  Sweep rows are compared with mpmath; oracle
results with the closed forms they are independent of.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

REF_DIR = Path(__file__).resolve().parent / "ref"

# Relative tolerance for values compared with a reference CSV or JSON.  It
# admits last-digit changes (vectorisation, summation order) and the
# ~1e-12 accuracy fixes still open at large beta, and nothing larger.
REF_RTOL = 1e-10
REF_ATOL = 1e-14
# Sweep rows against mpmath: the figure range [1e-2, 1e3] is accurate to
# ~1e-12 at commit 3eefde3.
MPMATH_RTOL = 1e-10

# (target, absolute tolerance) pairs as the verify suite asserts them.
SOLVE_CONSTANTS = {
    ("stationary_point", "beta"): (0.457407, 1e-4),
    ("stationary_point", "E"): (2.58527, 1e-4),
    ("maximin_beta",): (0.468733, 1e-5),
    ("brosseau_crossings", "quaternionic"): (0.76007, 1e-4),
    ("brosseau_crossings", "complex"): (1.04585, 1e-4),
    ("brosseau_crossings", "real"): (1.46249, 1e-3),
    ("brosseau_crossings", "classical"): (3.1857, 1e-3),
    ("kmb_density_crossings", "classical"): (1.57565, 0.01 * 1.57565),
    ("kmb_density_crossings", "real"): (0.53341, 0.01 * 0.53341),
    ("critical_beta_unit_lambda",): (0.647175, 1e-6),
}
DUALITY_CONSTANTS = {
    "complex": {"normalizer": (0.984296, 0.002), "mean_beta": (0.0636579, 5e-4),
                "roundtrip_meanE": (16.2805, 0.02)},
    "quaternionic": {"normalizer": (0.902062, 0.002),
                     "mean_beta": (0.0664174, 5e-4),
                     "roundtrip_meanE": (16.2645, 0.02)},
}


def close(a: float, b: float, rtol: float = REF_RTOL, atol: float = REF_ATOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + atol


def parse_csv(text: str) -> tuple[list[str], list[list[float]]]:
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], [[float(v) for v in r] for r in rows[1:]]


def compare_csv(text: str, ref_name: str) -> tuple[list[str], bool]:
    """(problems, byte_identical) of a CSV output against its reference."""
    ref_text = (REF_DIR / ref_name).read_text()
    if text == ref_text:
        return [], True
    header, rows = parse_csv(text)
    ref_header, ref_rows = parse_csv(ref_text)
    if header != ref_header or len(rows) != len(ref_rows):
        return [f"{ref_name}: shape or header differs from the reference"], False
    bad = sum(not close(a, b) for row, ref in zip(rows, ref_rows)
              for a, b in zip(row, ref))
    return ([f"{ref_name}: {bad} values outside rtol {REF_RTOL}"] if bad else []), False


def _lookup(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def check_verify(text: str) -> list[str]:
    names = (REF_DIR / "verify_checks.txt").read_text().split()
    got, failing = [], []
    for line in text.splitlines():
        if line.startswith("[PASS] ") or line.startswith("[FAIL] "):
            name = line[7:].split(":", 1)[0]
            got.append(name)
            if line.startswith("[FAIL]"):
                failing.append(name)
    problems = [f"verify: check {n} failed" for n in failing]
    if got != names:
        problems.append(f"verify: {len(got)} checks named differently from "
                        f"the {len(names)} reference names")
    if not text.rstrip().endswith(f"OK: {len(names)}/{len(names)} checks passed"):
        problems.append("verify: summary line is not all-pass")
    return problems


def check_solve(text: str) -> list[str]:
    doc = json.loads(text)
    problems = []
    for path, (target, tol) in SOLVE_CONSTANTS.items():
        got = _lookup(doc, path)
        if got is None or abs(got - target) > tol:
            problems.append(f"solve: {'.'.join(path)} = {got}, want {target} +- {tol}")
    for model in ("complex", "quaternionic"):
        if doc["kmb_density_crossings"][model] is not None:
            problems.append(f"solve: a {model} KMB density crossing was reported")
    return problems


def check_duality(text: str, model: str) -> list[str]:
    doc = json.loads(text)
    problems = [] if doc["model"] == model else [f"duality: model {doc['model']}"]
    for key, (target, tol) in DUALITY_CONSTANTS[model].items():
        if abs(doc[key] - target) > tol:
            problems.append(f"duality {model}: {key} = {doc[key]}, want {target} +- {tol}")
    return problems


def check_spectrum(text: str) -> tuple[list[str], bool]:
    ref_text = (REF_DIR / "spectrum_n12_beta1.json").read_text()
    if text == ref_text:
        return [], True
    doc, ref = json.loads(text), json.loads(ref_text)
    ok = (doc["n"] == ref["n"] and len(doc["entries"]) == len(ref["entries"])
          and all(e["d"] == r["d"] and e["multiplicity"] == r["multiplicity"]
                  and close(e["lambda"], r["lambda"])
                  for e, r in zip(doc["entries"], ref["entries"])))
    return ([] if ok else ["spectrum: entries differ from the reference"]), False


def check_sweep_csv(text: str, ref_name: str) -> tuple[list[str], bool]:
    problems, identical = compare_csv(text, ref_name)
    _, rows = parse_csv(text)
    over = sum(r[4] > 1.0 for r in rows)
    if over:
        problems.append(f"{ref_name}: {over} rows with <r> > 1")
    return problems, identical


# ----------------------------------------------------------- mpmath rows


def mpmath_row(family: str, beta: float) -> tuple[float, float, float, float]:
    """(Z, <E>, var E, <r>) of one family at one beta, at 30 digits.

    KMB <r> uses mpmath's own 3F2 at unit argument for beta < 10; above
    that mpmath's direct unit-argument summation is wrong (it returns
    ~0.19 at beta = 1e3), so the Thomae-transformed series is summed
    instead, which agrees with an mpmath quadrature of the density to
    18 digits on [1, 1e10].
    """
    import mpmath as mp

    with mp.workdps(30):
        b = mp.mpf(beta)
        lg = mp.loggamma
        if family == "kmb":
            z = mp.exp(lg(0.5) + lg(b) - lg(0.5 + b)) / b
            e = 1 / b + mp.digamma(0.5 + b) - mp.digamma(b)
            v = 1 / b**2 + mp.psi(1, b) - mp.psi(1, 0.5 + b)
            if beta < 10:
                h = mp.hyp3f2(0.5, 1, 2, 1.5, 2 + b, 1)
            else:
                h = mp.exp(lg(1.5) + lg(2 + b) + lg(b) - lg(2) - lg(1 + b)
                           - lg(0.5 + b)) * mp.hyp3f2(-0.5, b, b, 1 + b, 0.5 + b, 1)
            r = 2 * b * h / mp.sqrt(mp.pi) * mp.exp(lg(0.5 + b) - lg(2 + b))
        else:
            m = {"real": 1, "complex": 2, "quaternionic": 4, "classical": 0}[family]
            h = mp.mpf(m + 1) / 2
            z = mp.exp(lg(h) + lg(b) - lg(h + b))
            e = mp.digamma(h + b) - mp.digamma(b)
            v = mp.psi(1, b) - mp.psi(1, h + b)
            r = mp.exp(lg(1 + mp.mpf(m) / 2) + lg(0.5 + b + mp.mpf(m) / 2)
                       - lg(1 + b + mp.mpf(m) / 2) - lg(mp.mpf(1 + m) / 2))
        return float(z), float(e), float(v), float(r)


def sweep_row_error(family: str, row: list[float]) -> float:
    """Largest relative error of a sweep row's four values against mpmath."""
    ref = mpmath_row(family, row[0])
    return max(abs(g - r) / abs(r) for g, r in zip(row[1:], ref))
