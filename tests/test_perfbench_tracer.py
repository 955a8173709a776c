"""The benchmark's tracer contract, checked from the test suite.

``perfbench/tracer.py`` wraps the library's public functions and reads
``SeriesResult.terms_used`` from every ``hyp_pfq_at_1`` call; its traces
are written as JSON.  A traced sweep must therefore serialise, a
summator call, which sums one series, must report its work as one
positive Python int, and the tracer's known call counts must hold.  A
traced verify must still see the library calls of every suite, and the
benchmark's own copy of the quoted constants (``perfbench/checks.py``)
must agree with ``verify.PAPER``.
"""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import numpy as np
import pytest

from blochgibbs import cli, specfun, verify

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer_module():
    return _load("tracer")


def test_self_check_passes(tracer_module):
    # one complex mean_polarization makes 4 log_gamma calls, one
    # partition 3
    assert tracer_module.self_check() == []


def test_traced_kmb_sweep_is_json_serialisable(tracer_module, kmb_3f2_rows):
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        tracer.take()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["sweep", "--model", "kmb", "--beta-min", "0.5",
                             "--beta-max", "50", "--points", "40"])
        snap = tracer.take()
        # the 3F2 row of the grid's first beta through the summator
        nums, dens = kmb_3f2_rows(np.array([0.5]))
        specfun.hyp_pfq_at_1([x[0] for x in nums], [x[0] for x in dens],
                             1e-13)
        one = tracer.take()
    finally:
        tracer.uninstall()
    assert code == 0
    json.dumps(snap)
    assert "specfun.hyp_pfq_at_1" not in snap["spans"]
    json.dumps(one)
    terms = one["work"]["specfun.hyp_pfq_at_1.terms"]
    assert type(terms) is int
    assert terms > 0
    assert one["spans"]["specfun.hyp_pfq_at_1"][0] == 1


def test_traced_verify_sees_every_suite_and_layer(tracer_module):
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        tracer.take()
        checks = verify.run_suite("all")
        spans = tracer.take()["spans"]
    finally:
        tracer.uninstall()
    assert all(c.passed for c in checks)
    for suite in verify.SUITES:
        assert spans[f"verify.{suite}"][0] == 1
    for name in ("models.partition", "models.mean_polarization",
                 "spectra.zeta_matrix_oracle",
                 "duality.run_duality_experiment"):
        assert spans.get(name, [0])[0] > 0, name


def test_paper_constants_match_the_benchmark_copy():
    # perfbench/checks.py keeps its own literals as an independent arbiter;
    # its tolerance of a KMB density crossing is the relative one times
    # the value
    checks = _load("checks")
    solve_names = {("stationary_point", "beta"): "stationary_point_beta",
                   ("stationary_point", "E"): "stationary_point_E",
                   ("maximin_beta",): "maximin_beta",
                   ("critical_beta_unit_lambda",): "critical_beta_unit"}
    for key, (target, tol) in checks.SOLVE_CONSTANTS.items():
        if key[0] == "brosseau_crossings":
            name = f"brosseau_crossing_{key[1]}"
        elif key[0] == "kmb_density_crossings":
            name = f"kmb_density_crossing_{key[1]}"
            value, rtol = verify.PAPER[name]
            assert (target, tol) == (value, rtol * value), name
            continue
        else:
            name = solve_names[key]
        assert (target, tol) == verify.PAPER[name], name
    for model, fields in checks.DUALITY_CONSTANTS.items():
        for field, pair in fields.items():
            name = f"dual_{model}_{field.replace('_meanE', '')}"
            assert pair == verify.PAPER[name], name
    assert len(checks.SOLVE_CONSTANTS) == 10
    assert sum(map(len, checks.DUALITY_CONSTANTS.values())) == 6
