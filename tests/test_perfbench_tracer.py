"""The benchmark's tracer contract, checked from the test suite.

``perfbench/tracer.py`` wraps the library's public functions and reads
``SeriesResult.terms_used`` from every ``hyp_pfq_at_1`` call; its traces
are written as JSON.  A batched call must therefore still report its work
as one positive Python int, and the tracer's known call counts must hold.
"""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from blochgibbs import cli

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_self_check_passes(tracer_module):
    # one complex mean_polarization makes 4 log_gamma calls, one
    # partition 3
    assert tracer_module.self_check() == []


def test_traced_kmb_sweep_is_json_serialisable(tracer_module):
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        tracer.take()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["sweep", "--model", "kmb", "--beta-min", "0.5",
                             "--beta-max", "50", "--points", "40"])
        snap = tracer.take()
    finally:
        tracer.uninstall()
    assert code == 0
    json.dumps(snap)
    terms = snap["work"]["specfun.hyp_pfq_at_1.terms"]
    assert type(terms) is int
    assert terms > 0
    assert snap["spans"]["specfun.hyp_pfq_at_1"][0] == 1
