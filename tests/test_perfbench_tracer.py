"""The benchmark's tracer contract, checked from the test suite.

``perfbench/tracer.py`` wraps the library's public functions and reads
``SeriesResult.terms_used`` from every ``hyp_pfq_at_1`` call; its traces
are written as JSON.  A traced sweep must therefore serialise, a batched
call must still report its work as one positive Python int, and the
tracer's known call counts must hold.
"""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import numpy as np
import pytest

from blochgibbs import cli, specfun

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


def test_traced_kmb_sweep_is_json_serialisable(tracer_module, kmb_3f2_rows):
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        tracer.take()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["sweep", "--model", "kmb", "--beta-min", "0.5",
                             "--beta-max", "50", "--points", "40"])
        snap = tracer.take()
        # the 3F2 rows of the same grid through the summator, in one call
        specfun.hyp_pfq_at_1(*kmb_3f2_rows(np.logspace(np.log10(0.5),
                                                        np.log10(50), 40)),
                             1e-13)
        batch = tracer.take()
    finally:
        tracer.uninstall()
    assert code == 0
    json.dumps(snap)
    assert "specfun.hyp_pfq_at_1" not in snap["spans"]
    json.dumps(batch)
    terms = batch["work"]["specfun.hyp_pfq_at_1.terms"]
    assert type(terms) is int
    assert terms > 0
    assert batch["spans"]["specfun.hyp_pfq_at_1"][0] == 1
