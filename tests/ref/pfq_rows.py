"""Regenerate pfq_rows.json: a bit pin of ``specfun.hyp_pfq_at_1``.

Each row is [numerators, denominators, tol, value, tail_bound,
terms_used], every float as ``float.hex``, so a change to the summator's
code that is meant to keep its numbers can be checked bit for bit
(``tests/test_specfun.py::TestPfqRowsPin``).  The rows:

- KMB 3F2 rows on beta in [0.01, 1000]: the direct series
  3F2({1/2, 1, 2}; {3/2, 2 + beta}; 1) (excess beta) from beta = 0.3 up
  and its Thomae image 3F2({-1/2, beta, beta}; {1 + beta, 1/2 + beta}; 1)
  (excess 2) at every beta, at three tolerances;
- 400 seeded random rows with p in {1, 2, 3} numerators, p - 1
  denominators, excess s in [0.3, 10] and tol in [1e-13, 1e-4]
  (log-uniform), redrawn where the 10^6-term budget does not certify tol;
- the rows that the test suite sums.

Run from the repository root, on the tree whose numbers are to be pinned:

    PYTHONPATH=src python tests/ref/pfq_rows.py

About 10 s.
"""

import json
from pathlib import Path

import numpy as np

from blochgibbs.errors import ConvergenceError
from blochgibbs.specfun import hyp_pfq_at_1

OUT = Path(__file__).resolve().parent / "pfq_rows.json"
SEED = 20261020
KMB = ([0.5, 1.0, 2.0], [1.5, 3.0])


def kmb_rows():
    rows = []
    for tol in (1e-13, 1e-10, 1e-6):
        for beta in np.logspace(-2, 3, 20).tolist():
            if beta >= 0.3:
                rows.append(([0.5, 1.0, 2.0], [1.5, 2.0 + beta], tol))
            rows.append(([-0.5, beta, beta], [1.0 + beta, 0.5 + beta], tol))
    return rows


def random_rows(count):
    rng = np.random.default_rng(SEED)
    rows = []
    while len(rows) < count:
        p = int(rng.integers(1, 4))
        s = float(np.exp(rng.uniform(np.log(0.3), np.log(10.0))))
        tol = float(10.0 ** rng.uniform(-13.0, -4.0))
        if p == 1:
            nums, dens = [-s], []
        else:
            nums = rng.uniform(-0.9, 4.0, p).tolist()
            dens = rng.uniform(0.2, 5.0, p - 2).tolist()
            dens.append(sum(nums) + s - sum(dens))
            if dens[-1] < 0.1:
                continue
        if any(a <= 0 and a == np.floor(a) for a in nums):
            continue
        try:
            hyp_pfq_at_1(nums, dens, tol)
        except ConvergenceError:
            continue
        rows.append((nums, dens, tol))
    return rows


def suite_rows():
    rows = [(*KMB, 1e-12), ([0.0, 2.5], [4.0], 1e-12),
            ([-2.0, 1.0], [1.0], 1e-12), ([-3.0, 0.5, 1.0], [1.5, 2.0], 1e-12)]
    rows += [([0.5, 1.0, 2.0], [1.5, b2], 1e-10)
             for b2 in (2.3, 3.0, 5.5, 12.0)]
    rows += [([0.5, 1.0, 2.0], [1.5, b2], 1e-13) for b2 in (102.0, 1002.0)]
    rows += [([0.5, 1.0, 2.0], [1.5, 3.0], tol) for tol in (1e-3, 1e-8, 5e-10)]
    rows += [([a, 1.0], [a + 1.5], 1.0) for a in (300.0, 600.0, 2000.0)]
    for beta in (0.01, 0.7, 2.9):
        rows.append(([-0.5, beta, beta], [1.0 + beta, 0.5 + beta], 1e-11))
    for beta in (3.0, 12.0, 1e3):
        rows.append(([0.5, 1.0, 2.0], [1.5, 2.0 + beta], 1e-12))
    # the conftest ``kmb_3f2_rows`` grids at tol 1e-13
    grids = (np.logspace(-1, 1, 200), np.logspace(1, 3, 200),
             np.logspace(np.log10(0.5), np.log10(50), 40))
    for beta in np.concatenate(grids).tolist():
        if beta >= 2.65:
            rows.append(([0.5, 1.0, 2.0], [1.5, 2.0 + beta], 1e-13))
        else:
            rows.append(([-0.5, beta, beta], [1.0 + beta, 0.5 + beta], 1e-13))
    return rows


def main() -> None:
    rows = kmb_rows() + random_rows(400) + suite_rows()
    hexes = lambda xs: [float(x).hex() for x in xs]
    out = []
    for nums, dens, tol in rows:
        res = hyp_pfq_at_1(nums, dens, tol)
        out.append([hexes(nums), hexes(dens), tol.hex(), res.value.hex(),
                    res.tail_bound.hex(), res.terms_used])
    OUT.write_text("[\n" + ",\n".join(map(json.dumps, out)) + "\n]\n")


if __name__ == "__main__":
    main()
