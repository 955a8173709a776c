"""Regenerate kmb_3f2_mpmath.json: [beta, value] rows with 40-digit mpmath
values of the KMB factor F = 3F2({1/2, 1, 2}; {3/2, 2 + beta}; 1) behind
``models.mean_polarization`` for KMB (``models._kmb_3f2``: 48 series
terms from beta = 20 up, the contiguous relation F(beta) = 1/(2 beta) +
(2 beta + 3)/(2 beta + 4) F(beta + 1) below).

Run from the repository root:

    python tests/ref/kmb_3f2_mpmath.py

57 log-spaced beta on [1e-10, 1e4] plus nine points within 1 % of
beta = 2.65, where <r> switches from its log form (below) to the
log_gamma-difference gamma ratio, on both sides.  mpmath sums the
direct series below beta = 10; from beta = 10 on mpmath's direct
unit-argument summation is wrong (1.877 instead of 1.00665 at
beta = 100) and its Thomae image is used there.  About 10 s in all.
"""

import json
from pathlib import Path

import mpmath as mp
import numpy as np

OUT = Path(__file__).resolve().parent / "kmb_3f2_mpmath.json"
SWITCH = (2.625, 2.635, 2.645, 2.649, 2.65, 2.651, 2.655, 2.665, 2.675)


def kmb_factor(beta: float) -> mp.mpf:
    with mp.workdps(40):
        b = mp.mpf(beta)
        if beta < 10:
            return mp.hyp3f2(0.5, 1, 2, 1.5, 2 + b, 1)
        lg = mp.loggamma
        return (mp.exp(lg(1.5) + lg(2 + b) + lg(b) - lg(2) - lg(1 + b)
                       - lg(0.5 + b))
                * mp.hyp3f2(-0.5, b, b, 1 + b, 0.5 + b, 1))


def main() -> None:
    betas = sorted(np.logspace(-10, 4, 57).tolist() + list(SWITCH))
    rows = [[beta, mp.nstr(kmb_factor(beta), 40)] for beta in betas]
    OUT.write_text("[\n" + ",\n".join(map(json.dumps, rows)) + "\n]\n")


if __name__ == "__main__":
    main()
