"""Regenerate energy_moments_mpmath.json: 40-digit mpmath values of <E>
and var E for all five families, which ``models.mean_energy`` and
``models.var_energy`` are checked against.

Run from the repository root:

    python tests/ref/energy_moments_mpmath.py

The 121 log-spaced beta on [1e-10, 1e20] plus 2**-511, 1e100 and 1e300.
Each value is the digamma or trigamma difference of the family's
partition function, psi(beta + h) - psi(beta) and psi'(beta) -
psi'(beta + h) with h = (m + 1)/2 (KMB: h = 1/2 plus 1/beta and
1/beta^2), evaluated with enough working digits to absorb its
cancellation (log10 beta of them, twice, on top of 50).  KMB above
beta = 2**511 is stored as null: its moments raise DomainError there.
About 1 s in all.
"""

import json
import math
from pathlib import Path

import mpmath as mp
import numpy as np

OUT = Path(__file__).resolve().parent / "energy_moments_mpmath.json"
FAMILIES = {"real": 1, "complex": 2, "quaternionic": 4, "classical": 0,
            "kmb": None}
KMB_BETA_MAX = 2.0**511


def moments(m, beta: float) -> tuple[mp.mpf, mp.mpf]:
    with mp.workdps(50 + 2 * max(0, math.ceil(math.log10(beta)))):
        b = mp.mpf(beta)
        h = mp.mpf(1) / 2 if m is None else mp.mpf(m + 1) / 2
        mean = mp.digamma(b + h) - mp.digamma(b)
        var = mp.psi(1, b) - mp.psi(1, b + h)
        if m is None:
            mean, var = mean + 1 / b, var + 1 / b**2
        return mean, var


def main() -> None:
    betas = sorted(np.logspace(-10, 20, 121).tolist()
                   + [2.0**-511, 1e100, 1e300])
    doc = {"beta": betas}
    for family, m in FAMILIES.items():
        rows = {"mean_energy": [], "var_energy": []}
        for beta in betas:
            if m is None and beta > KMB_BETA_MAX:
                pair = (None, None)
            else:
                pair = tuple(mp.nstr(v, 40) for v in moments(m, beta))
            rows["mean_energy"].append(pair[0])
            rows["var_energy"].append(pair[1])
        doc[family] = rows
    OUT.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
