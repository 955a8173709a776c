"""Regenerate spectrum_mpmath.json: mpmath values of the eigenvalues
lambda_{n,d}, d = 0..floor(n/2), of ``spectra.spectrum``, from the
closed form

    2^-n Gamma(3/2+beta) Gamma(1+n-d+beta) Gamma(d+beta)
    / (Gamma(3/2+n/2+beta) Gamma(1+n/2+beta) Gamma(beta)),

which the library does not evaluate (it runs the ratio recurrence of
consecutive lambdas instead).

Run from the repository root:

    python tests/ref/spectrum_mpmath.py

n in {1, 2, 3, 4, 5, 12, 13, 100, 400, 1027, 1028} times ten beta from
2**-511 to 1e300, 17 significant digits each (subnormal values
included).  The log-gamma sum cancels by about log10(beta) digits, so
the working precision is 50 digits plus twice that, as in
energy_moments_mpmath.py.  About 2 s in all.
"""

import json
import math
from pathlib import Path

import mpmath as mp

OUT = Path(__file__).resolve().parent / "spectrum_mpmath.json"
NS = (1, 2, 3, 4, 5, 12, 13, 100, 400, 1027, 1028)
BETAS = (2.0**-511, 1e-10, 0.3, 1.0, 7.5, 1e3, 1e5, 1e10, 1e100, 1e300)


def lambdas(n: int, beta: float) -> list[mp.mpf]:
    with mp.workdps(50 + 2 * max(0, math.ceil(math.log10(beta)))):
        b, half = mp.mpf(beta), mp.mpf(n) / 2
        lg = mp.loggamma
        head = (-n * mp.log(2) + lg(1.5 + b) - lg(1.5 + half + b)
                - lg(1 + half + b) - lg(b))
        return [mp.exp(head + lg(1 + n - d + b) + lg(d + b))
                for d in range(n // 2 + 1)]


def main() -> None:
    rows = [json.dumps({"n": n, "beta": beta,
                        "lambda": [mp.nstr(v, 17) for v in lambdas(n, beta)]})
            for n in NS for beta in BETAS]
    OUT.write_text('{"rows": [\n' + ",\n".join(rows) + "\n]}\n")


if __name__ == "__main__":
    main()
