"""Regenerate zeta_oracle_bits.json: a bit pin of ``spectra.zeta_matrix_oracle``.

For n = 1..3 and eight beta from 1e-10 to 100 (both radial panel layouts:
the split at t = 6 for beta < 50/36, one panel above), every entry of the
2^n x 2^n output is stored as ``float.hex`` of its real and imaginary
parts, so a change to the oracle's code that is meant to keep its numbers
can be checked bit for bit
(``tests/test_spectra.py::TestZetaOracleBitsPin``).

Run from the repository root, on the tree whose numbers are to be pinned:

    PYTHONPATH=src python tests/ref/zeta_oracle_bits.py
"""

import json
from pathlib import Path

from blochgibbs.spectra import zeta_matrix_oracle

OUT = Path(__file__).resolve().parent / "zeta_oracle_bits.json"
NS = (1, 2, 3)
BETAS = (1e-10, 1e-5, 0.3, 0.5, 1.0, 2.0, 5.0, 100.0)


def main():
    pins = []
    for n in NS:
        for beta in BETAS:
            zeta = zeta_matrix_oracle(n, beta)
            pins.append({
                "n": n,
                "beta": beta,
                "real": [float(v).hex() for v in zeta.real.ravel()],
                "imag": [float(v).hex() for v in zeta.imag.ravel()],
            })
    OUT.write_text(json.dumps({"pins": pins}, indent=1) + "\n")


if __name__ == "__main__":
    main()
