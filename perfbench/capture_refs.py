"""Write the reference outputs the ``reproduce`` checks compare against.

    python3 perfbench/capture_refs.py

Runs the reproduce commands once against ``src/`` and stores their output
under ``perfbench/ref/``.  The committed references were captured at
commit 3eefde3; recapture only when a change is meant to alter these outputs,
and say so in the change.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUTPUTS = {
    **{f"fig{i}.csv": ["figure", f"fig{i}"] for i in range(1, 7)},
    "sweep_kmb_400.csv": ["sweep", "--model", "kmb", "--points", "400"],
    "spectrum_n12_beta1.json": ["spectrum", "--n", "12", "--beta", "1.0"],
}


def cli(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-m", "blochgibbs.cli"] + argv, env=env,
                          capture_output=True, text=True, check=True).stdout


def main():
    ref = HERE / "ref"
    ref.mkdir(exist_ok=True)
    for name, argv in OUTPUTS.items():
        (ref / name).write_text(cli(argv))
    names = [line[7:].split(":", 1)[0] for line in cli(["verify"]).splitlines()
             if line.startswith("[PASS] ")]
    (ref / "verify_checks.txt").write_text("\n".join(names) + "\n")


if __name__ == "__main__":
    main()
