"""Tracer self-check.

    python3 perfbench/selfcheck.py [--seed N] [--seconds S]

Checks that the wrappers record known call counts (one complex
``mean_polarization`` makes 4 ``log_gamma`` calls, one ``partition`` 3),
then runs every workload traced twice with the same seed and checks that
each count metric repeats exactly.  Exits 1 on any mismatch.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def traced_counts(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, check=True)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items() if v["unit"] == "count"}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=3.0)
    args = parser.parse_args()
    sys.path.insert(1, str(HERE.parent / "src"))
    import tracer

    problems = tracer.self_check()
    for workload in ("reproduce", "sweep", "oracles"):
        first, second = (traced_counts(workload, args.seed, args.seconds)
                         for _ in range(2))
        problems += [f"{workload}: {k} = {first[k]} then {second[k]}"
                     for k in first if first[k] != second[k]]
        print(f"{workload}: {len(first)} counts compared")
    for line in problems:
        print(f"mismatch: {line}")
    print("tracer self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
