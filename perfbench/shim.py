"""Child entry point for traced ``reproduce`` commands.

    python3 perfbench/shim.py TRACE_OUT SPAWN_MONOTONIC CLI_ARGS...

Installs the tracer's wrappers, runs ``blochgibbs.cli.main(CLI_ARGS)`` and
writes the recorded aggregates, plus the time from process spawn to the
call of ``main``, to TRACE_OUT as JSON.  Exits with ``main``'s code.
"""

import sys
import time

if __name__ == "__main__":
    import json
    from pathlib import Path

    out_path, spawn_t = sys.argv[1], float(sys.argv[2])
    src = Path(__file__).resolve().parents[1] / "src"
    sys.path.insert(1, str(src))
    import blochgibbs.cli
    import tracer

    if Path(blochgibbs.cli.__file__).resolve().parent != src / "blochgibbs":
        sys.exit(f"blochgibbs imported from {blochgibbs.cli.__file__}, not {src}")
    rec = tracer.Tracer()
    rec.install()
    startup_s = time.monotonic() - spawn_t
    try:
        code = blochgibbs.cli.main(sys.argv[3:])
    finally:
        rec.uninstall()
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump({"startup_s": startup_s, **rec.take()}, fh)
    sys.exit(code)
