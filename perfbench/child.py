"""One measured ribboncoh CLI invocation in a fresh interpreter.

    python3 perfbench/child.py SPAWN_TIME REPORT_PATH TRACE [CLI ARGS...]

SPAWN_TIME is the parent's ``time.perf_counter()`` just before it started
this process (on Linux both read the system-wide CLOCK_MONOTONIC).  The
child imports ``ribboncoh.cli``, optionally installs the tracer, calls
``cli.main`` with the CLI arguments and writes a JSON report to
REPORT_PATH.  With no CLI arguments it only measures set-up and exits.
The CLI's own output goes to this process's stdout, which the parent
captures and checks.
"""
import json
import os
import sys
import time


def main() -> int:
    spawn = float(sys.argv[1])
    report_path = sys.argv[2]
    traced = sys.argv[3] == "1"
    cli_args = sys.argv[4:]

    import ribboncoh.cli

    report = {"setup_s": time.perf_counter() - spawn, "module": os.path.abspath(ribboncoh.cli.__file__)}
    rc = 0
    if cli_args:
        tracer = None
        if traced:
            sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
            from tracer import Tracer, install

            tracer = Tracer()
            install(tracer)
        start = time.perf_counter()
        try:
            rc = ribboncoh.cli.main(cli_args)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code if isinstance(exc.code, int) else 2
        report["wall_s"] = time.perf_counter() - start
        sys.stdout.flush()
        if tracer is not None:
            report["trace"] = tracer.report()
    report["rc"] = rc
    with open(report_path, "w") as f:
        json.dump(report, f)
    return rc


if __name__ == "__main__":
    sys.exit(main())
