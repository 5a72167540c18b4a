"""Cold-run benchmark of the ribboncoh CLI.

    python3 perfbench/run.py --workload mw-g0 --seed 1 --seconds 10 --trace 0

One client, closed loop: the parent starts one fresh interpreter at a time
(perfbench/child.py), waits for it, checks its output and starts the next,
until ``--seconds`` have passed (at least one invocation).  Every invocation
gets its own empty working directory and an explicitly passed, empty
``--cache-dir``, both deleted afterwards, so the in-process memo tables and
the on-disk cache start cold every time.  ``RIBBONCOH_CACHE_DIR`` is removed
from the child's environment.

The seed sets the child's PYTHONHASHSEED.  The CLI arguments are fixed per
workload, and a correct run prints byte-identical output under every hash
seed, so the seed varies the interpreter's string hashing only.

An invocation is correct when the child exits 0, imported ribboncoh from this
checkout's src/, and the SHA-256 of its stdout equals the digest frozen in
perfbench/digests.json.  One that fails counts in ``failed`` and is never
timed.

The last line of stdout is the result:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones (medians over the invocations, set-up over
several set-up-only starts).  With ``--trace 1`` one more invocation runs
with perfbench/tracer.py installed and the metrics are the per-layer ones,
plus the tracing overhead against the untraced median.  The line before it
records the environment and every invocation.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
DIGESTS = os.path.join(HERE, "digests.json")
WORK = os.path.join(ROOT, ".perfbench_work")

# Fixed CLI arguments per workload; perfbench/README.md says why each was chosen.
WORKLOADS = {
    "mw-g0": ["cohomology", "--kind", "mw", "-g", "0", "--sector", "ge3", "-E", "1..7", "--emit", "json"],
    "mw-g1": ["cohomology", "--kind", "mw", "-g", "1", "--sector", "ge3", "-E", "2..7", "--emit", "json"],
    "check": ["check", "--format", "json", "--e-max-ge3", "4", "--e-max-oracle", "3"],
}

SETUP_STARTS = 11     # set-up-only starts per run; their median is setup_s
RUN_DEADLINE_S = 170  # a child still running this long after the run began is killed


def cli_args(args: list[str], cache_dir: str) -> list[str]:
    """Of the subcommands measured, only cohomology takes a cache."""
    if args[0] == "cohomology":
        return args + ["--cache-dir", cache_dir]
    return list(args)


def child_env(seed: int) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "RIBBONCOH_CACHE_DIR"}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = str(seed % 4294967296)
    return env


def start_child(argv: list[str], seed: int, trace: bool, workdir: str, timeout: float) -> dict:
    """Run child.py once in workdir; returns its report plus exit code,
    stdout digest and the kernel's resource usage for that one process."""
    report_path = os.path.join(workdir, "report.json")
    with open(os.path.join(workdir, "stdout"), "wb") as out, open(os.path.join(workdir, "stderr"), "wb") as err:
        spawn = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, CHILD, repr(spawn), report_path, "1" if trace else "0", *argv],
            stdout=out, stderr=err, stdin=subprocess.DEVNULL, cwd=workdir, env=child_env(seed),
        )
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted (SIGTERM, Ctrl-C): leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(os.path.join(workdir, "stdout"), "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    try:
        with open(report_path) as f:
            report = json.load(f)
    except (OSError, ValueError):
        report = {}
    report.update(
        exit_code=proc.returncode,
        digest=digest,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
    )
    if proc.returncode != 0:
        with open(os.path.join(workdir, "stderr"), "rb") as f:
            report["stderr_tail"] = f.read()[-2000:].decode(errors="replace")
    return report


def dir_bytes(path: str) -> int:
    total = 0
    for base, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    return total


def fresh_dir(prefix: str) -> tempfile.TemporaryDirectory:
    os.makedirs(WORK, exist_ok=True)
    return tempfile.TemporaryDirectory(prefix=prefix, dir=WORK)


def invoke(argv: list[str], expected: str, seed: int, trace: bool, timeout: float) -> dict:
    """One cold CLI invocation in a fresh, afterwards deleted, directory."""
    with fresh_dir("run-") as workdir:
        cache_dir = os.path.join(workdir, "cache")
        os.mkdir(cache_dir)
        report = start_child(cli_args(argv, cache_dir), seed, trace, workdir, timeout)
        report["cache_bytes"] = dir_bytes(cache_dir)
    expected_module = os.path.join(SRC, "ribboncoh", "cli.py")
    report["ok"] = (
        report["exit_code"] == 0
        and report["digest"] == expected
        and report.get("module") == expected_module
    )
    return report


def measure_setup(seed: int, timeout: float) -> list[float]:
    """Set-up-only starts; the first, untimed, lets the interpreter write
    its bytecode cache as a user's first start would."""
    samples = []
    for i in range(SETUP_STARTS + 1):
        with fresh_dir("setup-") as workdir:
            report = start_child([], seed, False, workdir, timeout)
        if report["exit_code"] != 0 or "setup_s" not in report:
            raise RuntimeError("set-up start failed: %s" % report.get("stderr_tail", ""))
        if i:
            samples.append(report["setup_s"])
    return samples


def layer_metrics(trace: dict, cache_bytes: int, overhead_s: float) -> dict:
    """Per-layer metrics from one traced invocation's span and counter report."""
    busy, self_s, layer_busy = trace["busy_s"], trace["self_s"], trace["layer_busy_s"]
    calls, entries, counters = trace["calls"], trace["entries"], trace["counters"]

    def b(*names):
        return sum(busy.get(n, 0.0) for n in names)

    c = counters.get
    candidates = c("candidates", 0)
    seconds = {
        "enumeration.busy_s": layer_busy.get("enumeration", 0.0),
        "enumeration.bruteforce_s": b("enumerate_bruteforce"),
        "canonical.canon_s": layer_busy.get("canonical", 0.0),
        "diff.busy_s": layer_busy.get("diff", 0.0),
        "diff.self_s": sum(self_s.get(n, 0.0) for n in ("delta", "bridge", "project_ge3", "apply_linear")),
        "linalg.assemble_self_s": self_s.get("assemble", 0.0),
        "linalg.exact_rank_s": b("rank"),
        "linalg.modp_rank_s": b("rank_modp"),
        "linalg.matmul_s": b("matmul"),
        "complexes.build_s": b("build"),
        "complexes.cohomology_s": b("cohomology"),
        "cache.write_s": b("store_basis", "store_matrix", "store_table"),
        "cache.read_s": b("load_basis", "load_matrix", "load_table"),
        "checks.identities_s": b("identity_suite"),
        "checks.structural_s": b("structural_suite"),
        "checks.enum_oracle_s": b("oracle_suite"),
        "checks.rank_oracle_s": b("rank_suite"),
        "cli.self_s": self_s.get("main", 0.0),
        "trace.overhead_s": overhead_s,
    }
    counts = {
        "enumeration.candidates": candidates,
        "enumeration.kept": c("kept", 0),
        "enumeration.classes": c("classes", 0),
        "enumeration.zero_classes": c("zero_classes", 0),
        "canonical.canon_calls": entries.get("canonical", 0),
        "diff.delta_calls": calls.get("delta", 0),
        "diff.bridge_calls": calls.get("bridge", 0),
        "diff.image_terms": c("image_terms", 0),
        "linalg.exact_rank_calls": calls.get("rank", 0),
        "linalg.modp_rank_calls": calls.get("rank_modp", 0),
        "linalg.max_rows": c("max_rows", 0),
        "linalg.max_cols": c("max_cols", 0),
        "linalg.max_nnz": c("max_nnz", 0),
        "linalg.nnz_total": c("nnz_total", 0),
        "complexes.basis_dim_total": c("basis_dim_total", 0),
        "complexes.certified_degrees": c("certified_degrees", 0),
        "cache.hits": c("cache_hits", 0),
        "cache.misses": c("cache_misses", 0),
        "checks.generators": c("generators", 0),
    }
    metrics = {k: {"value": v, "unit": "s"} for k, v in seconds.items()}
    metrics.update({k: {"value": v, "unit": "count"} for k, v in counts.items()})
    metrics["cache.bytes_written"] = {"value": cache_bytes, "unit": "bytes"}
    metrics["enumeration.keep_ratio"] = {
        "value": c("kept", 0) / candidates if candidates else 0.0,
        "unit": "ratio",
    }
    return metrics


def environment() -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    source = hashlib.sha256()
    pkg = os.path.join(SRC, "ribboncoh")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                source.update(name.encode() + b"\0" + f.read())
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "load": "closed loop, one client, one child process at a time",
    }


EMPTY_TRACE = {"busy_s": {}, "self_s": {}, "layer_busy_s": {}, "calls": {}, "entries": {}, "counters": {}}


def median(values):
    return statistics.median(values) if values else 0.0


def run(argv: list[str], expected: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; returns (per-invocation detail, result line)."""
    begin = time.perf_counter()

    def time_left():
        return RUN_DEADLINE_S - (time.perf_counter() - begin)

    setup = measure_setup(seed, time_left())
    runs = []
    loop_start = time.perf_counter()
    while True:
        runs.append(invoke(argv, expected, seed, False, time_left()))
        if time.perf_counter() - loop_start >= seconds:
            break
    traced = invoke(argv, expected, seed, True, time_left()) if trace else None
    done = runs + ([traced] if traced else [])
    good = [r for r in runs if r["ok"]]
    failed = sum(not r["ok"] for r in done)
    for r in done:
        if not r["ok"]:
            print(
                "perfbench: failed run: exit %s, digest %s (expected %s)\n%s"
                % (r["exit_code"], r["digest"], expected, r.get("stderr_tail", "")),
                file=sys.stderr,
            )

    if trace:
        overhead = traced.get("wall_s", 0.0) - median([r["wall_s"] for r in good])
        metrics = layer_metrics(traced.get("trace") or EMPTY_TRACE, traced["cache_bytes"], overhead)
    else:
        metrics = {
            "wall_s": {"value": median([r["wall_s"] for r in good]), "unit": "s"},
            "cpu_s": {"value": median([r["cpu_s"] for r in good]), "unit": "s"},
            "peak_rss_mb": {"value": median([r["peak_rss_mb"] for r in good]), "unit": "MB"},
            "setup_s": {"value": median(setup), "unit": "s"},
        }
    detail = {
        "argv": argv,
        "seed": seed,
        "environment": environment(),
        "setup_samples_s": setup,
        "invocations": [
            {k: r.get(k) for k in ("ok", "exit_code", "digest", "wall_s", "cpu_s", "peak_rss_mb", "setup_s")}
            for r in done
        ],
        "traced": trace,
        "error_rate": failed / len(done),
    }
    result = {
        "correct": failed == 0 and bool(good),
        "attempted": len(done),
        "failed": failed,
        "metrics": metrics,
    }
    return detail, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "ribboncoh", "cli.py")):
        print("perfbench: no ribboncoh source under %s" % SRC, file=sys.stderr)
        return 2
    with open(DIGESTS) as f:
        expected = json.load(f)[args.workload]
    detail, result = run(WORKLOADS[args.workload], expected, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"workload": args.workload, **detail}))
    print(json.dumps(result))
    try:
        os.rmdir(WORK)
    except OSError:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
