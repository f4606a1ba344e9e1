"""Closed-loop client of the benchmark and the metrics it reports.

One client in one process sends ``hittime`` CLI requests through
``hittime.cli.main(argv, standalone_mode=False)``, with standard output and
error captured, and sends the next request only when the previous one has
returned; there is no think time.  The interpreter start-up a shell user
pays per command is measured once, as ``setup_s``, from fresh interpreters
that import ``hittime.cli``.

A run repeats whole passes over the workload's requests until ``seconds``
have gone by (at least one pass).  Without tracing every sample counts for
the end-to-end metrics.  With tracing the run alternates an untraced and a
traced pass: the per-layer metrics are medians over the traced passes, and
the difference between the two kinds of pass is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import glob
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback

import click
import numpy as np

import hittime.cli
import tracing
from check import check
from workloads import generate

SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 60
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
E2E_UNITS = {
    "answers_per_s": "1/s",
    "request_p50_ms": "ms",
    "request_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "error_rate": "ratio",
}


def call(argv: list[str]) -> tuple[float, int, str, str, str | None]:
    """One in-process CLI request: (seconds, exit code, stdout, stderr, uncaught exception)."""
    out, err = io.StringIO(), io.StringIO()
    code, error = 0, None
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            hittime.cli.main(argv, standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except click.ClickException as exc:
            code = exc.exit_code
        except Exception:  # any crash of the program is a failed request, not a stop
            error = traceback.format_exc(limit=-2)
    seconds = time.perf_counter() - start
    return seconds, code, out.getvalue(), err.getvalue(), error


class Loop:
    """Runs passes of a workload, checks every answer and keeps the samples."""

    def __init__(self, workload):
        self.workload = workload
        self.samples: list[tuple[float, object]] = []  # (seconds, verdict)
        self.next_request = 0

    def send(self, request, tracer=None):
        self.next_request += 1
        if tracer is None:
            seconds, code, out, err, error = call(request.argv)
        else:
            tracer.request = self.next_request
            span = tracer.open(tracing.REQUEST_SPAN, {"label": request.label})
            try:
                seconds, code, out, err, error = call(request.argv)
            finally:
                tracer.close(span)
        return seconds, check(request, code, out, err, error)

    def run_pass(self, tracer=None) -> float:
        """Send every request once; returns the summed request time."""
        total = 0.0
        for request in self.workload.requests:
            seconds, verdict = self.send(request, tracer)
            self.samples.append((seconds, verdict))
            total += seconds
        return total

    def warm_up(self) -> None:
        """One untimed request of each command, so lazy set-up is done before timing."""
        seen = set()
        for request in self.workload.requests:
            key = (request.kind, request.argv[1] if request.kind == "classical" else "")
            if key not in seen:
                seen.add(key)
                self.send(request)

    def probe(self) -> list[dict]:
        """Run each known-defect request once, untimed, and report what it did."""
        report = []
        for request in self.workload.probes:
            _, verdict = self.send(request)
            report.append({"label": request.label, "argv": request.argv,
                           "failed": not verdict.ok, "problems": verdict.problems})
        return report


def _wall_time(command: list[str], env: dict, cwd: str) -> float:
    """Wall time of a child process, waited for without polling.

    ``subprocess.run(timeout=...)`` polls in steps of up to 50 ms, too coarse
    for a 0.2 s start-up; a timer kills a child that hangs instead.
    """
    start = time.perf_counter()
    child = subprocess.Popen(command, env=env, cwd=cwd)
    watchdog = threading.Timer(SETUP_TIMEOUT_S, child.kill)
    watchdog.start()
    try:
        code = child.wait()
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - start
    if code != 0:
        raise subprocess.CalledProcessError(code, command)
    return elapsed


def measure_setup(root: str, repeats: int) -> float:
    """Median wall time of a fresh interpreter that imports hittime.cli."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    command = [sys.executable, "-c", "import hittime.cli"]
    _wall_time(command, env, root)  # writes the bytecode cache; not timed
    return statistics.median(_wall_time(command, env, root) for _ in range(repeats))


def end_to_end(samples, per_pass: int, setup_s: float) -> tuple[dict, dict]:
    """End-to-end metrics of the untraced samples, and their sample counts.

    Throughput is taken per pass and reported as the median over the passes,
    so that a pass slowed by the machine's other tenants moves it little.
    """
    latencies = [seconds * 1e3 for seconds, _ in samples]
    p90 = statistics.quantiles(latencies, n=10)[8] if len(latencies) > 1 else latencies[0]
    passes = [samples[k:k + per_pass] for k in range(0, len(samples), per_pass)]
    metrics = {
        "answers_per_s": statistics.median(
            sum(v.correct for _, v in p) / sum(s for s, _ in p) for p in passes),
        "request_p50_ms": statistics.median(latencies),
        "request_p90_ms": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
        "error_rate": sum(not v.ok for _, v in samples) / len(samples),
    }
    counts = {"samples": len(latencies), "beyond_p90": sum(x > p90 for x in latencies)}
    return metrics, counts


def _git_commit(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        done = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(root: str, workload: str, seed: int) -> dict:
    """Seed, code version and machine description recorded with every result."""
    sources = sorted(glob.glob(os.path.join(root, "src", "**", "*.py"), recursive=True))
    digest, lines = hashlib.sha256(), 0
    for path in sources:
        with open(path, "rb") as handle:
            data = handle.read()
        digest.update(os.path.relpath(path, root).encode() + b"\0" + data)
        lines += data.count(b"\n")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "git_commit": _git_commit(root),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _repeat(seconds: float, body) -> int:
    """Call ``body`` until ``seconds`` have passed, at least once; returns the count."""
    start, count = time.perf_counter(), 0
    while True:
        body()
        count += 1
        if time.perf_counter() - start >= seconds:
            return count


def _traced(loop: Loop, seconds: float, workdir: str) -> tuple[dict, dict]:
    """Alternate untraced and traced passes; per-layer metrics and detail fields."""
    per_pass, overheads, spans, missing = [], [], [], []

    def pair():
        untraced_s = loop.run_pass()
        tracer = tracing.Tracer()
        tracer.install()
        missing[:] = tracer.missing
        try:
            traced_s = loop.run_pass(tracer)
        finally:
            tracer.uninstall()
        per_pass.append(tracing.pass_metrics(tracer.spans))
        overheads.append((traced_s - untraced_s) * 1e3 / len(loop.workload.requests))
        spans.append([s.as_dict(i) for i, s in enumerate(tracer.spans)])

    pairs = _repeat(seconds, pair)
    with open(os.path.join(workdir, "spans.json"), "w", encoding="utf-8") as handle:
        json.dump(spans, handle)
    layers = tracing.median_metrics(per_pass)
    layers["trace.overhead_ms"] = statistics.median(overheads)
    metrics = {name: {"value": value, "unit": tracing.unit(name)}
               for name, value in layers.items()}
    counts_repeat = all(p[k] == per_pass[0][k] for p in per_pass
                        for k in p if tracing.unit(k) in ("count", "ratio"))
    return metrics, {"passes": 2 * pairs, "counts_repeat": counts_repeat,
                     "untraced_functions": missing}


def _untraced(loop: Loop, seconds: float, root: str, tiny: bool) -> tuple[dict, dict]:
    """Untraced passes; end-to-end metrics and detail fields."""
    passes = _repeat(seconds, loop.run_pass)
    setup_s = measure_setup(root, 1 if tiny else SETUP_REPEATS)
    e2e, counts = end_to_end(loop.samples, len(loop.workload.requests), setup_s)
    every = {name: {"value": value, "unit": E2E_UNITS[name]} for name, value in e2e.items()}
    # error_rate is 0 on a healthy run, and a result metric must never be 0;
    # failed / attempted in the result line carry it.
    metrics = {name: m for name, m in every.items() if name != "error_rate"}
    return metrics, {"passes": passes, "end_to_end": every, "latency_samples": counts}


def run(workload_name: str, seed: int, seconds: float, trace: bool, root: str,
        tiny: bool = False) -> tuple[dict, dict]:
    """One benchmark run: (detail record, result line)."""
    workdir = os.path.join(root, ".perfbench_work", f"{workload_name}-{seed}")
    workload = generate(workload_name, seed, workdir, tiny)
    loop = Loop(workload)
    loop.warm_up()
    if trace:
        metrics, extra = _traced(loop, seconds, workdir)
    else:
        metrics, extra = _untraced(loop, seconds, root, tiny)
    known_defects = loop.probe()

    attempted = len(loop.samples)
    failed = sum(not verdict.ok for _, verdict in loop.samples)
    detail = provenance(root, workload_name, seed)
    detail.update(trace=int(trace), requests_per_pass=len(workload.requests),
                  attempted=attempted, failed=failed, known_defects=known_defects,
                  problems=sorted({p for _, v in loop.samples for p in v.problems})[:20],
                  **extra)
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(detail, handle, indent=1)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return detail, result
