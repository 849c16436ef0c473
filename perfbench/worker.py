"""Child process of the benchmark; `run.py` starts it, never a user.

`worker.py loop ...` runs one workload in a closed loop for the given
seconds and writes pass times, failures, peak RSS, set-up and
calibration samples and (when traced) spans and counts to a JSON file. In a traced run passes
alternate untraced, traced, untraced, ... so that the tracing overhead is
the difference of two medians taken over the same stretch of time.

Set-up samples (fresh `import effortlab` timings) and calibration
samples (a fixed piece of work that does not touch the program) are
taken between passes, outside their timing, as the run's elapsed time
falls due for them, so that a run holds SETUP_SAMPLES and
CALIBRATION_SAMPLES of them spread over the same stretch of time as the
passes, however many passes fit.

`worker.py cli <spans-file> <pass-id> <args...>` runs one effortlab
command the way the console script does, with the tracer installed, and
writes its spans when the command ends.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import subprocess
import sys
import time

SETUP_PROBE = ("import effortlab, time; "
               "print(time.clock_gettime(time.CLOCK_MONOTONIC))")
SETUP_SAMPLES = 20
CALIBRATION_SAMPLES = 60


def time_import(python: str, cwd: str) -> float:
    """Seconds from spawning a fresh interpreter until its `import
    effortlab` returns: the parent's monotonic clock before the spawn
    against the child's after the import (one clock system-wide)."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run([python, "-c", SETUP_PROBE], cwd=cwd,
                          capture_output=True, text=True, timeout=60)
    if done.returncode != 0:
        raise RuntimeError("import effortlab failed: " + done.stderr[-500:])
    return float(done.stdout) - start


def calibrate() -> float:
    """Seconds taken by a fixed piece of work that does not touch the
    program: small-matrix numpy steps like a network training's and
    string parsing like a CSV load's, about 20 ms in all. Its mean over a
    run says how fast the machine ran during that run. The garbage
    collector is off while it runs, so that objects the program left
    alive do not enter its time."""
    import numpy as np

    gc.disable()
    try:
        start = time.perf_counter()
        x = np.linspace(-1.0, 1.0, 77 * 8).reshape(77, 8)
        w = np.full((8, 1), 0.1)
        for _ in range(750):
            h = 1.0 / (1.0 + np.exp(-(x @ w)))
            w = w - 1e-3 * (x.T @ (h - 0.5))
        total = 0
        for i in range(15000):
            a, b, c = f"{i},{i % 7},{i * 3}".split(",")
            total += int(a) + int(b) * int(c)
        return time.perf_counter() - start
    finally:
        gc.enable()


def _dump(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)


def loop(workload: str, dataset: str, seed: int, seconds: float,
         traced: bool, workdir: str, out: str, spans_out: str) -> None:
    import spans as spanlib
    import workloads

    wl = workloads.WORKLOADS[workload](dataset, seed, workdir)
    wl.warm_up()
    tracer = spanlib.Tracer()
    passes, counts, by_pass, setup, calibration = [], [], {}, [], []
    started = time.perf_counter()
    while True:
        pass_id = len(passes)
        trace_this = traced and pass_id % 2 == 1
        tracer.reset(pass_id)
        t0 = time.perf_counter()
        try:
            result, error = wl.run(tracer if trace_this else None), None
        except Exception as exc:  # a failed pass is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if trace_this:
            by_pass[str(pass_id)] = list(tracer.spans)
            counts.append({"pass_id": pass_id, **tracer.counts})
        if error is None:
            try:
                problems = wl.check(result)
            except Exception as exc:  # malformed output fails the check
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        else:
            problems = [error]
        passes.append({"seconds": t1 - t0, "traced": trace_this,
                       "units": wl.units_per_pass, "problems": problems})
        due = min(1.0, (time.perf_counter() - started) / seconds)
        while len(setup) < due * SETUP_SAMPLES:
            setup.append(time_import(sys.executable, os.getcwd()))
        while len(calibration) < due * CALIBRATION_SAMPLES:
            calibration.append(calibrate())
        elapsed = time.perf_counter() - started
        typical = statistics.median(p["seconds"] for p in passes)
        enough = len(passes) >= (2 if traced else 1)
        if enough and elapsed + typical > seconds:
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(time_import(sys.executable, os.getcwd()))
    while len(calibration) < CALIBRATION_SAMPLES:
        calibration.append(calibrate())
    if traced:
        _dump(spans_out, by_pass)
    _dump(out, {"passes": passes, "counts": counts, "setup": setup,
                "calibration": calibration,
                "peak_rss_kib": wl.peak_rss_kib()})


def environment() -> dict:
    """Interpreter, numpy and BLAS versions."""
    import platform

    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version")}}


def cli_command(spans_out: str, pass_id: int, argv: list[str]) -> None:
    import spans as spanlib

    import effortlab.cli

    tracer = spanlib.Tracer()
    tracer.reset(pass_id)
    tracer.install()
    sys.argv = ["effortlab", *argv]
    try:
        effortlab.cli.main()
    finally:
        tracer.uninstall()
        _dump(spans_out, {"spans": tracer.spans, "counts": tracer.counts})


def main() -> None:
    mode = sys.argv[1]
    if mode == "loop":
        workload, dataset, seed, seconds, traced, workdir, out, spans_out = (
            sys.argv[2:10])
        loop(workload, dataset, int(seed), float(seconds), traced == "1",
             workdir, out, spans_out)
    elif mode == "cli":
        cli_command(sys.argv[2], int(sys.argv[3]), sys.argv[4:])
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main()
