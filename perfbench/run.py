"""effortlab benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload ann-ablation --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
./src. With --trace 0 the run measures the end-to-end metrics; with
--trace 1 it measures the per-layer metrics and the tracing overhead.
Human-readable lines come first, and the last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. A result
file with the full record goes to .perfbench/results/. GLOSSARY.md in
this directory defines every metric and says why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import worker  # noqa: E402
import spans as spanlib  # noqa: E402
import workloads  # noqa: E402
from workloads import run_child  # noqa: E402

IMPORTTIME_SAMPLES = 5
TAIL_PERCENTILE = 80

# Mean seconds of `worker.calibrate` on a 2-vCPU x86-64 virtual machine
# (Python 3.11, numpy 2.4, OpenBLAS 0.3) in a fast phase; 0.018-0.037 s
# were seen. That machine's speed changes by up to 2x in phases that last
# from seconds to minutes, longer than a run. The timing metrics are
# reported at this reference speed, so that runs made in different
# phases agree. The calibration does not touch the program, so no change
# to the program moves it.
CALIBRATION_REFERENCE_S = 0.02

# Matrices are at most 20,000 x 9; more BLAS threads only add scheduler
# noise on a small machine.
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

THROUGHPUT = {"ann-ablation": ("trainings_per_s", "1/s"),
              "regression-scale": ("rows_per_s", "rows/s"),
              "cli-commands": ("commands_per_s", "1/s")}

END_TO_END_UNITS = {"setup_s": "s", "pass_s.p50": "s", "pass_s.tail": "s",
                    "work_per_s": "1/s", "peak_rss_mb": "MiB"}

PER_LAYER_UNITS = {
    "dataset.load_s": "s", "dataset.filter_s": "s",
    "dataset.validate_s": "s", "dataset.summarize_s": "s",
    "dataset.self_s": "s", "dataset.rows": "count",
    "regression.frame_s": "s", "regression.fit_ols_s": "s",
    "regression.vif_s": "s", "regression.stepwise_s": "s",
    "regression.self_s": "s", "regression.fits": "count",
    "numerics.lstsq_calls": "count", "numerics.lstsq_s": "s",
    "numerics.self_s": "s",
    "metrics.evaluate_s": "s", "metrics.self_s": "s",
    "metrics.pairs": "count",
    "ann.train_s": "s", "ann.self_s": "s", "ann.train_s.p50": "s",
    "ann.trainings": "count",
    "ann.iterations": "count", "ann.forward_calls": "count",
    "ann.gradient_calls": "count", "ann.accepted_step_ratio": "ratio",
    **{f"ann.stop.{r}": "count" for r in spanlib.STOP_REASONS},
    "ablation.run_s": "s", "ablation.self_s": "s", "ablation.cells": "count",
    "cli.run_s": "s", "cli.self_s": "s", "cli.render_s": "s",
    "import.numpy_s": "s", "import.effortlab_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def child_env(root: str) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("EFFORTLAB_DATASET", None)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    env.update({name: "1" for name in PINNED_THREADS})
    return env


def check_import(python, env, root, workdir) -> None:
    """Check that children import effortlab from ./src. This first import
    also writes the bytecode cache, which an installed package has."""
    out, err = f"{workdir}/import.out", f"{workdir}/import.err"
    code, _, _ = run_child([python, "-c", "import effortlab; "
                            "print(effortlab.__file__)"],
                           env, root, out, err)
    expected = os.path.join(root, "src", "effortlab", "__init__.py")
    imported = os.path.abspath(workloads.read_text(out).strip())
    if code != 0 or imported != expected:
        raise BenchError(f"cannot import effortlab from {expected}: "
                         + workloads.read_text(err)[-500:])


def measure_imports(python, env, root, workdir) -> dict[str, float]:
    """Median cumulative import seconds of numpy and effortlab, from
    `python -X importtime`."""
    found: dict[str, list[float]] = {"numpy": [], "effortlab": []}
    out, err = f"{workdir}/importtime.out", f"{workdir}/importtime.err"
    for _ in range(IMPORTTIME_SAMPLES):
        run_child([python, "-X", "importtime", "-c", "import effortlab"],
                  env, root, out, err)
        for line in workloads.read_text(err).splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in found:
                found[parts[2].strip()].append(int(parts[1]) / 1e6)
    return {f"import.{name}_s": statistics.median(v) if v else 0.0
            for name, v in found.items()}


def tail(values) -> tuple[float, int]:
    """Nearest-rank TAIL_PERCENTILE of the samples and the sample count.
    The rank does not depend on how many samples there are; with fewer
    than 100 / (100 - TAIL_PERCENTILE) samples it is the slowest."""
    ordered = sorted(values)
    rank = math.ceil(TAIL_PERCENTILE / 100 * len(ordered))
    return ordered[rank - 1], len(ordered)


def layer_values(spans, counts) -> dict[str, float]:
    """Per-layer values of one traced pass (one round on cli-commands)."""
    times = spanlib.layer_times(spans)
    calls = spanlib.call_counts(spans)
    values = {name: times.get(name, 0.0)
              for name, unit in PER_LAYER_UNITS.items() if unit == "s"}
    values.update({
        "dataset.rows": counts.get("dataset.rows", 0),
        "regression.fits": calls["regression.fit_ols"],
        "numerics.lstsq_calls": calls["numerics.lstsq"],
        "metrics.pairs": counts.get("metrics.pairs", 0),
        "ablation.cells": calls["ablation.run_scenario"],
    })
    for key in ("ann.trainings", "ann.iterations", "ann.forward_calls",
                "ann.gradient_calls",
                *(f"ann.stop.{r}" for r in spanlib.STOP_REASONS)):
        values[key] = counts.get(key, 0)
    # Each training makes 3 forward calls outside its line search (initial
    # loss, initial holdout error, final prediction) and one per iteration
    # for the holdout error; every other forward call is a line-search
    # loss evaluation.
    searches = (values["ann.forward_calls"] - values["ann.iterations"]
                - 3 * values["ann.trainings"])
    values["ann.accepted_step_ratio"] = (
        values["ann.iterations"] / searches if searches > 0 else 0.0)
    return values


def per_layer_metrics(groups, traced_times, untraced_times, imports):
    """Median over traced passes of each per-pass layer value."""
    rows = [layer_values(s, c) for s, c in groups]
    metrics = {name: statistics.median(r[name] for r in rows)
               for name in rows[0]}
    metrics.update({name: int(v) for name, v in metrics.items()
                    if PER_LAYER_UNITS[name] == "count" and v == int(v)})
    trainings = [d for s, _ in groups for d in spanlib.train_durations(s)]
    metrics["ann.train_s.p50"] = (statistics.median(trainings)
                                  if trainings else 0.0)
    metrics.update(imports)
    metrics["trace.overhead_s"] = (statistics.median(traced_times)
                                   - statistics.median(untraced_times))
    return metrics


def run_worker(args, python, env, root, workdir, dataset, results):
    out = f"{workdir}/worker.json"
    spans_out = os.path.join(results, f"{args.workload}-spans.json")
    code, _, _ = run_child(
        [python, os.path.join(HERE, "worker.py"), "loop", args.workload,
         dataset, str(args.seed), str(args.seconds), str(args.trace),
         workdir, out, spans_out],
        env, root, f"{workdir}/worker.out", f"{workdir}/worker.err",
        timeout=args.seconds + workloads.CHILD_TIMEOUT_S)
    if code != 0:
        stderr = workloads.read_text(f"{workdir}/worker.err")
        raise BenchError(f"worker exited {code}: {stderr[-2000:]}")
    with open(out, encoding="utf-8") as handle:
        doc = json.load(handle)
    doc["groups"] = []
    if args.trace:
        with open(spans_out, encoding="utf-8") as handle:
            by_pass = json.load(handle)
        counts = {c.pop("pass_id"): c for c in doc["counts"]}
        doc["groups"] = [(s, counts[int(p)]) for p, s in by_pass.items()]
    return doc


def source_identity(root: str) -> dict:
    """The git commit when the checkout is a repository, and always a
    sha256 over the program's source tree."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as handle:
                digest.update(handle.read())
    commit = None
    if os.path.isdir(os.path.join(root, ".git")) and shutil.which("git"):
        done = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def measure(args, root: str, workdir: str, results: str) -> dict:
    python = sys.executable
    env = child_env(root)
    bundled = os.path.join(root, "src", "effortlab", "data",
                           "desharnais.csv")
    if args.workload == "regression-scale":
        dataset = os.path.join(workdir, f"regression-{args.seed}.csv")
        gen.write_dataset(dataset, workloads.REGRESSION_ROWS, args.seed)
    else:
        dataset = bundled
    check_import(python, env, root, workdir)
    imports = (measure_imports(python, env, root, workdir)
               if args.trace else {})
    done = run_worker(args, python, env, root, workdir, dataset, results)
    passes, setup = done["passes"], done["setup"]
    slowdown = (statistics.fmean(done["calibration"])
                / CALIBRATION_REFERENCE_S)

    timed = [p for p in passes if not p["traced"]]
    failed = sum(1 for p in passes if p["problems"])
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "derived_seeds": derived_seeds(args),
        "dataset_sha256": workloads.file_sha256(dataset),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        **source_identity(root), **worker.environment(),
        "setup_samples_s": setup,
        "calibration_samples_s": done["calibration"],
        "slowdown": slowdown,
        "passes": passes,
        "attempted": len(passes), "failed": failed,
        "failed_ratio": failed / len(passes),
    }
    if args.trace:
        traced = [p["seconds"] for p in passes if p["traced"]]
        untraced = [p["seconds"] for p in timed]
        metrics = per_layer_metrics(done["groups"], traced, untraced,
                                    imports)
        units_of = PER_LAYER_UNITS
    else:
        seconds = [p["seconds"] for p in timed]
        value, samples = tail(seconds)
        record["tail"] = {"percentile": TAIL_PERCENTILE, "samples": samples}
        work = sum(p["units"] for p in timed) / sum(seconds)
        measured = {
            "setup_s": statistics.median(setup),
            "pass_s.p50": statistics.median(seconds),
            "pass_s.tail": value,
            "work_per_s": work,
        }
        record["measured"] = measured
        metrics = {name: (v * slowdown if name == "work_per_s"
                          else v / slowdown)
                   for name, v in measured.items()}
        metrics["peak_rss_mb"] = done["peak_rss_kib"] / 1024.0
        units_of = END_TO_END_UNITS
    record["metrics"] = {k: {"value": v, "unit": units_of[k]}
                         for k, v in metrics.items()}
    return record


def derived_seeds(args) -> dict:
    if args.workload == "ann-ablation":
        base = workloads.ann_seed_base(args.seed)
        return {"ann_seeds": [base, base + workloads.ANN_SEEDS_PER_PASS - 1]}
    if args.workload == "regression-scale":
        return {"generator_seed": args.seed}
    return {"command_order_seed": args.seed}


def report(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {record['trace']}  passes {record['attempted']}  "
          f"failed {record['failed']}")
    measured = record.get("measured", {})
    lines = [(name, m["value"], m["unit"],
              f"measured {measured[name]:.6g}" if name in measured else "")
             for name, m in record["metrics"].items()]
    if not record["trace"]:
        t = record["tail"]
        lines[2] = lines[2][:3] + (f"{lines[2][3]}, p{t['percentile']} of "
                                   f"{t['samples']} passes",)
        name, unit = THROUGHPUT[record["workload"]]
        lines.append((name, record["metrics"]["work_per_s"]["value"], unit,
                      "= work_per_s"))
    lines.append(("slowdown", record["slowdown"], "ratio",
                  "mean calibration time / reference"))
    lines.append(("failed_ratio", record["failed_ratio"], "fraction",
                  f"{record['failed']} of {record['attempted']}"))
    for name, value, unit, note in lines:
        print(f"  {name:32s} {value:<14.6g} {unit:8s} {note}")
    for p in record["passes"]:
        for problem in p["problems"][:3]:
            print(f"  FAILED: {problem}")


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "effortlab",
                                       "__init__.py")):
        print("error: run from the root of an effortlab checkout "
              "(no src/effortlab here)", file=sys.stderr)
        return 2
    results = os.path.join(root, ".perfbench", "results")
    workdir = os.path.join(root, ".perfbench", f"work-{os.getpid()}")
    os.makedirs(results, exist_ok=True)
    os.makedirs(workdir)
    try:
        record = measure(args, root, workdir, results)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    report(record)
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
