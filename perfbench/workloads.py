"""The three benchmark workloads and the checks on their outputs.

`worker.loop` drives every workload the same way: a closed loop with one
caller, one pass after another. A workload has `warm_up()`, `run(tracer)`
(one pass; `tracer` is a `spans.Tracer` on traced passes and None
otherwise), `check(result)` (a list of problems, empty when the pass is
correct), `peak_rss_kib()` and `units_per_pass`. ann-ablation and
regression-scale run inside the worker; cli-commands starts a fresh
interpreter per command.

Modules of the program are looked up through `effortlab.<module>.<name>`
at call time, so the wrappers that `spans.Tracer` installs see the calls.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
import resource
import subprocess
import sys
import threading
import time

from spans import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD_TIMEOUT_S = 150.0

ANN_SEEDS_PER_PASS = 20
ANN_TRAININGS_PER_PASS = 6 * ANN_SEEDS_PER_PASS
REGRESSION_ROWS = 20_000
STEPWISE_REQUIRED = ("ln_size", "language")
FULL_COLUMNS = ("intercept", "ln_size", "lang_1", "lang_2", "team_exp",
                "manager_exp", "envergure")

# Acceptance criterion 6 of the program's own suite, applied to the
# per-metric medians that `ablate --model ann` reports.
FULL_MMRE_MAX = 0.45
FULL_R2_MIN = 0.65
SIZE_ONLY_MMRE_GAP_MIN = 0.15

COEFFICIENT_RTOL = 1e-8

CLI_COMMANDS = (
    ("validate",),
    ("summarize",),
    ("fit",),
    ("fit", "--format", "json"),
    ("metrics", "--features", "size-only"),
    ("fit", "--model", "ann", "--seed", "1"),
    ("ablate", "--model", "regression", "--format", "csv"),
)


CONSOLE_SCRIPT = ("import sys; from effortlab.cli import main; "
                  "sys.argv[0] = 'effortlab'; main()")


def ann_seed_base(workload_seed: int) -> int:
    """Workload seed k runs network seeds 20k .. 20k+19."""
    return ANN_SEEDS_PER_PASS * workload_seed


def file_sha256(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def read_text(path: str) -> str:
    with open(path, encoding="utf-8", errors="replace") as handle:
        return handle.read()


def run_child(argv, env, cwd, stdout_path, stderr_path,
              timeout=CHILD_TIMEOUT_S):
    """Run one process to completion; return (exit code, wall seconds,
    peak RSS in KiB). The process is killed if it outlives `timeout`."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                cwd=cwd)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss


def _cells(doc: dict) -> dict[str, dict]:
    return {c["scenario"]: c["metrics"] for c in doc["body"]["cells"]}


def check_ann_table(code: int, text: str, checksum: str) -> list[str]:
    """Problems with one `ablate --model ann --format json` result."""
    if code != 0:
        return [f"ablate exited {code}"]
    doc = json.loads(text)
    problems = []
    if doc["dataset_sha256"] != checksum:
        problems.append("report does not carry the dataset sha256")
    cells = _cells(doc)
    full, size_only = cells["full"], cells["size-only"]
    if not full["mmre"] <= FULL_MMRE_MAX:
        problems.append(f"full MMRE {full['mmre']} > {FULL_MMRE_MAX}")
    if not full["r_squared"] >= FULL_R2_MIN:
        problems.append(f"full R^2 {full['r_squared']} < {FULL_R2_MIN}")
    if not size_only["mmre"] - full["mmre"] >= SIZE_ONLY_MMRE_GAP_MIN:
        problems.append("size-only MMRE is not worse than full by "
                        f"{SIZE_ONLY_MMRE_GAP_MIN}")
    return problems


class InProcess:
    """A workload that runs inside the worker process."""

    def peak_rss_kib(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class AnnAblation(InProcess):
    """`effortlab ablate --model ann --seeds 20 --seed 20k` on the bundled
    rows, called in-process through `effortlab.cli.run`."""

    units_per_pass = ANN_TRAININGS_PER_PASS

    def __init__(self, dataset: str, seed: int, workdir: str) -> None:
        self.out = f"{workdir}/ann-ablation.json"
        self.checksum = file_sha256(dataset)
        self.common = ["--seed", str(ann_seed_base(seed)),
                       "--dataset", dataset, "--format", "json",
                       "--out", self.out]
        self.reference: str | None = None

    def _argv(self, seeds: int) -> list[str]:
        return ["ablate", "--model", "ann", "--seeds", str(seeds),
                *self.common]

    def warm_up(self) -> None:
        import effortlab.cli
        effortlab.cli.run(self._argv(1))

    def run(self, tracer=None):
        import effortlab.cli
        with tracing(tracer):
            code = effortlab.cli.run(self._argv(ANN_SEEDS_PER_PASS))
        return code, read_text(self.out)

    def check(self, result) -> list[str]:
        code, text = result
        problems = check_ann_table(code, text, self.checksum)
        if self.reference is None:
            self.reference = text
        elif text != self.reference:
            problems.append("table differs from the first pass's table")
        return problems


def least_squares_reference(dataset: str):
    """Full-model coefficients from numpy.linalg.lstsq on a design built
    here from the CSV text, independently of the program's frame code."""
    import numpy as np
    rows, response = [], []
    with open(dataset, newline="", encoding="utf-8") as handle:
        for rec in csv.DictReader(handle):
            language = int(rec["Language"])
            rows.append([1.0, math.log(float(rec["PointsNonAdjust"])),
                         float(language == 1), float(language == 2),
                         float(rec["TeamExp"]), float(rec["ManagerExp"]),
                         float(rec["Envergure"])])
            response.append(math.log(float(rec["Effort"])))
    coef, *_ = np.linalg.lstsq(np.array(rows), np.array(response),
                               rcond=None)
    return coef


class RegressionScale(InProcess):
    """validate, summarize, fit and regression ablate through
    `effortlab.cli.run` on a generated 20,000-row file, then stepwise
    selection through the library, which the CLI does not expose."""

    units_per_pass = REGRESSION_ROWS
    commands = (("validate",), ("summarize",), ("fit", "--features", "full"),
                ("ablate", "--model", "regression"))

    def __init__(self, dataset: str, seed: int, workdir: str) -> None:
        self.dataset = dataset
        self.out = f"{workdir}/regression-scale.json"
        self.checksum = file_sha256(dataset)
        self.reference = least_squares_reference(dataset)
        self.common = ["--dataset", dataset, "--format", "json",
                       "--out", self.out]

    def warm_up(self) -> None:
        import effortlab.cli
        import effortlab.dataset
        bundled = effortlab.dataset.bundled_dataset_path()
        for command in self.commands:
            effortlab.cli.run([*command, "--dataset", bundled,
                               "--format", "json", "--out", self.out])

    def run(self, tracer=None):
        import effortlab.cli
        import effortlab.dataset
        import effortlab.regression
        outputs = []
        with tracing(tracer):
            for command in self.commands:
                code = effortlab.cli.run([*command, *self.common])
                outputs.append((command[0], code, read_text(self.out)))
            records = effortlab.dataset.filter_complete(
                effortlab.dataset.load_dataset(self.dataset))
            trace = effortlab.regression.stepwise_select(
                effortlab.regression.build_candidate_frame(records))
        return outputs, trace.selected

    def check(self, result) -> list[str]:
        import numpy as np
        outputs, selected = result
        problems = []
        for command, code, text in outputs:
            if code != 0:
                problems.append(f"{command} exited {code}")
                continue
            doc = json.loads(text)
            if doc["dataset_sha256"] != self.checksum:
                problems.append(f"{command} lacks the dataset sha256")
            body = doc["body"]
            if command in ("validate", "summarize"):
                if body["n_complete"] != REGRESSION_ROWS:
                    problems.append(f"{command}: {body['n_complete']} rows")
            if command == "validate" and body["violations"]:
                problems.append(f"validate: {len(body['violations'])} "
                                "violations")
            if command == "fit":
                coef = np.array(body["coefficients"])
                if tuple(body["columns"]) != FULL_COLUMNS:
                    problems.append(f"fit columns {body['columns']}")
                elif (np.max(np.abs(coef - self.reference))
                      > COEFFICIENT_RTOL * np.max(np.abs(self.reference))):
                    problems.append("fit coefficients differ from lstsq")
            if command == "ablate":
                cells = _cells(doc)
                gaps = {name: m["mmre"] - cells["full"]["mmre"]
                        for name, m in cells.items()
                        if name not in ("full", "size-only")}
                if max(gaps, key=gaps.get) != "no-language":
                    problems.append("language does not rank first")
        missing = [t for t in STEPWISE_REQUIRED if t not in selected]
        if missing:
            problems.append(f"stepwise did not select {missing}")
        return problems


def check_cli_output(argv, code: int, stdout: str, checksum: str,
                     validator) -> list[str]:
    """Problems with one cli-commands result; `validator` validates a
    JSON document against the report schema or raises."""
    if code != 0:
        return [f"{' '.join(argv)} exited {code}"]
    if checksum not in stdout:
        return [f"{' '.join(argv)} output lacks the dataset sha256"]
    if "json" in argv:
        try:
            validator(json.loads(stdout))
        except Exception as exc:  # any schema or parse failure is a failure
            return [f"{' '.join(argv)}: {type(exc).__name__}: {exc}"[:300]]
    return []


class CliCommands:
    """One round of the seven commands, shuffled by the workload seed, each
    in a fresh interpreter started the way the console script starts
    `effortlab.cli.main`. A traced round starts each command through
    `worker.py cli`, which installs the tracer in the command's process,
    and merges the spans that it writes."""

    units_per_pass = len(CLI_COMMANDS)

    def __init__(self, dataset: str, seed: int, workdir: str) -> None:
        import jsonschema

        import effortlab
        with open(os.path.join(os.path.dirname(effortlab.__file__),
                               "schemas", "report-v1.json"),
                  encoding="utf-8") as handle:
            schema = json.load(handle)
        self.validate = jsonschema.validators.validator_for(schema)(
            schema).validate
        self.checksum = file_sha256(dataset)
        self.rng = random.Random(seed)
        self.out, self.err = f"{workdir}/cmd.out", f"{workdir}/cmd.err"
        self.spans_file = f"{workdir}/cmd-spans.json"
        self.peak_rss = 0

    def warm_up(self) -> None:
        pass

    def run(self, tracer=None):
        mix = list(CLI_COMMANDS)
        self.rng.shuffle(mix)
        outputs = []
        for argv in mix:
            if tracer is None:
                prefix = ["-c", CONSOLE_SCRIPT]
            else:
                prefix = [os.path.join(HERE, "worker.py"), "cli",
                          self.spans_file, str(tracer.pass_id)]
                if os.path.exists(self.spans_file):
                    os.remove(self.spans_file)
            code, _, rss = run_child([sys.executable, *prefix, *argv], None,
                                     os.getcwd(), self.out, self.err)
            self.peak_rss = max(self.peak_rss, rss)
            outputs.append((argv, code, read_text(self.out)))
            if tracer is not None and os.path.exists(self.spans_file):
                with open(self.spans_file, encoding="utf-8") as handle:
                    doc = json.load(handle)
                tracer.extend(doc["spans"], doc["counts"])
        return outputs

    def check(self, result) -> list[str]:
        return [problem for argv, code, text in result
                for problem in check_cli_output(argv, code, text,
                                                self.checksum, self.validate)]

    def peak_rss_kib(self) -> int:
        return self.peak_rss


WORKLOADS = {"ann-ablation": AnnAblation,
             "regression-scale": RegressionScale,
             "cli-commands": CliCommands}
