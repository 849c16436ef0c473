"""In-memory span recorder that wraps effortlab's public functions.

The program's source is never edited. Instead, `Tracer.install` replaces
names in the modules where their callers look them up (for example
`effortlab.ablation.train`, which `run_scenario` calls) with wrappers
that record a span around each call, and `Tracer.uninstall` puts the
originals back. High-frequency leaf calls (the network's forward and
gradient passes) are counted, not spanned. The `validate` command's loop
of `validate_derived` calls (a few microseconds each) is recorded as one
`dataset.validate` span, from the end of the command's filtering to the
start of its rendering, so that it is timed without the tracer's cost.

A span is (name, start, end, parent, pass_id), with times from
`time.perf_counter` and parent the index of the enclosing span in the
same pass, or -1.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter, defaultdict

# (module, attribute, span name). A name appears once per module where a
# caller resolves it, so each call is recorded exactly once.
SPANNED = (
    ("effortlab.cli", "run", "cli.run"),
    ("effortlab.cli", "render_report", "cli.render"),
    ("effortlab.cli", "_render_validation", "cli.render_validation"),
    ("effortlab.cli", "_render_summary", "cli.render"),
    ("effortlab.cli", "load_dataset", "dataset.load"),
    ("effortlab.cli", "filter_complete", "dataset.filter"),
    ("effortlab.cli", "summarize", "dataset.summarize"),
    ("effortlab.cli", "build_frame", "regression.frame"),
    ("effortlab.cli", "fit_ols", "regression.fit_ols"),
    ("effortlab.cli", "run_ablation", "ablation.run_ablation"),
    ("effortlab.cli", "run_scenario", "ablation.run_scenario"),
    ("effortlab.dataset", "load_dataset", "dataset.load"),
    ("effortlab.dataset", "filter_complete", "dataset.filter"),
    ("effortlab.ablation", "run_scenario", "ablation.run_scenario"),
    ("effortlab.ablation", "build_frame", "regression.frame"),
    ("effortlab.ablation", "fit_ols", "regression.fit_ols"),
    ("effortlab.ablation", "evaluate", "metrics.evaluate"),
    ("effortlab.ablation", "train", "ann.train"),
    ("effortlab.regression", "build_candidate_frame", "regression.frame"),
    ("effortlab.regression", "fit_ols", "regression.fit_ols"),
    ("effortlab.regression", "vif", "regression.vif"),
    ("effortlab.regression", "stepwise_select", "regression.stepwise"),
    ("effortlab.regression", "solve_least_squares", "numerics.lstsq"),
)

COUNTED = (
    ("effortlab.ann", "forward", "ann.forward_calls"),
    ("effortlab.ann", "gradient", "ann.gradient_calls"),
)

STOP_REASONS = ("holdout_worsening", "improvement_below_delta",
                "max_iterations", "gradient_below_min")


class Tracer:
    """Records spans and counts while installed; inert otherwise."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: Counter = Counter()
        self.pass_id = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod_name, attr, span in SPANNED:
            self._replace(mod_name, attr, self._spanning(span))
        for mod_name, attr, counter in COUNTED:
            self._replace(mod_name, attr, self._counting(counter))

    def reset(self, pass_id: int) -> None:
        self.spans.clear()
        self.counts.clear()
        self.pass_id = pass_id

    def extend(self, spans, counts) -> None:
        """Append spans and counts recorded by another process."""
        offset = len(self.spans)
        self.spans.extend((n, s, e, p + offset if p >= 0 else p, i)
                          for n, s, e, p, i in spans)
        self.counts.update(counts)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _replace(self, mod_name: str, attr: str, make) -> None:
        module = importlib.import_module(mod_name)
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def _spanning(self, name: str):
        spans, stack = self.spans, self._stack
        on_result = _RESULT_HOOKS.get(name)

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                parent = stack[-1] if stack else -1
                if name == "cli.render_validation":
                    self._validation_loop(parent)
                index = len(spans)
                spans.append((name, 0.0, 0.0, parent, self.pass_id))
                stack.append(index)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    stack.pop()
                    spans[index] = (name, start, end, parent, self.pass_id)
                if on_result is not None:
                    on_result(self.counts, result)
                return result
            return wrapper
        return make

    def _validation_loop(self, parent: int) -> None:
        now = time.perf_counter()
        for name, _, end, p, _ in reversed(self.spans):
            if p == parent and name == "dataset.filter":
                self.spans.append(("dataset.validate", end, now, parent,
                                   self.pass_id))
                return

    def _counting(self, counter: str):
        counts = self.counts

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[counter] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make


def _count_rows(counts, result):
    counts["dataset.rows"] += len(result)


def _count_pairs(counts, result):
    counts["metrics.pairs"] += result.n


def _count_training(counts, result):
    _, trace = result
    counts["ann.trainings"] += 1
    counts["ann.iterations"] += trace.iterations
    counts["ann.stop." + trace.stop_reason] += 1


@contextlib.contextmanager
def tracing(tracer):
    """Install `tracer` for the block; a None tracer does nothing."""
    if tracer is None:
        yield
        return
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()


_RESULT_HOOKS = {
    "dataset.load": _count_rows,
    "metrics.evaluate": _count_pairs,
    "ann.train": _count_training,
}


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children of one span never overlap in a single thread, but the union
    is taken anyway so that the arithmetic does not depend on it.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, parent, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


def layer_times(spans) -> dict[str, float]:
    """Seconds per span name (`<name>_s`), self seconds per module
    (`<module>.self_s`) and `ablation.run_s`, over the given spans.

    No span name nests inside itself, so summing durations per name counts
    no time twice. Ablation spans do nest (run_ablation calls
    run_scenario), so `ablation.run_s` sums only the outermost ones.
    Rendering spans (`cli.render*`) are reported together as
    `cli.render_s` and kept out of `cli.self_s`, which is then argument
    parsing, hashing and dispatch.
    """
    selfs = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, parent, _) in enumerate(spans):
        module = name.split(".")[0]
        render = name.startswith("cli.render")
        out[("cli.render" if render else name) + "_s"] += end - start
        if not render:
            out[module + ".self_s"] += selfs[i]
        if module == "ablation" and (
                parent < 0 or not spans[parent][0].startswith("ablation.")):
            out["ablation.run_s"] += end - start
    return dict(out)


def call_counts(spans) -> Counter:
    return Counter(name for name, *_ in spans)


def train_durations(spans) -> list[float]:
    return [end - start for name, start, end, _, _ in spans
            if name == "ann.train"]
