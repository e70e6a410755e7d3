"""Spans and exact counts around the package's layer boundaries.

The tracer replaces each public function at every name its callers bound
(for example both ghostswap.coincidence.sample_campaign and
ghostswap.cli.sample_campaign) and the constructors of ObjectMask and
DensityMatrix. Spans and counts are recorded only while a request is
running, so the harness's own checks stay out of them; everything is
kept in memory and written out when the benchmark ends. Installing and
removing the wrappers around each traced pass leaves untraced passes
running the unmodified code.
"""

from __future__ import annotations

import functools
import pathlib
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

import ghostswap.hilbert

# module -> public functions wrapped with a span
FUNCTIONS = {
    "configfile": ("load_image_job", "load_hom_job"),
    "hilbert": ("enumerate_projectors", "build_initial_state", "project_bc"),
    "analytic": (
        "analytic_image",
        "analytic_contrast",
        "add_images",
        "contrast_of_image",
        "conditional_density",
    ),
    "coincidence": (
        "sample_campaign",
        "estimate_contrast",
        "bootstrap_contrast_sigma",
        "subtract_accidentals",
        "antisymmetric_weight",
        "hom_scan",
    ),
    "io": ("write_image_records", "write_csv", "csv_text", "write_pgm", "write_json"),
    "cli": ("cmd_image", "cmd_figure2", "cmd_hom", "cmd_contrast_curve"),
}
CLASSES = {"hilbert": ("ObjectMask", "DensityMatrix")}
MODULES = ("configfile", "hilbert", "analytic", "coincidence", "io", "cli")
SAMPLE_MODES = ("fixed_time", "fixed_shots")

# Exact work counts, recorded at the boundary where the work happens.
GENERATORS = "coincidence.generators_built"  # calls to np.random.default_rng
PROJECTORS = "hilbert.projectors_built"  # BellProjector constructions
BYTES = "io.bytes_written"  # characters handed to Path.write_text (all ASCII)
ROWS = "io.rows_written"  # CSV data rows formatted by csv_text
PIXELS = "coincidence.sample_campaign.fixed_time.pixels"
COUNTS = (GENERATORS, PROJECTORS, BYTES, ROWS)

# io functions that format or write CSV rows, for the per-row cost
CSV_SPANS = ("io.write_image_records", "io.write_csv", "io.csv_text")


def span_names() -> list[str]:
    """Every span name a traced pass can produce, in report order."""
    names = []
    for module in MODULES:
        for cls in CLASSES.get(module, ()):
            names.append(f"{module}.{cls}")
        for function in FUNCTIONS.get(module, ()):
            if function == "sample_campaign":
                names.extend(f"{module}.{function}.{mode}" for mode in SAMPLE_MODES)
            else:
                names.append(f"{module}.{function}")
    return names


class Tracer:
    """Records spans (name, start, end, parent, request) and counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.request: int | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _span(self, name, original, suffix=None, on_result=None):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if tracer.request is None:
                return original(*args, **kwargs)
            label = name if suffix is None else f"{name}.{suffix(*args, **kwargs)}"
            parent = tracer._stack[-1] if tracer._stack else -1
            record = [label, 0.0, 0.0, parent, tracer.request]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(record)
            record[1] = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                tracer._stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _counter(self, key, original, amount=None):
        tracer = self

        @functools.wraps(original)
        def counted(*args, **kwargs):
            if tracer.request is not None:
                tracer.counts[key] += 1 if amount is None else amount(*args, **kwargs)
            return original(*args, **kwargs)

        return counted

    def _replace(self, owner, attr, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _rebind(self, original, wrapper) -> None:
        """Point every ghostswap module name bound to original at wrapper."""
        for name, module in list(sys.modules.items()):
            if name != "ghostswap" and not name.startswith("ghostswap."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._replace(module, attr, wrapper)

    def _sample_mode(self, config, *args, **kwargs) -> str:
        if config.mode == "fixed_time":
            self.counts[PIXELS] += config.mask.d
        return config.mode

    def _count_rows(self, text: str) -> None:
        self.counts[ROWS] += text.count("\n") - 1

    def install(self) -> None:
        for module_name, functions in FUNCTIONS.items():
            module = sys.modules[f"ghostswap.{module_name}"]
            for function in functions:
                original = getattr(module, function)
                wrapper = self._span(
                    f"{module_name}.{function}",
                    original,
                    suffix=self._sample_mode if function == "sample_campaign" else None,
                    on_result=self._count_rows if function == "csv_text" else None,
                )
                self._rebind(original, wrapper)
        for module_name, classes in CLASSES.items():
            module = sys.modules[f"ghostswap.{module_name}"]
            for cls_name in classes:
                cls = getattr(module, cls_name)
                self._replace(
                    cls, "__init__", self._span(f"{module_name}.{cls_name}", cls.__init__)
                )
        projector = ghostswap.hilbert.BellProjector
        self._replace(projector, "__init__", self._counter(PROJECTORS, projector.__init__))
        self._replace(
            np.random, "default_rng", self._counter(GENERATORS, np.random.default_rng)
        )
        self._replace(
            pathlib.Path,
            "write_text",
            self._counter(BYTES, pathlib.Path.write_text, lambda path, data, *a, **k: len(data)),
        )

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- one pass ---------------------------------------------------------

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()
        self._stack = []


def summarize(spans: list[list], counts: Counter, wall_s: float) -> dict:
    """Per-span-name calls, self time and call durations for one traced pass.

    A span's self time is its duration minus the durations of its direct
    children. wall_s is the summed duration of the pass's requests.
    """
    children = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    durations: defaultdict = defaultdict(list)
    for index, (name, start, end, _, _) in enumerate(spans):
        calls[name] += 1
        self_s[name] += end - start - children[index]
        durations[name].append(end - start)
    module_self = defaultdict(float)
    for name, value in self_s.items():
        module_self[name.split(".", 1)[0]] += value
    fixed_time = durations.get("coincidence.sample_campaign.fixed_time", [])
    csv_self = sum(self_s.get(name, 0.0) for name in CSV_SPANS)
    return {
        "wall_s": wall_s,
        "calls": {name: calls[name] for name in span_names()},
        "self_ms": {name: 1e3 * self_s[name] for name in span_names()},
        "durations": durations,
        "module_self_share": {m: module_self[m] / wall_s for m in MODULES},
        "unattributed_share": 1.0 - sum(module_self.values()) / wall_s,
        "counts": {key: counts[key] for key in COUNTS},
        "us_per_pixel": (
            1e6 * sum(fixed_time) / counts[PIXELS] if counts[PIXELS] else None
        ),
        "us_per_row": 1e6 * csv_self / counts[ROWS] if counts[ROWS] else None,
    }


def median_over(passes: list[dict], pick) -> float | None:
    values = [pick(summary) for summary in passes]
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def p50_us(passes: list[dict], name: str) -> float | None:
    durations = [d for summary in passes for d in summary["durations"].get(name, ())]
    return 1e6 * statistics.median(durations) if durations else None


def max_us(passes: list[dict], name: str) -> float:
    return 1e6 * max(d for summary in passes for d in summary["durations"].get(name, ()))
