"""Per-layer tracing for the benchmark's traced run.

A layer is one public function of a branchembed module.  ``Tracer.install``
replaces every module-level name bound to a layer's function, in every
loaded ``branchembed`` module (``branchembed.bench.linkage``,
``branchembed.cluster.validate_dendrogram`` and so on), with a wrapper that
records a span: name, start, end and the index of its parent span.  Spans
stay in memory until the run ends.  A span's self time is its duration
minus the time its direct children cover, so the self times of one pass add
up to the pass's traced wall time.
"""

from __future__ import annotations

import json
import sys
import time

# (layer name, module, attribute).  Private attributes are the layer
# functions the callers really use: the bench and evaluate_embedding fill
# cophenetic and kinship values through _pair_matrices and correlate them
# through _pearson_vec.
LAYERS = (
    ("cluster.euclidean_dissimilarity", "cluster", "euclidean_dissimilarity"),
    ("cluster.correlation_dissimilarity", "cluster",
     "correlation_dissimilarity"),
    ("cluster.linkage", "cluster", "linkage"),
    ("dendrogram.validate_dendrogram", "dendrogram", "validate_dendrogram"),
    ("dendrogram.pair_matrices", "dendrogram", "_pair_matrices"),
    ("dendrogram.parse_merge_table", "dendrogram", "parse_merge_table"),
    ("embed.branching_embed", "embed", "branching_embed"),
    ("metrics.convert_dendrogram", "metrics", "convert_dendrogram"),
    ("metrics.pearson", "metrics", "_pearson_vec"),
    ("metrics.evaluate_embedding", "metrics", "evaluate_embedding"),
    ("datasets.gaussian_matrix", "datasets", "gaussian_matrix"),
    ("datasets.load_csv", "datasets", "load_csv"),
    ("svgplot.render_svg_scatter", "svgplot", "render_svg_scatter"),
    ("bench.run_table_experiment", "bench", "run_table_experiment"),
    ("cli.main", "cli", "main"),
)

PACKAGE = "branchembed"
PASS = "harness.pass"


class Tracer:
    def __init__(self):
        self.spans: list = []   # [name, start, end, parent index]
        self.open: list = []    # indices of the spans now running
        self.patched: list = []  # (module, attribute, original)

    def _wrap(self, name: str, fn):
        spans, open_ = self.spans, self.open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, open_[-1] if open_ else -1])
            open_.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                open_.pop()
                spans[index][2] = clock()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> list:
        """Wrap every layer; returns the names of layers not found."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE
                                         or key.startswith(PACKAGE + "."))]
        missing = []
        for name, module, attr in LAYERS:
            owner = sys.modules.get(f"{PACKAGE}.{module}")
            fn = getattr(owner, attr, None)
            if fn is None:
                missing.append(name)
                continue
            wrapper = self._wrap(name, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
                        self.patched.append((mod, key, fn))
        return missing

    def uninstall(self) -> None:
        for mod, key, fn in reversed(self.patched):
            setattr(mod, key, fn)
        self.patched.clear()

    def run(self, fn):
        """Call ``fn`` as one traced pass under a root span."""
        return self._wrap(PASS, fn)()

    def self_times(self) -> list:
        """Per pass: ({layer: [self seconds, calls]}, pass wall seconds).

        Spans are stored in start order, so a pass's root span comes before
        all of its descendants and after those of the previous pass.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        passes = []
        for i, (name, start, end, parent) in enumerate(self.spans):
            if parent < 0:
                passes.append(({}, end - start))
            entry = passes[-1][0].setdefault(name, [0.0, 0])
            entry[0] += end - start - child_time[i]
            entry[1] += 1
        return passes

    def dump(self, path, **meta) -> None:
        """Write the spans as JSON, times in seconds from the first start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        spans = [[name, start - t0, end - t0, parent]
                 for name, start, end, parent in self.spans]
        with open(path, "w") as handle:
            json.dump(dict(meta, fields=["name", "start_s", "end_s",
                                         "parent"], spans=spans), handle)
