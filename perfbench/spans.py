"""Span tracing of the multilayer_gnn package from outside it.

:class:`Tracer` replaces every public function of each package module (and
two hot methods, ``AdamState.step`` and ``ModelParams.copy``) with a
wrapper that records a span: id, parent id, name, start, end and optional
work counts. ``from .gnn import run_model``
style imports create separate bindings in the importing module, so every
binding of a function is replaced by the same wrapper. Nothing inside
``src/`` is edited, and the wrappers only call through, so traced outputs
are bit-identical to untraced ones.

Spans stay in memory; :meth:`Tracer.dump` writes them when the run ends.
:func:`layer_metrics` turns them into the per-layer metrics of
``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import os
import time

import numpy as np

PACKAGE = "multilayer_gnn"
LAYERS = ("data", "synth", "autodiff", "gnn", "training", "explain", "analysis", "cli")

# tape ops timed and counted one by one; the attention ops run only on GAT
# models, so they are reported only by runs that call them
OPS = ("matmul", "spmm", "row_gather", "relu", "add", "add_bias", "concat_rows",
       "cross_entropy_logits", "mul")
ATTENTION_OPS = ("neighbor_softmax", "leaky_relu")
TAPE_OPS = OPS + ATTENTION_OPS + ("scale",)
TAPE_LEAVES = ("constant", "variable")


# ---------------------------------------------------------------------------
# work counts, computed from argument shapes ("computed", not measured)
# ---------------------------------------------------------------------------

def _matmul_work(args, kwargs, out):
    a, b = args[0].data, args[1].data
    m, k = a.shape
    n = b.shape[1]
    return {"flop": 2.0 * m * k * n, "bytes": 8.0 * (m * k + k * n + m * n)}


def _spmm_work(args, kwargs, out):
    adj, h = args[0], args[1]
    s = adj.structure
    cols = h.data.shape[1]
    # compulsory traffic: weights, column ids and row pointers once, every
    # source row once, every output row once
    nbytes = 8.0 * (2 * s.n_edges + s.n_dst + 1 + (s.n_src + s.n_dst) * cols)
    return {"flop": 2.0 * s.n_edges * cols, "bytes": nbytes, "nnz": float(s.n_edges)}


def _file_bytes(args, kwargs, out):
    return {"bytes_read": float(os.path.getsize(args[0]))}


def _threshold_candidates(args, kwargs, out):
    return {"candidates": float(np.unique(np.asarray(args[0])).size)}


def _gsea_nulls(args, kwargs, out):
    permutations = kwargs.get("permutations", args[2] if len(args) > 2 else 1000)
    return {"nulls": float(len(out) * permutations)}


def _ig_steps(args, kwargs, out):
    counts = {"steps": float(out.steps)}
    if kwargs.get("scope", args[5] if len(args) > 5 else "target") == "global":
        counts["global"] = 1.0
    return counts


def _output_rows(args, kwargs, out):
    return {"rows": float(out.data.shape[0])}


def _cli_command(args, kwargs, out):
    argv = args[0] if args else kwargs.get("argv")
    return {f"command:{argv[0]}": 1.0} if argv else None


WORK_COUNTS = {
    "autodiff.matmul": _matmul_work,
    "autodiff.spmm": _spmm_work,
    "data.load_layer_graph": _file_bytes,
    "data.load_feature_matrix": _file_bytes,
    "data.load_labels": _file_bytes,
    "data.load_gene_sets": _file_bytes,
    "analysis.select_threshold": _threshold_candidates,
    "analysis.gsea_prerank": _gsea_nulls,
    "explain.ig_node_features": _ig_steps,
    "explain.ig_meta_edges": _ig_steps,
    "gnn.gcn_layer": _output_rows,
    "cli.main": _cli_command,
}

# methods traced under the names the metrics use
METHODS = (
    ("training", "AdamState", "step", "training.adam_step"),
    ("gnn", "ModelParams", "copy", "gnn.params_copy"),
)


class Tracer:
    """Records spans around calls into the package while installed."""

    def __init__(self):
        self.spans = []      # (id, parent id, name, start, end, counts or None)
        self._stack = []
        self._next_id = 0
        self._paused = False
        self._restore = []

    # -- recording ---------------------------------------------------------

    def _open(self):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _wrap(self, fn, name):
        count = WORK_COUNTS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            sid, parent = tracer._open()
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer._stack.pop()
                tracer.spans.append((sid, parent, name, start, time.perf_counter(), None))
                raise
            end = time.perf_counter()
            tracer._stack.pop()
            tracer.spans.append((sid, parent, name, start, end,
                                 count(args, kwargs, out) if count else None))
            return out

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    @contextlib.contextmanager
    def root(self, name):
        """A span of the benchmark itself, parent of the calls made inside it."""
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans.append((sid, parent, name, start, time.perf_counter(), None))

    @contextlib.contextmanager
    def paused(self):
        """Benchmark-side checks call the package without being traced."""
        was, self._paused = self._paused, True
        try:
            yield
        finally:
            self._paused = was

    # -- installation ------------------------------------------------------

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith(PACKAGE + ".")):
                    continue
                if obj not in wrappers:
                    name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                    wrappers[obj] = self._wrap(obj, name)
                self._restore.append((module, attr, obj))
                setattr(module, attr, wrappers[obj])
        for layer, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(f"{PACKAGE}.{layer}"), cls_name)
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, name))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def dump(self, path, extra=None):
        payload = dict(extra or {})
        payload["span_fields"] = ["id", "parent", "name", "start_s", "end_s", "counts"]
        payload["spans"] = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

class _SpanIndex:
    """Spans below one benchmark root, with parent links and self times."""

    def __init__(self, spans, root_name):
        roots = [s for s in spans if s[2] == root_name]
        if len(roots) != 1:
            raise ValueError(f"expected one {root_name!r} span, found {len(roots)}")
        self.root = roots[0]
        parent_of = {s[0]: s[1] for s in spans}
        under = {self.root[0]: True}

        def below(sid):
            chain = []
            while sid is not None and sid not in under:
                chain.append(sid)
                sid = parent_of.get(sid)
            hit = sid is not None and under[sid]
            for c in chain:
                under[c] = hit
            return hit

        self.spans = [s for s in spans if s[0] != self.root[0] and below(s[0])]
        self.by_id = {s[0]: s for s in self.spans}
        child_time = {}
        for s in self.spans:
            child_time[s[1]] = child_time.get(s[1], 0.0) + (s[4] - s[3])
        self.child_time = child_time

    def named(self, name, where=None):
        return [s for s in self.spans if s[2] == name and (where is None or where(s))]

    def seconds(self, name, where=None):
        return sum(s[4] - s[3] for s in self.named(name, where))

    def calls(self, name, where=None):
        return float(len(self.named(name, where)))

    def count(self, name, key):
        return sum((s[5] or {}).get(key, 0.0) for s in self.named(name))

    def self_seconds(self, span):
        return (span[4] - span[3]) - self.child_time.get(span[0], 0.0)

    def ancestors(self, span):
        sid = span[1]
        while sid in self.by_id:
            yield self.by_id[sid]
            sid = self.by_id[sid][1]

    def descendants(self, span):
        return [s for s in self.spans if any(a[0] == span[0] for a in self.ancestors(s))]

    def uncovered_seconds(self):
        """Root time not inside any traced call: the benchmark's own work."""
        top = sum(s[4] - s[3] for s in self.spans if s[1] == self.root[0])
        return (self.root[4] - self.root[3]) - top


def _global(span):
    return bool((span[5] or {}).get("global"))


def _cli_self_seconds(run, command):
    total = 0.0
    for main in run.named("cli.main", lambda s: (s[5] or {}).get(f"command:{command}")):
        for s in [main] + run.descendants(main):
            if s[2].startswith("cli."):
                total += run.self_seconds(s)
    return total


def _tape_nodes_per_forward(run):
    forwards = run.named("gnn.run_model")
    if not forwards:
        return 0.0
    tape = {f"autodiff.{op}" for op in TAPE_OPS + TAPE_LEAVES}
    nodes = sum(
        1 for s in run.spans
        if s[2] in tape and any(a[2] == "gnn.run_model" for a in run.ancestors(s))
    )
    return nodes / len(forwards)


def _encoder_rows_per_ig_step(run):
    """Rows the GCN encoder computes per target-scope IG step, all layers."""
    ig = {"explain.ig_node_features", "explain.ig_meta_edges"}
    steps = sum(s[5]["steps"] for s in run.spans if s[2] in ig and not _global(s))
    rows = sum(
        s[5]["rows"] for s in run.named("gnn.gcn_layer")
        if any(a[2] in ig and not _global(a) for a in run.ancestors(s))
    )
    return rows / steps if steps else 0.0


def layer_metrics(spans, field_rows=0.0, encoder_layers=0):
    """Per-layer metrics of one traced pass.

    Set-up metrics (synth, checkpoint writing) come from the ``bench.setup``
    root; every other metric from the ``bench.run`` root, so a layer's
    numbers describe the timed part of the workload only. Times are totals
    over the pass; divide by the matching ``.calls`` for a per-call figure.
    ``field_rows`` is the median 3-hop receptive field of the explained
    genes; ``explain.field_frac`` sets it against the rows each encoder
    layer actually computes per IG step.
    """
    setup = _SpanIndex(spans, "bench.setup")
    run = _SpanIndex(spans, "bench.run")
    m = {}

    def put(name, value, unit):
        m[name] = {"value": float(value), "unit": unit}

    for op in OPS + ATTENTION_OPS:
        if op in ATTENTION_OPS and not run.calls(f"autodiff.{op}"):
            continue
        put(f"autodiff.{op}.fwd_ms", 1e3 * run.seconds(f"autodiff.{op}"), "ms")
        put(f"autodiff.{op}.calls", run.calls(f"autodiff.{op}"), "count")
    put("autodiff.backward_ms", 1e3 * run.seconds("autodiff.backward"), "ms")
    put("autodiff.backward.calls", run.calls("autodiff.backward"), "count")
    put("autodiff.matmul.gflop", run.count("autodiff.matmul", "flop") / 1e9, "GFLOP-computed")
    put("autodiff.spmm.gflop", run.count("autodiff.spmm", "flop") / 1e9, "GFLOP-computed")
    put("autodiff.spmm.nnz", run.count("autodiff.spmm", "nnz"), "count")
    put("autodiff.matmul.gbytes", run.count("autodiff.matmul", "bytes") / 1e9, "GB-computed")
    put("autodiff.spmm.gbytes", run.count("autodiff.spmm", "bytes") / 1e9, "GB-computed")
    put("autodiff.tape_nodes", _tape_nodes_per_forward(run), "count")

    put("gnn.run_model_ms", 1e3 * run.seconds("gnn.run_model"), "ms")
    put("gnn.run_model.calls", run.calls("gnn.run_model"), "count")
    put("gnn.gcn_layer_ms", 1e3 * run.seconds("gnn.gcn_layer"), "ms")
    put("gnn.head_logits_ms", 1e3 * run.seconds("gnn.head_logits"), "ms")
    put("gnn.prepare_s", run.seconds("gnn.prepare"), "s")
    put("gnn.prepare.calls", run.calls("gnn.prepare"), "count")
    put("gnn.forward_s", run.seconds("gnn.forward"), "s")
    put("gnn.forward.calls", run.calls("gnn.forward"), "count")
    put("gnn.params_copy.calls", run.calls("gnn.params_copy"), "count")

    put("training.adam_step_ms", 1e3 * run.seconds("training.adam_step"), "ms")
    put("training.adam_step.calls", run.calls("training.adam_step"), "count")
    put("training.auprc_ms", 1e3 * run.seconds("training.auprc"), "ms")
    put("training.auprc.calls", run.calls("training.auprc"), "count")
    put("training.save_checkpoint_s", setup.seconds("training.save_checkpoint"), "s")
    put("training.load_checkpoint_s", run.seconds("training.load_checkpoint"), "s")

    put("explain.ig_node_features_s", run.seconds("explain.ig_node_features"), "s")
    put("explain.ig_meta_edges_s",
        run.seconds("explain.ig_meta_edges", lambda s: not _global(s)), "s")
    put("explain.ig_meta_edges_global_s", run.seconds("explain.ig_meta_edges", _global), "s")
    put("explain.steps", run.count("explain.ig_node_features", "steps")
        + run.count("explain.ig_meta_edges", "steps"), "count")

    rows_per_step = _encoder_rows_per_ig_step(run)
    put("explain.field_rows", field_rows, "count")
    put("explain.field_frac",
        field_rows * encoder_layers / rows_per_step if rows_per_step else 0.0, "ratio")

    put("data.load_dataset_s", run.seconds("data.load_dataset"), "s")
    put("data.load_layer_graph_s", run.seconds("data.load_layer_graph"), "s")
    put("data.load_feature_matrix_s", run.seconds("data.load_feature_matrix"), "s")
    put("data.load_labels_s", run.seconds("data.load_labels"), "s")
    put("data.load_gene_sets_s", run.seconds("data.load_gene_sets"), "s")
    put("data.bytes_read", sum(
        run.count(f"data.{fn}", "bytes_read")
        for fn in ("load_layer_graph", "load_feature_matrix", "load_labels", "load_gene_sets")
    ), "bytes")

    put("analysis.select_threshold_s", run.seconds("analysis.select_threshold"), "s")
    put("analysis.select_threshold.candidates",
        run.count("analysis.select_threshold", "candidates"), "count")
    put("analysis.discover_candidates_s", run.seconds("analysis.discover_candidates"), "s")
    put("analysis.write_csv_s", sum(
        run.seconds(f"analysis.{fn}")
        for fn in ("write_candidates_csv", "write_ranking_csv", "write_enrichment_csv")
    ), "s")
    put("analysis.gsea_prerank_s", run.seconds("analysis.gsea_prerank"), "s")
    put("analysis.gsea.nulls", run.count("analysis.gsea_prerank", "nulls"), "count")

    put("synth.planted_dataset_s", setup.seconds("synth.planted_dataset"), "s")
    put("synth.write_planted_s", setup.seconds("synth.write_planted"), "s")

    put("cli.discover.self_s", _cli_self_seconds(run, "discover"), "s")
    put("cli.gsea.self_s", _cli_self_seconds(run, "gsea"), "s")

    put("other_s", run.uncovered_seconds(), "s")
    return m
