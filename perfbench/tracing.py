"""Span tracing of fastcolor's layers, installed from outside the package.

``install`` replaces the public functions and methods of each
``fastcolor`` module with timing wrappers, under every name a caller
looks them up by: a function re-imported into another module (such as
``fastcolornet.dense_forward`` or ``pipeline.run_selfplay``) is replaced
there too. ``uninstall`` puts the originals back. Nothing is patched
unless a traced run asks for it.

Each call becomes a span (name, start, end, parent span, run id). Spans
are kept in memory, up to ``SPAN_CAP``, and written out by
``Tracer.write``; per-name totals (calls, inclusive and self time) are
exact whatever the cap. A span's self time is its duration minus the
time covered by its traced children. Counters that need a call's
arguments or result (computed FLOPs and bytes, float64 inputs, aborted
segments, capped candidate sets) are kept by per-function hooks.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import defaultdict

import numpy as np

SPAN_CAP = 100_000

# Calls made directly by policy_iteration's training loop.
TRAIN_CALLS = frozenset({
    "fastcolornet.fcn_train_step", "selfplay.reconstruct_state",
    "fastcolornet.build_contexts", "selfplay.cache_table",
})


class Aggregate:
    """Per-name [calls, inclusive seconds, self seconds] plus counters."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, float] = defaultdict(float)
        self.runs = 0


class Tracer:
    def __init__(self, float32: bool) -> None:
        self.float32 = float32  # whether cfg.dtype asks for float32 compute
        self.aggs = {"setup": Aggregate(), "op": Aggregate()}
        self.agg = self.aggs["setup"]
        self.active: dict[str, int] = defaultdict(int)
        self.cache_sizes: dict[int, int] = {}
        self._stack: list[list] = []
        self._next_id = 0
        self.run_labels: list[str] = []
        self.span_name: list[str] = []
        self.span_cols = {k: array(t) for k, t in (
            ("id", "q"), ("parent", "q"), ("run", "i"), ("start", "d"), ("end", "d"))}
        self.dropped = 0

    # -- runs: one setup repetition or one workload operation ----------

    def begin(self, kind: str, label: str) -> None:
        self.agg = self.aggs[kind]
        self.agg.runs += 1
        self.run_labels.append(label)
        self.cache_sizes.clear()

    def end(self) -> None:
        self.agg.counters["selfplay.cache_tables"] += sum(self.cache_sizes.values())

    # -- spans ---------------------------------------------------------

    def _enter(self, name: str) -> None:
        self.active[name] += 1
        parent = self._stack[-1][3] if self._stack else -1
        self._stack.append([name, time.perf_counter(), 0.0, self._next_id, parent])
        self._next_id += 1

    def _exit(self) -> None:
        end = time.perf_counter()
        name, start, child, span_id, parent = self._stack.pop()
        self.active[name] -= 1
        dur = end - start
        st = self.agg.stats[name]
        st[0] += 1
        st[1] += dur
        st[2] += dur - child
        if self._stack:
            up = self._stack[-1]
            up[2] += dur
            if up[0] == "pipeline.policy_iteration" and name in TRAIN_CALLS:
                self.agg.counters["pipeline.train.s"] += dur
        if len(self.span_name) < SPAN_CAP:
            self.span_name.append(name)
            cols = self.span_cols
            cols["id"].append(span_id)
            cols["parent"].append(parent)
            cols["run"].append(len(self.run_labels) - 1)
            cols["start"].append(start)
            cols["end"].append(end)
        else:
            self.dropped += 1

    def wrap(self, name: str, fn, hook=None):
        tracer = self

        def traced(*args, **kwargs):
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    def write(self, path: str, header: str) -> None:
        """Kept spans as CSV: run label, span id, parent id, name, start
        and end in microseconds from the first kept span."""
        cols = self.span_cols
        t0 = cols["start"][0] if self.span_name else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# {header} spans_kept={len(self.span_name)} "
                     f"spans_dropped={self.dropped}\n")
            fh.write("run,id,parent,name,start_us,end_us\n")
            for i, name in enumerate(self.span_name):
                fh.write(f"{self.run_labels[cols['run'][i]]},{cols['id'][i]},"
                         f"{cols['parent'][i]},{name},"
                         f"{(cols['start'][i] - t0) * 1e6:.1f},"
                         f"{(cols['end'][i] - t0) * 1e6:.1f}\n")


# -- hooks: counters computed from a call's arguments and result ---------


def _count_forward(tracer: Tracer, x: np.ndarray) -> None:
    c = tracer.agg.counters
    c["nn.forward_calls"] += 1
    if tracer.float32 and x.dtype == np.float64:
        c["nn.f64_inputs"] += 1


def _dense_hook(tracer, args, kwargs, result):
    x, w, b = args
    y = result[0]
    rows = x.size // x.shape[-1]
    c = tracer.agg.counters
    c["nn.dense_forward.flop"] += 2 * rows * w.shape[0] * w.shape[1] + y.size
    c["nn.dense_forward.bytes"] += x.nbytes + w.nbytes + b.nbytes + y.nbytes
    _count_forward(tracer, x)


def _conv_hook(tracer, args, kwargs, result):
    x, kernel, b = args
    y, (cols, _, _) = result
    c = tracer.agg.counters
    c["nn.conv1d_forward.flop"] += 2 * cols.size * kernel.shape[2] + y.size
    # im2col writes the column matrix once and the matmul reads it once
    c["nn.conv1d_forward.bytes"] += (x.nbytes + 2 * cols.nbytes + kernel.nbytes
                                     + b.nbytes + y.nbytes)
    _count_forward(tracer, x)


def _lstm_hook(tracer, args, kwargs, result):
    x, cell, w, b = args
    h, c_new = result[0], result[1]
    rows = x.size // x.shape[-1]
    c = tracer.agg.counters
    # gate matmul and bias, then f*c + i*g and o*tanh(c): four products/sums
    c["nn.lstm_cell_forward.flop"] += (2 * rows * w.shape[0] * w.shape[1]
                                       + rows * w.shape[1] + 4 * h.size)
    c["nn.lstm_cell_forward.bytes"] += (x.nbytes + cell.nbytes + w.nbytes + b.nbytes
                                        + h.nbytes + c_new.nbytes)
    _count_forward(tracer, x)


def _batchnorm_hook(tracer, args, kwargs, result):
    _count_forward(tracer, args[0])


def _moves_arg(args, kwargs):
    return args[2] if len(args) > 2 else kwargs["moves"]


def _v_forward_hook(tracer, args, kwargs, result):
    c = tracer.agg.counters
    c["fastcolornet.forward_calls"] += 1
    c["fastcolornet.forward_rows"] += len(_moves_arg(args, kwargs))
    if tracer.active["selfplay.net_policy_choose"]:
        c["fastcolornet.v_forward.unused"] += 1


def _p_forward_hook(tracer, args, kwargs, result):
    c = tracer.agg.counters
    c["fastcolornet.forward_calls"] += 1
    c["fastcolornet.forward_rows"] += len(_moves_arg(args, kwargs))


def _evaluate_hook(tracer, args, kwargs, result):
    c = tracer.agg.counters
    c["fastcolornet.capped_moves"] += bool(result.capped)
    if tracer.active["mcts.simulate"]:
        c["mcts.leaf_evals"] += 1


def _train_step_hook(tracer, args, kwargs, result):
    tracer.agg.counters["fastcolornet.capped_moves"] += result[1]["capped_moves"]


def _segment_hook(tracer, args, kwargs, result):
    c = tracer.agg.counters
    c["selfplay.segments"] += 1
    c["selfplay.aborted"] += result[1].aborted_at is not None


def _cache_hook(tracer, args, kwargs, result):
    cache = args[0]
    tracer.cache_sizes[id(cache)] = len(cache)


# (module, attribute path, span name, hook)
TARGETS = [
    ("pipeline", "policy_iteration", "pipeline.policy_iteration", None),
    ("pipeline", "gate_model", "pipeline.gate_model", None),
    ("pipeline", "policy_colors", "pipeline.policy_colors", None),
    ("checkpoint", "save_checkpoint", "checkpoint.save_checkpoint", None),
    ("selfplay", "run_selfplay", "pipeline.run_selfplay", None),
    ("selfplay", "play_segment", "selfplay.play_segment", _segment_hook),
    ("selfplay", "BaselineOracle.trace", "selfplay.baseline_trace", None),
    ("selfplay", "fast_forward", "selfplay.fast_forward", None),
    ("selfplay", "reconstruct_state", "selfplay.reconstruct_state", None),
    ("selfplay", "NetPolicy.choose", "selfplay.net_policy_choose", None),
    ("selfplay", "EmbeddingCache.table", "selfplay.cache_table", _cache_hook),
    ("selfplay", "EmbeddingCache.drop_below", "selfplay.cache_drop_below", _cache_hook),
    ("mcts", "SearchTree.simulate", "mcts.simulate", None),
    ("mcts", "SearchTree.advance_root", "mcts.advance_root", None),
    ("mcts", "select_index", "mcts.select_index", None),
    ("fastcolornet", "evaluate", "fastcolornet.evaluate", _evaluate_hook),
    ("fastcolornet", "build_contexts", "fastcolornet.build_contexts", None),
    ("fastcolornet", "v_forward", "fastcolornet.v_forward", _v_forward_hook),
    ("fastcolornet", "p_forward", "fastcolornet.p_forward", _p_forward_hook),
    ("fastcolornet", "forward_backward", "fastcolornet.forward_backward", None),
    ("fastcolornet", "fcn_train_step", "fastcolornet.fcn_train_step", _train_step_hook),
    ("nn", "dense_forward", "nn.dense_forward", _dense_hook),
    ("nn", "dense_backward", "nn.dense_backward", None),
    ("nn", "batchnorm_forward", "nn.batchnorm_forward", _batchnorm_hook),
    ("nn", "batchnorm_backward", "nn.batchnorm_backward", None),
    ("nn", "conv1d_forward", "nn.conv1d_forward", _conv_hook),
    ("nn", "conv1d_backward", "nn.conv1d_backward", None),
    ("nn", "lstm_cell_forward", "nn.lstm_cell_forward", _lstm_hook),
    ("nn", "lstm_cell_backward", "nn.lstm_cell_backward", None),
    ("nn", "adam_step", "nn.adam_step", None),
    ("embedding", "compute_embeddings", "embedding.compute_embeddings", None),
    ("embedding", "walk_value", "embedding.walk_value", None),
    ("embedding", "walk_backprop", "embedding.walk_backprop", None),
    ("coloring", "ColoringState.clone", "coloring.clone", None),
    ("coloring", "ColoringState.valid_actions", "coloring.valid_actions", None),
    ("coloring", "ColoringState.greedy_action", "coloring.greedy_action", None),
    ("coloring", "ColoringState.apply_inplace", "coloring.apply_inplace", None),
    ("coloring", "check_proper", "coloring.check_proper", None),
    ("coloring", "compute_order", "coloring.compute_order", None),
    ("graph", "GraphSource.build", "graph.build", None),
]


def install(tracer: Tracer, callers=()) -> list[tuple[object, str, object]]:
    """Wrap every target, also where the modules in ``callers`` imported
    it; returns what ``uninstall`` needs to undo it."""
    fastcolor = {m: importlib.import_module(f"fastcolor.{m}") for m, *_ in TARGETS}
    modules = list(fastcolor.values()) + list(callers)
    patched: list[tuple[object, str, object]] = []
    for mod_name, path, name, hook in TARGETS:
        mod = fastcolor[mod_name]
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(mod, cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, tracer.wrap(name, original, hook))
            patched.append((cls, attr, original))
            continue
        original = getattr(mod, path)
        wrapper = tracer.wrap(name, original, hook)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)
                    patched.append((m, key, original))
    return patched


def uninstall(patched: list[tuple[object, str, object]]) -> None:
    for owner, key, original in reversed(patched):
        setattr(owner, key, original)


# -- per-layer metrics -----------------------------------------------------


def per_layer_metrics(tracer: Tracer, traced_op_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer figures from a traced run.

    Counts and seconds are per workload operation (one policy iteration,
    one decode, one training step), averaged over the operations the run
    made; ``graph.build.s`` is per set-up repetition. ``.us``/``.ms`` are
    means per call; shares and per-call ratios pool the whole run.
    """
    agg = tracer.aggs["op"]
    ops = max(agg.runs, 1)
    st, c = agg.stats, agg.counters

    def calls(n):
        return st[n][0] / ops

    def secs(n):
        return st[n][1] / ops

    def self_secs(n):
        return st[n][2] / ops

    def per_call(n, scale):
        return st[n][1] / st[n][0] * scale if st[n][0] else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    out: dict[str, tuple[float, str]] = {
        "pipeline.run_selfplay.s": (secs("pipeline.run_selfplay"), "s"),
        "pipeline.train.s": (c["pipeline.train.s"] / ops, "s"),
        "pipeline.gate_model.s": (secs("pipeline.gate_model"), "s"),
        "pipeline.policy_colors.calls": (calls("pipeline.policy_colors"), "count"),
        "checkpoint.save_checkpoint.s": (secs("checkpoint.save_checkpoint"), "s"),
        "selfplay.play_segment.calls": (calls("selfplay.play_segment"), "count"),
        "selfplay.play_segment.self_s": (self_secs("selfplay.play_segment"), "s"),
        "selfplay.abort_share": (ratio(c["selfplay.aborted"], c["selfplay.segments"]), "share"),
        "selfplay.baseline_trace.s": (secs("selfplay.baseline_trace"), "s"),
        "selfplay.fast_forward.s": (secs("selfplay.fast_forward"), "s"),
        "selfplay.reconstruct_state.s": (secs("selfplay.reconstruct_state"), "s"),
        "selfplay.net_policy_choose.calls": (calls("selfplay.net_policy_choose"), "count"),
        "selfplay.net_policy_choose.s": (secs("selfplay.net_policy_choose"), "s"),
        "selfplay.cache_tables": (c["selfplay.cache_tables"] / ops, "count"),
        "mcts.simulate.calls": (calls("mcts.simulate"), "count"),
        "mcts.simulate.self_s": (self_secs("mcts.simulate"), "s"),
        "mcts.select_index.calls": (calls("mcts.select_index"), "count"),
        "mcts.select_index.s": (secs("mcts.select_index"), "s"),
        "mcts.advance_root.s": (secs("mcts.advance_root"), "s"),
        "mcts.leaf_evals": (c["mcts.leaf_evals"] / ops, "count"),
        "mcts.leaf_evals_per_sim": (ratio(c["mcts.leaf_evals"], st["mcts.simulate"][0]),
                                    "evals/sim"),
        "fastcolornet.evaluate.calls": (calls("fastcolornet.evaluate"), "count"),
        "fastcolornet.evaluate.ms": (per_call("fastcolornet.evaluate", 1e3), "ms"),
        "fastcolornet.rows_per_forward": (
            ratio(c["fastcolornet.forward_rows"], c["fastcolornet.forward_calls"]), "moves/call"),
        "fastcolornet.v_forward.unused": (c["fastcolornet.v_forward.unused"] / ops, "count"),
        "fastcolornet.build_contexts.s": (secs("fastcolornet.build_contexts"), "s"),
        "fastcolornet.v_forward.s": (secs("fastcolornet.v_forward"), "s"),
        "fastcolornet.p_forward.s": (secs("fastcolornet.p_forward"), "s"),
        "fastcolornet.fcn_train_step.s": (secs("fastcolornet.fcn_train_step"), "s"),
        "fastcolornet.forward_backward.s": (secs("fastcolornet.forward_backward"), "s"),
        "fastcolornet.capped_moves": (c["fastcolornet.capped_moves"] / ops, "count"),
    }
    for layer in ("dense", "batchnorm", "conv1d", "lstm_cell"):
        for way in ("forward", "backward"):
            n = f"nn.{layer}_{way}"
            out[f"{n}.calls"] = (calls(n), "count")
            out[f"{n}.s"] = (secs(n), "s")
    out["nn.adam_step.s"] = (secs("nn.adam_step"), "s")
    for layer in ("dense", "conv1d", "lstm_cell"):
        n = f"nn.{layer}_forward"
        out[f"{n}.mflop"] = (c[f"{n}.flop"] / ops / 1e6, "Mflop-computed")
        out[f"{n}.mbyte"] = (c[f"{n}.bytes"] / ops / 1e6, "MB-computed")
    out["nn.f64_input_share"] = (ratio(c["nn.f64_inputs"], c["nn.forward_calls"]), "share")
    out.update({
        "embedding.compute_embeddings.s": (secs("embedding.compute_embeddings"), "s"),
        "embedding.walk_value.calls": (calls("embedding.walk_value"), "count"),
        "embedding.walk_value.s": (secs("embedding.walk_value"), "s"),
        "embedding.walk_backprop.s": (secs("embedding.walk_backprop"), "s"),
    })
    for fn in ("clone", "valid_actions", "greedy_action", "apply_inplace"):
        n = f"coloring.{fn}"
        out[f"{n}.calls"] = (calls(n), "count")
        out[f"{n}.us"] = (per_call(n, 1e6), "us")
    out["coloring.check_proper.s"] = (secs("coloring.check_proper"), "s")
    out["coloring.compute_order.s"] = (secs("coloring.compute_order"), "s")
    setup = tracer.aggs["setup"]
    out["graph.build.s"] = (setup.stats["graph.build"][1] / max(setup.runs, 1), "s")
    out["trace.op_s"] = (traced_op_s, "s")
    return out
