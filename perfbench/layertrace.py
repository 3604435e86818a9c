"""Per-layer tracing of the motionseg package from outside it.

A :class:`Tracer` replaces each public boundary function by a wrapper, by
name, in every ``motionseg`` module that holds a reference to it (so
``motionseg.inference.fit_gmm`` and ``motionseg.coloc.fit_gmm`` are both
traced). Wrappers record spans (run id, name, start, end, parent) and
counters in memory; :func:`layer_metrics` turns one run's spans into the
per-layer metrics. Nothing inside ``src/`` changes, and per-edge calls such
as ``FlowNetwork.add_edge`` are never wrapped: they run ~10^5 times per
frame and tracing them would swamp what is measured.

A boundary that no longer exists is listed in ``Tracer.absent`` and its
metrics read 0; it never stops the run.
"""

import functools
import importlib
import inspect
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

# fit_gmm's documented stopping rule: relative change of the weighted NLL
# below this. A fit whose last step misses it stopped on the iteration cap.
EM_REL_TOL = 1e-6


class Tracer:
    """Spans and counters of traced runs, kept in memory."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []       # [run_id, name, start, end, parent index or -1]
        self.counts = Counter()
        self.absent = []
        self._stack = []
        self._patches = []

    @contextmanager
    def span(self, name):
        rec = [self.run_id, name, time.perf_counter(), None,
               self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def install(self):
        """Wrap every boundary in BOUNDARIES; record the missing ones."""
        for module, func, span_name, hook in BOUNDARIES:
            try:
                orig = getattr(importlib.import_module(module), func)
            except (ImportError, AttributeError):
                self.absent.append(f"{module}.{func}")
                continue
            for param in _HOOK_PARAMS.get(hook, ()):
                if param not in inspect.signature(orig).parameters:
                    self.absent.append(f"{module}.{func}({param}=)")
                    hook = _plain
            self._patch(orig, self._wrapper(orig, span_name, hook))

    def uninstall(self):
        for module, attr, orig in reversed(self._patches):
            setattr(module, attr, orig)
        self._patches.clear()

    def _wrapper(self, fn, span_name, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return hook(self, span_name, fn, args, kwargs)
        return wrapper

    def _patch(self, orig, wrapper):
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "motionseg"
                                      or name.startswith("motionseg.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, orig))


# ---------------------------------------------------------------------------
# hooks: (tracer, span name, wrapped function, args, kwargs) -> result


def _plain(t, name, fn, args, kwargs):
    with t.span(name):
        return fn(*args, **kwargs)


def _read(t, name, fn, args, kwargs):
    with t.span(name):
        result = fn(*args, **kwargs)
    t.counts["io.read_calls"] += 1
    t.counts["io.read_bytes"] += os.path.getsize(args[0])
    return result


def _write(t, name, fn, args, kwargs):
    with t.span(name):
        result = fn(*args, **kwargs)
    t.counts["io.write_calls"] += 1
    t.counts["io.write_bytes"] += os.path.getsize(args[1])
    return result


def _fit_gmm(t, name, fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    wanted = bound.arguments.get("return_history", False)
    bound.arguments["return_history"] = True
    with t.span(name):
        gmm, history = fn(*bound.args, **bound.kwargs)
    samples = np.asarray(next(iter(bound.arguments.values()))).size // 3
    converged = len(history) >= 2 and (
        abs(history[-2] - history[-1])
        < EM_REL_TOL * max(1.0, abs(history[-2])))
    t.counts["gmm.em_iters"] += len(history)
    t.counts["gmm.sample_iters"] += samples * len(history)
    t.counts["gmm.em_capped"] += not converged
    return (gmm, history) if wanted else gmm


def _expansion(t, name, fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    trace = bound.arguments.get("energy_trace")
    if trace is None:
        trace = bound.arguments["energy_trace"] = []
    first = len(trace)
    model = next(iter(bound.arguments.values()))
    energy = _start_energy(model, bound.arguments.get("init"))
    with t.span(name):
        result = fn(*bound.args, **bound.kwargs)
    for after in trace[first:]:
        t.counts["energy.expansion_moves"] += 1
        if after < energy:
            t.counts["energy.expansion_accepted"] += 1
        energy = after
    return result


def _start_energy(model, init):
    """Energy of the labelling an expansion starts from: ``init``, or the
    per-pixel unary minimum when no ``init`` is given."""
    from motionseg.core import LabelMap
    from motionseg.energy import total_energy
    if init is None:
        labels = np.asarray(model.allowed_labels, dtype=np.int32)[
            np.argmin(model.unary, axis=1)]
        init = LabelMap(labels.reshape(model.adjacency.height,
                                       model.adjacency.width))
    return total_energy(model, init)


def _cut(t, name, fn, args, kwargs):
    net = args[0]
    t.counts["maxflow.nodes"] += getattr(net, "node_count", 0)
    t.counts["maxflow.arcs"] += len(getattr(net, "arc_head", ()))
    with t.span(name):
        return fn(*args, **kwargs)


def _infer(t, name, fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    batch = next(iter(bound.arguments.values()))
    iterations = getattr(bound.arguments.get("params"), "iterations", 0)
    t.counts["inference.frames"] += len(batch)
    t.counts["inference.planned_rounds"] += len(batch) * iterations
    with t.span(name):
        return fn(*args, **kwargs)


def _slic(t, name, fn, args, kwargs):
    with t.span(name):
        result = fn(*args, **kwargs)
    t.counts["coloc.superpixels"] += result.n_superpixels
    return result


# Keyword arguments a hook passes to its function; without them the
# boundary is traced by _plain and the dependent counts read 0.
_HOOK_PARAMS = {_fit_gmm: ("return_history",),
                _expansion: ("energy_trace",)}

BOUNDARIES = [
    ("motionseg.io", "read_manifest", "io.read", _read),
    ("motionseg.io", "read_image", "io.read", _read),
    ("motionseg.io", "read_mask", "io.read", _read),
    ("motionseg.io", "read_labels", "io.read", _read),
    ("motionseg.io", "read_scores", "io.read", _read),
    ("motionseg.io", "write_manifest", "io.write", _write),
    ("motionseg.io", "write_image", "io.write", _write),
    ("motionseg.io", "write_mask", "io.write", _write),
    ("motionseg.io", "write_labels", "io.write", _write),
    ("motionseg.io", "write_scores", "io.write", _write),
    ("motionseg.pipeline", "prune_manifest", "pipeline.prune", _plain),
    ("motionseg.pipeline", "sample_manifest", "pipeline.sample", _plain),
    ("motionseg.gmm", "fit_gmm", "gmm.fit", _fit_gmm),
    ("motionseg.gmm", "nll", "gmm.nll", _plain),
    ("motionseg.energy", "build_energy", "energy.build", _plain),
    ("motionseg.energy", "minimize_binary", "energy.minimize", _plain),
    ("motionseg.energy", "minimize_expansion", "energy.minimize", _expansion),
    ("motionseg.maxflow", "min_cut", "maxflow.cut", _cut),
    ("motionseg.inference", "infer_labels", "inference.infer", _infer),
    ("motionseg.coloc", "slic_superpixels", "coloc.slic", _slic),
    ("motionseg.coloc", "seed_gmms_from_scores", "coloc.seed_gmm", _plain),
    ("motionseg.coloc", "coloc_segment", "coloc.segment", _plain),
    ("motionseg.coloc", "largest_component_box", "coloc.box", _plain),
    ("motionseg.predictor", "predict", "predictor.predict", _plain),
    ("motionseg.predictor", "sgd_step", "predictor.sgd", _plain),
    ("motionseg.loss", "weighted_nll_loss", "loss.nll", _plain),
    ("motionseg.metrics", "accumulate_iou", "metrics.iou", _plain),
    ("motionseg.metrics", "corloc", "metrics.corloc", _plain),
]

# Stages whose full wall time is reported as cli.<stage>_s.
CLI_STAGES = ("prune", "sample", "infer", "eval-iou", "train-toy", "coloc",
              "eval-corloc")

# (metric, unit, True if higher is better) in report order. Times are self
# times of the layer's spans; counts are totals over one chain. Less work
# is better, except where a ratio measures useful outcomes or coverage.
_HIGHER = {"energy.expansion_accept_ratio", "cli.infer_layer_share"}
PER_LAYER = [(name, unit, name in _HIGHER) for name, unit in [
    ("gmm.fit_calls", "count"), ("gmm.fit_s", "s"), ("gmm.em_iters", "count"),
    ("gmm.em_capped_frac", "ratio"), ("gmm.sample_iters", "count"),
    ("gmm.nll_s", "s"),
    ("energy.build_calls", "count"), ("energy.build_s", "s"),
    ("energy.minimize_self_s", "s"), ("energy.expansion_moves", "count"),
    ("energy.expansion_accepted", "count"),
    ("energy.expansion_accept_ratio", "ratio"),
    ("maxflow.cut_calls", "count"), ("maxflow.cut_s", "s"),
    ("maxflow.nodes", "count"), ("maxflow.arcs", "count"),
    ("coloc.slic_calls", "count"), ("coloc.slic_s", "s"),
    ("coloc.superpixels", "count"), ("coloc.seed_gmm_s", "s"),
    ("coloc.segment_s", "s"), ("coloc.box_s", "s"),
    ("coloc.slic_share", "ratio"),
    ("inference.frames", "count"), ("inference.self_s", "s"),
    ("inference.rounds", "count"), ("inference.rounds_skipped", "count"),
    ("io.read_calls", "count"), ("io.read_bytes", "B"), ("io.read_s", "s"),
    ("io.write_calls", "count"), ("io.write_bytes", "B"), ("io.write_s", "s"),
    ("predictor.predict_s", "s"), ("predictor.sgd_calls", "count"),
    ("predictor.sgd_s", "s"), ("loss.nll_s", "s"),
    ("pipeline.prune_s", "s"), ("pipeline.sample_s", "s"),
    ("metrics.iou_s", "s"), ("metrics.corloc_s", "s"),
] + [(f"cli.{stage}_s", "s") for stage in CLI_STAGES] + [
    ("cli.infer_layer_share", "ratio"),
    ("trace.overhead_s", "s"), ("trace.absent", "count"),
]]


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced run, without ``trace.overhead_s``."""
    spans = tracer.spans
    nested = [0.0] * len(spans)
    parents = [s[4] for s in spans]
    for s, p in zip(spans, parents):
        if p >= 0:
            nested[p] += s[3] - s[2]
    self_s, calls, total = Counter(), Counter(), Counter()
    for s, inner in zip(spans, nested):
        self_s[s[1]] += s[3] - s[2] - inner
        total[s[1]] += s[3] - s[2]
        calls[s[1]] += 1
    rounds = sum(1 for s, p in zip(spans, parents)
                 if s[1] == "energy.minimize" and p >= 0
                 and spans[p][1] == "inference.infer")
    infer_cover = sum(inner for s, inner in zip(spans, nested)
                      if s[1] == "cli.infer")
    c = tracer.counts
    m = {
        "gmm.fit_calls": calls["gmm.fit"],
        "gmm.fit_s": self_s["gmm.fit"],
        "gmm.em_iters": c["gmm.em_iters"],
        "gmm.em_capped_frac": _ratio(c["gmm.em_capped"], calls["gmm.fit"]),
        "gmm.sample_iters": c["gmm.sample_iters"],
        "gmm.nll_s": self_s["gmm.nll"],
        "energy.build_calls": calls["energy.build"],
        "energy.build_s": self_s["energy.build"],
        "energy.minimize_self_s": self_s["energy.minimize"],
        "energy.expansion_moves": c["energy.expansion_moves"],
        "energy.expansion_accepted": c["energy.expansion_accepted"],
        "energy.expansion_accept_ratio": _ratio(
            c["energy.expansion_accepted"], c["energy.expansion_moves"]),
        "maxflow.cut_calls": calls["maxflow.cut"],
        "maxflow.cut_s": self_s["maxflow.cut"],
        "maxflow.nodes": c["maxflow.nodes"],
        "maxflow.arcs": c["maxflow.arcs"],
        "coloc.slic_calls": calls["coloc.slic"],
        "coloc.slic_s": self_s["coloc.slic"],
        "coloc.superpixels": c["coloc.superpixels"],
        "coloc.seed_gmm_s": self_s["coloc.seed_gmm"],
        "coloc.segment_s": self_s["coloc.segment"],
        "coloc.box_s": self_s["coloc.box"],
        "coloc.slic_share": _ratio(total["coloc.slic"], total["cli.coloc"]),
        "inference.frames": c["inference.frames"],
        "inference.self_s": self_s["inference.infer"],
        "inference.rounds": rounds,
        "inference.rounds_skipped": c["inference.planned_rounds"] - rounds,
        "io.read_calls": c["io.read_calls"],
        "io.read_bytes": c["io.read_bytes"],
        "io.read_s": self_s["io.read"],
        "io.write_calls": c["io.write_calls"],
        "io.write_bytes": c["io.write_bytes"],
        "io.write_s": self_s["io.write"],
        "predictor.predict_s": self_s["predictor.predict"],
        "predictor.sgd_calls": calls["predictor.sgd"],
        "predictor.sgd_s": self_s["predictor.sgd"],
        "loss.nll_s": self_s["loss.nll"],
        "pipeline.prune_s": self_s["pipeline.prune"],
        "pipeline.sample_s": self_s["pipeline.sample"],
        "metrics.iou_s": self_s["metrics.iou"],
        "metrics.corloc_s": self_s["metrics.corloc"],
        "cli.infer_layer_share": _ratio(infer_cover, total["cli.infer"]),
        "trace.absent": len(tracer.absent),
    }
    for stage in CLI_STAGES:
        m[f"cli.{stage}_s"] = total[f"cli.{stage}"]
    return m


def _ratio(num, den):
    return num / den if den else 0.0
