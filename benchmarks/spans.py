"""Span tracing of the opinionlab package, installed from outside it.

`Tracer.install` replaces the public functions and methods of each package
module with timing wrappers, at run time; `Tracer.restore` puts every
original back.  No source file is edited.  Each call of a wrapped function
records one span: (name id, start, end, parent span index, operation id).
Spans stay in memory until the run ends and are turned into per-layer
metrics by `layer_metrics`.

A few wrapped functions also carry a hook that counts work, such as tape
nodes before a backward pass.  A hook runs outside the span of the function
it watches and is itself recorded as a `trace.hook` span, so its cost shows
in the tracing overhead and never in a layer's time.
"""

from __future__ import annotations

import inspect
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("autodiff", "network", "model", "encoder", "simulate", "data",
          "baselines", "metrics", "harness")

HOOK = "trace.hook"

# Functions called once per tape node or once per post.  A span each would
# cost more than the work it times; the tape walk counts the autodiff ones.
SKIP = frozenset({
    "autodiff.tensor", "autodiff.as_tensor", "autodiff.concat", "autodiff.exp",
    "autodiff.log", "autodiff.tanh", "autodiff.absolute", "autodiff.maximum",
    "autodiff.sigmoid", "autodiff.softmax",
    "autodiff.Tensor.tanh", "autodiff.Tensor.exp", "autodiff.Tensor.log",
    "autodiff.Tensor.abs", "autodiff.Tensor.maximum", "autodiff.Tensor.sum",
    "autodiff.Tensor.mean", "autodiff.Tensor.reshape", "autodiff.Tensor.item",
    "autodiff.Tensor.zero_grad",
    "data.discretize_opinion", "data.label_to_continuous",
})

# Private names that are still a layer boundary worth timing.
INCLUDE = frozenset({"encoder.CorpusEncoding.__init__"})


class Tracer:
    """Wraps package functions, records spans and counts work per operation."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = [HOOK]
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: Counter = Counter()
        self.seen: dict = defaultdict(set)
        self._patches: list = []
        self._hooks = {
            "autodiff.Tensor.backward": (self._walk_tape, self._count_grads),
            "autodiff.Adam.step": (self._count_zero_grads, None),
            "network.forward_with_time_derivative": (self._count_rows, None),
            "encoder.CorpusEncoding.encode_all": (self._count_useful_users, None),
            "baselines.regularize_series": (self._note_series_input, None),
        }

    # ----- recording ------------------------------------------------------

    def wrap(self, fn, name: str):
        """Return `fn` wrapped so that each call records a span named `name`."""
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, self.clock
        before, after = self._hooks.get(name, (None, None))
        run_hook = self._run_hook

        def traced(*args, **kwargs):
            state = run_hook(before, args, kwargs) if before else None
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.op)
            if after and state is not None:
                run_hook(after, state)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def _run_hook(self, hook, *args):
        index = len(self.spans)
        self.spans.append(None)
        start = self.clock()
        try:
            state = hook(*args)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError):
            # The watched function changed shape; its counters read zero.
            self.counts["hook_errors", self.op] += 1
            state = None
        self.spans[index] = (0, start, self.clock(), self.stack[-1] if self.stack else -1, self.op)
        return state

    # ----- install / restore -----------------------------------------------

    def install(self, package, modules: dict):
        """Wrap the public functions and methods of every module in `modules`.

        `modules` maps a layer name to its module.  A module-level function
        is replaced in every module (and the package) that holds a reference
        to it, so `from .x import f` call sites are traced too.
        """
        holders = list({id(m): m for m in (package, *modules.values())}.values())
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isfunction(obj):
                    if attr.startswith("_") or name in SKIP or inspect.isgeneratorfunction(obj):
                        continue
                    wrapped = self.wrap(obj, name)
                    for holder in holders:
                        for held_name, held in list(vars(holder).items()):
                            if held is obj:
                                self._patch(holder, held_name, wrapped)
                elif inspect.isclass(obj):
                    self._install_class(obj, name)

    def _install_class(self, cls, prefix: str):
        for attr, raw in list(vars(cls).items()):
            name = f"{prefix}.{attr}"
            if (attr.startswith("_") and name not in INCLUDE) or name in SKIP:
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                replacement = type(raw)(self.wrap(raw.__func__, name))
            elif inspect.isfunction(raw) and not inspect.isgeneratorfunction(raw):
                replacement = self.wrap(raw, name)
            else:
                continue
            self._patch(cls, attr, replacement)

    def _patch(self, owner, attr: str, replacement):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> bool:
        """Put every wrapped attribute back; True when all are the originals."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        ok = all(vars(owner)[attr] is original for owner, attr, original in self._patches)
        self._patches.clear()
        return ok

    # ----- work-counting hooks (run outside the watched span) ---------------

    def _walk_tape(self, args, kwargs):
        nodes = []
        seen = set()
        todo = [args[0]]
        while todo:
            node = todo.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            nodes.append(node)
            todo.extend(getattr(node, "_parents", ()))
        self.counts["tape_nodes", self.op] += len(nodes)
        self.counts["tape_bytes", self.op] += sum(getattr(n.data, "nbytes", 0) for n in nodes)
        return nodes

    def _count_grads(self, nodes):
        self.counts["tape_grad_nodes", self.op] += sum(1 for n in nodes if n.grad is not None)

    def _count_zero_grads(self, args, kwargs):
        params = getattr(args[0], "params", ())
        self.counts["adam_params", self.op] += len(params)
        self.counts["adam_zero_grads", self.op] += sum(
            1 for p in params if p.grad is None or not np.any(p.grad))

    def _count_rows(self, args, kwargs):
        inputs = args[1] if len(args) > 1 else kwargs["inputs"]
        self.counts["tangent_rows", self.op] += np.shape(getattr(inputs, "data", inputs))[0]

    def _count_useful_users(self, args, kwargs):
        masks = np.asarray(args[0].masks)
        self.counts["encoded_users", self.op] += masks.shape[0]
        self.counts["useful_users", self.op] += int(np.count_nonzero(masks.sum(axis=1)))

    def _note_series_input(self, args, kwargs):
        dataset = args[0] if args else kwargs["dataset"]
        self.seen["series_inputs", self.op].add(id(dataset))


# ----- span arithmetic ---------------------------------------------------------


class SpanTable:
    """Columnar view of a tracer's spans with durations and self times.

    Parents always precede their children in the list, because a span's
    slot is taken when its call starts.
    """

    def __init__(self, names, spans):
        self.names = list(names)
        self.name = [self.names[s[0]] for s in spans]
        self.start = [s[1] for s in spans]
        self.end = [s[2] for s in spans]
        self.parent = [s[3] for s in spans]
        self.op = [s[4] for s in spans]
        self.dur = [e - b for b, e in zip(self.start, self.end)]
        covered = [0.0] * len(spans)
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += self.dur[i]
        self.self_time = [d - c for d, c in zip(self.dur, covered)]
        self.children = defaultdict(list)
        self.by_name = defaultdict(list)
        for i, (n, p) in enumerate(zip(self.name, self.parent)):
            self.children[p].append(i)
            self.by_name[n].append(i)

    def under(self, ancestor: str) -> list[bool]:
        """For each span, whether `ancestor` is the span itself or above it."""
        flags = [False] * len(self.name)
        for i, (n, p) in enumerate(zip(self.name, self.parent)):
            flags[i] = n == ancestor or (p >= 0 and flags[p])
        return flags

    def select(self, name: str, mask=None, parent: str | None = None) -> list[int]:
        """Indices of spans called `name`, optionally filtered by a mask or parent name."""
        return [i for i in self.by_name.get(name, ())
                if (mask is None or mask[i])
                and (parent is None or (self.parent[i] >= 0 and self.name[self.parent[i]] == parent))]

    def total(self, idx, field="dur") -> float:
        values = getattr(self, field)
        return sum(values[i] for i in idx)


def step_durations(table: SpanTable) -> list[float]:
    """Wall time of each optimizer step inside each `model.train` span.

    A step runs from its noise draw (or, without one, its loss) to the end
    of its `Adam.step`, minus any tracing hooks in between.
    """
    out = []
    for t in table.select("model.train"):
        begin, hooks = None, 0.0
        for c in table.children[t]:
            name = table.name[c]
            if begin is None and name in ("model.gumbel_noise", "model.total_loss"):
                begin, hooks = table.start[c], 0.0
            elif begin is not None and name == HOOK:
                hooks += table.dur[c]
            elif begin is not None and name == "autodiff.Adam.step":
                out.append(table.end[c] - begin - hooks)
                begin = None
    return out


def _per(total: float, count: float) -> float:
    return total / count if count else 0.0


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


# Output quality of the traced operations, reported beside the layer timings.
QUALITY_METRICS = ("model.test_macro_f1", "model.ode_residual_final", "baselines.test_macro_f1")

EXACT_COUNTERS = ("autodiff.tape_nodes_per_step", "network.rows_per_step",
                  "simulate.partner_draws", "baselines.regularize_calls")


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if name.endswith("_share"):
        return "ratio"
    if name.endswith("_f1"):
        return "f1"
    if name.endswith("_residual_final"):
        return "loss"
    if "_ms" in name:
        return "ms"
    if "_mb" in name:
        return "MB"
    return "count"


def op_counters(tracer: Tracer, table: SpanTable, work: dict) -> dict:
    """Counters that must repeat exactly from one operation to the next.

    `work` maps each traced operation id to its {"steps", "passes"} counts.
    """
    calls = Counter(zip(table.name, table.op))
    out = {}
    for op, w in work.items():
        out[op] = {
            "autodiff.tape_nodes_per_step": _per(tracer.counts["tape_nodes", op], w["steps"]),
            "network.rows_per_step": _per(tracer.counts["tangent_rows", op], w["steps"]),
            "simulate.partner_draws": _per(calls["simulate.sbcm_partner_probs", op], w["passes"]),
            "baselines.regularize_calls": _per(calls["baselines.regularize_series", op], w["passes"]),
        }
    return out


def layer_metrics(tracer: Tracer, table: SpanTable, work: dict) -> dict:
    """Per-layer metrics from the spans and counters of a traced phase.

    `work` maps each operation id to its counts of optimizer steps, epochs
    and lab passes.  A function that was never called contributes zero.
    """
    steps = sum(w["steps"] for w in work.values())
    epochs = sum(w["epochs"] for w in work.values())
    passes = sum(w["passes"] for w in work.values())
    c = tracer.counts

    def total(key):
        return sum(v for (k, _), v in c.items() if k == key)

    in_step = table.under("model.total_loss")
    in_train = table.under("model.train")

    def ms_per(name, count, mask=None, field="dur", parent=None):
        """Milliseconds in spans called `name`, divided by `count`."""
        return 1e3 * _per(table.total(table.select(name, mask, parent), field), count)

    def ms_mean(name):
        return ms_per(name, len(table.select(name)))

    steps_ms = [1e3 * d for d in step_durations(table)]
    series_calls = len(table.select("baselines.regularize_series"))
    distinct_series = sum(len(v) for (k, _), v in tracer.seen.items() if k == "series_inputs")
    return {
        "autodiff.backward_ms_per_step": ms_per("autodiff.Tensor.backward", steps),
        "autodiff.tape_nodes_per_step": _per(total("tape_nodes"), steps),
        "autodiff.tape_mb_per_step": _per(total("tape_bytes"), steps) / 1e6,
        "autodiff.tape_grad_share": _per(total("tape_grad_nodes"), total("tape_nodes")),
        "autodiff.adam_ms_per_step": ms_per("autodiff.Adam.step", steps),
        "autodiff.adam_zero_grad_share": _per(total("adam_zero_grads"), total("adam_params")),
        "network.tangent_ms_per_step": ms_per("network.forward_with_time_derivative", steps, in_step),
        "network.rows_per_step": _per(total("tangent_rows"), steps),
        "network.forward_ms_per_step": ms_per("network.forward_inputs", steps, in_step),
        "network.build_inputs_ms_per_step": ms_per("network.build_inputs", steps, in_step),
        "model.step_ms_p50": _percentile(steps_ms, 50),
        "model.step_ms_p99": _percentile(steps_ms, 99),
        "model.data_loss_self_ms_per_step": ms_per("model.data_loss", steps, in_step, "self_time"),
        "model.ode_loss_self_ms_per_step": ms_per("model.ode_loss", steps, in_step, "self_time"),
        "model.ode_rhs_ms_per_step": ms_per("model.ode_rhs_all", steps, in_step),
        "model.gumbel_noise_ms_per_step": ms_per("model.gumbel_noise", steps, in_train),
        "model.val_predict_ms_per_epoch": ms_per("model.SinnModel.predict_proba", epochs,
                                                 parent="model.train"),
        "metrics.compute_ms_per_epoch": ms_per("metrics.compute_metrics", epochs, in_train),
        "harness.evaluate_ms": ms_mean("harness.evaluate_model"),
        "model.build_ms": ms_mean("model.build_model"),
        "encoder.encode_ms_per_step": ms_per("encoder.CorpusEncoding.encode_all", steps, in_step),
        "encoder.useful_share": _per(total("useful_users"), total("encoded_users")),
        "encoder.corpus_build_ms": ms_mean("encoder.CorpusEncoding.__init__"),
        "simulate.step_ms_p50": 1e3 * _percentile(
            [table.dur[i] for i in table.select("simulate.step_sbcm")], 50),
        "simulate.partner_draws": _per(len(table.select("simulate.sbcm_partner_probs")), passes),
        "simulate.to_dataset_ms": ms_mean("simulate.trajectory_to_dataset"),
        "data.split_ms": ms_mean("data.chronological_split"),
        "baselines.regularize_ms": ms_per("baselines.regularize_series", passes),
        "baselines.regularize_calls": _per(series_calls, passes),
        "baselines.regularize_useful_share": _per(distinct_series, series_calls),
        "baselines.voter_ms": ms_per("baselines.voter_predict", passes),
        "baselines.fit_degroot_ms": ms_per("baselines.fit_degroot", passes),
        "baselines.degroot_predict_ms": ms_per("baselines.degroot_predict", passes),
        "baselines.fit_aslm_ms": ms_per("baselines.fit_aslm", passes),
        "baselines.aslm_predict_ms": ms_per("baselines.aslm_predict", passes),
    }
