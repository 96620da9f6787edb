"""Spans recorded from outside the program.

`Tracer.install` replaces every public function and public method of the
package's layer modules with a wrapper that records one span per call:
the callable's name, start and end on `time.perf_counter`, the index of
the enclosing span, and for a few callables a small value read from the
arguments or the result (rows forwarded, rows pushed, gate fractions).
Spans stay in memory; `uninstall` puts every original back. `layer_metrics`
turns the spans of one round into the per-layer metrics.
"""

import functools
import inspect
import sys
import time

import numpy as np

LAYERS = ("data", "config", "model", "ssl_baselines", "consistency",
          "numerics", "training", "cli")

# (name, unit); bench/README.md defines each one and names the end-to-end
# metric it should move
PER_LAYER = [
    ("data.generate_task_s", "s"),
    ("data.load_csv_s", "s"),
    ("data.load_csv_rows_per_s", "rows/s"),
    ("training.train_supervised_s", "s"),
    ("model.imprint_s", "s"),
    ("consistency.akc_weights_s", "s"),
    ("training.steps", "count"),
    ("training.total_loss_self_s", "s"),
    ("training.optimizer_step_s", "s"),
    ("training.sampler_s", "s"),
    ("training.eval_s", "s"),
    ("model.target_forward_calls_per_step", "count"),
    ("model.target_backward_calls_per_step", "count"),
    ("model.extractor_forward_s", "s"),
    ("model.extractor_backward_s", "s"),
    ("model.head_s", "s"),
    ("model.source_forward_rows_per_step", "count"),
    ("ssl_baselines.cross_entropy_s", "s"),
    ("ssl_baselines.pseudo_label_s", "s"),
    ("ssl_baselines.mean_teacher_s", "s"),
    ("consistency.akc_loss_s", "s"),
    ("consistency.arc_loss_self_s", "s"),
    ("numerics.median_sigmas_s", "s"),
    ("numerics.mmd2_value_grad_s", "s"),
    ("consistency.buffer_s", "s"),
    ("consistency.arc_pooled_rows_per_step", "count"),
    ("consistency.arc_new_rows_per_step", "count"),
    ("consistency.arc_stale_row_share", "fraction"),
    ("numerics.mmd_kernel_evals_per_step", "count"),
    ("consistency.akc_selected_fraction", "fraction"),
    ("consistency.arc_selected_fraction_l", "fraction"),
    ("consistency.arc_selected_fraction_u", "fraction"),
    ("cli.execute_run_s", "s"),
    ("cli.write_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("model.save_checkpoint_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_share", "fraction"),
]

PACKAGE = "akcarc"
STEP = "training.total_loss"
PIPELINE = "training.run_pipeline"
FORWARD = "model.MlpExtractor.forward"
BACKWARD = "model.MlpExtractor.backward"
WRITES = ("training.MetricsLog.to_csv", "training.MetricsLog.to_json",
          "config.ExperimentConfig.to_json", "model.save_checkpoint")


def _rows(a):
    return int(np.asarray(a).reshape(-1, np.shape(a)[-1]).shape[0]) if np.size(a) else 0


class Tracer:
    """Wraps the package's public callables and records spans in memory."""

    def __init__(self):
        self.names = []
        self.spans = []
        self._stack = []
        self._patched = []  # (owner, attribute, original value)
        self._roles = {}  # id(extractor) -> "source" | "target"
        self._keep = []  # extractors named in _roles, kept alive

    # ------------------------------------------------------------- install

    def _extra(self, name):
        """Value kept with a span, read from (args, result)."""
        roles = self._roles
        table = {
            FORWARD: lambda a, out: (roles.get(id(a[0]), "other"), _rows(out)),
            BACKWARD: lambda a, out: (roles.get(id(a[0]), "other"), 0),
            STEP: lambda a, out: _rows(a[1]) + _rows(a[3]),
            "consistency.buffer_update_and_fetch":
                lambda a, out: (_rows(a[1]), _rows(out)),
            "numerics.mmd2_value_grad":
                lambda a, out: (_rows(a[0]), _rows(a[1]), len(a[2])),
            "consistency.akc_loss": lambda a, out: out[2],
            "consistency.arc_loss": lambda a, out: (out[2], out[3]),
            "data.load_csv": lambda a, out: int(out.labeled_x.shape[0]),
        }
        return table.get(name)

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        extra = self._extra(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (nid, t0, clock(), parent, None)
                stack.pop()
                raise
            t1 = clock()
            stack.pop()
            spans[idx] = (nid, t0, t1, parent,
                          extra(args, out) if extra else None)
            return out

        wrapper.__bench_wrapped__ = fn
        return wrapper

    def _pair_init(self, fn):
        """ModelPair.__init__ names the frozen source and the target
        extractor, so extractor calls can be told apart."""
        roles, keep = self._roles, self._keep

        @functools.wraps(fn)
        def init(pair, *args, **kwargs):
            fn(pair, *args, **kwargs)
            roles[id(pair.source.extractor)] = "source"
            roles[id(pair.target.extractor)] = "target"
            keep.extend([pair.source.extractor, pair.target.extractor])

        init.__bench_wrapped__ = fn
        return init

    def _modules(self):
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrapped = {}  # id(original function) -> wrapper
        for short in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{short}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._wrap_class(short, obj)
        for mod in self._modules():
            for attr, obj in list(vars(mod).items()):
                w = wrapped.get(id(obj))
                if w is not None and w.__bench_wrapped__ is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, w)

    def _wrap_class(self, short, cls):
        for attr, val in list(vars(cls).items()):
            name = f"{short}.{cls.__name__}.{attr}"
            if attr == "__init__" and cls.__name__ == "ModelPair":
                new = self._pair_init(val)
            elif attr.startswith("_"):
                continue
            elif inspect.isfunction(val):
                new = self._wrap(name, val)
            elif isinstance(val, (classmethod, staticmethod)):
                new = type(val)(self._wrap(name, val.__func__))
            else:
                continue
            self._patched.append((cls, attr, val))
            setattr(cls, attr, new)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        self._roles.clear()
        self._keep.clear()

    def leftovers(self):
        """Names of package attributes that are still wrappers."""
        out = []
        for mod in self._modules():
            for attr, obj in vars(mod).items():
                if hasattr(obj, "__bench_wrapped__"):
                    out.append(f"{mod.__name__}.{attr}")
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for cattr, val in vars(obj).items():
                        val = getattr(val, "__func__", val)
                        if hasattr(val, "__bench_wrapped__"):
                            out.append(f"{mod.__name__}.{obj.__name__}.{cattr}")
        return out

    def take(self):
        """Spans recorded since the last take, as (names, spans)."""
        spans = list(self.spans)
        self.spans.clear()
        return list(self.names), spans


# ------------------------------------------------------------ aggregation


def layer_metrics(names, spans):
    """Per-layer metrics of one round's spans (see README for each one)."""
    n = len(spans)
    name = [names[s[0]] for s in spans]
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    in_step = [False] * n
    tuned = [False] * n  # started after the pipeline's first step
    seen_step = False
    arc_children = {}
    for i, (nid, t0, t1, parent, extra) in enumerate(spans):
        nm = name[i]
        if nm == PIPELINE:
            seen_step = False
        elif nm == STEP:
            seen_step = True
        tuned[i] = seen_step
        if parent >= 0:
            child[parent] += dur[i]
            in_step[i] = in_step[parent] or nm == STEP
            if name[parent] == "consistency.arc_loss":
                arc_children.setdefault(parent, []).append(i)
        else:
            in_step[i] = nm == STEP

    def total(names_, where=None):
        wanted = {names_} if isinstance(names_, str) else set(names_)
        return sum(dur[i] for i in range(n)
                   if name[i] in wanted and (where is None or where[i]))

    def self_time(nm):
        return sum(dur[i] - child[i] for i in range(n) if name[i] == nm)

    def extras(nm, where=None):
        return [spans[i][4] for i in range(n) if name[i] == nm
                and spans[i][4] is not None and (where is None or where[i])]

    steps = sum(1 for nm in name if nm == STEP)
    per_step = (lambda v: v / steps) if steps else (lambda v: 0.0)
    mean = lambda xs: float(np.mean(xs)) if xs else 0.0

    fwd = extras(FORWARD, in_step)
    bwd = extras(BACKWARD, in_step)
    mmd = extras("numerics.mmd2_value_grad")
    pushed = extras("consistency.buffer_update_and_fetch", in_step)
    csv_rows = sum(extras("data.load_csv"))
    csv_s = total("data.load_csv")

    pooled = stale = 0
    for parent, kids in arc_children.items():
        if not any(name[k] == "numerics.mmd2_value_grad" for k in kids):
            continue
        for k in kids:
            if name[k] == "consistency.buffer_update_and_fetch" and spans[k][4]:
                new, fetched = spans[k][4]
                pooled += fetched
                stale += fetched - min(new, fetched)

    akc = extras("consistency.akc_loss")
    arc = extras("consistency.arc_loss")
    return {
        "data.generate_task_s": total("data.generate_task"),
        "data.load_csv_s": csv_s,
        "data.load_csv_rows_per_s": csv_rows / csv_s if csv_s else 0.0,
        "training.train_supervised_s": total("training.train_supervised"),
        "model.imprint_s": total("model.imprint"),
        "consistency.akc_weights_s": total("consistency.akc_weights"),
        "training.steps": steps,
        # not reported: checked against the samples the config implies
        "training.samples": sum(extras(STEP)),
        "training.total_loss_self_s": self_time(STEP),
        "training.optimizer_step_s": total("training.SgdMomentum.step", tuned),
        "training.sampler_s": total("training.sample_batches", tuned),
        "training.eval_s": total("training.accuracy", tuned),
        "model.target_forward_calls_per_step":
            per_step(sum(1 for role, _ in fwd if role == "target")),
        "model.target_backward_calls_per_step":
            per_step(sum(1 for role, _ in bwd if role == "target")),
        "model.extractor_forward_s": total(FORWARD, in_step),
        "model.extractor_backward_s": total(BACKWARD, in_step),
        "model.head_s": total(("model.LinearHead.forward",
                               "model.LinearHead.backward"), in_step),
        "model.source_forward_rows_per_step":
            per_step(sum(rows for role, rows in fwd if role == "source")),
        "ssl_baselines.cross_entropy_s":
            total("ssl_baselines.cross_entropy_loss", in_step),
        "ssl_baselines.pseudo_label_s": total("ssl_baselines.pseudo_label_loss"),
        "ssl_baselines.mean_teacher_s": total("ssl_baselines.mean_teacher_loss"),
        "consistency.akc_loss_s": total("consistency.akc_loss"),
        "consistency.arc_loss_self_s": self_time("consistency.arc_loss"),
        "numerics.median_sigmas_s": total("numerics.median_sigmas"),
        "numerics.mmd2_value_grad_s": total("numerics.mmd2_value_grad"),
        "consistency.buffer_s": total("consistency.buffer_update_and_fetch"),
        "consistency.arc_pooled_rows_per_step": per_step(sum(m + k for m, k, _ in mmd)),
        "consistency.arc_new_rows_per_step": per_step(sum(p for p, _ in pushed)),
        "consistency.arc_stale_row_share": stale / pooled if pooled else 0.0,
        "numerics.mmd_kernel_evals_per_step":
            per_step(sum((m * m + k * k + m * k) * s for m, k, s in mmd)),
        "consistency.akc_selected_fraction": mean(akc),
        "consistency.arc_selected_fraction_l": mean([a for a, _ in arc]),
        "consistency.arc_selected_fraction_u": mean([b for _, b in arc]),
        "cli.execute_run_s": total("cli.execute_run"),
        "cli.write_s": total(WRITES),
        "model.save_checkpoint_s": total("model.save_checkpoint"),
    }
