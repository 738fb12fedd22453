"""Spans around meltag's public functions, installed from outside the package.

``install`` replaces each traced function with a wrapper in every meltag
module that holds a reference to it (and on the class, for methods), so the
program's own code is not edited. Each span keeps its name, start, end, the
span that was open when it started (its parent) and the request it belongs
to. Spans stay in memory until ``write_jsonl``.

Per-layer metrics, named ``<module>.<function>.<stat>``:
  calls   number of calls
  s       busy time, wall seconds inside the function
  self_s  busy time minus the time of the traced calls it made
plus counts computed from argument shapes (``ops.conv2d.gflop``,
``network.forward_batch.patches_per_call``) and two ratios.
Values cover one traced set-up plus the mean of the traced passes, so a
count repeats exactly between runs of the same code.

Which end-to-end metric each layer should move, on which workload:
  ops.conv2d_backward.*            train items_per_s; no calls in tag or transfer
  ops.pool_max(_backward).s        tag op_p90_s (vgg requests are the tail), train
  ops.conv2d.*, batchnorm_infer.s  tag items_per_s, transfer op_p50_s
  network.forward_batch.self_s     transfer op_p50_s (per-example loop overhead)
  batchnorm_train*, trainer.*      train, mostly its toy configs' share
  dsp.*                            tag op_p50_s (resampling only on 44.1 kHz clips)
  store.*                          setup_s, every workload
  transfer.*                       transfer op_p50_s; no calls elsewhere
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import time

TRACED = {
    "dsp": ("load_wav", "resample", "stft_magnitude", "log_mel", "patchify"),
    "ops": (
        "conv2d",
        "conv2d_backward",
        "dense",
        "dense_backward",
        "batchnorm_infer",
        "batchnorm_train",
        "batchnorm_train_backward",
        "pool_max",
        "pool_max_backward",
    ),
    "network": ("forward_batch", "backward_batch"),
    "store": ("load_registry_model", "save_model", "load_model"),
    "tagger": ("compute_taggram", "top_tags"),
    "extractor": ("extract", "clip_embedding"),
    "trainer": ("fit", "bce_loss", "adam_step"),
    "transfer": (
        "run_pipeline",
        "PrincipalComponents.fit",
        "PrincipalComponents.transform",
        "LinearSvmOneVsRest.fit",
        "LinearSvmOneVsRest.predict",
    ),
}

STATS = (("calls", "count"), ("s", "s"), ("self_s", "s"))


def _conv_gflop(x, params, pad_h=0, pad_w=0):
    c_out, c_in, k_h, k_w = params.weights.shape
    h = x.shape[-2] + 2 * pad_h - k_h + 1
    w = x.shape[-1] + 2 * pad_w - k_w + 1
    return {"gflop": 2e-9 * c_out * c_in * k_h * k_w * h * w}


def _conv_backward_gflop(x, params, grad_out, pad_h=0, pad_w=0):
    # grad-weights and grad-input each cost one forward's multiply-adds
    return {"gflop": 2.0 * _conv_gflop(x, params, pad_h, pad_w)["gflop"]}


def _forward_batch_shape(patches, model, bn_mode="infer"):
    rank = getattr(patches, "ndim", 0)
    return {"patches": len(patches) if rank >= 3 else 1, "vgg": model.config.family == "vgg"}


# computed from the arguments before the call; argument names follow meltag
MEASURES = {
    "ops.conv2d": _conv_gflop,
    "ops.conv2d_backward": _conv_backward_gflop,
    "network.forward_batch": _forward_batch_shape,
}

EXTRA_METRICS = (
    ("ops.conv2d.gflop", "GFLOP", "lower"),
    ("ops.conv2d_backward.gflop", "GFLOP", "lower"),
    ("network.forward_batch.patches_per_call", "count", "higher"),
    ("ops.pool_max.vgg_forward_share", "share", "lower"),
    ("trace.overhead", "share", "lower"),
)


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = [(f"{module}.{fn}.{stat}", unit, "lower")
             for module, names in TRACED.items() for fn in names for stat, unit in STATS]
    return specs + list(EXTRA_METRICS)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, request, start, end, measure]
        self.stack: list[int] = []
        self.request: tuple[int, int] = (-1, 0)  # (pass, op); pass -1 is set-up

    def wrap(self, name: str, fn, measure=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            extra = measure(*args, **kwargs) if measure else None
            span = [name, stack[-1] if stack else -1, self.request, clock(), 0.0, extra]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()

        return traced

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for name, parent, (pass_no, op), start, end, _ in self.spans:
                request = "setup" if pass_no < 0 else f"p{pass_no}.{op}"
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                     "request": request}) + "\n")


def install(tracer: Tracer):
    """Wrap every traced function; returns a callable that restores them.

    A function missing from the package is skipped and reports zero calls.
    """
    package = importlib.import_module("meltag")
    modules = [package] + [
        importlib.import_module(f"meltag.{info.name}") for info in pkgutil.iter_modules(package.__path__)
    ]
    undo = []
    for module_name, names in TRACED.items():
        module = importlib.import_module(f"meltag.{module_name}")
        for qualname in names:
            *owner_path, attr = qualname.split(".")
            owner = module
            for part in owner_path:
                owner = getattr(owner, part)
            original = vars(owner).get(attr)
            if original is None:
                continue
            full = f"{module_name}.{qualname}"
            wrapped = tracer.wrap(full, original, MEASURES.get(full))
            holders = [owner] if owner_path else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapped)
                        undo.append((holder, key, original))

    def restore():
        for holder, key, original in reversed(undo):
            setattr(holder, key, original)

    return restore


def layer_metrics(spans: list[list], n_passes: int) -> dict[str, float]:
    """Per-layer metrics: set-up spans count once, pass spans by their mean."""
    child_time = [0.0] * len(spans)
    for name, parent, _, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {name: 0.0 for name, _, _ in metric_specs()}
    patches = vgg_forward_s = 0.0
    for i, (name, _, (pass_no, _), start, end, extra) in enumerate(spans):
        weight = 1.0 if pass_no < 0 else 1.0 / n_passes
        busy = end - start
        out[f"{name}.calls"] += weight
        out[f"{name}.s"] += weight * busy
        out[f"{name}.self_s"] += weight * (busy - child_time[i])
        if extra and "gflop" in extra:
            out[f"{name}.gflop"] += weight * extra["gflop"]
        if extra and "patches" in extra:
            patches += weight * extra["patches"]
            vgg_forward_s += weight * busy * extra["vgg"]
    calls = out["network.forward_batch.calls"]
    out["network.forward_batch.patches_per_call"] = patches / calls if calls else 0.0
    out["ops.pool_max.vgg_forward_share"] = out["ops.pool_max.s"] / vgg_forward_s if vgg_forward_s else 0.0
    for key in out:
        if key.endswith(".calls"):
            out[key] = round(out[key], 6)
    return out
