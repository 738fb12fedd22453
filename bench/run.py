"""meltag benchmark: end-to-end and per-layer numbers for four workloads.

Usage, from the repository root:

    python3 bench/run.py --workload tag --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 1

Workloads: tag, train, transfer (see bench/workloads.py); ``all``
runs each in turn and ends with a table. Each workload runs in a child
process of its own, one at a time, so warm state does not leak between
workloads and peak_rss_mb is that workload's own peak.

With --trace 0 the run reports the end-to-end metrics, untraced:
  setup_s       median over five cold set-ups, each in a fresh process: build
                every model the workload uses, write it as .mcn, read it back,
                one warm-up call each (what a cold CLI run pays)
  peak_rss_mb   maximum resident set of the workload's process
  success_rate  operations whose outcome was right / operations attempted
                (error_rate = 1 - success_rate); an expected named MeltagError
                on a malformed file is a right outcome
  op_p50_s      median seconds per operation: a tag request, a round of one
  op_p90_s      90th percentile      train step per config, or a whole
                                     transfer pipeline
  items_per_s   patches, examples or clips per second of operation time,
                the median over the timed passes
With --trace 1 it first repeats the untraced measurement for half the time,
then wraps meltag's public functions (bench/tracing.py), sets up and runs
passes again for the other half, and reports the per-layer metrics plus
trace.overhead, the traced passes' slowdown. Spans go to
.bench_out/spans-<workload>.jsonl and every result, with the machine it ran
on, to .bench_out/result-<workload>-trace<0|1>.json.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. Outputs are checked on every operation (bench/checks.py), and a
digest of the first timed pass is printed so two versions of meltag can be
compared for bit-identical outputs on the same seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("tag", "train", "transfer")
SETUPS = 5
CHILD_TIMEOUT_S = 170

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "share"),
    ("op_p50_s", "s"),
    ("op_p90_s", "s"),
    ("items_per_s", "1/s"),
)

# the same numbers under the names a reader of each workload looks for
ALIASES = {
    "tag": {"op_p50_s": "tag_p50_s", "op_p90_s": "tag_p90_s", "items_per_s": "tag_patches_per_s"},
    "train": {"op_p50_s": "train_round_p50_s", "op_p90_s": "train_round_p90_s",
              "items_per_s": "train_all_examples_per_s"},
    "transfer": {"op_p50_s": "transfer_p50_s", "op_p90_s": "transfer_p90_s",
                 "items_per_s": "transfer_clips_per_s"},
}


# --- child: one workload in this process ------------------------------------------


def machine() -> dict:
    """The machine as found: nothing here sets a thread count."""
    import numpy as np

    info = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_env": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                  "MKL_NUM_THREADS") if k in os.environ},
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    info["blas_threads"] = _openblas_threads()
    return info


def _openblas_threads() -> int | None:
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def quantile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def timed_passes(workload, models, seconds: float, tracer=None, digest=None) -> list[list]:
    """Whole passes until `seconds` have elapsed, at least one."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(workload.run_pass(models, tracer, len(passes), None if passes else digest))
    return passes


def throughput(ops: list) -> float:
    done = [op for op in ops if op.items > 0 and not op.problems]
    busy = sum(op.seconds for op in done)
    return sum(op.items for op in done) / busy if busy else 0.0


def summarize(passes: list[list]) -> dict:
    ops = [op for ops in passes for op in ops]
    failed = sum(1 for op in ops if op.problems)
    latencies = [op.seconds for op in ops if op.items > 0 and not op.problems]
    return {
        "success_rate": (len(ops) - failed) / len(ops),
        "op_p50_s": quantile(latencies, 0.5) if latencies else 0.0,
        "op_p90_s": quantile(latencies, 0.9) if latencies else 0.0,
        "items_per_s": statistics.median(throughput(ops) for ops in passes),
        "samples": len(latencies),
        "attempted": len(ops),
        "failed": failed,
    }


def run_child(args) -> dict:
    """Set up (cold, timed), then measure; with --setup-only, just set up."""
    sys.path.insert(0, str(ROOT / "src"))
    import resource

    from tracing import Tracer, install, layer_metrics
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workload = WORKLOADS[args.workload](args.seed, Path(tmp), args.tiny)
        models, setup_s, problems = workload.setup()
        if args.setup_only:
            return {"setup_s": setup_s, "problems": problems}
        result = {"machine": machine()}
        workload.make_inputs()
        for _ in range(workload.warm_passes):
            workload.run_pass(models, None, -1, None)
        digest = hashlib.sha256()
        budget = args.seconds / 2 if args.trace else args.seconds
        passes = timed_passes(workload, models, budget, digest=digest)
        ops = [op for ops in passes for op in ops]
        problems += workload.exactness(models)
        problems += [p for op in ops for p in op.problems]
        result.update(summary=summarize(passes), setups=[setup_s], passes=len(passes),
                      digest=digest.hexdigest()[:16], notes={**workload.notes, **workload.details(ops)})

        if args.trace:
            tracer = Tracer()
            restore = install(tracer)
            try:
                models = None  # release the untraced set before the traced set-up
                models, _, found = workload.setup()
                traced = timed_passes(workload, models, budget, tracer=tracer)
            finally:
                restore()
            problems += found + [p for ops in traced for op in ops for p in op.problems]
            per_layer = layer_metrics(tracer.spans, len(traced))
            traced_items_per_s = summarize(traced)["items_per_s"]
            per_layer["trace.overhead"] = result["summary"]["items_per_s"] / traced_items_per_s - 1.0
            result.update(per_layer=per_layer, traced_passes=len(traced), traced_items_per_s=traced_items_per_s)
            tracer.write_jsonl(OUT / f"spans-{args.workload}.jsonl")

    result["summary"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["problems"] = problems
    return result


# --- parent: spawn the children, report ---------------------------------------------


def child(args, workload: str, *extra: str) -> dict:
    command = [sys.executable, str(Path(__file__).resolve()), "--child", "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    if args.tiny:
        command.append("--tiny")
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: benchmark child exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(args, workload: str) -> dict:
    """Untraced runs take setup_s as the median over cold set-ups in fresh
    processes: SETUPS - 1 set-up-only children, then the measuring child."""
    probes = [] if args.trace else [child(args, workload, "--setup-only") for _ in range(SETUPS - 1)]
    result = child(args, workload)
    result["setups"] += [p["setup_s"] for p in probes]
    result["problems"] += [p for probe in probes for p in probe["problems"]]
    result["summary"]["setup_s"] = statistics.median(result["setups"])
    return result


def contract_line(workload: str, result: dict, trace: int) -> dict:
    s = result["summary"]
    if trace:
        from tracing import metric_specs

        metrics = {name: {"value": result["per_layer"][name], "unit": unit} for name, unit, _ in metric_specs()}
    else:
        metrics = {name: {"value": s[name], "unit": unit} for name, unit in END_TO_END}
    return {"correct": not result["problems"], "attempted": s["attempted"], "failed": s["failed"],
            "metrics": metrics}


def report(workload: str, result: dict, args) -> None:
    m, s = result["machine"], result["summary"]
    print(f"== {workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"machine: nproc {m['nproc']} (usable {m['cpus_usable']}), python {m['python']}, "
          f"numpy {m['numpy']}, blas {m['blas']}, blas threads {m['blas_threads']}, env {m['thread_env']}")
    aliases = ALIASES[workload]
    for name, unit in END_TO_END:
        alias = f"  ({aliases[name]})" if name in aliases else ""
        print(f"  {name:<14} {s[name]:>14.6g} {unit:<6}{alias}")
    print(f"  error_rate     {1.0 - s['success_rate']:>14.6g} share")
    print(f"operations: attempted {s['attempted']}, succeeded {s['attempted'] - s['failed']}, "
          f"failed {s['failed']}; {s['samples']} latency samples over {result['passes']} pass(es)")
    n_problems = len(result["problems"])
    print(f"checks: {f'{n_problems} failed' if n_problems else 'all passed'}")
    for problem in result["problems"][:10]:
        print(f"  FAIL {problem}")
    print(f"output digest (first timed pass): {result['digest']}")
    for key, value in result["notes"].items():
        print(f"  {key}: {value:.6g}")
    if "per_layer" in result:
        layer = result["per_layer"]
        print(f"traced: {result['traced_passes']} pass(es), items_per_s {result['traced_items_per_s']:.6g}, "
              f"overhead {layer['trace.overhead']:+.1%}")
        top = sorted((k for k in layer if k.endswith(".self_s")), key=lambda k: -layer[k])[:6]
        print("  largest self time: " + ", ".join(f"{k[:-7]} {layer[k]:.3f}s" for k in top))
        print(f"  ops.conv2d_backward.calls {layer['ops.conv2d_backward.calls']:g}, "
              f"ops.pool_max.calls {layer['ops.pool_max.calls']:g}, "
              f"pool_max share of vgg forward {layer['ops.pool_max.vgg_forward_share']:.1%}")
    with open(OUT / f"result-{workload}-trace{args.trace}.json", "w") as fh:
        json.dump({"workload": workload, "seed": args.seed, "seconds": args.seconds, **result}, fh, indent=1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (ROOT / "src" / "meltag").is_dir():
        print(f"error: no meltag sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.child:
        print(json.dumps(run_child(args)))
        return 0

    workloads = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        results[workload] = run_workload(args, workload)
        report(workload, results[workload], args)
    if args.workload == "all":
        print("\n" + f"{'metric':<14}" + "".join(f"{w:>14}" for w in workloads))
        for name, unit in END_TO_END:
            print(f"{name:<14}" + "".join(f"{results[w]['summary'][name]:>14.6g}" for w in workloads) + f"  {unit}")
        return 0
    print(json.dumps(contract_line(args.workload, results[args.workload], args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
