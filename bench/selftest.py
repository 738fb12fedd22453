"""Fast self-test of the benchmark at tiny sizes: python3 bench/selftest.py

1. Every output check passes a good output and fails each corrupted one.
2. A workload pass counts an operation as failed when its output is wrong.
3. Each workload, run through bench/run.py with --tiny, prints a contract
   line whose metrics are exactly those BENCHMARK.json names: end-to-end
   untraced, per-layer traced.
4. Without meltag's sources next to it, run.py exits non-zero and prints
   no result.
Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from meltag.errors import CorruptHeaderError, MeltagError, UnsupportedFormatError  # noqa: E402

failures: list[str] = []


def expect(label: str, problems: list[str], should_fail: bool) -> None:
    if bool(problems) != should_fail:
        failures.append(f"{label}: {'no problem found' if should_fail else problems}")


def check_checks() -> None:
    values = np.array([[0.2, 0.9, 0.5], [0.4, 0.7, 0.3]], dtype=np.float32)
    tags = ("a", "b", "c")
    expect("taggram good", checks.taggram(values, 2, 3), False)
    expect("taggram saturated at 1.0", checks.taggram(np.where(values > 0.8, 1.0, values), 2, 3), False)
    expect("taggram shape", checks.taggram(values[:1], 2, 3), True)
    expect("taggram nan", checks.taggram(np.where(values > 0.8, np.nan, values), 2, 3), True)
    expect("taggram above 1", checks.taggram(values * 2, 2, 3), True)
    expect("taggram below 0", checks.taggram(-values, 2, 3), True)
    if checks.saturated(np.array([0.0, 0.5, 1.0])) != 2:
        failures.append("saturated count")

    means = values.mean(axis=0)
    listing = [("b", float(means[1])), ("c", float(means[2])), ("a", float(means[0]))]
    expect("top good", checks.top_listing(listing[:2], values, tags, 2), False)
    expect("top unsorted", checks.top_listing(listing[1::-1], values, tags, 2), True)
    expect("top length", checks.top_listing(listing[:1], values, tags, 2), True)
    expect("top unknown tag", checks.top_listing([("z", 0.8), listing[1]], values, tags, 2), True)
    expect("top wrong score", checks.top_listing([("b", 0.99), listing[1]], values, tags, 2), True)
    expect("top skips a higher tag", checks.top_listing([listing[0], listing[2]], values, tags, 2), True)

    rows = [values[0].copy(), values[1].copy()]
    expect("rows exact good", checks.rows_exact(values, rows), False)
    rows[1][2] = np.nextafter(rows[1][2], np.float32(1.0))
    expect("rows one ulp off", checks.rows_exact(values, rows), True)
    expect("rows missing", checks.rows_exact(values, rows[:1]), True)

    expect("raised right class", checks.raised(CorruptHeaderError("x"), CorruptHeaderError), False)
    expect("raised nothing", checks.raised(None, CorruptHeaderError), True)
    expect("raised other class", checks.raised(UnsupportedFormatError("x"), CorruptHeaderError), True)
    expect("raised base class", checks.raised(MeltagError("x"), CorruptHeaderError), True)

    expect("losses good", checks.losses([0.7, 0.6]), False)
    expect("losses nan", checks.losses([0.7, float("nan")]), True)
    expect("losses empty", checks.losses([]), True)

    confusion = np.array([[2, 0], [1, 3]])
    expect("transfer good", checks.transfer_report(5 / 6, confusion, 6, 0.75), False)
    expect("transfer low accuracy", checks.transfer_report(0.5, confusion, 6, 0.75), True)
    expect("transfer confusion count", checks.transfer_report(5 / 6, confusion, 7, 0.75), True)

    tensors = {"w": np.arange(4, dtype=np.float32), "b": np.zeros(2, dtype=np.float32)}
    expect("round trip good", checks.round_trip(tensors, {k: v.copy() for k, v in tensors.items()}), False)
    expect("round trip changed", checks.round_trip(tensors, {"w": tensors["w"] + 1, "b": tensors["b"]}), True)
    expect("round trip keys", checks.round_trip(tensors, {"w": tensors["w"]}), True)


def check_pass_counts_failures(tmp: Path) -> None:
    """Sabotage top_tags so every listing is reversed; every clip request fails."""
    import workloads
    from meltag import tagger

    tag = workloads.Tag(1, tmp, tiny=True)
    models, _, problems = tag.setup()
    expect("tiny set-up", problems, False)
    tag.make_inputs()
    good = tag.run_pass(models, None, 0, None)
    expect("tiny tag pass", [p for op in good for p in op.problems], False)
    original = tagger.top_tags
    tagger.top_tags = lambda taggram, n: original(taggram, n)[::-1]
    try:
        bad = tag.run_pass(models, None, 0, None)
    finally:
        tagger.top_tags = original
    clip_requests = sum(1 for r in tag.requests if r.error is None)
    if sum(1 for op in bad if op.problems) != clip_requests:
        failures.append(f"sabotaged tag pass: {sum(1 for op in bad if op.problems)} failed, want {clip_requests}")


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = ["python3", "bench/run.py", "--workload", workload, "--seed", "3", "--seconds", "0.5",
               "--trace", str(trace), "--tiny"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_contract() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in (w["name"] for w in spec["workloads"]):
        lines = {}
        for trace in (0, 1):
            proc = run_bench(ROOT, workload, trace)
            if proc.returncode != 0:
                failures.append(f"{workload} trace {trace}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            line = lines[trace] = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(line) != {"correct", "attempted", "failed", "metrics"} or not line["correct"]:
                failures.append(f"{workload} trace {trace}: bad contract line {str(line)[:200]}")
            got = {name: m["unit"] for name, m in line["metrics"].items()}
            if got != want[trace]:
                failures.append(f"{workload} trace {trace}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got) ^ set(want[trace]))}")
        layer = {k: v["value"] for k, v in lines.get(1, {}).get("metrics", {}).items()}
        if workload == "transfer" and (layer.get("ops.conv2d_backward.calls") or layer.get("ops.pool_max.calls")):
            failures.append("transfer ran conv2d_backward or pool_max")
        if workload.startswith("train") and not layer.get("ops.conv2d_backward.calls"):
            failures.append(f"{workload} ran no conv2d_backward")


def check_no_sources(tmp: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp, "tag", 0)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append(f"without sources: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")


def main() -> int:
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    check_checks()
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        check_pass_counts_failures(Path(tmp))
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        check_no_sources(Path(tmp))
    check_contract()
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest: " + ("FAILED" if failures else "all checks passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
