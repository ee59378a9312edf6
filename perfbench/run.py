#!/usr/bin/env python3
"""Reproduction benchmark: build the binary, run one workload, check it.

Run from the repository root:

  python3 perfbench/run.py --workload paper-figures|paper-tables|fuzz-gen \\
                           --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --pin     # regenerate perfbench/expected.json

The benchmark binary is built from source into .bench_build/perfbench on
first use. A run prints one summary line and then, as the last line of
stdout, one JSON object with the keys correct, attempted, failed and
metrics. With --trace 0 the metrics are the end-to-end ones, with
--trace 1 the per-layer ones (see perfbench/README.md). Every item's
outputs are checked against perfbench/expected.json; a mismatch fails the
item. Exits non-zero, printing no result, when the build or the benchmark
binary fails.
"""

import argparse
import json
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
EXPECTED = HERE / "expected.json"
WORKLOADS = ("paper-figures", "paper-tables", "fuzz-gen")

# setup_s is the median over this many set-up-only processes of the time
# from the start of main() until the workload is ready to run.
SETUP_SPAWNS = 15
RUN_TIMEOUT_S = 170

# Every timing is scaled by REFERENCE_NS / (the reference kernel's median
# time in the same process): the host's speed drifts by up to ~1.5x for
# minutes at a time, and the kernel, which runs no repository code, tracks
# that drift (perfbench/README.md, "Machine-speed reference"). The constant
# is the kernel's typical time on the baseline machine, so scaled values
# stay close to raw ones there.
REFERENCE_NS = 700_000

# Metric names and units come from BENCHMARK.json, the benchmark's
# definition, so the list lives in one place.
METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        raise BenchError(f"no library sources under {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        step(cmd, 300)
    step(["cmake", "--build", str(BUILD), "--target", "perfbench",
          "-j", "3"], 840)


def step(cmd, timeout):
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"'{' '.join(cmd)}' exited {proc.returncode}")


def run_binary(args, timeout=RUN_TIMEOUT_S):
    proc = subprocess.run([str(BINARY), *args], stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"perfbench {' '.join(args)} exited "
                         f"{proc.returncode}")
    return proc.stdout


def setup_seconds(workload, seed):
    times = []
    for _ in range(SETUP_SPAWNS):
        out = json.loads(run_binary(
            ["--workload", workload, "--seed", str(seed), "--seconds", "1",
             "--setup-only"], timeout=60))
        times.append(out["setup_ns"] / 1e9 * REFERENCE_NS /
                     out["reference_ns"])
    return statistics.median(times)


def scaled(ns, ref_ns):
    """A duration at the reference machine speed."""
    return ns * REFERENCE_NS / ref_ns


def check_items(workload, result):
    """Returns (attempted, failed, problems) after comparing every item's
    pinned outputs with expected.json. A mismatching item fails on every
    pass it ran."""
    pinned = json.loads(EXPECTED.read_text())[workload]["items"]
    problems = []
    attempted = failed = 0
    for key, rec in result["items"].items():
        attempted += rec["runs"]
        bad = rec["failed"]
        if "error" in rec:
            problems.append(f"{key}: {rec['error']}")
        want = pinned.get(key)
        if want is None:
            problems.append(f"{key}: no pinned outputs")
            bad = rec["runs"]
        elif rec["pins"] != want:
            diff = {k: (rec["pins"].get(k), v) for k, v in want.items()
                    if rec["pins"].get(k) != v}
            problems.append(f"{key}: outputs differ from expected.json "
                            f"(got, want): {diff}")
            bad = rec["runs"]
        failed += bad
    return attempted, failed, problems


def with_units(kind, values):
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in METRICS[kind]}


def end_to_end(result, setup_s):
    items = list(map(scaled, result["item_ns"], result["item_ref_ns"]))
    passes = list(map(scaled, result["pass_ns"], result["pass_ref_ns"]))
    return with_units("end_to_end", {
        "pass_s": statistics.median(passes) / 1e9,
        "item_ms_p50": statistics.median(items) / 1e6,
        "item_ms_p90": statistics.quantiles(items, n=10)[8] / 1e6,
        "setup_s": setup_s,
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    })


def traced_pass_values(p):
    """One traced pass's per-layer values, times scaled by the pass's
    reference timing."""
    v = p["values"]

    def ratio(num, den):
        return v.get(num, 0.0) / v[den] if v.get(den) else 0.0

    out = {m["name"]: v.get(m["name"], 0.0) for m in METRICS["per_layer"]}
    out["exec.mops_per_s"] = ratio("exec.ops", "exec.vm_ms") / 1e3
    out["sim.hit_ratio"] = ratio("sim.hits", "sim.accesses")
    out["core.noalias_ratio"] = ratio("core.noalias", "core.alias_queries")
    out["trace.item_ms"] = p["item_ns"] / 1e6
    out["trace.unattributed_ms"] = (
        p["item_ns"] - sum(p["layer_ns"].values())) / 1e6
    scale = REFERENCE_NS / p["ref_ns"]
    for m in METRICS["per_layer"]:
        if m["unit"] == "ms":
            out[m["name"]] *= scale
        elif m["unit"] == "Mops/s":
            out[m["name"]] /= scale
    return out


def per_layer(result):
    """Medians over the traced passes. The overhead compares them with the
    untraced passes interleaved with them."""
    passes = result["traced_passes"]
    rows = [traced_pass_values(p) for p in passes]
    values = {m["name"]: statistics.median(row[m["name"]] for row in rows)
              for m in METRICS["per_layer"]}
    run_ref = statistics.median(result["pass_ref_ns"])
    values["workloads.generate_ms"] = scaled(result["generate_ms"], run_ref)
    traced = statistics.median(scaled(p["wall_ns"], p["ref_ns"])
                               for p in passes)
    untraced = statistics.median(
        map(scaled, result["pass_ns"], result["pass_ref_ns"]))
    values["trace.overhead_ratio"] = traced / untraced - 1.0
    return with_units("per_layer", values)


def check_trace(path):
    """Validates the Chrome trace with tools/check_trace_json.py's own
    schema and span-balance checks."""
    sys.path.insert(0, str(ROOT / "tools"))
    sys.dont_write_bytecode = True  # leave no __pycache__ in tools/
    import check_trace_json  # noqa: E402

    events = check_trace_json.load_trace(path)
    if events:
        check_trace_json.check_balance(path, events)
    return list(check_trace_json.errors)


def run(opts):
    build()
    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds)]
    trace_path = BUILD / f"trace-{opts.workload}.json"
    setup_s = None
    if opts.trace:
        args += ["--trace", str(trace_path)]
    else:
        setup_s = setup_seconds(opts.workload, opts.seed)
    result = json.loads(run_binary(args).strip().splitlines()[-1])

    attempted, failed, problems = check_items(opts.workload, result)
    if opts.trace:
        problems += [f"trace: {e}" for e in check_trace(trace_path)]
        metrics = per_layer(result)
    else:
        metrics = end_to_end(result, setup_s)
    for p in problems:
        log(p)

    samples = len(result["item_ns"])
    summary = (f"perfbench: workload={opts.workload} seed={opts.seed} "
               f"trace={opts.trace} passes={len(result['pass_ns'])} "
               f"items={attempted} latency_samples={samples} "
               f"beyond_p90={samples - int(samples * 0.9)} speed_scale="
               f"{REFERENCE_NS / statistics.median(result['pass_ref_ns']):.4f}"
               f" raw_pass_s={statistics.median(result['pass_ns']) / 1e9:.6f}")
    if "module_seeds" in result:
        summary += f" module_seeds={result['module_seeds']}"
    if opts.trace:
        summary += f" trace_file={trace_path}"
    print(summary)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


def pin():
    """Regenerates expected.json from the current build: every item of
    every workload, run once. The ten base checksums must equal the ones
    tests/GoldenTests.cpp pins independently."""
    build()
    doc = {}
    for workload in WORKLOADS:
        doc[workload] = json.loads(
            run_binary(["--workload", workload, "--pin"], timeout=600))
    golden = {name: int(value) for name, value in re.findall(
        r'\{"([\w-]+)",\s*(\d+)\}',
        (ROOT / "tests" / "GoldenTests.cpp").read_text())}
    if doc["paper-figures"]["base_checksums"] != golden:
        raise BenchError("base checksums differ from tests/GoldenTests.cpp: "
                         f"{doc['paper-figures']['base_checksums']} vs "
                         f"{golden}")
    figures = doc["paper-figures"]
    for key, pins in figures["items"].items():
        if pins["checksum"] != figures["base_checksums"][key.split("/")[0]]:
            raise BenchError(f"{key}: checksum is not the base checksum")
    EXPECTED.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    log(f"wrote {EXPECTED}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true")
    opts = parser.parse_args()
    try:
        if opts.pin:
            pin()
        elif opts.workload:
            run(opts)
        else:
            parser.error("--workload or --pin is required")
    except (BenchError, subprocess.TimeoutExpired, OSError,
            ValueError, KeyError) as exc:
        log(f"error: {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
