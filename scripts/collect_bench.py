#!/usr/bin/env python3
"""Run a small bench suite, validate the JSON reports, merge them.

This is the driver behind CI's `bench-smoke` job: it runs every bench
binary at deliberately tiny sizes (seconds total, not minutes),
checks that every `--json=<path>` report conforms to its schema, and
merges everything into a single trajectory file that CI uploads as an
artifact.  Two schemas are in play (see docs/OBSERVABILITY.md):

  * `warp-bench-v1`  — emitted by every Flags-based bench binary.
  * google-benchmark — emitted by bench_kernels, whose `--json=<path>`
    is translated to `--benchmark_out=<path> --benchmark_out_format=json`.

Usage:
  scripts/collect_bench.py [--build-dir=build] [--out=bench_trajectory.json]

Exit status is nonzero if any binary fails to run, any report fails
validation, or any expected report file is missing.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

# Each entry: (binary name, extra flags).  Keep sizes tiny — this is a
# smoke test of the reporting pipeline, not a measurement run.
SUITE = [
    ("bench_table1_cases", ["--reps=1"]),
    ("bench_accuracy_radius", ["--pairs=2", "--length=64"]),
    ("bench_footnote_trillion", ["--reps=20", "--haystack=20000"]),
    # Exits 1 if any cascade configuration changes a 1-NN prediction.
    ("bench_ablation", ["--train=16", "--test=8", "--reps=2"]),
    # Exits 1 if section (c)'s parallel checksums differ from the serial.
    ("bench_fig1_uwave", ["--exemplars=4", "--ref-exemplars=2", "--max=4",
                          "--threads=2"]),
    ("bench_fig2_ucr", []),
    ("bench_fig3_power", []),
    ("bench_fig4_casec", ["--exemplars=4", "--ref-exemplars=2", "--max=8"]),
    ("bench_fig6_cased", ["--reps=1", "--max-seconds=2", "--skip-reference"]),
    ("bench_caseb_music", ["--length=2400", "--reps=1", "--skip-reference"]),
    ("bench_appendixb_gesture", ["--train=1", "--test=1", "--classes=2"]),
    ("bench_measures_bakeoff", ["--train=1", "--test=1", "--classes=2",
                                "--length=32"]),
    ("bench_table2_adversarial", []),
    ("bench_serve_throughput", ["--series=20", "--length=32", "--queries=64",
                                "--clients=2", "--threads=2", "--repeats=1"]),
    # Names carry trailing args (BM_Envelope/<n>/<lanes>,
    # BM_CdtwAbandoning/<n>/<w%>/<bound%>), so match the prefix instead of
    # anchoring the end.
    ("bench_kernels",
     ["--benchmark_filter=BM_Envelope/128/|BM_CdtwAbandoning/256/"]),
]

TIMING_KEYS = {
    "repetitions", "mean_s", "stddev_s", "min_s", "max_s",
    "median_s", "p95_s", "p99_s", "total_s",
}

HISTOGRAM_KEYS = {"count", "sum", "mean", "p50", "p95", "p99", "buckets"}


def validate_histogram(name, histogram, source):
    """Checks one case-level histogram object (docs/OBSERVABILITY.md)."""
    missing = HISTOGRAM_KEYS - set(histogram)
    if missing:
        fail(f"{source}: histogram '{name}' missing {missing}")
    for key in ("count", "sum", "p50", "p95", "p99"):
        value = histogram[key]
        if not isinstance(value, int) or value < 0:
            fail(f"{source}: histogram '{name}' {key} is not a non-negative "
                 f"integer: {value!r}")
    buckets = histogram["buckets"]
    if not isinstance(buckets, list):
        fail(f"{source}: histogram '{name}' buckets must be an array")
    total = 0
    for bucket in buckets:
        if set(bucket) != {"le", "n"}:
            fail(f"{source}: histogram '{name}' bucket keys wrong: {bucket}")
        total += bucket["n"]
    if total != histogram["count"]:
        fail(f"{source}: histogram '{name}' bucket counts sum to {total}, "
             f"want count={histogram['count']}")


def fail(message):
    print(f"collect_bench: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def validate_warp_bench_v1(report, source):
    """Checks the warp-bench-v1 document structure (docs/OBSERVABILITY.md)."""
    for key in ("schema", "experiment", "description", "config", "host",
                "cases"):
        if key not in report:
            fail(f"{source}: missing top-level key '{key}'")
    if report["schema"] != "warp-bench-v1":
        fail(f"{source}: schema is '{report['schema']}', want 'warp-bench-v1'")
    host = report["host"]
    for key in ("profiling", "build"):
        if key not in host:
            fail(f"{source}: host object missing '{key}'")
    if not isinstance(report["cases"], list) or not report["cases"]:
        fail(f"{source}: 'cases' must be a non-empty array")
    for case in report["cases"]:
        for key in ("name", "timing", "counters"):
            if key not in case:
                fail(f"{source}: case missing '{key}': {case}")
        missing = TIMING_KEYS - set(case["timing"])
        if missing:
            fail(f"{source}: case '{case['name']}' timing missing {missing}")
        for counter, value in case["counters"].items():
            if not isinstance(value, int) or value < 0:
                fail(f"{source}: counter '{counter}' is not a non-negative "
                     f"integer: {value!r}")
        if "histograms" not in case:
            fail(f"{source}: case '{case['name']}' missing 'histograms'")
        for name, histogram in case["histograms"].items():
            validate_histogram(name, histogram, source)
    # The serving bench is the one case source whose histograms must be
    # populated (per-op latency + stage + work distributions) — an empty
    # set there means the serve path stopped recording.
    if source == "bench_serve_throughput":
        populated = any(case["histograms"] for case in report["cases"])
        if not populated:
            fail(f"{source}: recorded no serve histograms")


def validate_google_benchmark(report, source):
    """Checks the google-benchmark JSON structure (bench_kernels)."""
    for key in ("context", "benchmarks"):
        if key not in report:
            fail(f"{source}: missing top-level key '{key}'")
    if not isinstance(report["benchmarks"], list) or not report["benchmarks"]:
        fail(f"{source}: 'benchmarks' must be a non-empty array")
    for entry in report["benchmarks"]:
        if "name" not in entry:
            fail(f"{source}: benchmark entry missing 'name': {entry}")


def run_one(build_dir, binary, extra_flags, json_dir):
    path = os.path.join(build_dir, "bench", binary)
    if not os.path.exists(path):
        fail(f"bench binary not found: {path} (build with "
             f"`cmake -B {build_dir} && cmake --build {build_dir}`)")
    json_path = os.path.join(json_dir, binary + ".json")
    command = [path, *extra_flags, f"--json={json_path}"]
    print(f"collect_bench: running {' '.join(command)}")
    result = subprocess.run(command, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    if result.returncode != 0:
        sys.stderr.write(result.stdout)
        fail(f"{binary} exited with status {result.returncode}")
    if not os.path.exists(json_path):
        fail(f"{binary} did not write its report to {json_path}")
    with open(json_path, encoding="utf-8") as handle:
        try:
            report = json.load(handle)
        except json.JSONDecodeError as error:
            fail(f"{binary}: report is not valid JSON: {error}")
    if binary == "bench_kernels":
        validate_google_benchmark(report, binary)
        schema = "google-benchmark"
    else:
        validate_warp_bench_v1(report, binary)
        schema = "warp-bench-v1"
    case_count = len(report.get("cases", report.get("benchmarks", [])))
    print(f"collect_bench: {binary}: OK ({schema}, {case_count} cases)")
    return {"binary": binary, "flags": extra_flags, "schema": schema,
            "report": report}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", default="build",
                        help="CMake build tree holding bench/ binaries")
    parser.add_argument("--out", default="bench_trajectory.json",
                        help="merged trajectory output file")
    args = parser.parse_args()

    runs = []
    with tempfile.TemporaryDirectory(prefix="warp-bench-") as json_dir:
        for binary, extra_flags in SUITE:
            runs.append(run_one(args.build_dir, binary, extra_flags, json_dir))

    trajectory = {
        "schema": "warp-bench-trajectory-v1",
        "suite": [{"binary": b, "flags": f} for b, f in SUITE],
        "runs": runs,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(trajectory, handle, indent=2)
        handle.write("\n")
    print(f"collect_bench: wrote {len(runs)} validated reports to {args.out}")


if __name__ == "__main__":
    main()
