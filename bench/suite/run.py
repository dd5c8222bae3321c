#!/usr/bin/env python3
"""The repository benchmark: builds warp_bench, runs workloads, checks answers.

Usage (run from anywhere; paths resolve from this file):

  run.py [--workload W] [--seed N] [--seconds S] [--trace 0|1]
      Run one workload (or all four, each in its own process) and print
      every metric. The last line of standard output is one JSON object:
      {"correct", "attempted", "failed", "metrics"} with the end-to-end
      metrics of BENCHMARK.json, or with --trace 1 its per-layer metrics.
  run.py smoke
      Every workload at tiny sizes, untraced and traced, every check on;
      fails if a metric named in BENCHMARK.json is never reported.
  run.py compare PARENT_DIR CHANGE_DIR [--pairs 10] [--workload W ...]
      Alternating runs of two checkouts and a verdict per metric and
      workload (README.md, "Comparing two commits").
  run.py baseline [--out FILE] [--runs 5] [--seed N]
      Untraced runs plus one traced run of every workload, summarized with
      host, build and SIMD metadata (results/seed.json).

compare and baseline always run for BENCHMARK.json's run_seconds, the
length its bounds were measured at.

The program is built from this checkout's sources into .bench_build/ at
the repository root. README.md in this directory defines the workloads
and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
BUILD = ROOT / ".bench_build"
SMOKE_SECONDS = 1.0


class BenchError(Exception):
    pass


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def spec():
    return load_json(ROOT / "BENCHMARK.json")


def workload_names(benchmark):
    return [w["name"] for w in benchmark["workloads"]]


# --- building ------------------------------------------------------------


def build():
    """Configures (once) and builds warp_bench with the two server binaries."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"warp sources not found under {ROOT}")
    cmake = shutil.which("cmake")
    if cmake is None:
        raise BenchError("cmake not found")
    if not (BUILD / "CMakeCache.txt").is_file():
        command = [cmake, "-S", str(SUITE), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            command += ["-G", "Ninja"]
        subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                       check=True, timeout=600)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run([cmake, "--build", str(BUILD), "--target", "warp_bench",
                    "-j", jobs], stdout=sys.stderr, stderr=sys.stderr,
                   check=True, timeout=1800)
    return BUILD / "warp_bench"


# --- running one workload ---------------------------------------------------


def params_for(workload, smoke):
    config = load_json(SUITE / "workloads.json")[workload]
    params = dict(config["params"])
    if smoke:
        params.update(config.get("smoke", {}))
    return params


def run_warp_bench(exe, workload, seed, seconds, trace, smoke=False):
    """Runs warp_bench once; returns (result object, output lines, code)."""
    params = params_for(workload, smoke)
    work = BUILD / "work" / f"{workload}-{os.getpid()}"
    traces = BUILD / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    command = [
        str(exe), f"--workload={workload}", f"--seed={seed}",
        f"--seconds={seconds}", f"--trace={1 if trace else 0}",
        "--params=" + ",".join(f"{k}={v}" for k, v in params.items()),
        f"--bin-dir={BUILD / 'warp' / 'tools'}", f"--work-dir={work}",
        f"--trace-file={traces / f'{workload}-seed{seed}.tsv'}",
    ]
    # A session of its own, so a timeout can stop warp_bench together with
    # every server process it spawned.
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            cwd=ROOT, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=seconds + 120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"{workload}: warp_bench timed out")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
            lines = lines[:-1]
        except json.JSONDecodeError:
            result = None
    return result, lines, proc.returncode


def contract_result(benchmark, result, trace):
    """The result line: exactly the metric names of one BENCHMARK.json set."""
    metrics = {}
    for metric in benchmark["per_layer" if trace else "end_to_end"]:
        name = metric["name"]
        got = result["metrics"].get(name)
        if got is None:
            if not trace:
                raise BenchError(f"end-to-end metric {name} not reported")
            # The workload does not exercise this layer.
            value = 0.0
        else:
            if got["unit"] != metric["unit"]:
                raise BenchError(f"{name}: unit {got['unit']} reported, "
                                 f"{metric['unit']} declared")
            value = got["value"]
        metrics[name] = {"value": value, "unit": metric["unit"]}
    return {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]), "metrics": metrics}


def run_checked(exe, workload, seed, seconds, trace, smoke=False, echo=True):
    result, lines, code = run_warp_bench(exe, workload, seed, seconds, trace,
                                         smoke)
    if echo:
        for line in lines:
            print(line)
    if result is None or code != 0 or not result.get("correct"):
        for failure in (result or {}).get("failures", []):
            print(f"{workload}: check failed: {failure}", file=sys.stderr)
        raise BenchError(f"{workload}: run failed (exit code {code})")
    return result, lines


def cmd_run(args):
    benchmark = spec()
    names = workload_names(benchmark)
    if args.workload is not None and args.workload not in names:
        raise BenchError(f"unknown workload {args.workload}; one of {names}")
    exe = build()
    seconds = args.seconds or benchmark["run_seconds"]
    trace = args.trace == 1
    if args.workload is not None:
        result, _ = run_checked(exe, args.workload, args.seed, seconds, trace)
        print(json.dumps(contract_result(benchmark, result, trace)))
        return 0
    combined = {}
    for workload in names:
        print(f"=== {workload}", flush=True)
        result, _ = run_checked(exe, workload, args.seed, seconds, trace)
        combined[workload] = contract_result(benchmark, result, trace)
    print("=== summary")
    for workload, result in combined.items():
        values = "  ".join(f"{name}={m['value']:.6g} {m['unit']}"
                           for name, m in result["metrics"].items())
        print(f"{workload}: {values}" if not trace else f"{workload}: ok")
    print(json.dumps(combined))
    return 0


# --- smoke --------------------------------------------------------------


def cmd_smoke(_args):
    benchmark = spec()
    exe = build()
    end_to_end = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
    seen = set()
    problems = []
    for workload in workload_names(benchmark):
        for trace in (False, True):
            result, _ = run_checked(exe, workload, 1, SMOKE_SECONDS, trace,
                                    smoke=True, echo=False)
            reported = result["metrics"]
            wanted = per_layer if trace else end_to_end
            for name, metric in reported.items():
                if name in wanted and metric["unit"] != wanted[name]:
                    problems.append(f"{workload}: {name} unit "
                                    f"{metric['unit']} != {wanted[name]}")
            if trace:
                seen.update(n for n in reported if n in per_layer)
                span_file = BUILD / "traces" / f"{workload}-seed1.tsv"
                if not span_file.is_file() or span_file.stat().st_size < 64:
                    problems.append(f"{workload}: no span file written")
            else:
                problems += [f"{workload}: end-to-end metric {n} missing"
                             for n in end_to_end if n not in reported]
            print(f"smoke {workload} trace={int(trace)}: ok "
                  f"({len(reported)} metrics)", flush=True)
    problems += [f"per-layer metric {n} reported by no workload"
                 for n in per_layer if n not in seen]
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print(json.dumps({"smoke": "fail" if problems else "pass",
                      "problems": len(problems)}))
    return 1 if problems else 0


# --- compare ------------------------------------------------------------


def benchmark_digest(checkout):
    """Hash of BENCHMARK.json and this directory's code in a checkout."""
    root = Path(checkout).resolve()
    suite = root / "bench" / "suite"
    if not (root / "BENCHMARK.json").is_file() or not suite.is_dir():
        raise BenchError(f"{checkout}: no benchmark in this checkout")
    files = [root / "BENCHMARK.json"] + sorted(
        p for p in suite.rglob("*")
        if p.is_file() and "results" not in p.relative_to(suite).parts
        and "__pycache__" not in p.parts)
    digest = hashlib.sha256()
    for path in files:
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_checkout(checkout, workload, seed, seconds):
    """One untraced run of another checkout's benchmark: its result line."""
    checkout = Path(checkout).resolve()
    command = [sys.executable, str(checkout / "bench/suite/run.py"),
               "--workload", workload, "--seed", str(seed), "--seconds",
               str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=checkout, capture_output=True,
                          text=True, timeout=2 * seconds + 1200)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{checkout}: {workload} seed {seed} failed:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric, parent, change, more_failures):
    """choosing-metrics §6-8 for one metric on one workload.

    parent and change are equal-length lists; index i is pair i. A gain
    does not count when the change failed more operations than the parent.
    """
    bound = metric["bound"]
    higher = metric["better"] == "higher"

    def better(a, b):  # a reads better than b
        return a > b if higher else a < b

    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if better(c, p))
    worse_by = ((pm - cm) if higher else (cm - pm)) / pm
    spread = max((p3 - p1) / pm, (c3 - c1) / cm)
    all_better = min(change) > max(parent) if higher else \
        max(change) < min(parent)
    if (wins >= 0.9 * len(parent) and better(cm, pm)
            and abs(cm - pm) > p3 - p1):
        outcome = "unresolved" if more_failures else "improved"
    elif worse_by > bound:
        outcome = "regressed"
    elif spread > bound and not all_better:
        outcome = "unresolved"
    else:
        outcome = "unchanged"
    return {"outcome": outcome, "wins": wins, "pairs": len(parent),
            "parent": [p1, pm, p3], "change": [c1, cm, c3],
            "worse_by": worse_by, "spread": spread}


def cmd_compare(args):
    # Both sides must run identical benchmark code (choosing-metrics §6).
    if benchmark_digest(args.parent) != benchmark_digest(args.change):
        raise BenchError("the two checkouts differ in BENCHMARK.json or "
                         "bench/suite; compare them with one benchmark")
    benchmark = spec()
    names = args.workload or workload_names(benchmark)
    seconds = benchmark["run_seconds"]
    raw = {w: {"parent": [], "change": []} for w in names}
    for workload in names:
        for i in range(args.pairs):
            seed = args.seed + i
            order = [("parent", args.parent), ("change", args.change)]
            if i % 2:
                order.reverse()
            for side, checkout in order:
                print(f"{workload} pair {i + 1}/{args.pairs} {side} "
                      f"(seed {seed})", flush=True)
                raw[workload][side].append(
                    run_checkout(checkout, workload, seed, seconds))
    report = {}
    print()
    for workload in names:
        row = {}
        runs = raw[workload]
        failed = {side: sum(r["failed"] for r in runs[side])
                  for side in runs}
        attempted = {side: sum(r["attempted"] for r in runs[side])
                     for side in runs}
        cells = [f"failed {failed['parent']}/{attempted['parent']} -> "
                 f"{failed['change']}/{attempted['change']}"]
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            parent = [r["metrics"][name]["value"] for r in runs["parent"]]
            change = [r["metrics"][name]["value"] for r in runs["change"]]
            row[name] = verdict(metric, parent, change,
                                failed["change"] > failed["parent"])
            v = row[name]
            cells.append(f"{name} {v['outcome']} ({v['wins']}/{v['pairs']} "
                         f"wins, median {v['parent'][1]:.4g} -> "
                         f"{v['change'][1]:.4g})")
        report[workload] = row
        print(f"{workload}: " + "; ".join(cells))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump({"raw": raw, "verdicts": report}, f, indent=1)
    regressed = any(v["outcome"] == "regressed"
                    for row in report.values() for v in row.values())
    print(json.dumps({"regressed": regressed, "verdicts": {
        w: {m: v["outcome"] for m, v in row.items()}
        for w, row in report.items()}}))
    return 1 if regressed else 0


# --- baseline -----------------------------------------------------------


def host_info():
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    build_type = ""
    cache = BUILD / "CMakeCache.txt"
    if cache.is_file():
        for line in cache.read_text(encoding="utf-8").splitlines():
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1]
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "kernel": platform.release(), "build_type": build_type}


def summarize(results):
    summary = {}
    for name in sorted(set().union(*(r["metrics"] for r in results))):
        values = [r["metrics"][name]["value"] for r in results
                  if name in r["metrics"]]
        q1, median, q3 = quartiles(values)
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "unit": results[0]["metrics"][name]["unit"],
                         "values": values}
    return summary


def cmd_baseline(args):
    benchmark = spec()
    exe = build()
    seconds = benchmark["run_seconds"]
    doc = {"schema": "warp-bench-suite-baseline-v1", "host": host_info(),
           "seed": args.seed, "seconds": seconds, "runs": args.runs,
           "workloads": {}}
    for workload in workload_names(benchmark):
        untraced = []
        for run in range(args.runs):
            print(f"{workload} run {run + 1}/{args.runs}", flush=True)
            untraced.append(run_checked(exe, workload, args.seed, seconds,
                                        False, echo=False)[0])
        print(f"{workload} traced run", flush=True)
        traced, lines = run_checked(exe, workload, args.seed, seconds, True,
                                    echo=False)
        doc["simd"] = {"mode": traced["simd"],
                       "backend": traced.get("simd_backend", "")}
        doc["workloads"][workload] = {
            "untraced": summarize(untraced),
            "traced": {n: m["value"] for n, m in traced["metrics"].items()},
            "spans": traced.get("spans", {}),
            "notes": [l for l in lines if l.startswith(("thread pass",
                                                        "phase", "note"))],
        }
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    print(json.dumps({"baseline": str(args.out)}))
    return 0


# --- entry point ----------------------------------------------------------


def main(argv):
    if argv and argv[0] in ("smoke", "compare", "baseline"):
        parser = argparse.ArgumentParser(prog="run.py " + argv[0])
        if argv[0] == "compare":
            parser.add_argument("parent")
            parser.add_argument("change")
            parser.add_argument("--pairs", type=int, default=10)
            parser.add_argument("--workload", action="append")
            parser.add_argument("--seed", type=int, default=101)
            parser.add_argument("--out")
        elif argv[0] == "baseline":
            parser.add_argument("--out", default=str(SUITE / "results" /
                                                     "seed.json"))
            parser.add_argument("--runs", type=int, default=5)
            parser.add_argument("--seed", type=int, default=1)
        args = parser.parse_args(argv[1:])
        command = {"smoke": cmd_smoke, "compare": cmd_compare,
                   "baseline": cmd_baseline}[argv[0]]
    else:
        parser = argparse.ArgumentParser(prog="run.py")
        parser.add_argument("--workload")
        parser.add_argument("--seed", type=int, default=1)
        parser.add_argument("--seconds", type=int)
        parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
        args = parser.parse_args(argv)
        command = cmd_run
    try:
        return command(args)
    except (BenchError, subprocess.CalledProcessError, OSError,
            subprocess.TimeoutExpired) as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
