#!/usr/bin/env python3
"""The repo benchmark: builds comptx from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        Runs one workload and prints, as the last stdout line, one JSON
        object with the keys correct, attempted, failed and metrics.
        --trace 0 gives the end-to-end metrics, --trace 1 the per-layer
        metrics (spans are kept in .bench_build/spans/).  Exit 0 iff every
        output was checked correct.

    python3 perfbench/run.py --report N --workload NAME [--seconds S]
                             [--trace 0|1] [--first-seed K]
        Steadiness report: runs the workload N times with seeds K..K+N-1
        and prints each metric's median, quartiles, (q3-q1)/median and
        (max-min)/median against its bound from BENCHMARK.json, flagging
        metrics whose spread exceeds the bound as UNRESOLVED.

    python3 perfbench/run.py --selftest
        Runs the benchmark's own tests (statistics, span self time).

Everything is built and written under .bench_build/ at the repo root.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(targets):
    """Configures (once) and builds the benchmark's own CMake project."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("comptx sources not found next to perfbench/ (need src/ and tools/)")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "a") as log:
        steps = []
        if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", CMAKE_DIR, "-j", jobs, "--target"]
                     + targets)
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    tail = f.read()[-3000:]
                fail("build failed (see .bench_build/build.log):\n" + tail)


def source_id():
    """git HEAD when available, else a digest of the sources built."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def run_once(workload, seed, seconds, trace, sid, echo):
    """Runs the driver once; returns (exit code, stdout lines)."""
    run_dir = os.path.join(BUILD, "runs", "%s-%d-%d-%d" %
                           (workload, seed, trace, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cmd = [os.path.join(CMAKE_DIR, "perfbench_driver"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--serve", os.path.join(CMAKE_DIR, "comptx_serve"),
           "--run-dir", run_dir, "--source-id", sid]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        shutil.rmtree(run_dir, ignore_errors=True)
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    spans = os.path.join(run_dir, "spans.jsonl")
    if os.path.isfile(spans):
        keep = os.path.join(BUILD, "spans")
        os.makedirs(keep, exist_ok=True)
        shutil.move(spans, os.path.join(keep, "%s-seed%d.jsonl" %
                                        (workload, seed)))
    shutil.rmtree(run_dir, ignore_errors=True)
    lines = out.splitlines()
    if echo:
        for line in lines:
            print(line)
        sys.stdout.flush()
    return proc.returncode, lines


def spread(values):
    """Median, quartiles and the two spreads the report compares."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    scale = abs(med) if med else 1.0
    return {
        "median": med, "q1": q1, "q3": q3,
        "iqr_share": (q3 - q1) / scale,
        "range_share": (max(values) - min(values)) / scale,
    }


def load_bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for m in spec["per_layer"]:
        bounds.setdefault(m["name"], None)
    return spec, bounds


def report(args, sid):
    spec, bounds = load_bounds()
    seconds = args.seconds or spec["run_seconds"]
    values = {}
    units = {}
    failed_runs = 0
    for i in range(args.report):
        seed = args.first_seed + i
        code, lines = run_once(args.workload, seed, seconds, args.trace, sid,
                               echo=False)
        result = json.loads(lines[-1]) if lines else {}
        meta = next((l for l in lines if l.startswith("perfbench-meta ")), "")
        meta = json.loads(meta[len("perfbench-meta "):]) if meta else {}
        if code != 0 or not result.get("correct"):
            failed_runs += 1
        for name, m in result.get("metrics", {}).items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print("run %d seed %d exit %d failed %s probe_ms %s steal_pct %s" %
              (i + 1, seed, code, result.get("failed"), meta.get("probe_ms"),
               meta.get("steal_pct")))
        sys.stdout.flush()
    rows = {}
    print("%-36s %-6s %12s %12s %12s %8s %8s %6s" %
          ("metric", "unit", "median", "q1", "q3", "iqr/med", "rng/med",
           "bound"))
    for name in sorted(values):
        s = spread(values[name])
        bound = bounds.get(name)
        flag = ""
        if bound is not None and s["range_share"] > bound:
            flag = "UNRESOLVED"
        print("%-36s %-6s %12.6g %12.6g %12.6g %8.4f %8.4f %6s %s" %
              (name, units[name], s["median"], s["q1"], s["q3"],
               s["iqr_share"], s["range_share"],
               "-" if bound is None else bound, flag))
        rows[name] = dict(s, unit=units[name], bound=bound, flag=flag,
                          values=values[name])
    print(json.dumps({"workload": args.workload, "runs": args.report,
                      "failed_runs": failed_runs, "metrics": rows}))
    return 0 if failed_runs == 0 else 1


def selftest():
    build(["perfbench_selftest"])
    code = subprocess.call([os.path.join(CMAKE_DIR, "perfbench_selftest")])
    code |= subprocess.call([sys.executable, "-m", "unittest", "discover",
                             "-s", os.path.join(HERE, "tests"), "-p",
                             "test_*.py"])
    return 0 if code == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", type=int, default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if not args.workload:
        fail("--workload is required")
    build(["perfbench_driver", "comptx_serve"])
    sid = source_id()
    if args.report:
        return report(args, sid)
    if args.seconds is None:
        fail("--seconds is required")
    code, _ = run_once(args.workload, args.seed, args.seconds, args.trace,
                       sid, echo=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
