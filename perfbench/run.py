#!/usr/bin/env python3
"""Builds and runs the libspauth benchmark.

    python3 perfbench/run.py --workload net_read|methods|write_mix|all \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --write-manifest

Run from the repository root. The harness (perfbench/src) is built with
CMake against the repository's own library sources into
.bench_build/perfbench; the build step is incremental. The last line of a
workload run is one JSON object: {"correct", "attempted", "failed",
"metrics"}; every line before it starting with "# metric" names one metric
with its value and unit. `all` runs every workload in turn.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "perfbench-work")
BINARY = os.path.join(BUILD, "perfbench")
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")
RUN_TIMEOUT_S = 170

sys.dont_write_bytecode = True  # keep the benchmark's directory clean
sys.path.insert(0, HERE)
import spec  # noqa: E402


def build():
    """Configures (once) and builds the harness; output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, stderr=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", str(os.cpu_count() or 2)],
                   stdout=sys.stderr, stderr=sys.stderr, check=True)


def source_id():
    """The commit, or a digest of the library and harness sources when the
    tree is not a git checkout."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for base in ("src", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, base)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as fh:
                digest.update(fh.read())
    return "tree-sha1:" + digest.hexdigest()


def run_workload(workload, seed, seconds, trace, extra=(), echo=True):
    """Runs one workload; returns (exit code, parsed last line or None)."""
    env = dict(os.environ, PERFBENCH_COMMIT=source_id())
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", WORK] + list(extra)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % workload, file=sys.stderr)
        return 1, None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if echo:
        for line in lines:
            print(line)
        sys.stdout.flush()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result


def write_manifest():
    with open(MANIFEST, "w") as fh:
        json.dump(spec.manifest(), fh, indent=2)
        fh.write("\n")
    print("wrote %s" % MANIFEST)


def self_test():
    """Tiny-size runs: every metric named in BENCHMARK.json is emitted with
    its unit, and each workload's correctness gate fires on a corrupted
    answer."""
    problems = []
    with open(MANIFEST) as fh:
        manifest = json.load(fh)
    if manifest != spec.manifest():
        problems.append("BENCHMARK.json is stale: run --write-manifest")
    expected = {
        0: {m["name"]: m["unit"] for m in manifest["end_to_end"]},
        1: {m["name"]: m["unit"] for m in manifest["per_layer"]},
    }
    for workload in [w["name"] for w in manifest["workloads"]]:
        for trace in (0, 1):
            code, result = run_workload(workload, 1, 2, trace, ["--tiny"],
                                        echo=False)
            tag = "%s trace=%d" % (workload, trace)
            if code != 0 or not result or not result.get("correct"):
                problems.append("%s: run failed (exit %d)" % (tag, code))
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(k for k in got if k in expected[trace]
                               and got[k] != expected[trace][k])
                problems.append("%s: missing %s, unexpected %s, wrong unit %s"
                                % (tag, missing, extra, wrong))
            if trace == 0:
                zero = [k for k, v in result["metrics"].items()
                        if not v["value"] > 0]
                if zero:
                    problems.append("%s: end-to-end metrics not > 0: %s"
                                    % (tag, zero))
            print("self-test: %s ok (%d metrics)" % (tag, len(got)))
        code, result = run_workload(workload, 1, 2, 0, ["--tiny", "--tamper"],
                                    echo=False)
        if code == 0 or not result or result.get("correct") is not False:
            problems.append("%s: a corrupted answer was not caught" % workload)
        else:
            print("self-test: %s gate caught a corrupted answer" % workload)
    for p in problems:
        print("self-test: FAIL %s" % p)
    print("self-test: %s" % ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-manifest", action="store_true")
    args = parser.parse_args()

    if args.write_manifest:
        write_manifest()
        return 0
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 1
    if args.self_test:
        return self_test()
    names = [n for n, _ in spec.WORKLOADS]
    if args.workload not in names + ["all"]:
        parser.error("--workload must be one of %s or all" % names)
    status = 0
    for workload in names if args.workload == "all" else [args.workload]:
        code, _ = run_workload(workload, args.seed, args.seconds, args.trace)
        status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main())
