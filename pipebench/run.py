#!/usr/bin/env python3
"""Build and run the pipeline benchmark for one workload.

    python3 pipebench/run.py --workload miranda|archive|explore --seed N \
        --seconds S --trace 0|1 [--scale full|tiny]

Run from the repository root. The benchmark program is built from source
(pipebench/CMakeLists.txt compiles ../src) into $CARGO_TARGET_DIR, or
.bench_build when that is unset. The environment is pinned before the
program starts: every PERFDMF_* variable is removed and the WAL flush
policy is set to on_commit. All files a run writes live in a temporary
directory under the build directory, deleted afterwards; a traced run
also keeps its Chrome trace-event JSON under <build>/traces/. Dirty
pages are written back before measuring, and a run that had to build
first waits COOL_DOWN_S seconds.

The last line of standard output is the JSON result. A failed build or
run exits non-zero without printing one.
"""

import argparse
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
# Runs measured right after a full build read slower (in two sets of ten
# runs, the two after the build were the slowest); wait this long after
# a build that compiled the program before measuring.
COOL_DOWN_S = 60


def log(message):
    print(f"pipebench: {message}", file=sys.stderr, flush=True)


def machine_fingerprint():
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"nproc={os.cpu_count()} cpu={model!r} kernel={platform.release()}"


def build(build_dir):
    """Configure and build the benchmark; returns the binary's path and
    whether it was (re)linked."""
    cmake_dir = os.path.join(build_dir, "pipebench")
    binary = os.path.join(cmake_dir, "pipebench")
    before = os.path.getmtime(binary) if os.path.exists(binary) else None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", cmake_dir, "--target", "pipebench", "-j", jobs],
    ]
    for step in steps:
        result = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                timeout=BUILD_TIMEOUT_S, check=False)
        if result.returncode != 0:
            sys.stderr.write(result.stdout.decode(errors="replace")[-4000:])
            raise RuntimeError(f"build step failed: {' '.join(step)}")
    return binary, os.path.getmtime(binary) != before


def pinned_environment(workdir):
    env = {k: v for k, v in os.environ.items() if not k.startswith("PERFDMF_")}
    env["PERFDMF_SYNC"] = "on_commit"
    env["TMPDIR"] = workdir
    return env


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["miranda", "archive", "explore"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full")
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary, rebuilt = build(build_dir)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as error:
        log(f"build failed: {error}")
        return 2
    if rebuilt and args.scale == "full":
        log(f"built; waiting {COOL_DOWN_S} s before measuring")
        time.sleep(COOL_DOWN_S)

    runs_dir = os.path.join(build_dir, "runs")
    os.makedirs(runs_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs_dir)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scale", args.scale, "--workdir", workdir]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    # Write back what the build and earlier runs left dirty, so the WAL
    # fsyncs measured here do not queue behind it.
    os.sync()
    print(f"# machine: {machine_fingerprint()}")
    print("# environment: PERFDMF_* cleared; PERFDMF_SYNC=on_commit (WAL fsync at commit)")
    sys.stdout.flush()
    try:
        result = subprocess.run(command, env=pinned_environment(workdir),
                                stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    output = result.stdout.decode(errors="replace")
    if result.returncode != 0:
        sys.stdout.write("".join(line + "\n" for line in output.splitlines()
                                 if line.startswith("#")))
        log(f"benchmark exited with code {result.returncode}")
        return 4
    sys.stdout.write(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
