#!/usr/bin/env python3
"""Runs one benchmark workload, building the benchmark first if needed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The benchmark is built from source with
CMake into $CARGO_TARGET_DIR (default .bench_build); build output goes to
stderr, so the last line of stdout is the run's JSON result. Stores are
made under .bench_scratch/ and removed by the run; traced runs write
their spans to .bench_trace/<workload>-<seed>.json.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    cfg = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (cfg, ["cmake", "--build", build_dir, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main(argv):
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    build(build_dir)
    if argv == ["--selftest"]:
        return subprocess.run([os.path.join(build_dir, "perfbench_selftest")]).returncode
    args = dict(zip(argv[0::2], argv[1::2]))
    if len(argv) % 2 or not {"--workload", "--seed", "--seconds", "--trace"} <= args.keys():
        sys.exit(__doc__)
    cmd = [os.path.join(build_dir, "viewmap_perfbench")] + argv + ["--scratch", ".bench_scratch"]
    if args["--trace"] == "1":
        os.makedirs(".bench_trace", exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(".bench_trace", f"{args['--workload']}-{args['--seed']}.json")]
    code = subprocess.run(cmd).returncode
    if os.path.isdir(".bench_scratch") and not os.listdir(".bench_scratch"):
        os.rmdir(".bench_scratch")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
