#!/usr/bin/env python3
"""Build and run the iUpdater end-to-end benchmark.

    python3 perfbench/run.py --workload rooms-stream --seed 1 --seconds 35 \\
        --trace 0
    python3 perfbench/run.py --smoke

The first form builds the C++ benchmark binary (Release, from this checkout's
own sources, into .bench_build/) when needed, runs one workload and passes its
output through: human-readable tables, then as the last line one JSON
object with "correct", "attempted", "failed" and "metrics".  The exit code
is the binary's (nonzero when a correctness gate fails).

--smoke runs every workload at tiny size, untraced and traced, and checks
that the metrics printed are exactly the ones BENCHMARK.json names, with
the same units.  fleet-batch runs here too, although BENCHMARK.json does
not list it (see README.md).
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("rooms-stream", "serve-readers", "fleet-batch")
RUN_TIMEOUT_S = 170
# Live subprocesses, each leading its own process group: signalled if this
# script is terminated, and reaped by main() on the way out.
_children = []


def _kill(proc):
    os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()


def _await_group(pgid, limit_s=10.0):
    """Wait until every process of a killed group (grandchildren
    included) is gone."""
    deadline = time.monotonic() + limit_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def _terminate(signum, _frame):
    # Only signal here: the interrupted frame may be inside proc.wait().
    for proc in _children:
        os.killpg(proc.pid, signal.SIGKILL)
    raise SystemExit(128 + signum)


def _call(cmd) -> int:
    """Run a build step with its output on stderr; returns its exit code."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            start_new_session=True)
    _children.append(proc)
    code = proc.wait()
    _children.remove(proc)
    return code


def build_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build() -> Path:
    """Configure (once) and build the binary; output goes to stderr."""
    out = build_dir()
    binary = out / "perfbench"
    if not (out / "CMakeCache.txt").exists():
        # Makefiles, not Ninja: make keeps the compilers in its own process
        # group, so one killpg stops the whole build.
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release", "-G", "Unix Makefiles"]
        if _call(cmd):
            shutil.rmtree(out, ignore_errors=True)
            sys.exit("perfbench: configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs]
    if _call(cmd):
        sys.exit("perfbench: build failed")
    if not binary.exists():
        sys.exit("perfbench: build produced no binary")
    return binary


def run_binary(binary: Path, args: list, timeout: float):
    """Run the binary; returns (code, stdout).  It is killed and reaped on
    a timeout, and its durable state directory is removed either way."""
    state = build_dir().parent / "perfbench-state" / str(os.getpid())
    cmd = [str(binary)] + args + ["--state-dir", str(state)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    _children.append(proc)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _kill(proc)
        sys.exit(f"perfbench: binary exceeded {timeout:.0f} s")
    finally:
        shutil.rmtree(state, ignore_errors=True)
    _children.remove(proc)
    return proc.returncode, stdout


def smoke(binary: Path) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    names = {w["name"] for w in spec["workloads"]}
    ok = names <= set(WORKLOADS)
    if not ok:
        print(f"smoke: unknown workloads in BENCHMARK.json: "
              f"{sorted(names - set(WORKLOADS))}")
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            code, stdout = run_binary(
                binary, ["--workload", workload, "--seed", "1", "--seconds",
                         "0.1", "--trace", trace, "--smoke"], RUN_TIMEOUT_S)
            lines = stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
            good = (code == 0 and result.get("correct") is True
                    and result.get("failed") == 0 and got == expected[trace])
            print(f"smoke {workload} trace {trace}: "
                  f"{'ok' if good else 'FAIL'}")
            if not good:
                print(stdout[-3000:])
                for name in sorted(set(expected[trace]) ^ set(got)):
                    print(f"  metric mismatch: {name}")
            ok = ok and good
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")

    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, _terminate)
    try:
        started = time.monotonic()
        binary = build()
        if args.smoke:
            return smoke(binary)
        remaining = RUN_TIMEOUT_S - (time.monotonic() - started)
        code, stdout = run_binary(
            binary, ["--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", args.trace],
            max(remaining, 60.0))
        sys.stdout.write(stdout)
        sys.stdout.flush()
        return code
    finally:
        for proc in _children:
            proc.wait()
            _await_group(proc.pid)


if __name__ == "__main__":
    sys.exit(main())
