#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the program under test (the
stencilmart library and smartctl) and the perfbench runner from source with
CMake into $CARGO_TARGET_DIR (default .bench_build), then runs one workload
and forwards the runner's output; the last stdout line is the JSON result.
Workloads: pipeline-3d, serve-distinct, serve-zipf-reload (see
perfbench/README.md). Exits non-zero without a result when the sources or
the build are missing.
"""
import argparse
import hashlib
import os
import pathlib
import shutil
import signal
import subprocess
import sys

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("pipeline-3d", "serve-distinct", "serve-zipf-reload")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def build(build_dir):
    """Configures once, then builds incrementally; build logs go to stderr."""
    if not (build_dir / "CMakeCache.txt").exists():
        configure = subprocess.run(
            ["cmake", "-S", str(BENCH), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    result = subprocess.run(
        ["cmake", "--build", str(build_dir), "-j", jobs,
         "--target", "perfbench", "smartctl"],
        stdout=sys.stderr, stderr=sys.stderr)
    return result.returncode == 0


def source_revision():
    """The git commit when available, else a digest of the program sources."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for top in ("src", "tools"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file() or \
            not (ROOT / "tools" / "smartctl.cpp").is_file():
        return fail("program sources (src/, tools/) not found in "
                    f"{ROOT}; run from the root of a checkout")
    if args.seed < 0 or args.seconds < 1:
        return fail("--seed must be >= 0 and --seconds >= 1")

    out_root = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = out_root / "perfbench"
    if not build(build_dir):
        return fail("build failed")

    workdir = out_root / "run" / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cmd = [str(build_dir / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--smartctl", str(build_dir / "tools" / "smartctl"),
           "--workdir", str(workdir), "--git", source_revision()]
    # Own session, so a timeout can stop the runner and every daemon it
    # started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        # The runner reaps what it spawns; this also stops any straggler of
        # its process group (e.g. after the runner itself crashed).
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()

    # Keep the span dump of a traced run; drop corpora, artifacts, sockets.
    traces = out_root / "traces"
    for span_file in workdir.glob("trace-*.jsonl"):
        traces.mkdir(exist_ok=True)
        shutil.move(str(span_file), str(traces / span_file.name))
    shutil.rmtree(workdir, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(out)
        return fail(f"runner exited with {proc.returncode} and no result")
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
