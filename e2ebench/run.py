#!/usr/bin/env python3
"""Build and run the end-to-end entropy-serving benchmark.

Usage, from the repository root:

    python3 e2ebench/run.py --workload udp_small --seed 1 --seconds 15 --trace 0
    python3 e2ebench/run.py --selftest

The first call configures and builds e2ebench/ (which builds the
repository's library from ../src) into $CARGO_TARGET_DIR or
.bench_build/; later calls only rebuild what changed. Build output goes
to stderr, so the last line of stdout is the benchmark's result JSON.
Exit codes: the benchmark's own (0 ok, 1 an output check failed), 2 for
a missing source tree, a failed build or bad flags, 3 on timeout.
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("e2ebench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2ebench")


def source_id():
    """The git commit when there is one, else a hash of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    for name in ("CMakeLists.txt",):
        with open(os.path.join(ROOT, name), "rb") as f:
            digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(target):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no source tree next to e2ebench/ (need CMakeLists.txt and src/)")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", out, "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(out, target)


def run(cmd):
    """Run @p cmd to completion (or kill it at the timeout)."""
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("timed out after %d s" % RUN_TIMEOUT_S, 3)
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main(argv):
    if argv == ["--selftest"]:
        return run([build("e2ebench_selftest")])
    if "--selftest" in argv:
        fail("--selftest takes no other flags")
    binary = build("e2ebench")
    cmd = [binary] + argv + ["--git-sha", source_id()]
    trace = "--trace" in argv and argv[argv.index("--trace") + 1:][:1] == ["1"]
    if trace:
        traces = os.path.join(os.path.dirname(build_dir()), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-dir", traces]
    return run(cmd)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
