#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload server8_verilator --seed 1 \\
        --seconds 20 --trace 0

The first run configures and builds the simulator library with the
repository's own CMakeLists.txt and the driver with perfbench/CMakeLists.txt,
under $CARGO_TARGET_DIR (default .bench_build).  Later runs only re-check the
build.  Provenance goes to stdout, build logs to stderr, and the driver's
output follows; its last line is the result JSON.  Exits non-zero, without a
result, when the build or the run fails.
"""

import hashlib
import json
import os
import subprocess
import sys

JOBS = "4"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd):
    """Run a build step, sending its output to stderr."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail(f"build step failed ({proc.returncode}): {' '.join(cmd)}")


def build(root, build_dir):
    sim_dir = os.path.join(build_dir, "sim")
    drv_dir = os.path.join(build_dir, "driver")
    if not os.path.exists(os.path.join(sim_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", root, "-B", sim_dir])
    run_quiet(["cmake", "--build", sim_dir, "--target", "garibaldi_core",
               "-j", JOBS])
    if not os.path.exists(os.path.join(drv_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                   drv_dir, f"-DGARIBALDI_BUILD_DIR={sim_dir}"])
    run_quiet(["cmake", "--build", drv_dir, "-j", JOBS])
    return sim_dir, os.path.join(drv_dir, "perfbench")


def source_hash(root):
    """SHA-256 over the build inputs: the root build file and src/."""
    h = hashlib.sha256()
    paths = [os.path.join(root, "CMakeLists.txt")]
    for dirpath, dirnames, filenames in os.walk(os.path.join(root, "src")):
        dirnames.sort()
        paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for p in paths:
        h.update(os.path.relpath(p, root).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_rev(root):
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def library_flags(sim_dir):
    """Compile command of one library source, from the build's database."""
    try:
        with open(os.path.join(sim_dir, "compile_commands.json")) as f:
            cmd = json.load(f)[0]["command"].split()
    except (OSError, ValueError, IndexError, KeyError):
        return "unknown"
    keep = [a for a in cmd[1:] if a.startswith(("-O", "-D", "-f", "-m",
                                                "-std", "-g"))]
    return " ".join(keep)


def main():
    root = os.getcwd()
    if not (os.path.exists(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        fail("run from the repository root: CMakeLists.txt and src/ "
             "are missing here")
    load = os.getloadavg()
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    sim_dir, driver = build(root, build_dir)

    cache = {}
    with open(os.path.join(sim_dir, "CMakeCache.txt")) as f:
        for line in f:
            if ":" in line and "=" in line and not line.startswith("//"):
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":")[0]] = value
    print(f"provenance: git {git_rev(root)}  source {source_hash(root)}  "
          f"nproc {os.cpu_count()}  loadavg {load[0]:.2f} {load[1]:.2f} "
          f"{load[2]:.2f}")
    print(f"provenance: build type "
          f"{cache.get('CMAKE_BUILD_TYPE') or 'Release (repo default)'}  "
          f"SIM_AUDIT {cache.get('SIM_AUDIT', '?')}  "
          f"library flags {library_flags(sim_dir)}")
    sys.stdout.flush()

    proc = subprocess.run([driver] + sys.argv[1:])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
