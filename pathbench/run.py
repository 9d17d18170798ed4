#!/usr/bin/env python3
"""Builds the path benchmark from source and runs one workload.

    python3 pathbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 pathbench/run.py --smoke

Run from the repository root. The benchmark package (pathbench/CMakeLists.txt)
compiles the repository's libraries from src/ in Release mode into
.bench_build/pathbench; later runs only relink what changed. Build output
goes to stderr, so the last line of stdout is the benchmark's JSON result.
Every flag is passed through to the pathbench binary (see src/main.cc),
stamped with the commit and a digest of the sources it was built from.
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "pathbench")


def source_digest():
    """SHA-256 over every file the binary is built from, in path order."""
    digest = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".h", ".cc", ".txt")):
                    continue
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def commit():
    if shutil.which("git") is None:
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(BUILD, "Makefile")):
        configure += ["-G", "Ninja"]
    for cmd in (configure, ["cmake", "--build", BUILD, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          check=False).returncode != 0:
            sys.exit("pathbench: build failed: " + " ".join(cmd))


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("pathbench: no UGuide sources under " + ROOT)
    build()
    binary = os.path.join(BUILD, "pathbench")
    cmd = [binary] + sys.argv[1:] + ["--commit", commit(),
                                    "--source-digest", source_digest()]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
