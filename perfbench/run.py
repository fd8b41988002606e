#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds `lovm` (the server the serve
workloads drive) and the `perfbench` package from source into
$CARGO_TARGET_DIR (default `.bench_build`), then runs one workload. The
last stdout line is the result object; build output and the human-readable
report go to stderr. Exits nonzero, printing no result, when the build
fails or the sources are missing. Workloads and metrics: see
`perfbench/README.md` and `BENCHMARK.json`.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# glibc malloc adapts its mmap and trim thresholds to the sizes a process
# frees, and when it does so depends on the order the pool's threads free
# the pivots' multi-megabyte tables. Left adaptive, the median budgeted
# clear ranged 81-94 ms over five seeds on a 2-CPU machine, and a clear on a
# fresh pool 58-97 ms. Setting the trim threshold turns the adaptation off:
# the mmap threshold stays at glibc's default of 128 KiB, so large tables
# are mapped afresh on each use as in the usual adaptive state, and freed
# heap memory stays in the process. Clears then measured 91.0-91.8 ms over
# three seeds. The server child inherits the setting.
MALLOC_TUNABLES = "glibc.malloc.trim_threshold=134217728"


def source_id():
    """The git commit when there is one, else a hash of the sources."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
        return "git:" + out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "sha256:" + digest.hexdigest()[:16]


def build(target_dir):
    """Builds `lovm` and `perfbench`; returns their paths, or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for manifest, extra in [
        (os.path.join(ROOT, "Cargo.toml"), ["--bin", "lovm"]),
        (os.path.join(HERE, "Cargo.toml"), []),
    ]:
        if not os.path.isfile(manifest):
            print(f"run.py: missing {manifest}", file=sys.stderr)
            return None
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", manifest] + extra
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print(f"run.py: build failed: {' '.join(cmd)}", file=sys.stderr)
            return None
    release = os.path.join(target_dir, "release")
    return os.path.join(release, "lovm"), os.path.join(release, "perfbench")


def main():
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target_dir):
        target_dir = os.path.join(ROOT, target_dir)
    built = build(target_dir)
    if built is None:
        return 2
    lovm, bench = built
    cmd = [bench] + sys.argv[1:] + ["--lovm", lovm, "--commit", source_id()]
    env = dict(os.environ, GLIBC_TUNABLES=MALLOC_TUNABLES)
    # The benchmark writes its scratch files and spans under the root.
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
