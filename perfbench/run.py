#!/usr/bin/env python3
"""Build titanc's benchmark and the real `titand`, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload build_run --seed 1 --seconds 10 --trace 0

Workloads: build_run, edit_loop, daemon. The last line of standard output
is one JSON object with `correct`, `attempted`, `failed` and `metrics`
(end-to-end metrics with `--trace 0`, per-layer metrics with `--trace 1`).
Builds go to `$CARGO_TARGET_DIR` (default `.bench_build`); scratch files
go to `.bench_build/perfbench-work` and are removed when the run ends.
Exits non-zero, printing no result, when either build fails.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

WORK_DIR = Path(".bench_build") / "perfbench-work"


def commit() -> str:
    """The git commit when there is one, else a hash of the source tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    h = hashlib.sha256()
    files = [Path("Cargo.toml"), Path("Cargo.lock")]
    for top in ("crates", "perfbench"):
        files += sorted(
            p for p in Path(top).rglob("*")
            if p.is_file() and p.suffix in (".rs", ".toml", ".c", ".py", ".lock")
        )
    for p in files:
        if p.is_file():
            h.update(str(p).encode())
            h.update(p.read_bytes())
    return "tree-sha256:" + h.hexdigest()[:16]


def rustc_version() -> str:
    try:
        out = subprocess.run(["rustc", "--version"], capture_output=True, text=True)
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def main() -> int:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    builds = [
        # tier-1 builds only the root package, so build the daemon here
        ["cargo", "build", "--release", "--quiet", "-p", "titanc", "--bin", "titand"],
        ["cargo", "build", "--release", "--quiet", "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for cmd in builds:
        try:
            built = subprocess.run(cmd, env=env, stdout=sys.stderr).returncode == 0
        except OSError as e:
            print(f"perfbench: {e}", file=sys.stderr)
            built = False
        if not built:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 1
    bench = [
        str(target / "release" / "perfbench"),
        *sys.argv[1:],
        "--titand", str(target / "release" / "titand"),
        "--work-dir", str(WORK_DIR),
        "--commit", commit(),
        "--rustc", rustc_version(),
    ]
    return subprocess.run(bench, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
