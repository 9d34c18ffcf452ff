#!/usr/bin/env python3
"""Build and run the mmdb benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The script builds the `perfbench` package (release profile, offline) into
`$CARGO_TARGET_DIR` (default `perfbench/target`), prints a provenance line,
then runs the benchmark binary and relays its output. The last line of
standard output is the binary's JSON result. A failed build or run exits
non-zero without printing a result.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "perfbench"


def tool_output(cmd):
    """First line of a tool's output, or None if it cannot run."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip().splitlines()[0] if done.stdout.strip() else None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest():
    """SHA-256 over the sources the benchmark builds (the checkout need not
    be a git repository, so this stands in for the commit id)."""
    h = hashlib.sha256()
    roots = [ROOT / "crates", ROOT / "shims", PACKAGE / "src"]
    files = [ROOT / "Cargo.toml", PACKAGE / "Cargo.toml"]
    for r in roots:
        files.extend(p for p in r.rglob("*") if p.is_file() and "target" not in p.parts)
    for p in sorted(files):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def main(argv):
    target = Path(os.environ.get("CARGO_TARGET_DIR", PACKAGE / "target"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", str(PACKAGE / "Cargo.toml")]
    try:
        done = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return done.returncode or 1

    provenance = {
        "git_rev": tool_output(["git", "rev-parse", "HEAD"]) or "none (not a git checkout)",
        "source_sha256": source_digest(),
        "rustc": tool_output(["rustc", "-V"]) or "unknown",
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "profile": "release",
        "argv": argv,
    }
    print("provenance: " + json.dumps(provenance), flush=True)

    binary = target / "release" / "perfbench"
    data_dir = ROOT / ".perfbench"
    try:
        done = subprocess.run([str(binary), *argv, "--data-dir", str(data_dir)],
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
