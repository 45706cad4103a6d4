"""Benchmark of the rateless spinal code reproduction: one command, four workloads.

    python3 perfbench/run.py                      # every workload, untraced
    python3 perfbench/run.py --trace 1            # every workload, per-layer split
    python3 perfbench/run.py --workload fig2 --seed 7 --seconds 20 --trace 0

``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``.

Run it from the repository root.  Each workload runs in its own
single-threaded child process (``worker.py``) with ``src`` on the path,
numeric libraries pinned to one thread, and the engine-selecting variables
``REPRO_SPINAL_DECODER`` and ``REPRO_NJIT`` removed, so every run measures the
library defaults; the manifest records any value that was removed.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics untraced, per-layer metrics
with ``--trace 1``).  Full reports, quartiles and span files land in
``perfbench/out/``.  Why each workload exists and which metric each layer
should move are in ``perfbench/predictions.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"])
CLEARED_ENV = ("REPRO_SPINAL_DECODER", "REPRO_NJIT")
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
#: A workload run measures about ``--seconds``; this much more caps its
#: set-up (city-flow: three 4-7 s calibrations) and one pass of overrun.
SETUP_ALLOWANCE_S = 150


def _git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return out.stdout.strip()


def _src_digest() -> str:
    """Hash of every source file, a revision stand-in outside a git checkout."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _child_env() -> tuple[dict, dict]:
    env = dict(os.environ)
    cleared = {name: env.pop(name) for name in CLEARED_ENV if name in env}
    for name in THREAD_ENV:
        env[name] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env, cleared


def run_workload(name: str, args, manifest: dict, env: dict) -> dict:
    """Run one workload in a child process; relay its output; parse its result."""
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--manifest", json.dumps(manifest),
    ]
    timeout = args.seconds + SETUP_ALLOWANCE_S
    child = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: workload {name} exceeded {timeout} s")
    finally:
        if child.poll() is None:
            child.kill()
            child.communicate()
    lines = stdout.splitlines()
    if child.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: workload {name} failed (exit {child.returncode})")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=20111114)
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit so the child is reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    env, cleared = _child_env()
    manifest = {
        "git_rev": _git_rev(),
        "src_sha256": _src_digest(),
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "cleared_env": cleared,
    }
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args, manifest, env) for name in names}
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {
                    f"{name}/{metric}": value
                    for name, result in results.items()
                    for metric, value in result["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
