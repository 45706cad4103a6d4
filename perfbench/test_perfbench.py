"""Checks of the benchmark itself, on small instances of every workload.

    PYTHONPATH=src python -m pytest perfbench/test_perfbench.py -q

The exact-count layer metrics (calls, sessions, candidates, symbols, events,
flushes, queue depth, handoffs, epochs, decode attempts) must repeat exactly
for a given seed, so a later change may cite them as counts: two fresh
processes must report identical counts and output digests.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

SMALL = {
    "fig2": lambda worker, seed: worker.Fig2(seed, trials_per_snr=2, warm_trials=1),
    "serve-burst": lambda worker, seed: worker.Serve(seed, n_sessions=48, in_flight=16, spacing=0),
    "serve-trickle": lambda worker, seed: worker.Serve(seed, n_sessions=32, in_flight=8, spacing=2),
    "city-flow": lambda worker, seed: worker.City(seed, n_users=40),
}


def traced_pass(name: str, seed: int) -> dict:
    """Set up a small instance, run one traced pass, return counts and split."""
    import worker
    from tracer import LAYERS, ROOT, Tracer

    workload = SMALL[name](worker, seed)
    workload.setup()
    tracer = Tracer()
    start = time.perf_counter()
    outcome = workload.run_pass(tracer, 0)
    outer = time.perf_counter() - start
    selfs = tracer.self_times(0)
    return {
        "counts": tracer.counts[0],
        "output_counts": outcome.counts,
        "digest": outcome.digest,
        "wall": outcome.wall,
        "outer_wall": outer,
        "layer_sum": sum(selfs[layer] for layer in LAYERS),
        "unattributed": selfs[ROOT],
    }


def _in_fresh_process(name: str, seed: int) -> dict:
    env = dict(os.environ)
    src = str(HERE.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run(
        [sys.executable, str(Path(__file__)), name, str(seed)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", sorted(SMALL))
def test_exact_counts_repeat_across_processes(name):
    first = _in_fresh_process(name, 20111114)
    second = _in_fresh_process(name, 20111114)
    for key in ("counts", "output_counts", "digest"):
        assert first[key] == second[key]
    assert any(value for value in first["counts"].values())


@pytest.mark.parametrize("name", sorted(SMALL))
def test_self_times_account_for_pass_wall(name):
    """The root span is the pass, and the layers' wrapped calls cover it.

    The root span is checked against a clock read outside the pass, and the
    layers' self times must leave little unattributed, so a lost wrapper, a
    missing span or a mis-parented span fails here.
    """
    result = traced_pass(name, 7)
    assert result["wall"] <= result["outer_wall"]
    # run_pass does its own digesting and latency bookkeeping outside the span.
    assert result["wall"] >= 0.8 * result["outer_wall"]
    assert 0.0 <= result["unattributed"] < 0.05 * result["wall"]
    assert result["layer_sum"] > 0.95 * result["wall"]


def test_tracing_leaves_outputs_and_callables_unchanged():
    import worker
    from repro.core.decoder_vectorized import BatchDecoder
    from repro.phy.session import CodecSession
    from tracer import Tracer

    originals = (BatchDecoder.decode_subset, CodecSession.open_transmission)
    workload = SMALL["serve-burst"](worker, 3)
    workload.setup()
    plain = workload.run_pass(None, None)
    traced = workload.run_pass(Tracer(), 0)
    assert plain.digest == traced.digest
    assert (BatchDecoder.decode_subset, CodecSession.open_transmission) == originals


def test_runner_fails_without_program_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""


if __name__ == "__main__":
    print(json.dumps(traced_pass(sys.argv[1], int(sys.argv[2]))))
