"""One benchmark workload in one single-threaded process (run via ``run.py``).

Usage: ``python perfbench/worker.py --workload NAME --seed N --seconds S
--trace 0|1 [--manifest JSON]`` with ``src`` on ``PYTHONPATH``.  ``run.py``
starts this file with a cleaned environment; run it directly only to debug.

A run sets the workload up ``setup_repeats`` times (``setup_s`` is the
median: 11 set-ups for the sub-second ones, 3 for ``city-flow``'s
calibration), then repeats identical passes until ``--seconds`` would be
exceeded (at least :data:`MIN_PASSES`).  Every timing is a median over passes: pass
throughput, and each pass's percentiles of per-transmission wall time.  With ``--trace 1`` untraced
and traced passes alternate: the per-layer split comes from the traced pass
with the median wall time, ``obs.tracing_overhead`` from the two medians.
Every pass digests its deterministic outputs; a pass whose digest differs
from the reference counts all its transmissions as failed.
"""

from __future__ import annotations

import argparse
import bisect
import dataclasses
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import repro.experiments  # noqa: F401 - registers the experiment kernels
from repro.core.decoder_vectorized import BatchDecoder
from repro.experiments import registry
from repro.experiments.runner import spinal_config_from_params
from repro.net import fastpath, network
from repro.net.fastpath import FlowTransmission
from repro.net.network import CellNetwork, NetworkConfig
from repro.phy.families import make_code
from repro.phy.session import CodecSession
from repro.serve import SoakConfig, SoakEngine
from repro.utils.rng import spawn_rng

from tracer import LAYERS, ROOT, Patch, Tracer

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
BENCHMARK = HERE.parent / "BENCHMARK.json"
OUT = HERE / "out"
DEFAULT_SEED = 20111114
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2


@dataclasses.dataclass
class Pass:
    """What one pass did, measured from outside the program."""

    wall: float
    attempted: int
    delivered: int  # delivered with the correct payload
    symbols: int
    bits: int  # payload bits delivered
    latency_ticks: list
    op_ms: list  # wall time per transmission, arrival to completion
    digest: str
    counts: dict


def _digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, separators=(",", ":")).encode()
    ).hexdigest()


def _run(tracer, pass_id, body):
    """Time ``body()``; inside a traced pass when ``tracer`` is given."""
    if tracer is None:
        start = time.perf_counter()
        out = body(None)
        return time.perf_counter() - start, out
    tracer.begin_pass(pass_id)
    try:
        out = body(tracer)
    finally:
        wall = tracer.end_pass()
    return wall, out


class Fig2:
    """Figure-2 trials through the registry's ``figure2`` kernel.

    24/8/10/16, 14-bit ADC, tail-first puncturing, bisect search (the
    kernel's fixed parameters), equal trial counts at -5, 0 and 5 dB,
    interleaved so drift in machine speed touches every SNR alike.
    """

    SNRS = (-5.0, 0.0, 5.0)
    setup_repeats = 11

    def __init__(self, seed: int, trials_per_snr: int = 40, warm_trials: int = 3) -> None:
        self.seed = seed
        self.trials_per_snr = trials_per_snr
        self.warm_trials = warm_trials

    def setup(self) -> None:
        experiment = registry.get("figure2")
        self.kernel = experiment.run_point
        self.labels = experiment.seed_labels
        self.params = [
            {**experiment.spec.fixed, "snr_db": snr, "seed": self.seed}
            for snr in self.SNRS
        ]
        # Warm-up on trial indices the passes never use.
        for trial in range(self.trials_per_snr, self.trials_per_snr + self.warm_trials):
            for params in self.params:
                self._trial(params, trial, None)

    def engine(self) -> str:
        config = spinal_config_from_params(self.params[0])
        return type(config.decoder_factory()(config.build_encoder())).__name__

    def _trial(self, params, trial, tracer):
        rng = spawn_rng(self.seed, *self.labels(params, trial))
        if tracer is None:
            return self.kernel(params, rng)
        return tracer.call("experiments", "figure2.run_point", self.kernel, params, rng)

    def run_pass(self, tracer, pass_id) -> Pass:
        records, op_ms = [], []

        def body(tracer):
            for trial in range(self.trials_per_snr):
                for params in self.params:
                    start = time.perf_counter()
                    metrics = self._trial(params, trial, tracer)
                    op_ms.append((time.perf_counter() - start) * 1e3)
                    records.append(
                        (metrics["rate"], int(metrics["symbols"]), bool(metrics["ok"]))
                    )

        wall, _ = _run(tracer, pass_id, body)
        payload_bits = int(self.params[0]["payload_bits"])
        ok = [r for r in records if r[2]]
        return Pass(
            wall=wall,
            attempted=len(records),
            delivered=len(ok),
            symbols=sum(r[1] for r in records),
            bits=payload_bits * len(ok),
            # One session at a time with immediate feedback: a trial's
            # arrival-to-decode latency in symbol-times is its symbol count.
            latency_ticks=[r[1] for r in ok],
            op_ms=op_ms,
            digest=_digest(records),
            counts={},
        )


class Serve:
    """``SoakEngine`` soak: 24-bit payloads at 2 dB, k=4, c=6, B=8, 512 max."""

    WARM_SESSIONS = 64
    setup_repeats = 11

    def __init__(self, seed: int, n_sessions: int, in_flight: int, spacing: int) -> None:
        self.seed = seed
        self.n_sessions = n_sessions
        self.in_flight = in_flight
        self.spacing = spacing

    def _config(self, n_sessions: int) -> SoakConfig:
        return SoakConfig(
            n_sessions=n_sessions,
            max_in_flight=self.in_flight,
            arrival_spacing=self.spacing,
            snr_db=2.0,
            payload_bits=24,
            seed=self.seed,
        )

    def setup(self) -> None:
        self.soak = SoakEngine(self._config(self.n_sessions))
        self.session_index = {id(s): i for i, s in enumerate(self.soak.sessions)}
        SoakEngine(self._config(self.WARM_SESSIONS)).run()

    def engine(self) -> str:
        return type(self.soak.batch).__name__

    def run_pass(self, tracer, pass_id) -> Pass:
        opened: dict[int, float] = {}
        decoded: dict[int, float] = {}
        index = self.session_index

        def on_open(fn):
            def open_transmission(session, *args):
                opened[index[id(session)]] = time.perf_counter()
                return fn(session, *args)

            return open_transmission

        def on_decode(fn):
            def decode_subset(batch, n_bits, stores, members):
                results = fn(batch, n_bits, stores, members)
                now = time.perf_counter()
                for member in members:
                    decoded[member] = now
                return results

            return decode_subset

        hooks = [
            Patch(CodecSession, "open_transmission", on_open),
            Patch(BatchDecoder, "decode_subset", on_decode),
        ]
        try:
            wall, result = _run(tracer, pass_id, lambda _t: self.soak.run())
        finally:
            for hook in reversed(hooks):
                hook.undo()
        # A request arrives when the clock first reaches its arrival tick:
        # the wall time of the first admission at or after that tick.
        admissions = sorted((d.admitted, opened[d.session]) for d in result.deliveries)
        ticks = [tick for tick, _ in admissions]
        good = [d for d in result.deliveries if d.success and d.payload_correct]
        op_ms = [
            (decoded[d.session] - admissions[bisect.bisect_left(ticks, d.arrival)][1])
            * 1e3
            for d in good
        ]
        return Pass(
            wall=wall,
            attempted=len(result.deliveries),
            delivered=len(good),
            symbols=result.total_symbols,
            bits=self.soak.config.payload_bits * len(good),
            latency_ticks=[d.latency for d in good],
            op_ms=op_ms,
            digest=hashlib.sha256(result.delivery_log_json().encode()).hexdigest(),
            counts={
                "serve.flushes": result.n_flushes,
                "serve.mean_batch_sessions": result.mean_batch_sessions,
                "serve.peak_queue_depth": result.peak_queue_depth,
            },
        )


class City:
    """``repro city-soak --tier flow --users 1000`` (the CLI's other defaults).

    ``setup`` is the flow-model calibration, run uncached each time; a pass
    is ``CellNetwork`` construction plus ``run`` on that model.
    """

    # One calibration takes 4-7 s; three keep the run inside its time limit.
    setup_repeats = 3

    def __init__(self, seed: int, n_users: int = 1000) -> None:
        self.config = NetworkConfig(
            n_cells=4,
            n_users=n_users,
            packets_per_user=2,
            scheduler="round-robin",
            code="spinal",
            tier="flow",
            seed=seed,
            max_symbols=512,
            cell_radius=150.0,
            reference_snr_db=18.0,
            epoch_symbols=128,
            interference=True,
        )

    def setup(self) -> None:
        # default_symbol_model picks the calibration grid; swapping its
        # memoizing helper for the plain calibrator makes every setup pay
        # the full calibration, as the first city run in a process does.
        bypass = Patch(
            network, "cached_symbol_model", lambda _: fastpath.calibrate_symbol_model
        )
        try:
            self.model = network.default_symbol_model(self.config)
        finally:
            bypass.undo()

    def engine(self) -> str:
        code = make_code("spinal", seed=0, snr_db=0.0, smoke=self.config.smoke_codes)
        return type(code.decoder_factory(code.encoder)).__name__

    def run_pass(self, tracer, pass_id) -> Pass:
        completed: dict[int, float] = {}

        def on_deliver(fn):
            def deliver(tx, *args, **kwargs):
                done = fn(tx, *args, **kwargs)
                if done and id(tx) not in completed:
                    completed[id(tx)] = time.perf_counter()
                return done

            return deliver

        marks = {}

        def body(_tracer):
            marks["start"] = time.perf_counter()
            net = CellNetwork(self.config, model=self.model)
            return net, net.run()

        hook = Patch(FlowTransmission, "deliver", on_deliver)
        try:
            wall, (net, result) = _run(tracer, pass_id, body)
        finally:
            hook.undo()
        good = [p for p in result.packets if p.delivered]
        return Pass(
            wall=wall,
            attempted=len(result.packets),
            delivered=len(good),
            symbols=sum(p.symbols_sent for p in result.packets),
            bits=sum(p.payload_bits for p in good),
            latency_ticks=[p.completed - p.arrival for p in good],
            # Backlogged traffic: every packet arrives as the city starts,
            # and construction is part of the wait.
            op_ms=[(t - marks["start"]) * 1e3 for t in completed.values()],
            digest=_digest([dataclasses.astuple(p) for p in result.packets]),
            counts={
                "net.handoffs": result.n_handoffs,
                "net.mobility.epochs_built": net.mobility.n_epochs,
                "net.mobility.epochs_used": net.epoch,
            },
        )


#: The benchmark's workloads by name (BENCHMARK.json says why).
WORKLOADS = {
    "fig2": Fig2,
    "serve-burst": lambda seed: Serve(seed, n_sessions=1024, in_flight=256, spacing=0),
    "serve-trickle": lambda seed: Serve(seed, n_sessions=512, in_flight=64, spacing=2),
    "city-flow": City,
}

#: Output-derived exact counts, reported by every traced run (0 when the
#: workload has no such layer).
OUTPUT_COUNTS = (
    "serve.flushes",
    "serve.mean_batch_sessions",
    "serve.peak_queue_depth",
    "net.handoffs",
    "net.mobility.epochs_built",
    "net.mobility.epochs_used",
)


# -- statistics ---------------------------------------------------------------


def _quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _layer_metrics(tracer: Tracer, traced, plain) -> dict:
    """The per-layer split of the median traced pass, plus exact counts.

    A traced pass's id is its index in ``traced``.
    """
    order = sorted(range(len(traced)), key=lambda i: traced[i].wall)
    pick = order[(len(order) - 1) // 2]
    wall = traced[pick].wall
    selfs = tracer.self_times(pick)
    counts = tracer.counts[pick]
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = counts[f"{layer}.calls"]
        out[f"{layer}.self_s"] = selfs[layer]
        out[f"{layer}.share"] = selfs[layer] / wall
    decode_calls = counts["core.decode.calls"]
    encode_calls = counts["core.encode.calls"]
    sessions = counts["core.decode.sessions"]
    delivered = traced[pick].delivered
    out["core.decode.sessions_per_call"] = sessions / decode_calls if decode_calls else 0.0
    out["core.decode.candidates"] = counts["core.decode.candidates"]
    out["core.encode.symbols"] = counts["core.encode.symbols"]
    out["core.encode.symbols_per_call"] = (
        counts["core.encode.symbols"] / encode_calls if encode_calls else 0.0
    )
    out["phy.decode_attempts"] = sessions
    out["phy.attempts_per_delivery"] = sessions / delivered if delivered else 0.0
    out["link.events.events"] = counts["link.events.events"]
    for name in OUTPUT_COUNTS:
        out[name] = traced[pick].counts.get(name, 0)
    built = out["net.mobility.epochs_built"]
    out["net.mobility.epochs_used_ratio"] = (
        out["net.mobility.epochs_used"] / built if built else 0.0
    )
    out["obs.tracing_overhead"] = (
        statistics.median(p.wall for p in traced) / statistics.median(p.wall for p in plain)
        - 1.0
    )
    out["unattributed.share"] = selfs[ROOT] / wall
    return out


# -- the run ------------------------------------------------------------------


def measure(name: str, seed: int, seconds: float, trace: bool, manifest: dict) -> dict:
    workload = WORKLOADS[name](seed)
    setups = []
    for _ in range(workload.setup_repeats):
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)

    tracer = Tracer() if trace else None
    plain: list[Pass] = []
    traced: list[Pass] = []
    minimum = MIN_TRACED_PAIRS if trace else MIN_PASSES
    start = time.perf_counter()
    while True:
        plain.append(workload.run_pass(None, None))
        if trace:
            traced.append(workload.run_pass(tracer, len(traced)))
        elapsed = time.perf_counter() - start
        rounds = len(plain)
        if rounds >= minimum and elapsed + elapsed / rounds > seconds:
            break

    # -- output check ---------------------------------------------------------
    reference = plain[0].digest
    if seed == DEFAULT_SEED:
        reference = json.loads(EXPECTED.read_text())[name]
    passes = plain + traced
    bad = [p for p in passes if p.digest != reference]
    counts_repeat = (
        len({json.dumps([tracer.counts[i], p.counts]) for i, p in enumerate(traced)}) <= 1
    )
    correct = not bad and counts_repeat

    attempted = sum(p.attempted for p in plain)
    delivered = sum(p.delivered for p in plain if p.digest == reference)
    symbols = sum(p.symbols for p in plain)
    bits = sum(p.bits for p in plain if p.digest == reference)
    op_ms = [ms for p in plain for ms in p.op_ms]

    stats = {
        "setup_s": setups,
        "trials_per_s": [p.attempted / p.wall for p in plain],
        "symbols_per_s": [p.symbols / p.wall for p in plain],
        "pass_wall_s": [p.wall for p in plain],
        "trial_ms": op_ms,
    }
    if trace:
        metrics = _layer_metrics(tracer, traced, plain)
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "trials_per_s": statistics.median(stats["trials_per_s"]),
            "symbols_per_s": statistics.median(stats["symbols_per_s"]),
            "trial_p50_ms": statistics.median(_percentile(p.op_ms, 50.0) for p in plain),
            "trial_p90_ms": statistics.median(_percentile(p.op_ms, 90.0) for p in plain),
            "delivered_fraction": delivered / attempted,
            "goodput_bits_per_symbol": bits / symbols,
            "p50_latency_ticks": _percentile(plain[0].latency_ticks, 50.0),
            "p90_latency_ticks": _percentile(plain[0].latency_ticks, 90.0),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    declared = json.loads(BENCHMARK.read_text())["per_layer" if trace else "end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in declared}
    if set(units) != set(metrics):
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json"
        )

    manifest = {
        **manifest,
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "engine": workload.engine(),
        "digest": passes[0].digest,
        "digest_reference": reference,
        "digests_match": not bad,
        "counts_repeat": counts_repeat,
        "passes": len(plain),
        "traced_passes": len(traced),
    }
    report = {
        "manifest": manifest,
        "metrics": metrics,
        "samples": {
            key: {
                "n": len(values),
                "q1_median_q3": list(_quartiles(values)) if values else [],
            }
            for key, values in stats.items()
        },
    }
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    stem.with_suffix(".json").write_text(json.dumps(report, indent=2, sort_keys=True))
    if trace:
        tracer.write(stem.with_suffix(".spans.jsonl.gz"))

    print(f"manifest: {json.dumps(manifest, sort_keys=True)}")
    for key, summary in report["samples"].items():
        q1, q2, q3 = summary["q1_median_q3"] or (0.0, 0.0, 0.0)
        print(f"  {name:14s} {key:18s} median={q2:.6g} q1={q1:.6g} q3={q3:.6g} n={summary['n']}")
    for key, value in metrics.items():
        print(f"  {name:14s} {key:40s} {value:.6g} {units[key]}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": attempted - delivered,
        "metrics": {
            key: {"value": value, "unit": units[key]} for key, value in metrics.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--manifest", default="{}")
    args = parser.parse_args(argv)
    result = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), json.loads(args.manifest)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
