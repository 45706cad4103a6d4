"""Span tracer that times each layer from outside, through its public calls.

The tracer replaces the public callables listed in :data:`LAYER_CALLS` with
thin wrappers for the duration of one traced pass, then restores the
originals, so nothing under ``src/`` changes and untraced passes run the
unmodified program.  Every wrapped call records a span (layer, call, start,
end, parent, pass id) in memory; :meth:`Tracer.write` saves them once the run
has ended.  A call into a layer while a span of the same layer is open (for
example ``CodecTransmission.deliver`` reaching ``record_status``) folds into
the outer span, so ``calls`` counts entries into a layer, not re-entries.

Self time is a span's duration minus the durations of its direct children.
Each pass is itself a root span, so the layers' self times plus the root's
self time (``unattributed``) add up to the pass wall time exactly.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from functools import wraps

#: Public callables timed per layer: ``(module, owner class or None, name)``.
LAYER_CALLS: dict[str, tuple[tuple[str, str | None, str], ...]] = {
    "core.decode": (
        ("repro.core.decoder_incremental", "IncrementalBubbleDecoder", "decode"),
        ("repro.core.decoder_vectorized", "VectorizedBubbleDecoder", "decode"),
        ("repro.core.decoder_vectorized", "BatchDecoder", "decode_subset"),
    ),
    "core.encode": (
        ("repro.core.encoder", "SpinalEncoder", "spine"),
        ("repro.core.encoder", "SpinalEncoder", "values_from_spines"),
    ),
    "channels.transmit": (("repro.channels.awgn", "AWGNChannel", "transmit"),),
    # The name the mobility model resolves at call time, not the channels
    # module's own binding.
    "channels.traces": (("repro.net.mobility", None, "random_walk_trace"),),
    "net.build": (("repro.net.network", "CellNetwork", "__init__"),),
    "net.run": (("repro.net.network", "CellNetwork", "run"),),
    "link.events": (("repro.link.events", "EventScheduler", "run"),),
    "phy": (
        ("repro.phy.session", "CodecSession", "open_transmission"),
        ("repro.phy.session", "CodecTransmission", "send_next_block"),
        ("repro.phy.session", "CodecTransmission", "deliver"),
        ("repro.phy.session", "CodecTransmission", "record_status"),
    ),
}

#: ``experiments`` spans are opened by the workload around the registry
#: kernel call it makes itself (see :meth:`Tracer.call`).
LAYERS: tuple[str, ...] = (*LAYER_CALLS, "experiments")
ROOT = "pass"


def resolve(module: str, owner: str | None) -> object:
    """The object whose attribute is patched: a class or a module."""
    mod = importlib.import_module(module)
    return mod if owner is None else getattr(mod, owner)


class Patch:
    """Replace ``target.name`` with ``make(original)`` until :meth:`undo`."""

    def __init__(self, target: object, name: str, make) -> None:
        self.target = target
        self.name = name
        # vars() keeps the raw function, not a bound method, for restoring.
        self.original = vars(target)[name]
        setattr(target, name, make(self.original))

    def undo(self) -> None:
        setattr(self.target, self.name, self.original)


def _count_decode(counts: dict, result) -> None:
    results = result if isinstance(result, list) else [result]
    counts["core.decode.sessions"] += len(results)
    counts["core.decode.candidates"] += sum(int(r.candidates_explored) for r in results)


def _count_encode(counts: dict, result) -> None:
    if getattr(result, "ndim", 0):
        counts["core.encode.symbols"] += int(result.size)


class Tracer:
    """Collects spans and exact counts over any number of traced passes."""

    def __init__(self) -> None:
        self.layer: list[str] = []
        self.call_name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.pass_id: list[int] = []
        self._stack: list[int] = []
        self._pass = -1
        self._patches: list[Patch] = []
        self.counts: dict[int, dict[str, int]] = {}

    # -- span bookkeeping ---------------------------------------------------
    def _open(self, layer: str, call: str) -> int:
        sid = len(self.start)
        self.layer.append(layer)
        self.call_name.append(call)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.pass_id.append(self._pass)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, layer: str, call: str, fn):
        tracer = self
        if layer == "core.decode":
            count = _count_decode
        elif layer == "core.encode":
            count = _count_encode
        else:
            count = None

        @wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            if stack and tracer.layer[stack[-1]] == layer:
                return fn(*args, **kwargs)
            counts = tracer.counts[tracer._pass]
            counts[f"{layer}.calls"] += 1
            if layer == "link.events":
                before = args[0].n_processed
            sid = tracer._open(layer, call)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if count is not None:
                count(counts, result)
            elif layer == "link.events":
                counts["link.events.events"] += args[0].n_processed - before
            return result

        return traced

    def call(self, layer: str, call: str, fn, *args):
        """Run ``fn(*args)`` inside a span the benchmark opens itself."""
        self.counts[self._pass][f"{layer}.calls"] += 1
        sid = self._open(layer, call)
        try:
            return fn(*args)
        finally:
            self._close(sid)

    # -- passes ---------------------------------------------------------------
    def begin_pass(self, pass_id: int) -> None:
        self._pass = pass_id
        self.counts[pass_id] = dict.fromkeys(
            [f"{layer}.calls" for layer in LAYERS]
            + [
                "core.decode.sessions",
                "core.decode.candidates",
                "core.encode.symbols",
                "link.events.events",
            ],
            0,
        )
        for layer, calls in LAYER_CALLS.items():
            for module, owner, name in calls:
                label = f"{owner}.{name}" if owner else name
                self._patches.append(
                    Patch(
                        resolve(module, owner),
                        name,
                        lambda fn, layer=layer, label=label: self._wrap(layer, label, fn),
                    )
                )
        self._root = self._open(ROOT, ROOT)

    def end_pass(self) -> float:
        """Close the pass's root span, restore the originals, return wall."""
        self._close(self._root)
        while self._patches:
            self._patches.pop().undo()
        return self.end[self._root] - self.start[self._root]

    # -- analysis ---------------------------------------------------------------
    def self_times(self, pass_id: int) -> dict[str, float]:
        """Per-layer self seconds of one pass; ``pass`` is the unattributed root."""
        child = [0.0] * len(self.start)
        totals = dict.fromkeys((*LAYERS, ROOT), 0.0)
        ids = [i for i, p in enumerate(self.pass_id) if p == pass_id]
        for i in ids:
            if self.parent[i] >= 0:
                child[self.parent[i]] += self.end[i] - self.start[i]
        for i in ids:
            totals[self.layer[i]] += self.end[i] - self.start[i] - child[i]
        return totals

    def write(self, path) -> None:
        """Save every span as one JSON line (gzip), times relative to the run."""
        origin = min(self.start, default=0.0)
        with gzip.open(path, "wt", compresslevel=1) as out:
            for i in range(len(self.start)):
                out.write(
                    json.dumps(
                        [
                            self.pass_id[i],
                            i,
                            self.parent[i],
                            self.layer[i],
                            self.call_name[i],
                            round(self.start[i] - origin, 9),
                            round(self.end[i] - origin, 9),
                        ]
                    )
                    + "\n"
                )
