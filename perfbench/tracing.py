"""Span recorder for the traced benchmark sample.

The tracer wraps the public functions of each kljnsim layer at the
place the campaign code looks them up (``protocol`` imports ``generate``
by name, so ``kljnsim.protocol.generate`` is wrapped, not only
``kljnsim.noise.generate``).  Every call becomes one span: name, start,
end, parent span and a small payload taken from the call.  Spans stay in
memory; ``layer_metrics`` turns them into per-layer self times and
counters once the sample has finished.

A traced sample runs in a throwaway worker process, so the wrappers are
never removed.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
import weakref

import numpy as np

# Span fields, in order: name, start (s), end (s), parent index (-1 at
# the root), payload (or None).
NAME, START, END, PARENT, INFO = range(5)


class Tracer:
    """Collects nested call spans from wrapped functions."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, info=None):
        """Return ``fn`` wrapped to record a span per call.

        ``name`` is a string or a function of the call's arguments that
        returns one.  ``info(args, result)`` builds the span payload; it
        runs after the span has closed.
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name if isinstance(name, str) else name(args), 0.0, 0.0,
                    stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if info is not None:
                span[INFO] = info(args, result)
            return result

        return traced

    def patch(self, owners, attr, name, info=None) -> None:
        """Wrap ``owners[0].attr`` once and install it on every owner."""
        wrapped = self.wrap(name, getattr(owners[0], attr), info)
        for owner in owners:
            setattr(owner, attr, wrapped)

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the durations of its child spans."""
        dur = np.array([s[END] - s[START] for s in self.spans])
        child = np.zeros_like(dur)
        for s, d in zip(self.spans, dur):
            if s[PARENT] >= 0:
                child[s[PARENT]] += d
        return dur - child

    def root_time(self) -> float:
        return sum(s[END] - s[START] for s in self.spans if s[PARENT] < 0)


def install(tracer: Tracer) -> None:
    """Wrap every measured layer of the imported kljnsim package."""
    from kljnsim import noise, protocol, scenarios, solver

    first_run_seen = weakref.WeakSet()

    def run_name(args):
        if args[0] in first_run_seen:
            return "solver.run"
        first_run_seen.add(args[0])
        return "solver.first_run"

    def run_info(args, out):
        return (len(args[1]), out.shape[0], args[0].n_states)  # steps, records, states

    # Sessions are numbered, not keyed by id(), because a finished
    # session's id can be reused by the next scenario's session.
    session_no = weakref.WeakKeyDictionary()
    serial = itertools.count()

    def bit_info(args, m):
        return (session_no.setdefault(args[0], next(serial)), m.arrangement)

    tracer.patch([noise, protocol], "generate", "noise.generate",
                 lambda args, out: args[0])
    tracer.patch([scenarios], "build_distributed", "network.build_distributed")
    tracer.patch([scenarios], "apply_capacitor_killer", "network.apply_capacitor_killer")
    tracer.patch([solver.TransientSolver], "__init__", "solver.build")
    tracer.patch([solver.TransientSolver], "run", run_name, run_info)
    tracer.patch([protocol.KeyExchangeSession], "run_bit", "protocol.run_bit", bit_info)
    tracer.patch([scenarios], "run_attack", "attack.run_attack",
                 lambda args, out: out)
    tracer.patch([scenarios], "empirical_amplification", "privacy.empirical_amplification")
    tracer.patch([scenarios], "run_scenario", "scenarios.run_scenario")
    tracer.patch([scenarios], "reproduce_table1", "scenarios.reproduce_table1")
    tracer.patch([scenarios], "persist_scenario", "scenarios.persist_scenario")
    # Code reached from these entry points but not wrapped (the warmup
    # glue, derive_seed, Waveform construction) counts as self time of
    # the enclosing span.


def fft_points(spec) -> int:
    """Transform length ``generate`` synthesizes for ``spec``.

    Mirrors the padding in ``kljnsim.noise.generate``: at least
    ``_MIN_INBAND_BINS`` in-band lines, rounded up to a fast length.
    """
    from kljnsim import noise
    from scipy import fft as sp_fft

    n_pad = max(spec.n_samples, int(math.ceil(
        noise._MIN_INBAND_BINS / (spec.bandwidth_hz * spec.sample_interval_s))))
    return sp_fft.next_fast_len(n_pad, real=True)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer self times and counters of one traced sample."""
    spans = tracer.spans
    self_t = tracer.self_times()
    names = np.array([s[NAME] for s in spans])

    def pick(*wanted):
        return np.isin(names, wanted)

    def total(*wanted) -> float:
        return float(self_t[pick(*wanted)].sum())

    def count(*wanted) -> int:
        return int(pick(*wanted).sum())

    def payloads(name):
        return [s[INFO] for s in spans if s[NAME] == name]

    def per(value, count, scale):
        return value / count * scale if count else 0.0

    m: dict[str, float] = {}

    specs = payloads("noise.generate")
    n_fft = sum(fft_points(spec) for spec in specs)
    n_kept = sum(spec.n_samples for spec in specs)
    m["noise.generate_s"] = total("noise.generate")
    m["noise.calls"] = len(specs)
    m["noise.us_per_call"] = per(m["noise.generate_s"], len(specs), 1e6)
    m["noise.fft_points"] = n_fft
    m["noise.kept_ratio"] = per(n_kept, n_fft, 1.0)

    net = ("network.build_distributed", "network.apply_capacitor_killer")
    m["network.build_s"] = total(*net)
    m["network.builds"] = count(*net)

    m["solver.build_s"] = total("solver.build")
    m["solver.builds"] = count("solver.build")
    m["solver.first_run_s"] = total("solver.first_run")
    runs = payloads("solver.run")
    m["solver.run_s"] = total("solver.run")
    m["solver.records"] = sum(r[1] for r in runs)
    m["solver.steps"] = sum(r[0] for r in runs)
    m["solver.us_per_record"] = per(m["solver.run_s"], m["solver.records"], 1e6)
    m["solver.n_states"] = max(
        (r[2] for r in runs + payloads("solver.first_run")), default=0)

    bit_ms = np.array([(s[END] - s[START]) * 1e3 for s in spans if s[NAME] == "protocol.run_bit"])
    switches, last = 0, {}
    for session, arrangement in payloads("protocol.run_bit"):
        if session in last and last[session] != arrangement:
            switches += 1
        last[session] = arrangement
    m["protocol.bit_self_s"] = total("protocol.run_bit")
    m["protocol.bit_ms_p50"] = float(np.percentile(bit_ms, 50)) if bit_ms.size else 0.0
    m["protocol.bit_ms_p99"] = float(np.percentile(bit_ms, 99)) if bit_ms.size else 0.0
    m["protocol.bits"] = count("protocol.run_bit")
    m["protocol.switches"] = switches

    outcomes = payloads("attack.run_attack")
    m["attack.run_s"] = total("attack.run_attack")
    m["attack.us_per_bit"] = per(m["attack.run_s"], sum(len(o.truths) for o in outcomes), 1e6)
    m["attack.secure_bits"] = sum(
        sum(t in ("LH", "HL") for t in o.truths) for o in outcomes)

    m["privacy.amplify_s"] = total("privacy.empirical_amplification")
    m["scenarios.self_s"] = total("scenarios.run_scenario", "scenarios.reproduce_table1")
    m["scenarios.persist_s"] = total("scenarios.persist_scenario")
    return m


def dump(tracer: Tracer) -> list[dict]:
    """Spans as JSON-ready records, without their payloads."""
    return [
        {"name": s[NAME], "start": s[START], "end": s[END], "parent": s[PARENT]}
        for s in tracer.spans
    ]
