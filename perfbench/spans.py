"""The traced run: spans around the calls into each layer.

A layer is a ``repro`` subpackage.  :func:`installed` wraps the layer
entry points listed in :func:`_targets` from this file -- the program
itself is not changed -- and records, while an operation is open:

- a span per call: name, layer, start, end, parent, and the operation
  id every span of one operation shares.  Each operation's root span is
  opened and closed on the same clock readings the timer uses, so its
  duration is the operation's measured host time;
- counts and byte totals at the same boundaries;
- for calls too frequent to keep as spans (simulated memory accesses),
  their summed host time, charged to the enclosing span as time spent
  in the ``sgx`` layer.

Calls outside an operation (set-up, checks) are not recorded.  A
layer's self time is its spans' durations minus the part of each span
its child spans cover.
"""

import contextlib
import json
import statistics
import threading
import time
from collections import defaultdict

from checks import CheckFailed

from repro.bigdata.mapreduce import SecureMapReduce
from repro.crypto import aead, chunked
from repro.crypto.aead import AeadKey
from repro.genpack.monitor import ResourceMonitor
from repro.genpack.scheduler import GenPackScheduler
from repro.genpack.workload import RunningContainer
from repro.scbr.filters import Subscription
from repro.scbr.index import ContainmentIndex
from repro.scbr.naive import LinearIndex
from repro.scbr.sharding import ShardedScbrRouter
from repro.service import SecureFrontDoor
from repro.sgx.enclave import Enclave, EnclaveContext
from repro.sgx.memory import SimulatedMemory
from repro.sgx.platform import SgxPlatform
from repro.sim.clock import CycleClock, cycles_to_seconds
from repro.streams import SecureStreamPlane
from repro.telemetry import MetricsRegistry, set_default_registry

LAYERS = ("bench", "service", "sgx", "sim", "scbr", "crypto", "bigdata",
          "streams", "genpack")

PER_LAYER_UNITS = {
    "service.audit_append_ms": "ms",
    "service.sealed_head_bytes": "bytes",
    "service.upload_ms": "ms",
    "sgx.ecalls_per_op": "count",
    "sgx.ocalls_per_op": "count",
    "sgx.platform_seal_bytes_per_op": "bytes",
    "sgx.accesses_per_match": "count",
    "sgx.llc_misses_per_match": "count",
    "sgx.page_faults_per_match": "count",
    "sgx.host_ns_per_access": "ns",
    "sgx.virtual_ms_p50": "ms",
    "sim.clock_charges_per_op": "count",
    "scbr.publish_ms": "ms",
    "scbr.shard_match_ms": "ms",
    "scbr.visits_per_pub": "count",
    "scbr.notifications_per_pub": "count",
    "scbr.publish_virtual_ms": "ms",
    "scbr.filter_evals_per_match": "count",
    "crypto.seal_ms_per_op": "ms",
    "crypto.open_ms_per_op": "ms",
    "crypto.sealed_bytes_per_op": "bytes",
    "crypto.keystream_bytes_per_op": "bytes",
    "bigdata.job_ms": "ms",
    "bigdata.map_tasks_per_job": "count",
    "bigdata.sealed_bytes_per_job": "bytes",
    "streams.round_ms": "ms",
    "streams.pump_ms": "ms",
    "streams.windows_per_round": "count",
    "genpack.arrival_ms": "ms",
    "genpack.tick_ms": "ms",
    "genpack.sample_ms": "ms",
    "genpack.observed_cpu_calls": "count",
    "genpack.migrations": "count",
    "genpack.events": "count",
    "genpack.energy_kwh": "kWh",
    "proc.threads_started_per_op": "count",
    "proc.op_ms_p90": "ms",
    "proc.first_setup_s": "s",
    "bench.trace_overhead_x": "x",
}
PER_LAYER_UNITS.update(
    {"%s.self_ms_per_op" % layer: "ms" for layer in LAYERS if layer != "sim"}
)


class _Span:
    __slots__ = ("op", "span_id", "parent", "layer", "name", "start",
                 "end", "hot")

    def __init__(self, op, span_id, parent, layer, name, start):
        self.op = op
        self.span_id = span_id
        self.parent = parent
        self.layer = layer
        self.name = name
        self.start = start
        self.end = None
        self.hot = None


class Tracer:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self, root_layer="bench"):
        self.root_layer = root_layer
        self.spans = []
        self.counts = defaultdict(int)
        self.registry = MetricsRegistry()
        self.ops = 0
        self._root = None
        self._root_stack = []
        self._ids = 0
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- operations (called by the timer) -------------------------------

    def open_root(self, start):
        self.ops += 1
        self._ids += 1
        self._root = _Span(self.ops, self._ids, None, self.root_layer,
                           "op", start)
        self._root_stack = self._local.stack = [self._root]

    def close_root(self, end):
        self._root.end = end
        self.spans.append(self._root)
        self._root = None
        self._local.stack = []

    def discard_root(self):
        self.ops -= 1
        self.spans = [s for s in self.spans if s.op != self._root.op]
        self._root = None
        self._local.stack = []

    # -- recording (called by the wrappers) -----------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def push(self, layer, name):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # A worker thread of a pool the traced call started: its
            # spans hang under the call that is waiting for it.
            parent = self._root_stack[-1]
        with self._lock:
            self._ids += 1
            span = _Span(parent.op, self._ids, parent.span_id, layer, name,
                         time.perf_counter())
        stack.append(span)
        return span

    def pop(self, span):
        span.end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    def add(self, name, amount=1):
        with self._lock:
            self.counts[name] += amount

    def hot(self, layer, seconds):
        """Time spent in ``layer`` by a call recorded without a span."""
        stack = self._stack()
        span = stack[-1] if stack else self._root_stack[-1]
        with self._lock:
            if span.hot is None:
                span.hot = defaultdict(float)
            span.hot[layer] += seconds

    # -- results ---------------------------------------------------------

    def check_nesting(self):
        """Every span lies inside its parent, under its op's root."""
        by_id = {span.span_id: span for span in self.spans}
        for span in self.spans:
            if span.parent is None:
                continue
            parent = by_id.get(span.parent)
            if parent is None or parent.op != span.op:
                raise CheckFailed("span %s has no parent in op %d"
                                  % (span.name, span.op))
            if span.start < parent.start or span.end > parent.end:
                raise CheckFailed("span %s leaves its parent %s"
                                  % (span.name, parent.name))

    def self_time(self):
        """Seconds of self time per layer, over every recorded op."""
        children = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append((span.start, span.end))
        totals = defaultdict(float)
        for span in self.spans:
            covered = 0.0
            reach = span.start
            for start, end in sorted(children.get(span.span_id, ())):
                start = max(start, reach)
                if end > start:
                    covered += end - start
                    reach = end
            hot = span.hot or {}
            for layer, seconds in hot.items():
                totals[layer] += seconds
            totals[span.layer] += (
                span.end - span.start - covered - sum(hot.values())
            )
        return totals

    def durations(self, name):
        return [s.end - s.start for s in self.spans if s.name == name]

    def write(self, path):
        """All spans as JSON: one list per span, fields named once."""
        with open(path, "w") as handle:
            json.dump({
                "fields": ["op", "id", "parent", "layer", "name", "start",
                           "end"],
                "spans": [
                    [s.op, s.span_id, s.parent, s.layer, s.name,
                     round(s.start, 9), round(s.end, 9)]
                    for s in sorted(self.spans, key=lambda s: s.span_id)
                ],
                "counts": dict(self.counts),
            }, handle)


# -- the wrappers ----------------------------------------------------------

def _layer_of(function):
    """The ``repro`` subpackage a function is defined in."""
    parts = getattr(function, "__module__", "").split(".")
    return parts[1] if len(parts) > 1 and parts[0] == "repro" else "bench"


class _Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.undo = []

    def replace(self, owner, attr, value):
        self.undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def span(self, owner, attr, layer, name, after=None):
        """Record a span around every call of ``owner.attr``."""
        tracer = self.tracer
        original = owner.__dict__[attr]

        def traced(*args, **kwargs):
            if tracer._root is None:
                return original(*args, **kwargs)
            span = tracer.push(layer, name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.pop(span)
            if after is not None:
                after(tracer, args, result)
            return result

        self.replace(owner, attr, traced)

    def count(self, owner, attr, name, amount=None):
        """Count calls of ``owner.attr`` (or sum ``amount(args)``)."""
        tracer = self.tracer
        original = owner.__dict__[attr]

        def counted(*args, **kwargs):
            if tracer._root is not None:
                tracer.add(name, amount(args) if amount else 1)
            return original(*args, **kwargs)

        self.replace(owner, attr, counted)

    def restore(self):
        for owner, attr, original in reversed(self.undo):
            setattr(owner, attr, original)


def _traced_ecall(tracer, original):
    layers = {}

    def ecall(enclave, entry_point, *args, **kwargs):
        if tracer._root is None:
            return original(enclave, entry_point, *args, **kwargs)
        key = (enclave.code.name, entry_point)
        layer = layers.get(key)
        if layer is None:
            layer = layers[key] = _layer_of(
                enclave.code.entry_points.get(entry_point)
            )
        tracer.add("sgx.ecalls")
        span = tracer.push(layer, "ecall." + entry_point)
        try:
            result = original(enclave, entry_point, *args, **kwargs)
        finally:
            tracer.pop(span)
        if entry_point == "append_audit":
            tracer.add("service.heads")
            tracer.add("service.head_bytes", len(result[1].to_bytes()))
        return result

    return ecall


def _traced_index_match(tracer, original):
    def match(index, publication):
        memory = index.memory
        if tracer._root is None or memory is None:
            return original(index, publication)
        before = memory.stats.snapshot()
        span = tracer.push("scbr", "scbr.index_match")
        try:
            result = original(index, publication)
        finally:
            tracer.pop(span)
        delta = memory.stats.delta(before)
        tracer.add("scbr.matches")
        tracer.add("sgx.accesses", delta.accesses)
        tracer.add("sgx.llc_misses", delta.llc_misses)
        tracer.add("sgx.page_faults", delta.page_faults)
        return result

    return match


def _traced_access(tracer, original):
    clock = time.perf_counter

    def access(memory, *args, **kwargs):
        if tracer._root is None:
            return original(memory, *args, **kwargs)
        start = clock()
        try:
            return original(memory, *args, **kwargs)
        finally:
            tracer.hot("sgx", clock() - start)
            tracer.add("sgx.access_calls")

    return access


def _after_publish(tracer, args, result):
    router = args[0]
    tracer.add("scbr.publishes")
    tracer.add("scbr.notifications",
               len(result) if isinstance(result, list) else 0)
    tracer.add("scbr.publish_virtual_ms", 1e3 * cycles_to_seconds(
        router.last_publish_cycles, router.platform.clock.frequency_hz
    ))


def _after_stream_round(tracer, args, receipt):
    tracer.add("streams.rounds")
    tracer.add("streams.windows", receipt.detail.get("committed", 0))


def _targets(patches):
    """Every layer boundary the traced run records."""
    tracer = patches.tracer
    for attr in ("publish", "subscribe", "upload_dataset", "submit_job",
                 "stream_round"):
        patches.span(
            SecureFrontDoor, attr, "service", "service." + attr,
            _after_stream_round if attr == "stream_round" else None,
        )
    patches.span(SecureFrontDoor, "_audit", "service",
                 "service.audit_append")
    patches.replace(Enclave, "ecall",
                    _traced_ecall(tracer, Enclave.__dict__["ecall"]))
    patches.count(EnclaveContext, "ocall", "sgx.ocalls")
    patches.span(SgxPlatform, "seal", "sgx", "sgx.seal",
                 lambda t, args, _r: t.add("sgx.seal_bytes", len(args[2])))
    patches.span(SgxPlatform, "unseal", "sgx", "sgx.unseal")
    patches.replace(SimulatedMemory, "access", _traced_access(
        tracer, SimulatedMemory.__dict__["access"]))
    for attr in ("encrypt", "encrypt_batch"):
        patches.span(AeadKey, attr, "crypto", "crypto.seal",
                     lambda t, _a, r: t.add("crypto.sealed_bytes", len(r)))
    for attr in ("decrypt", "decrypt_batch"):
        patches.span(AeadKey, attr, "crypto", "crypto.open")
    for module, attr in ((aead, "keystream_xor"),
                         (aead, "xof_keystream_xor"),
                         (chunked, "xof_keystream_xor")):
        patches.count(module, attr, "crypto.keystream_bytes",
                      lambda args: len(args[2]))
    patches.span(ShardedScbrRouter, "publish", "scbr", "scbr.publish",
                 _after_publish)
    for index_class in (LinearIndex, ContainmentIndex):
        patches.replace(index_class, "match", _traced_index_match(
            tracer, index_class.__dict__["match"]))
    patches.count(Subscription, "matches", "scbr.filter_evals")
    patches.span(SecureMapReduce, "run", "bigdata", "bigdata.job",
                 lambda t, _a, _r: t.add("bigdata.jobs"))
    patches.span(SecureStreamPlane, "pump", "streams", "streams.pump")
    for attr, name in (("on_arrival", "arrival"),
                       ("on_departure", "departure"),
                       ("on_tick", "tick")):
        patches.span(GenPackScheduler, attr, "genpack", "genpack." + name)
    patches.span(ResourceMonitor, "sample_all", "genpack", "genpack.sample")
    observed = RunningContainer.__dict__["observed_cpu"]

    def observed_cpu(container):
        if tracer._root is not None:
            tracer.add("genpack.observed_cpu")
        return observed.fget(container)

    patches.replace(RunningContainer, "observed_cpu",
                    property(observed_cpu))
    patches.count(CycleClock, "charge", "sim.charges")
    patches.count(threading.Thread, "start", "proc.threads")


@contextlib.contextmanager
def installed(tracer):
    """Wrap every layer boundary and collect the program's telemetry."""
    patches = _Patches(tracer)
    previous = set_default_registry(tracer.registry)
    try:
        _targets(patches)
        yield tracer
    finally:
        patches.restore()
        set_default_registry(previous)


# -- the per-layer metrics -------------------------------------------------

def _mean_ms(values):
    return 1e3 * statistics.mean(values) if values else 0.0


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def _registry_total(snapshot, name):
    counters = snapshot.get("counters", {})
    return sum(
        value for key, value in counters.items()
        if key == name or key.startswith(name + "{")
    )


def per_layer(tracer, traced, plain, figures):
    """Every per-layer metric of one traced run.

    ``traced`` and ``plain`` are the timers of the traced and untraced
    halves; ``figures`` holds the workload's virtual-clock results.
    """
    tracer.check_nesting()
    ops = tracer.ops
    counts = tracer.counts
    registry = tracer.registry.snapshot()
    self_time = tracer.self_time()
    publishes = counts["scbr.publishes"]
    jobs = counts["bigdata.jobs"]
    matches = counts["scbr.matches"]
    days = len(traced.setup_s)
    metrics = {
        "service.audit_append_ms": _mean_ms(
            tracer.durations("service.audit_append")),
        "service.sealed_head_bytes": _ratio(
            counts["service.head_bytes"], counts["service.heads"]),
        "service.upload_ms": _mean_ms(
            tracer.durations("service.upload_dataset")),
        "sgx.ecalls_per_op": _ratio(counts["sgx.ecalls"], ops),
        "sgx.ocalls_per_op": _ratio(counts["sgx.ocalls"], ops),
        "sgx.platform_seal_bytes_per_op": _ratio(
            counts["sgx.seal_bytes"], ops),
        "sgx.accesses_per_match": _ratio(counts["sgx.accesses"], matches),
        "sgx.llc_misses_per_match": _ratio(
            counts["sgx.llc_misses"], matches),
        "sgx.page_faults_per_match": _ratio(
            counts["sgx.page_faults"], matches),
        "sgx.host_ns_per_access": 1e9 * _ratio(
            sum(s.hot.get("sgx", 0.0) for s in tracer.spans if s.hot),
            counts["sgx.access_calls"]),
        "sgx.virtual_ms_p50": figures.get("virtual_ms_p50", 0.0),
        "sim.clock_charges_per_op": _ratio(counts["sim.charges"], ops),
        "scbr.publish_ms": _mean_ms(tracer.durations("scbr.publish")),
        "scbr.shard_match_ms": _mean_ms(tracer.durations("ecall.match")),
        "scbr.visits_per_pub": _ratio(
            _registry_total(registry, "scbr.visits"), publishes),
        "scbr.notifications_per_pub": _ratio(
            counts["scbr.notifications"], publishes),
        "scbr.publish_virtual_ms": _ratio(
            counts["scbr.publish_virtual_ms"], publishes),
        "scbr.filter_evals_per_match": _ratio(
            counts["scbr.filter_evals"], matches),
        "crypto.seal_ms_per_op": 1e3 * _ratio(
            sum(tracer.durations("crypto.seal")), ops),
        "crypto.open_ms_per_op": 1e3 * _ratio(
            sum(tracer.durations("crypto.open")), ops),
        "crypto.sealed_bytes_per_op": _ratio(
            counts["crypto.sealed_bytes"], ops),
        "crypto.keystream_bytes_per_op": _ratio(
            counts["crypto.keystream_bytes"], ops),
        "bigdata.job_ms": _mean_ms(tracer.durations("bigdata.job")),
        "bigdata.map_tasks_per_job": _ratio(
            _registry_total(registry, "bigdata.map_tasks"), jobs),
        "bigdata.sealed_bytes_per_job": _ratio(
            _registry_total(registry, "bigdata.sealed_bytes_moved"), jobs),
        "streams.round_ms": _mean_ms(
            tracer.durations("service.stream_round")),
        "streams.pump_ms": _mean_ms(tracer.durations("streams.pump")),
        "streams.windows_per_round": _ratio(
            counts["streams.windows"], counts["streams.rounds"]),
        "genpack.arrival_ms": _mean_ms(tracer.durations("genpack.arrival")),
        "genpack.tick_ms": _mean_ms(tracer.durations("genpack.tick")),
        "genpack.sample_ms": _mean_ms(tracer.durations("genpack.sample")),
        "genpack.observed_cpu_calls": _ratio(
            counts["genpack.observed_cpu"], days),
        "genpack.migrations": figures.get("migrations", 0),
        "genpack.events": _ratio(ops, days) if "energy_kwh" in figures
        else 0.0,
        "genpack.energy_kwh": figures.get("energy_kwh", 0.0),
        "proc.threads_started_per_op": _ratio(counts["proc.threads"], ops),
        "proc.op_ms_p90": plain.summary()["op_ms_p90"],
        # The untraced half sets up first, so its first set-up is the
        # process's and holds any set-up paid once per process.
        "proc.first_setup_s": plain.setup_s[0],
        "bench.trace_overhead_x": (
            traced.summary()["op_ms_p50"] / plain.summary()["op_ms_p50"]
        ),
    }
    for layer in LAYERS:
        if layer != "sim":
            metrics["%s.self_ms_per_op" % layer] = 1e3 * _ratio(
                self_time.get(layer, 0.0), ops)
    return metrics
