"""The four closed-loop workloads of the benchmark.

Each workload drives public entry points of the program from one
thread: the next operation starts only when the previous one returned.
Inputs come from the ``seed`` alone.  A workload's ``run`` times set-up
and operations through a :class:`~timing.Timer`, checks every output
with :mod:`checks` after each round (outside the timed operations), and
returns the deterministic figures it measured on the virtual clocks.

Run length is part of each workload's definition: a round has a fixed
number of operations on a fresh program state, and a run plays whole
rounds until ``seconds`` of host time have passed.  On the front door
the per-request cost grows with each tenant's history (its sealed audit
head re-seals every request id ever seen), so the round size fixes how
much of that growth a run sees.
"""

import random
import statistics

# The front door imports its planes on first use.  Importing them here
# keeps module compilation out of the timed set-up.
import repro.bigdata.mapreduce  # noqa: F401
import repro.cluster.nodes  # noqa: F401
import repro.scbr.router  # noqa: F401
import repro.scbr.sharding  # noqa: F401
import repro.streams  # noqa: F401

from checks import (
    check_door_books,
    check_genpack_day,
    check_job_totals,
    check_match_set,
    check_notifications,
    check_paging,
    check_stream_audit,
    check_windows,
    expect,
)

from repro.genpack.baselines import SpreadScheduler
from repro.genpack.cluster import Cluster
from repro.genpack.monitor import ResourceMonitor
from repro.genpack.scheduler import GenPackScheduler
from repro.genpack.simulation import ClusterSimulation
from repro.genpack.workload import HOUR, ContainerWorkload
from repro.scbr.naive import LinearIndex
from repro.scbr.workload import ScbrWorkload
from repro.service import FrontDoorConfig, SecureFrontDoor, TenantQuota
from repro.sgx.costs import DEFAULT_COSTS, MIB
from repro.sgx.memory import EpcModel, SimulatedMemory
from repro.sim.clock import CycleClock, cycles_to_seconds
from repro.sim.events import Environment
from repro.smartgrid.meters import SmartMeterFleet
from repro.smartgrid.topology import GridTopology

TENANTS = ("t0", "t1", "t2", "t3")
# Tenants are never throttled or refused: every request is admitted and
# fits the quota, so the benchmark measures the served path only.
OPEN_RATE = 1e9
OPEN_QUOTA = TenantQuota(
    sealed_bytes=1 << 40, jobs=1 << 30, subscriptions=1 << 30, streams=8
)
REQUEST_GAP_S = 0.01


def triples(subscription):
    """A subscription's constraints as ``(attribute, op, bound)``."""
    return [
        (c.attribute, c.operator.value, c.value)
        for c in subscription.constraints.values()
    ]


def _open_door(seed, **config):
    env = Environment()
    door = SecureFrontDoor(
        env, seed=seed,
        config=FrontDoorConfig(
            admit_rate=OPEN_RATE, admit_burst=OPEN_RATE,
            default_quota=OPEN_QUOTA, **config
        ),
    )
    for tenant in TENANTS:
        door.register_tenant(tenant, rate=OPEN_RATE, burst=OPEN_RATE)
    return env, door


class DoorPublish:
    """Seeded publications through the front door's sharded SCBR plane."""

    name = "door_publish"

    def __init__(self, seed, subscriptions=200, publishes=800):
        self.seed = seed
        self.filters = {}
        for index, tenant in enumerate(TENANTS):
            generator = ScbrWorkload(
                seed=seed * 31 + index, num_attributes=20,
                containment_fraction=0.3,
            )
            self.filters[tenant] = {
                "%s-%s" % (tenant, s.subscription_id): triples(s)
                for s in generator.subscriptions(subscriptions)
            }
        generator = ScbrWorkload(seed=seed * 31 + 7, num_attributes=20)
        self.publications = [
            dict(p.attributes) for p in generator.publications(publishes)
        ]

    def setup(self):
        """A fresh door with every tenant's subscriptions loaded."""
        env, door = _open_door(self.seed)
        for tenant in TENANTS:
            for sub_id, constraints in self.filters[tenant].items():
                receipt = door.subscribe(tenant, sub_id, constraints)
                expect(receipt.ok, "subscribe %s failed: %r", sub_id,
                       receipt.outcome)
        return env, door

    def play(self, state, timer):
        env, door = state
        sent = {t: len(self.filters[t]) for t in TENANTS}
        notified = []
        for index, attributes in enumerate(self.publications):
            tenant = TENANTS[index % len(TENANTS)]
            timer.begin()
            receipt = door.publish(tenant, attributes)
            timer.end(receipt.ok)
            sent[tenant] += 1
            notified.append(receipt.detail.get("notifications"))
            env.run(until=env.now + REQUEST_GAP_S)
        return sent, notified

    def run(self, timer, seconds):
        while timer.wants_round(seconds):
            state = timer.setup(self.setup)
            sent, notified = self.play(state, timer)
            for count, attributes in zip(notified, self.publications):
                check_notifications(count, self.filters, attributes)
            check_door_books(state[1], sent)
        return {}


def _meter_total(record):
    meter, watts = record.split("|")
    return [(meter, int(watts))]


def _sum_values(_key, values):
    return sum(values)


class DoorIngest:
    """Per-tenant stream round, dataset upload and map/reduce job."""

    name = "door_ingest"

    HORIZON_S = 60.0
    WINDOW = {"kind": "tumbling", "size": 60.0, "lateness": 30.0}

    def __init__(self, seed, cycles=100, records=300, meters_per_tenant=6):
        self.seed = seed
        self.cycles = cycles
        rng = random.Random(seed)
        grid = GridTopology.build(
            len(TENANTS), 1, meters_per_tenant
        )
        self.grid = grid
        meters = sorted(grid.meters)
        self.meters = {
            tenant: meters[i::len(TENANTS)]
            for i, tenant in enumerate(TENANTS)
        }
        names = ["m%02d" % i for i in range(24)]
        self.datasets = [
            [
                ("%s|%d" % (rng.choice(names), rng.randint(0, 5000)))
                .encode("ascii")
                for _ in range(records)
            ]
            for _ in range(cycles)
        ]

    def setup(self):
        """A fresh door with one meter stream attached per tenant."""
        env, door = _open_door(self.seed, stream_window=self.WINDOW)
        fleet = SmartMeterFleet(self.grid, seed=self.seed)
        for tenant in TENANTS:
            receipt = door.attach_stream(
                tenant, "meters", fleet, self.meters[tenant]
            )
            expect(receipt.ok, "attach_stream failed for %s", tenant)
        return env, door, fleet

    def play(self, state, timer):
        env, door, _fleet = state
        sent = {t: 1 for t in TENANTS}
        for cycle in range(self.cycles):
            start = cycle * self.HORIZON_S
            records = self.datasets[cycle]
            for tenant in TENANTS:
                name = "d%03d" % cycle
                timer.begin()
                receipts = (
                    door.stream_round(tenant, "meters", start,
                                      self.HORIZON_S),
                    door.upload_dataset(tenant, name, records),
                    door.submit_job(tenant, "j%03d" % cycle, name,
                                    _meter_total, _sum_values),
                )
                timer.end(all(r.ok for r in receipts))
                sent[tenant] += len(receipts)
                env.run(until=env.now + REQUEST_GAP_S)
        return sent

    def check(self, state, sent):
        _env, door, fleet = state
        for tenant in TENANTS:
            for cycle in range(self.cycles):
                check_job_totals(
                    door.jobs[tenant]["j%03d" % cycle]["result"],
                    self.datasets[cycle],
                )
        end = self.cycles * self.HORIZON_S
        readings = []
        for tenant in TENANTS:
            for meter in self.meters[tenant]:
                timestamp = 0.0
                while timestamp < end:
                    reading = fleet.reading(meter, timestamp)
                    readings.append((meter, timestamp, reading.watts))
                    timestamp += fleet.interval
        # The door keeps its one stream plane private; the benchmark
        # reads its committed windows and audit from outside the timing.
        plane = door._stream_plane
        check_windows(plane.open_firings(), readings, self.WINDOW["size"])
        sources = [door.streams[t]["meters"] for t in TENANTS]
        check_stream_audit(plane.audit(sources))
        check_door_books(door, sent)

    def run(self, timer, seconds):
        while timer.wants_round(seconds):
            state = timer.setup(self.setup)
            sent = self.play(state, timer)
            self.check(state, sent)
        return {}


class EpcMatch:
    """Figure 3's kernel: a linear match over a database past the EPC.

    The database size is drawn from the seed in [96, 98) MiB, just past
    the 93.4 MiB of usable EPC, so every match pages through the whole
    table.  Virtual latency depends only on that size.
    """

    name = "epc_match"

    RECORD_BYTES = 512
    POOL = 8192

    def __init__(self, seed, megabytes=None, publications=16):
        rng = random.Random(seed)
        if megabytes is None:
            megabytes = 96 + 2 * rng.random()
        self.records = int(megabytes * MIB) // self.RECORD_BYTES
        generator = ScbrWorkload(seed=seed, num_attributes=50,
                                 containment_fraction=0.0)
        self.pool = generator.subscriptions(min(self.POOL, self.records))
        self.filters = {s.subscription_id: triples(s) for s in self.pool}
        self.publications = generator.publications(publications)

    def _index(self, memory):
        index = LinearIndex(memory=memory, record_bytes=self.RECORD_BYTES)
        pool = self.pool
        for i in range(self.records):
            index.insert(pool[i % len(pool)])
        return index

    def setup(self):
        clock = CycleClock()
        memory = SimulatedMemory(
            clock, DEFAULT_COSTS, enclave=True,
            epc=EpcModel(DEFAULT_COSTS), name="scbr-enclave",
        )
        return clock, memory, self._index(memory)

    def run(self, timer, seconds):
        for _ in range(timer.min_setups):
            state = None  # drop the previous table before building anew
            state = timer.setup(self.setup)
        clock, memory, index = state
        virtual_ms = []
        faults = []
        while timer.wants_op(seconds):
            publication = self.publications[
                len(virtual_ms) % len(self.publications)
            ]
            start, paged = clock.now, memory.stats.page_faults
            timer.begin()
            matched = index.match(publication)
            timer.end(True)
            virtual_ms.append(1e3 * cycles_to_seconds(
                clock.now - start, clock.frequency_hz
            ))
            faults.append(memory.stats.page_faults - paged)
            check_match_set(matched, self.filters, publication.attributes)
        # The native baseline of Figure 3: the same table and
        # publication on untrusted memory must cost no more.
        state = clock = memory = index = None
        native_clock = CycleClock()
        native = self._index(SimulatedMemory(native_clock, DEFAULT_COSTS,
                                             name="scbr-native"))
        publication = self.publications[0]
        start = native_clock.now
        native_matched = native.match(publication)
        native_ms = 1e3 * cycles_to_seconds(native_clock.now - start,
                                            native_clock.frequency_hz)
        check_match_set(native_matched, self.filters,
                        publication.attributes)
        check_paging(virtual_ms[0], native_ms, min(faults))
        return {"virtual_ms_p50": statistics.median(virtual_ms)}


class GenPackDay:
    """24 h, 40-server container traces replayed under GenPack.

    How much work a day holds varies by a quarter from one trace to the
    next, so a round replays ``days`` distinct seeded days and a run's
    figures average over them.  Set-up builds one day from scratch: the
    seeded trace, the cluster, the monitor and the scheduler.  The
    workload model also draws the monitor's usage samples, so a fresh
    model per replay keeps every replay of one day identical.
    """

    name = "genpack_day"
    # The replay loop between scheduler callbacks is GenPack's own
    # simulation code, so an event's root span belongs to that layer.
    root_layer = "genpack"

    SERVERS = 40
    ARRIVALS_PER_HOUR = 60.0

    def __init__(self, seed, days=6, hours=24):
        self.day_seeds = [seed * 100 + day for day in range(days)]
        self.hours = hours

    def _simulation(self, day_seed, scheduler_factory):
        workload = ContainerWorkload(
            seed=day_seed, duration=self.hours * HOUR,
            arrival_rate_per_hour=self.ARRIVALS_PER_HOUR,
        )
        cluster = Cluster.homogeneous(self.SERVERS)
        monitor = ResourceMonitor(workload)
        return ClusterSimulation(
            cluster, scheduler_factory(cluster, monitor), workload,
            monitor=monitor,
        )

    def play(self, simulation, timer):
        """Replay one day; every event is one timed operation.

        The simulation advances its energy meter once at the start of
        each event and once after the last, so consecutive meter
        advances bound one event exactly.
        """
        advance = simulation.meter.advance_to

        def boundary(time):
            if timer.is_open:
                timer.end(True)
            timer.begin()
            advance(time)

        simulation.meter.advance_to = boundary
        try:
            result = simulation.run()
        finally:
            del simulation.meter.advance_to
        timer.abort()
        return result

    def run(self, timer, seconds):
        results = {}
        while timer.wants_round(seconds):
            for day_seed in self.day_seeds:
                simulation = timer.setup(
                    lambda: self._simulation(day_seed, GenPackScheduler)
                )
                outcome = self.play(simulation, timer)
                expect(
                    outcome.completed + outcome.rejected
                    == len(simulation.trace),
                    "day %d lost containers", day_seed,
                )
                previous = results.setdefault(day_seed, outcome)
                expect(previous.energy_kwh == outcome.energy_kwh,
                       "two replays of day %d used different energy",
                       day_seed)
        for day_seed, outcome in results.items():
            spread = self._simulation(
                day_seed, lambda cluster, _monitor: SpreadScheduler(cluster)
            )
            check_genpack_day(outcome, spread.run(), len(spread.trace))
        days = list(results.values())
        return {
            "energy_kwh": statistics.mean(r.energy_kwh for r in days),
            "migrations": statistics.mean(r.migrations for r in days),
        }


WORKLOADS = {
    workload.name: workload
    for workload in (DoorPublish, DoorIngest, EpcMatch, GenPackDay)
}
