"""The benchmark's own tests: smoke runs, the trace, and the checks.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import pytest  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from timing import Timer  # noqa: E402
from workloads import (  # noqa: E402
    TENANTS,
    DoorIngest,
    DoorPublish,
    EpcMatch,
    GenPackDay,
)

from repro.genpack.simulation import SimulationResult  # noqa: E402
from repro.sgx.costs import DEFAULT_COSTS, MIB  # noqa: E402

# A scaled-down memory hierarchy for a fast epc_match: 4 MiB of EPC
# (2.9 MiB usable) and a 256 KiB LLC, with a 3.5 MiB table past it.
SMALL_EPC = dict(llc_capacity=256 * 1024, epc_capacity=4 * MIB)


def small(name, monkeypatch=None):
    if name == "epc_match":
        monkeypatch.setattr(workloads, "DEFAULT_COSTS",
                            DEFAULT_COSTS.scaled(**SMALL_EPC))
    return {
        "door_publish": lambda: DoorPublish(3, subscriptions=15,
                                            publishes=24),
        "door_ingest": lambda: DoorIngest(3, cycles=3, records=40),
        "epc_match": lambda: EpcMatch(3, megabytes=3.5, publications=3),
        "genpack_day": lambda: GenPackDay(3, days=2),
    }[name]()


@pytest.mark.parametrize(
    "name", ["door_publish", "door_ingest", "epc_match", "genpack_day"]
)
def test_smoke_run(name, monkeypatch):
    workload = small(name, monkeypatch)
    timer = Timer(min_setups=2)
    figures = workload.run(timer, 0)
    summary = timer.summary()
    assert timer.failed == 0 and timer.attempted > 1
    assert len(timer.setup_s) >= 1
    assert all(value > 0 for value in summary.values() if value)
    assert summary["op_ms_p50"] > 0
    if name == "epc_match":
        assert figures["virtual_ms_p50"] > 0
    if name == "genpack_day":
        assert figures["energy_kwh"] > 0


def test_traced_spans_nest_under_timed_roots():
    workload = small("door_ingest")
    tracer = spans.Tracer()
    timer = Timer(warmup=0, tracer=tracer)
    with spans.installed(tracer):
        workload.run(timer, 0)
    tracer.check_nesting()
    roots = [s for s in tracer.spans if s.parent is None]
    assert len(roots) == timer.attempted == len(timer.op_s)
    assert sorted(r.end - r.start for r in roots) == sorted(timer.op_s)
    layers = {s.layer for s in tracer.spans}
    assert {"service", "crypto", "bigdata", "streams"} <= layers
    metrics = spans.per_layer(tracer, timer, timer, {})
    assert set(metrics) == set(spans.PER_LAYER_UNITS)
    assert metrics["bigdata.map_tasks_per_job"] == 2
    assert metrics["streams.windows_per_round"] > 0


# -- each check fails when fed a wrong expected value ---------------------

FILTERS = {
    "a": {"a-1": [("x", ">", 5)], "a-2": [("y", "[]", (1, 2))]},
    "b": {"b-1": [("x", "<=", 5)]},
}


def test_notification_check():
    checks.check_notifications(1, FILTERS, {"x": 7})
    with pytest.raises(CheckFailed):
        checks.check_notifications(2, FILTERS, {"x": 7})


def test_match_set_check():
    flat = {**FILTERS["a"], **FILTERS["b"]}
    checks.check_match_set({"a-1"}, flat, {"x": 7, "y": 3})
    with pytest.raises(CheckFailed):
        checks.check_match_set({"a-1", "a-2"}, flat, {"x": 7, "y": 3})


def test_job_totals_check():
    records = [b"m1|5", b"m2|7", b"m1|1"]
    checks.check_job_totals({"'m1'": 6, "'m2'": 7}, records)
    with pytest.raises(CheckFailed):
        checks.check_job_totals({"'m1'": 6, "'m2'": 8}, records)


def test_window_check():
    readings = [("m", 0.0, 1.5), ("m", 30.0, 2.5), ("m", 60.0, 4.0)]
    frame = {"kind": "window", "window_start": 0.0, "key": "m",
             "result": {"n": 2, "w_sum": 4.0}}
    checks.check_windows([frame], readings, 60.0)
    wrong = dict(frame, result={"n": 2, "w_sum": 5.5})
    with pytest.raises(CheckFailed):
        checks.check_windows([wrong], readings, 60.0)


def test_stream_audit_check():
    audit = {"shed": 0, "late": 0, "silent_loss": 0, "backlog": 0}
    checks.check_stream_audit(audit)
    with pytest.raises(CheckFailed):
        checks.check_stream_audit(dict(audit, late=1))


def test_door_books_check():
    workload = small("door_publish")
    _env, door = workload.setup()
    sent = {t: len(workload.filters[t]) for t in TENANTS}
    checks.check_door_books(door, sent)
    with pytest.raises(CheckFailed):
        checks.check_door_books(door, dict(sent, t0=sent["t0"] + 1))


def test_paging_check():
    checks.check_paging(480.0, 26.0, 24576)
    with pytest.raises(CheckFailed):
        checks.check_paging(20.0, 26.0, 24576)
    with pytest.raises(CheckFailed):
        checks.check_paging(480.0, 26.0, 0)


def _day(name, energy, completed, rejected):
    return SimulationResult(
        scheduler_name=name, energy_kwh=energy, average_servers_on=1.0,
        migrations=0, rejected=rejected, completed=completed,
        duration=1.0,
    )


def test_genpack_day_check():
    genpack = _day("genpack", 93.5, 100, 0)
    spread = _day("spread", 130.0, 90, 10)
    checks.check_genpack_day(genpack, spread, 100)
    with pytest.raises(CheckFailed):
        checks.check_genpack_day(genpack, spread, 101)
    with pytest.raises(CheckFailed):
        checks.check_genpack_day(_day("genpack", 125.0, 100, 0), spread,
                                 100)
    with pytest.raises(CheckFailed):
        checks.check_genpack_day(_day("genpack", 93.5, 80, 20), spread,
                                 100)
