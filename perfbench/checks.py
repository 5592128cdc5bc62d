"""Output checks computed apart from the program.

Every check compares what the program returned with a value this file
computes on its own from the benchmark's inputs (a brute-force
constraint evaluator, plain per-key sums, plain tumbling windows), or
with a property the paper's model must satisfy.  A failed check raises
:class:`CheckFailed`; the runner then reports ``"correct": false``.
"""

import math


class CheckFailed(AssertionError):
    """An output of the program disagrees with the independent value."""


def expect(condition, message, *args):
    """Raise :class:`CheckFailed` unless ``condition`` holds."""
    if not condition:
        raise CheckFailed(message % args if args else message)


# -- content-based matching -------------------------------------------

def constraint_holds(operator, bound, value):
    """One ``(operator, bound)`` predicate on a publication value.

    ``operator`` is the textual form (``==``, ``<``, ``<=``, ``>``,
    ``>=``, or ``[]`` for an inclusive ``(low, high)`` range).
    """
    if operator == "==":
        return value == bound
    if operator == "<":
        return value < bound
    if operator == "<=":
        return value <= bound
    if operator == ">":
        return value > bound
    if operator == ">=":
        return value >= bound
    if operator == "[]":
        low, high = bound
        return low <= value <= high
    raise ValueError("unknown operator %r" % (operator,))


def filter_matches(triples, attributes):
    """A conjunction of ``(attribute, operator, bound)`` triples."""
    for attribute, operator, bound in triples:
        value = attributes.get(attribute)
        if value is None or not constraint_holds(operator, bound, value):
            return False
    return True


def brute_force_match(filters, attributes):
    """Ids of every filter in ``{id: triples}`` that ``attributes`` meets."""
    return {
        filter_id for filter_id, triples in filters.items()
        if filter_matches(triples, attributes)
    }


def check_match_set(got, filters, attributes):
    """``got`` equals the brute-force scan of ``filters``."""
    expected = brute_force_match(filters, attributes)
    expect(
        set(got) == expected,
        "match set differs from the brute-force scan: %d extra, %d missing",
        len(set(got) - expected), len(expected - set(got)),
    )


def check_notifications(got, tenant_filters, attributes):
    """One notification per tenant holding a matching subscription."""
    expected = sum(
        1 for filters in tenant_filters.values()
        if any(filter_matches(t, attributes) for t in filters.values())
    )
    expect(
        got == expected,
        "publish notified %d tenants, brute force says %d", got, expected,
    )


# -- map/reduce and streams -------------------------------------------

def check_job_totals(result, records):
    """The job result equals a plain per-meter sum of ``records``.

    Records are ``b"<meter>|<watts>"``; the map/reduce engine keys its
    result by ``repr(key)``.
    """
    expected = {}
    for record in records:
        meter, watts = record.decode("ascii").split("|")
        expected[repr(meter)] = expected.get(repr(meter), 0) + int(watts)
    expect(
        dict(result) == expected,
        "job totals differ from the plain per-key sum (%d vs %d keys)",
        len(result), len(expected),
    )


def plain_windows(readings, size):
    """Tumbling windows over ``(meter, t, watts)`` readings.

    Returns ``{(window_start, meter): (count, watts_sum)}`` with the
    watts summed in time order.
    """
    windows = {}
    for meter, timestamp, watts in sorted(readings, key=lambda r: r[1]):
        start = math.floor(timestamp / size) * size
        count, total = windows.get((start, meter), (0, 0.0))
        windows[(start, meter)] = (count + 1, total + watts)
    return windows


def check_windows(frames, readings, size):
    """Every committed window equals plain windowing of the readings."""
    expected = plain_windows(readings, size)
    windows = [frame for frame in frames if frame["kind"] == "window"]
    expect(windows, "the stream plane committed no window")
    for frame in windows:
        key = (frame["window_start"], frame["key"])
        expect(key in expected, "committed window %r has no readings", key)
        count, total = expected[key]
        result = frame["result"]
        expect(
            result["n"] == count and math.isclose(
                result["w_sum"], total, rel_tol=1e-12, abs_tol=1e-9
            ),
            "window %r holds n=%r w=%r, plain windowing n=%r w=%r",
            key, result["n"], result["w_sum"], count, total,
        )


def check_stream_audit(audit):
    """The plane's conservation identity with nothing shed or late."""
    expect(
        audit["shed"] == 0 and audit["late"] == 0,
        "stream plane shed %d and dropped %d late readings",
        audit["shed"], audit["late"],
    )
    expect(
        audit["silent_loss"] == 0 and audit["backlog"] == 0,
        "stream audit does not balance: %r", audit,
    )


# -- the front door's books --------------------------------------------

def check_door_books(door, sent):
    """Audit chains and the silent-loss identity of one front door.

    ``sent`` maps each tenant to the requests the benchmark sent; the
    verified chain holds those plus the registration entry.
    """
    for tenant, count in sent.items():
        verified = door.verify_audit(tenant)
        expect(
            verified == count + 1,
            "tenant %s: %d audit entries verified, %d requests sent",
            tenant, verified, count,
        )
    totals = door.check_identity()
    offered = sum(sent.values())
    expect(
        totals["offered"] == offered and totals["completed"] == offered,
        "front door completed %d of %d offered (%d sent)",
        totals["completed"], totals["offered"], offered,
    )


# -- SGX paging and GenPack ---------------------------------------------

def check_paging(enclave_ms, native_ms, page_faults):
    """Figure 3's mechanism: enclave >= native, and every match pages."""
    expect(
        enclave_ms >= native_ms,
        "enclave match %.3f ms is cheaper than native %.3f ms",
        enclave_ms, native_ms,
    )
    expect(page_faults > 0, "a match past the usable EPC did not page")


def check_genpack_day(genpack, spread, trace_length, low=0.15, high=0.45):
    """Conservation, and GenPack's saving inside the paper's band."""
    for result in (genpack, spread):
        expect(
            result.completed + result.rejected == trace_length,
            "%s: completed %d + rejected %d != %d containers",
            result.scheduler_name, result.completed, result.rejected,
            trace_length,
        )
    saving = 1.0 - genpack.energy_kwh / spread.energy_kwh
    expect(
        low <= saving <= high,
        "GenPack saves %.1f%% against spread, outside %.0f-%.0f%%",
        100 * saving, 100 * low, 100 * high,
    )
    expect(
        genpack.completed >= spread.completed,
        "GenPack completed %d containers, spread %d",
        genpack.completed, spread.completed,
    )
