"""Host-time bookkeeping for one benchmark run."""

import gc
import resource
import statistics
import time


class Timer:
    """Times set-ups and operations on the host clock.

    ``begin``/``end`` bracket one operation.  The first ``warmup``
    operations of a run are attempted and checked like the others but
    leave no timing sample.  A tracer, when attached, opens each
    operation's root span on the same clock readings, so a root span's
    duration is exactly the operation's measured host time.
    """

    def __init__(self, warmup=1, min_setups=1, tracer=None):
        self.warmup = warmup
        self.min_setups = min_setups
        self.tracer = tracer
        self.setup_s = []
        self.op_s = []
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self._started = time.perf_counter()
        self._op_start = None

    def setup(self, build):
        """Build a fresh program state; its host time is one set-up."""
        gc.collect()
        start = time.perf_counter()
        state = build()
        self.setup_s.append(time.perf_counter() - start)
        gc.collect()
        return state

    def elapsed(self):
        return time.perf_counter() - self._started

    def wants_round(self, seconds):
        """Whether to play another whole round.

        Rounds go on until ``seconds`` have passed and the run has set
        up at least ``min_setups`` times.
        """
        if (self.rounds and len(self.setup_s) >= self.min_setups
                and self.elapsed() >= seconds):
            return False
        self.rounds += 1
        return True

    def wants_op(self, seconds):
        """Whether to run another operation: every warm-up one, then
        more until ``seconds`` have passed."""
        return self.attempted <= self.warmup or self.elapsed() < seconds

    @property
    def is_open(self):
        return self._op_start is not None

    def begin(self):
        self.attempted += 1
        self._op_start = time.perf_counter()
        if self.tracer is not None:
            self.tracer.open_root(self._op_start)

    def end(self, ok):
        now = time.perf_counter()
        if self.tracer is not None:
            self.tracer.close_root(now)
        if not ok:
            self.failed += 1
        elif self.attempted > self.warmup:
            self.op_s.append(now - self._op_start)
        self._op_start = None

    def abort(self):
        """Discard an operation begun by a boundary that ended the run."""
        if self.tracer is not None:
            self.tracer.discard_root()
        self.attempted -= 1
        self._op_start = None

    def summary(self):
        """The end-to-end host metrics of this run."""
        ops = sorted(self.op_s)
        return {
            "setup_s": statistics.median(self.setup_s),
            "op_ms_p50": 1e3 * statistics.median(ops),
            "op_ms_p90": (
                1e3 * statistics.quantiles(ops, n=10)[8]
                if len(ops) >= 100 else 0.0
            ),
            "peak_rss_mb": peak_rss_mb(),
        }


def peak_rss_mb():
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
