"""The benchmark's clock: CPU time scaled to a reference host speed, and
wall-clock budgets for jobs.

On a shared host the same single-threaded work takes up to 1.6x as long
from one minute to the next, and the slow spells last seconds to minutes.
Samples a fraction of a second apart move together, so a Clock takes a
`sample()` every PERIOD_S, from a SIGALRM handler so that it also samples
inside long jobs, and scales the CPU time between two samples by
REFERENCE_S over the median of the samples around them: a time then reads
as CPU seconds on a host where one sample takes REFERENCE_S.  The median
over a window, not the two samples next to the work, because one sample is
itself noisy.  The sample is fixed work of the kind the program does
(dict and set lookups, sorts, small tuples) over a graph built once, and
shares no code with the program, so a change to the program cannot move
it.  It allocates only short-lived temporaries: a sample that fires at a
job's peak memory must not raise peak_rss_mb.

The timer is a wall-clock one (ITIMER_REAL): with a CPU-time timer armed,
the kernel reports this process's CPU time in whole ticks.
"""

import bisect
import signal
import statistics
import time

# the median of sample() on a 2-vCPU Intel Xeon VM under Python 3.11
REFERENCE_S = 0.02
# seconds between two samples, and samples on each side of a stretch of
# work that set its scale
PERIOD_S = 0.3
WINDOW = 5

_STATES = 6000
_EDGES = 60000


class JobBudget(BaseException):
    """Raised inside a job that ran past its wall-clock budget."""


def graph():
    """The fixed pseudo-random graph the samples walk."""
    x = 12345
    succ = {}
    for _ in range(_EDGES):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        succ.setdefault(x % _STATES, set()).add((x >> 7) % _STATES)
    return succ


def sample(succ):
    """CPU seconds of one fixed walk over graph()."""
    start = time.process_time()
    total = 0
    for state, targets in succ.items():
        order = sorted(targets)
        total += hash((state,) + tuple(order[:4])) & 1
        for target in order:
            total += len(succ.get(target, ()))
    return time.process_time() - start


class Clock:
    """CPU time of this process without its own samples, the samples taken
    from start() to stop(), and the deadline of the running job."""

    def __init__(self):
        self.spent = 0.0    # CPU seconds the samples took
        self.at = []        # clock time of each sample
        self.samples = []
        self.graph = graph()
        self.sampling = False
        self.deadline = None    # time.monotonic() after which a job stops
        self._reference = None  # (scale, reference time) at each sample

    def now(self):
        return time.process_time() - self.spent

    def _tick(self):
        start = time.process_time()
        taken = sample(self.graph)  # first: a job budget may cut it short
        self.samples.append(taken)
        self.at.append(start - self.spent)
        self.spent += time.process_time() - start
        self._reference = None

    def _alarm(self, _signum, _frame):
        if self.deadline is not None and time.monotonic() > self.deadline:
            self.deadline = None
            raise JobBudget()
        if self.sampling:
            self._tick()

    def start(self):
        self._tick()
        self.sampling = True
        signal.signal(signal.SIGALRM, self._alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        """Stop sampling; job budgets still hold."""
        self.sampling = False
        self._tick()

    def reference(self, t):
        """Clock time t as seconds at the reference host speed since the
        process started.  Work between samples k and k + 1 is scaled by
        REFERENCE_S over the median of the WINDOW samples on each side;
        work before the first sample or after the last one by the scale of
        the nearest stretch."""
        if self._reference is None:
            scales, times = [], []
            for k, at in enumerate(self.at):
                window = self.samples[max(0, k - WINDOW + 1):k + WINDOW + 1]
                scales.append(REFERENCE_S / statistics.median(window))
                times.append(at * scales[0] if k == 0 else times[-1] +
                             (at - self.at[k - 1]) * scales[k - 1])
            self._reference = scales, times
        scales, times = self._reference
        k = max(0, bisect.bisect_right(self.at, t) - 1)
        return times[k] + (t - self.at[k]) * scales[k]

    def scaled(self, t0, t1):
        """Clock seconds from t0 to t1 at the reference host speed."""
        return self.reference(t1) - self.reference(t0)
