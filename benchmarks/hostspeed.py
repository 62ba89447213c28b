"""Host-speed probe for the benchmark's timings.

On a shared host the speed of the same code swings by up to 1.5x over tens
of seconds with the neighbours' load.  While a ``Probe`` runs, an interval
timer interrupts the process every ``INTERVAL_S`` seconds and the signal
handler times a fixed pure-Python loop that does not touch the program.
The handler runs between bytecodes of whatever is running, so the probe
samples the host's speed inside the program's calls, not only between
them.  The time the handler takes is counted in ``spent`` so that callers
can leave it out of what they measure.

``REF_S`` is a nominal probe time, close to the probe's median on the
reference machine: ``seconds * REF_S / median`` reads as seconds on a
host where the probe takes ``REF_S``.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.05
LOOPS = 10_000
REF_S = 0.001


def _loop() -> int:
    total = 0
    for i in range(LOOPS):
        total += i * i % 7
    return total


class Probe:
    def __init__(self):
        self.samples: list = []
        self.spent = 0.0

    def _handler(self, signum, frame) -> None:
        start = time.perf_counter()
        _loop()
        end = time.perf_counter()
        self.samples.append(end - start)
        # Bookkeeping after the sample counts too.
        self.spent += time.perf_counter() - start

    def resume(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def pause(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        self.resume()
        return self

    def __exit__(self, *exc) -> None:
        self.pause()
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, seconds: float) -> float:
        """``seconds`` at the nominal host speed; unscaled if no probe ran."""
        if not self.samples:
            return seconds
        return seconds * REF_S / statistics.median(self.samples)
