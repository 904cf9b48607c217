"""Machine-speed probe: time one fixed pure-Python kernel every 20 ms.

Usage: probe.py CPU SAMPLES_PATH.  The probe pins itself to CPU and samples
until SIGTERM; then it writes its ``[start, seconds]`` samples to
SAMPLES_PATH as JSON.  The benchmark runs one probe on every CPU.  A sample
that takes longer than usual shows that the CPU was running slower at that
moment (on a shared host, another guest held the core), so the run can
scale its timings to a fixed reference speed.  It costs the CPU about 1%.
"""

import json
import os
import signal
import sys
import time
from dataclasses import dataclass

PERIOD_S = 0.02


@dataclass(frozen=True)
class _Word:
    letters: tuple


def kernel() -> int:
    """Free reduction into small frozen objects kept in a dict.

    The mix of work resembles vclab's word arithmetic, so a busy host slows
    the kernel about as much as it slows the workloads; it shares no code
    with vclab, so a change to the program cannot move it.
    """
    seen = {}
    word: tuple = ()
    for i in range(60):
        out = list(word)
        for x in (1, 2, -1, (i % 4) - 2 or 2):
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
        word = tuple(out[-12:])
        seen[_Word(word)] = sum(abs(x) for x in word)
    return len(seen)


def main(argv) -> int:
    cpu, path = int(argv[0]), argv[1]
    os.sched_setaffinity(0, {cpu})
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    samples = []
    while not stop:
        start = time.monotonic()
        kernel()
        samples.append((start, time.monotonic() - start))
        time.sleep(PERIOD_S)
    with open(path, "w") as fh:
        json.dump(samples, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
