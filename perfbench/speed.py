"""How fast the CPU under a running command is, sampled while it runs.

A shared host's CPUs change speed by up to 2x over seconds to minutes,
and one CPU can slow while the other does not, so a loop timed before or
after a command says little about the command's own time.  A
:class:`SpeedProbe` samples while the command runs: every
:data:`INTERVAL` seconds it finds a CPU one of the command's threads is
running on (``/proc/PID/task/*/stat``), moves its own thread onto that
CPU, and times a fixed pure-Python loop by thread CPU time.  Thread CPU
time excludes the slices the command takes from the probe, so the loop's
ops/s measures the CPU, not the scheduler.  Each burst takes about 5 ms
of that CPU, under 3% of it.

Where ``/proc`` or CPU affinity is missing, the loop runs wherever the
scheduler puts it.
"""

from __future__ import annotations

import glob
import os
import threading
import time

#: Seconds between samples.
INTERVAL = 0.2

#: Iterations of the timed loop in one sample.
LOOPS = 100_000


def loop_rate(loops: int = LOOPS) -> float:
    """Ops/s of a fixed pure-Python loop, by thread CPU time."""
    start = time.thread_time()
    total = 0
    for value in range(loops):
        total += value & 7
    return loops / max(time.thread_time() - start, 1e-9)


def running_cpus(pid: int) -> list:
    """CPUs on which a thread of process ``pid`` is running now."""
    cpus = []
    for path in glob.glob(f"/proc/{pid}/task/*/stat"):
        try:
            with open(path) as handle:
                # Fields after the parenthesised command name: state is
                # the first, the last CPU run on the 37th.
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if fields[0] == "R":
            cpus.append(int(fields[36]))
    return cpus


class SpeedProbe:
    """Samples the speed of the CPU under process ``pid`` until stopped.

    Use as a context manager around the wait for the process; ``rates``
    then holds one ops/s per sample.
    """

    def __init__(self, pid: int):
        self.pid = pid
        self.rates = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        return False

    def _sample(self) -> None:
        pinnable = hasattr(os, "sched_setaffinity")
        while not self._stop.wait(INTERVAL):
            cpus = running_cpus(self.pid)
            if not cpus:
                continue
            if pinnable:
                try:
                    # pid 0 is this thread alone; the others keep theirs.
                    os.sched_setaffinity(0, {cpus[0]})
                except OSError:
                    pinnable = False
            self.rates.append(loop_rate())
