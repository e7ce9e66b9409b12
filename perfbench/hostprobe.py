"""Host-speed probe, run in a process of its own.

The host's speed drifts in multi-second phases, so the benchmark times
a fixed loop between requests and scales its timings by the loop's
median (see README.md).  The loop runs in a separate process that never
imports ``repro`` and is pinned to one BLAS/OpenMP thread, so nothing
the program does to its own state -- thread limits, pools, caches,
modules -- changes the loop's cost; only the host does.  The loop uses
no BLAS call at all: a pure-Python part and a NumPy element-wise part.

Usage from another process::

    probe = HostProbe()      # starts the server; returns once it is ready
    seconds = probe.take(3)  # three timings, one after the other
    probe.close()            # ends the server and waits for it

Running this file starts the server; it reads a count per line on
standard input and answers with one JSON list of timings per line.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

#: Median of one :func:`probe_once` on the 2-CPU reference host of
#: README.md; a host-speed factor is a probe median over this.
NOMINAL_S = 0.0029

_SINGLE_THREAD = {
    name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
}


def probe_once(vector) -> float:
    """Seconds for the fixed loop: Python arithmetic plus element-wise NumPy."""
    start = time.perf_counter()
    acc = 0.0
    for _ in range(4):
        acc += sum(i * i for i in range(8_000))
        acc += float(((vector * 1.0001 + 0.5) * vector).sum())
    return time.perf_counter() - start


class HostProbe:
    """Client of a probe server process."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env={**os.environ, **_SINGLE_THREAD},
            text=True,
        )
        if self._proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("host probe process failed to start")

    @property
    def pid(self) -> int:
        return self._proc.pid

    def take(self, count: int) -> list[float]:
        """*count* probe timings, taken back to back in the server."""
        self._proc.stdin.write(f"{count}\n")
        self._proc.stdin.flush()
        return json.loads(self._proc.stdout.readline())

    def close(self) -> None:
        if self._proc.stdin and not self._proc.stdin.closed:
            self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> "HostProbe":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _serve() -> None:
    import numpy as np

    vector = np.linspace(0.0, 1.0, 60_000)
    probe_once(vector)  # first touch of the pages, not a measurement
    print("ready", flush=True)
    for line in sys.stdin:
        timings = [probe_once(vector) for _ in range(int(line))]
        print(json.dumps(timings), flush=True)


if __name__ == "__main__":
    _serve()
