"""Host-speed calibration: a fixed piece of stdlib-only work, timed.

On a shared host the benchmark's CPUs run beside other tenants' work,
which slowed every CPU-bound step of a run by up to half, and in
stretches of tens of seconds, on the 2-CPU host the benchmark was
built on; a run's median cannot average such a stretch away.  So the
server process times :func:`spin` at every phase boundary, and the
end-to-end timings are scaled to :data:`REFERENCE_SPIN_S` by the spins
around their phase (see :mod:`perfbench.metrics`): they read as if the
host ran at the speed where ``spin()`` takes that long.

:func:`spin` never calls the program under test, and runs with the
garbage collector off, so a change to the program (or to the size of
its heap) cannot move it.  The unscaled timings and the spins are
printed on every run.
"""

from __future__ import annotations

import gc
import socket
import statistics
import time
import xml.etree.ElementTree as ET

#: ``spin()`` on a quiet core of the 2-CPU Xeon host (Python 3.11) the
#: benchmark was built on; the timings are scaled to this speed.
REFERENCE_SPIN_S = 0.0006

_DOCUMENT = "<Request>" + "".join(
    f'<Attribute id="attr{i}" type="string"><Value>value {i}</Value></Attribute>'
    for i in range(40)
) + "</Request>"
_FRAME = _DOCUMENT[:200].encode()


def _work(pipe: socket.socket) -> int:
    """Work like the server's: XML parsing, dict and string handling,
    calls, and small socket writes and reads (system calls)."""
    total = 0
    for _ in range(6):
        root = ET.fromstring(_DOCUMENT)
        seen = {}
        for element in root.iter("Attribute"):
            key = element.get("id", "")
            seen[key] = element.findtext("Value", "").upper()
            total += len(seen[key]) + hash(key) % 7
        total += len(sorted(seen.items()))
        for _ in range(8):
            pipe.send(_FRAME)
            total += len(pipe.recv(4096))
    return total


def spin(repeats: int = 9) -> float:
    """Seconds the fixed work takes: the median of *repeats* tries."""
    # A datagram socket connected to itself: each send is read back
    # by the next recv, without waking another thread.
    pipe = socket.socket(socket.AF_UNIX, socket.SOCK_DGRAM)
    enabled = gc.isenabled()
    gc.disable()
    try:
        pipe.bind("")
        pipe.connect(pipe.getsockname())
        times = []
        for _ in range(repeats):
            started = time.perf_counter()
            _work(pipe)
            times.append(time.perf_counter() - started)
    finally:
        if enabled:
            gc.enable()
        pipe.close()
    return statistics.median(times)


def scaled(seconds: float, spin_s: float) -> float:
    """*seconds* measured while ``spin()`` took *spin_s*, at the
    reference speed."""
    return seconds * REFERENCE_SPIN_S / spin_s
