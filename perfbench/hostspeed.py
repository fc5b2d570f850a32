"""Host speed probe: timings expressed at a fixed reference speed.

The shared 2-vCPU guest this benchmark was written on runs the same code at
speeds up to 1.5x apart, in stretches of seconds to tens of seconds, on
both of its CPUs; a whole 40 s run can fall in a slow stretch.  A median
over one run then moves with the share of the run that happened to be
slow (run-to-run spread of about 20%).  To take that out, the benchmark
times a fixed reference kernel (a pure-Python loop and small numpy calls,
the same mix as the library's hot paths) between operations: at least
every PROBE_EVERY_S seconds of operation time, around every CLI call and
around every set-up.  Each stretch of work between two probes is a
segment, and its time is scaled by

    REFERENCE_PROBE_S / mean of the probes at its two ends

so that it reads as seconds on a host where the probe takes
REFERENCE_PROBE_S, about the probe's time on that guest in a fast stretch.
The probes are not part of any timed work.  run.py prints the raw times
beside the scaled ones.
"""

import time

import numpy

# one probe takes about 6-9 ms: long enough to be slowed by a contended
# stretch as the operations are (the fastest of a few 2 ms probes slipped
# through gaps in the contention and under-corrected)
PROBE_LOOP = 60000
PROBE_EIGVALS = 600
PROBE_EVERY_S = 0.25
REFERENCE_PROBE_S = 6.5e-3

_MATRIX = numpy.eye(2) + 0.5


def _reference():
    total = 0
    for i in range(PROBE_LOOP):
        total += i * i
    for _ in range(PROBE_EIGVALS):
        numpy.linalg.eigvalsh(_MATRIX)
    return total


class HostSpeed:
    """Takes the probes of one run and scales the segments between them."""

    def __init__(self):
        self.probes = []

    def probe(self):
        """Seconds the reference kernel takes now."""
        start = time.perf_counter()
        _reference()
        seconds = time.perf_counter() - start
        self.probes.append(seconds)
        return seconds

    def open_segment(self, before=None):
        before = self.probe() if before is None else before
        return {"before": before, "wall": 0.0, "cpu": 0.0, "cli": []}

    def close_segment(self, segment):
        """Probe again, set the segment's end, and return the next one."""
        segment["after"] = self.probe()
        return self.open_segment(segment["after"])

    def scaled(self, segment, seconds):
        """`seconds` measured within `segment`, at the reference speed."""
        here = (segment["before"] + segment["after"]) / 2
        return seconds * REFERENCE_PROBE_S / here
