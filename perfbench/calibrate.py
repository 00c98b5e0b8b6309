"""How fast the host runs Python right now, from a fixed stdlib workload.

On a shared host the CPU speed available to one process changes by up to
~50% between runs a few minutes apart, and stays changed for the length of
a run, so no statistic taken inside one run removes it.  The benchmark
therefore times this reference workload between the steps of every run
and reports end-to-end times scaled to a host on which the reference takes
``NOMINAL_S``: ``reported = measured * NOMINAL_S / reference``.  The
reference never calls pdfprov, so it cancels the host's speed, not the
program's.  It mixes what pdfprov spends its time on: a Python loop, a
byte-regex match, building and serializing small dicts, and the two scans
that dominate segmentation of large files: ``bytes.find`` and a keyword
regex run over 64 KB that holds neither.
"""

from __future__ import annotations

import json
import re
from time import perf_counter

# The reference's median time on the 2-CPU VM the bounds were set on.
NOMINAL_S = 0.007

_DATA = b"".join(b"%d 0 obj\n<</Length %d>>\nstream\n" % (i, i * 7) for i in range(1000))
_PATTERN = re.compile(rb"(\d+) 0 obj\s*<</Length (\d+)>>")
_BYTES = bytes(range(256)) * 256
_KEYWORD = re.compile(rb"(?<![A-Za-z])xref(?![A-Za-z])")


def reference_s() -> float:
    """Seconds one run of the reference workload takes now."""
    start = perf_counter()
    total = 0
    for i in range(50000):
        total += i * i
    records = [{"num": int(m.group(1)), "length": int(m.group(2))}
               for m in _PATTERN.finditer(_DATA)]
    json.dumps(records)
    for _ in range(40):
        _BYTES.find(b"endobj")
    _KEYWORD.search(_BYTES)
    return perf_counter() - start
