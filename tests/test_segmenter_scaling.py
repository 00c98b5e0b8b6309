"""Segmentation time grows linearly with input size on adversarial inputs.

Each family repeats one hostile shape k times.  Every one of them made an
earlier segmenter do work proportional to k for each repetition.  The test
times ``segment()`` at n and 2n repetitions, best of five, and requires the
larger input to cost at most 2.5 times the smaller one; quadratic work
costs 4 times.  Sizes keep the earlier segmenter at a few seconds or less
at n and the n-size run at about 10 ms or more, so timer noise stays small.
Two families cannot have both: ``malformed-trailer`` and
``xref-without-newline`` take 5-12 ms at n, and their ratios are the
steadiest of the six.

Times are CPU time of this process, so a busy machine that takes the CPU
away does not count.  Other load can still slow a whole measurement, so a
family gets up to three measurements and passes on the first one within
the bound.  The earlier segmenter's ratios stayed at 2.9 or more in all
three.
"""

from __future__ import annotations

import gc
import time

import pytest

from pdfprov.segmenter import segment

# The largest time ratio allowed when the input doubles.
MAX_DOUBLING_RATIO = 2.5
# Measurements per family; the first within the bound passes.
ATTEMPTS = 3


def _objects(k: int, body: bytes) -> bytes:
    return b"".join(b"%d 0 obj\n" % (i + 1) + body for i in range(k))


def _keyword_per_object(k: int) -> bytes:
    return b"".join(
        b"%d 0 obj\n<</Contents (see %s)>>\nendobj\n" % (i + 1, b"xref" if i % 2 else b"trailer")
        for i in range(k)
    )


# family -> (n, input builder for k repetitions)
FAMILIES = {
    # Each trailer looked for a startxref up to the end of the file.
    "trailer-without-startxref": (8000, lambda k: b"trailer << /Size 1 >>\n" * k),
    # Each xref-stream object did the same.
    "xref-stream-without-startxref": (
        6000, lambda k: _objects(k, b"<</Type/XRef/Size 1>>\nendobj\n")
    ),
    # Each keyword scanned byte by byte to the end of the file for a line end.
    "xref-without-newline": (4000, lambda k: b"xref " * k),
    # Each malformed trailer balanced << >> pairs up to the end of the file.
    "malformed-trailer": (1500, lambda k: b"trailer\n<< <<x\n" * k),
    # Each object looked for its endobj up to the end of the file.
    "no-endobj": (4000, lambda k: _objects(k, b"<</Type/Annot/Rect [0 0 1 1]>>\n")),
    # Each keyword was tested against every object span.
    "keyword-per-object": (3000, _keyword_per_object),
}


def _best_times(small: bytes, large: bytes, rounds: int = 5) -> tuple[float, float]:
    """Fastest ``segment()`` time of each input, the two timed in turn.

    Garbage collection is off while timing: its passes grow with the
    number of live objects and would add their own cost to the ratio.
    """
    best = [float("inf"), float("inf")]
    gc.collect()
    gc.disable()
    try:
        for _ in range(rounds):
            for k, data in enumerate((small, large)):
                start = time.process_time()
                segment(data)
                best[k] = min(best[k], time.process_time() - start)
    finally:
        gc.enable()
    return best[0], best[1]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_segment_time_is_linear(family):
    n, build = FAMILIES[family]
    inputs = (b"%PDF-1.4\n" + build(n), b"%PDF-1.4\n" + build(2 * n))
    seen = []
    for _ in range(ATTEMPTS):
        small, large = _best_times(*inputs)
        seen.append(
            f"{small * 1e3:.1f} ms at n={n}, {large * 1e3:.1f} ms at 2n (x{large / small:.2f})"
        )
        if large / small <= MAX_DOUBLING_RATIO:
            return
    pytest.fail(f"{family}: " + "; ".join(seen))
