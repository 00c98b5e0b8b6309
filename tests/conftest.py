"""Shared byte fixtures: published producer-style samples and the corpus."""

from __future__ import annotations

import gc
import math
import time
from collections.abc import Callable

import pytest

from pdfprov.builtin_pack import builtin
from pdfprov.fixtures import PROFILES, generate
from pdfprov.producers import Producer

# A pdfTeX-style stream object: length padded with spaces, tight /Filter.
PDFTEX_STREAM_OBJECT = (
    b"4 0 obj\n<</Length 2413      /Filter/FlateDecode>>\nstream\n"
    b".....\nendstream\nendobj\n"
)

# The same object as LuaTeX writes it: keys on their own lines.
LUATEX_STREAM_OBJECT = (
    b"4 0 obj\n<<\n/Length 2006      \n/Filter /FlateDecode\n>>\nstream\n"
    b".....\nendstream\nendobj\n"
)

# A Word-style stream object (reversed key order, CRLF line ends).
WORD_STREAM_OBJECT = (
    b"4 0 obj\r\n<</Filter/FlateDecode/Length 2413>>\r\nstream\r\n"
    b".....\r\nendstream\r\nendobj\r\n"
)

# A classic cross-reference table as Word emits it.
WORD_XREF_TABLE = (
    b"xref\n0 5\n"
    b"0000000010 65535 f \n"
    b"0000000017 00000 n \n"
    b"0000000166 00000 n \n"
    b"0000000222 00000 n \n"
    b"0000000486 00000 n \n"
)

# A LibreOffice trailer, /DocChecksum value being a hex name token.
LIBREOFFICE_TRAILER = (
    b"trailer\n<</Size 14/Root 12 0 R\n/Info 13 0 R\n"
    b"/ID [ <438A4EF8B552AF586C55DFFE40065998>\n"
    b"<438A4EF8B552AF586C55DFFE40065998> ]\n"
    b"/DocChecksum /7C2B6DC7F4AF6CC658C0703D8002E3D4\n>>\n"
)

_WORD_ID = b"70265267FB5C68469F73B4AB7F5E4003"

# Word's double-trailer tail: plain trailer, then an empty xref section
# and a second trailer carrying /Prev and /XRefStm.
WORD_DOUBLE_TRAILER = (
    b"trailer\r\n<</Size 25/Root 1 0 R/Info 9 0 R/ID[<" + _WORD_ID + b"><"
    + _WORD_ID + b">] >>\r\nstartxref\r\n46566\r\nxref\r\n0 0\r\n"
    b"trailer\r\n<</Size 25/Root 1 0 R/Info 9 0 R/ID[<" + _WORD_ID + b"><"
    + _WORD_ID + b">] /Prev 46566/XRefStm 46274>>\r\n"
)

TABLE_RULE_WORD_BODY = (
    'rule word-body-1 {\n'
    '  producer = MicrosoftOfficeWord\n'
    '  section  = body\n'
    '  pattern  = "4 0 obj\\r\\n<</Filter/FlateDecode/Length [0-9]*>>\\r\\nstream\\r\\n"\n'
    '}\n'
)


def header_bytes(magic: bytes, version: bytes = b"1.4", eol: bytes = b"\n") -> bytes:
    return b"%PDF-" + version + eol + b"%" + magic + eol


@pytest.fixture(scope="session")
def pack():
    return builtin()


@pytest.fixture(scope="session")
def corpus_bytes() -> dict[Producer, list[bytes]]:
    """Eleven profiles x seeds 1..10, generated once per session."""
    return {
        producer: [generate(profile, seed) for seed in range(1, 11)]
        for producer, profile in PROFILES.items()
    }


# -- scaling tests ---------------------------------------------------------------

# The largest CPU-time ratio allowed when the input doubles; quadratic work
# costs 4 times.
MAX_DOUBLING_RATIO = 2.5
# Measurements per scaling test; the first within the bound passes.
SCALING_ATTEMPTS = 3
# Each input's best time of this many rounds makes one measurement.
SCALING_ROUNDS = 5
# The least CPU time of one timing of the smaller input, in seconds.
MIN_TIMING_S = 0.01


def _cpu_time(run: Callable[[object], object], data: object, repeats: int) -> float:
    start = time.process_time()
    for _ in range(repeats):
        run(data)
    return time.process_time() - start


def assert_linear_time(label: str, run: Callable[[object], object], small: object,
                       large: object, bound: float = MAX_DOUBLING_RATIO) -> None:
    """Fail unless ``run(large)``, on an input twice the size of ``small``,
    costs at most ``bound`` times ``run(small)``.

    Each input is timed over as many calls as bring the ``small`` timing
    to about ``MIN_TIMING_S``, so timer noise stays small; a run that
    already takes that long is called once.  A measurement takes each
    input's best of ``SCALING_ROUNDS``, the two timed in turn.  Times are CPU
    time of this process, so a busy machine that takes the CPU away does
    not count, and garbage collection is off: its passes grow with the
    number of live objects and would add their own cost to the ratio.
    Other load can still slow a whole measurement, so the test gets up to
    ``SCALING_ATTEMPTS`` measurements and passes on the first one within
    the bound.
    """
    repeats = max(1, math.ceil(MIN_TIMING_S / max(_cpu_time(run, small, 1), 1e-6)))
    seen = []
    for _ in range(SCALING_ATTEMPTS):
        best = [math.inf, math.inf]
        gc.collect()
        gc.disable()
        try:
            for _ in range(SCALING_ROUNDS):
                for k, data in enumerate((small, large)):
                    best[k] = min(best[k], _cpu_time(run, data, repeats))
        finally:
            gc.enable()
        seen.append(f"{best[0] * 1e3:.1f} ms at n, {best[1] * 1e3:.1f} ms at 2n "
                    f"(x{best[1] / best[0]:.2f}; {repeats} call(s) per input)")
        if best[1] / best[0] <= bound:
            return
    pytest.fail(f"{label}: " + "; ".join(seen))
