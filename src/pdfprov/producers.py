"""The PDF producer tools this package can name, and the manifest that
labels files with them.

Producers are referenced by canonical string names throughout.  The eleven
members of :class:`Producer` form the closed set that builtin signatures
and the metadata normalizer know about; rule files may bind patterns to
other names, which are carried through verbatim as plain strings.

A manifest's tab-separated columns are ``path, producer, os, distro``.
``batch`` and ``mine`` both read it with :func:`read_manifest`, kept here
because every command loads this module and ``pdfprov.cli`` may load
neither the miner nor the fixture writer.
"""

from __future__ import annotations

from collections.abc import Iterator
from enum import Enum
from pathlib import Path


class Producer(str, Enum):
    """Canonical producer-tool identities."""

    ACROBAT_DISTILLER = "AcrobatDistiller"
    MICROSOFT_OFFICE_WORD = "MicrosoftOfficeWord"
    LIBREOFFICE = "LibreOffice"
    GHOSTSCRIPT = "Ghostscript"
    MACOS_QUARTZ = "MacOSXQuartz"
    PDFTEX = "PdfTeX"
    SKIA_PDF = "SkiaPDF"
    CAIRO = "Cairo"
    XDVIPDFMX = "XdviPDFmx"
    LUATEX = "LuaTeX"
    PDFLATEX = "PDFLaTeX"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class OpSys(str, Enum):
    """Operating systems a signature can be specific to."""

    WINDOWS = "windows"
    LINUX = "linux"
    MACOS = "macos"


class Distro(str, Enum):
    """TeX distributions a signature can be specific to."""

    TEXLIVE = "texlive"
    MIKTEX = "miktex"


def read_manifest(path: Path) -> Iterator[tuple[int, list[str]]]:
    """Each row's line number and tab-separated columns, the line stripped;
    blank lines and ``#`` comments are skipped.

    A row whose path column is blank is a ``ValueError``, checked before the
    strip, which would shift the next column into the path.
    """
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        first_col = line.partition("\t")[0]
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if not first_col.strip():
            raise ValueError(f"{path}:{lineno}: empty path")
        yield lineno, line.split("\t")


def manifest_line(path: str, producer: str, os: str = "", distro: str = "") -> str:
    """One manifest row, its columns in the order :func:`read_manifest` reads."""
    return "\t".join([path, producer, os, distro])
