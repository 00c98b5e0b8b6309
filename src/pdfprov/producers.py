"""Identities of the PDF producer tools this package can name.

Producers are referenced by canonical string names throughout.  The eleven
members of :class:`Producer` form the closed set that builtin signatures
and the metadata normalizer know about; rule files may bind patterns to
other names, which are carried through verbatim as plain strings.
"""

from __future__ import annotations

from enum import Enum


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

