"""Exception types shared across the package.

Parsing is deliberately tolerant: most structural oddities are recorded as
diagnostics on the parsed result instead of raised.  Only conditions that
make an operation meaningless (not a PDF at all, unusable rule file, empty
mining corpus) surface as exceptions.
"""

from __future__ import annotations


class PdfProvError(Exception):
    """Base class for all errors raised by pdfprov."""


class NotAPdf(PdfProvError):
    """The input bytes carry no %PDF magic within the scan window."""


class RuleParseError(PdfProvError):
    """A rule file is structurally invalid."""

    def __init__(self, line: int, reason: str) -> None:
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class PatternCompileError(PdfProvError):
    """A rule pattern does not compile under the byte-regex dialect."""

    def __init__(self, rule_id: str, reason: str) -> None:
        super().__init__(f"rule {rule_id!r}: {reason}")
        self.rule_id = rule_id
        self.reason = reason


class EmptyGroup(PdfProvError):
    """A mining corpus holds no files."""


class SectionAbsentEverywhere(PdfProvError):
    """No file in a mining group contains the requested section."""
