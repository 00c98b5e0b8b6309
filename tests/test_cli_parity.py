"""CLI output pinned by one digest over every command and format.

The corpus is the fixture corpus of seeds 1-3 (``emit_corpus``) plus one
file, ``junk.pdf``, that is not a PDF.  Every run calls ``cli.main`` in
this process, from the corpus directory and with relative paths, so no
temporary path reaches the output.  The digest is the sha256 of
``repr((argv, exit code, stdout))`` over all runs, in order.  A refactor
meant to keep ``scan``, ``batch``, ``audit`` and ``mine`` output shows that
it did here; a change meant to alter it updates the digest and says why.

Run this file as a script (``PYTHONPATH=src:tests python
tests/test_cli_parity.py``) to print the current digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

from pdfprov.cli import main
from pdfprov.fixtures import emit_corpus

# sha256 of the runs of cli_runs() over the corpus of write_corpus().
DIGEST = "52143ad8fb5993ca814d38ad971324d9a9463ae90e00469d8c2e9084751c11ef"

MANIFEST = "manifest.tsv"


def write_corpus(directory: Path) -> list[str]:
    """Write the corpus; return its PDF paths, relative and sorted."""
    emit_corpus(directory, seeds=range(1, 4))
    (directory / "junk.pdf").write_bytes(b"this is not a PDF file\n")
    return sorted(str(p.relative_to(directory)) for p in directory.rglob("*.pdf"))


def cli_runs(paths: list[str]) -> list[list[str]]:
    runs: list[list[str]] = []
    for path in paths:
        runs.append(["scan", path, "--format", "json"])
        runs.append(["scan", path, "--format", "table"])
        runs.append(["scan", path, "--sections", "header,trailer"])
    for fmt in ("csv", "json", "table"):
        runs.append(["batch", MANIFEST, "--format", fmt])
    runs.append(["batch", ".", "--truth", "metadata", "--format", "csv"])
    runs.append(["batch", MANIFEST, "--sections", "body,xref", "--format", "csv"])
    runs.append(["batch", MANIFEST, "--sections", "body", "--format", "csv"])
    runs.append(["audit", ".", "--format", "json"])
    runs.append(["audit", ".", "--format", "table"])
    runs.append(["mine", MANIFEST])
    return runs


def cli_digest(directory: Path) -> str:
    """Write the corpus into ``directory`` and digest every run over it."""
    paths = write_corpus(directory)
    digest = hashlib.sha256()
    with contextlib.chdir(directory):
        for argv in cli_runs(paths):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            digest.update(repr((argv, code, out.getvalue())).encode("utf-8") + b"\n")
    return digest.hexdigest()


def test_cli_output_matches_its_digest(tmp_path):
    assert cli_digest(tmp_path) == DIGEST


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print(cli_digest(Path(tmp)))
