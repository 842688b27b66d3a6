"""The three exception types the package raises on bad input; the CLI exits 1 on each.

- MalformedRecord: anything read from a file; it names the file and, when
  one line is at fault, the line.
- InvalidParameter: a setting or argument out of range (k, a dimension, a
  query vector's size, p, a sigmoid scale, a synthetic-data spec).
- GuardrailError: the base of both, raised as itself when in-memory data
  breaks a rule (a repeated doc_id, a doc with no vector, an empty log).
"""

from __future__ import annotations


class GuardrailError(Exception):
    """Base class for every error this library raises on bad input."""


class MalformedRecord(GuardrailError):
    """A JSON record or an embeddings line failed to parse or violates its schema.

    line_no is the 1-based line in the file, or None when the error belongs
    to the whole file: a whole-file JSON document, or an id repeated across
    lines.
    """

    def __init__(self, path: str, line_no: int | None, detail: str) -> None:
        self.path = str(path)
        self.line_no = line_no
        self.detail = detail
        where = self.path if line_no is None else f"{self.path}:{line_no}"
        super().__init__(f"{where}: {detail}")


class InvalidParameter(GuardrailError, ValueError):
    """A setting or argument is out of range."""
