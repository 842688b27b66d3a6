"""Exception types shared across the package.

All library-raised errors derive from GuardrailError so callers (and the
CLI) can distinguish validation failures from genuine I/O problems.
"""

from __future__ import annotations


class GuardrailError(Exception):
    """Base class for every error this library raises on bad input."""


class MalformedRecord(GuardrailError):
    """A JSON record or an embeddings line failed to parse or violates its schema.

    line_no is the 1-based line in the file, or None when the error belongs
    to a whole-file JSON document rather than to one line of it.
    """

    def __init__(self, path: str, line_no: int | None, detail: str) -> None:
        self.path = str(path)
        self.line_no = line_no
        self.detail = detail
        where = self.path if line_no is None else f"{self.path}:{line_no}"
        super().__init__(f"{where}: {detail}")


class InvalidParameter(GuardrailError, ValueError):
    """A numeric setting (k, embedding dimension, sigmoid scale, retention p) is out of range."""


class DuplicateId(GuardrailError):
    """The same record id appeared twice in one file or collection."""

    def __init__(self, record_id: str) -> None:
        self.record_id = record_id
        super().__init__(f"duplicate id: {record_id!r}")


class InvalidSpec(GuardrailError):
    """A synthetic-data spec is internally inconsistent."""


class DimensionMismatch(GuardrailError):
    """Vectors of different dimensions were combined."""


class MissingEmbedding(GuardrailError):
    """A document has no embedding in the supplied map."""

    def __init__(self, doc_id: str) -> None:
        self.doc_id = doc_id
        super().__init__(f"no embedding for doc_id {doc_id!r}")


class EmptyLog(GuardrailError):
    """An engagement log required to be nonempty was empty."""


class DegenerateDesign(GuardrailError):
    """The regression design matrix has too few rows to fit."""


class DuplicateRule(GuardrailError):
    """Two trigger rules target the same (intent, source type) slot."""


class EmptySessions(GuardrailError):
    """Evaluation was asked to aggregate zero sessions."""
