"""Deterministic trigram-hash embeddings standing in for a trained two-tower model.

Each character trigram of the lowercased text is hashed (64-bit FNV-1a) into
one of d buckets; bucket weights are accumulated and the vector is
L2-normalized. The two tower sides share the bucket hash, so overlapping
trigrams land in the same dimensions and text overlap drives cosine
similarity, but each side perturbs the per-trigram weight with its own salt,
so the towers are distinct functions. Empty or all-whitespace text maps to
the basis vector e_0.

A trigram's bucket and per-side weight depend only on the trigram, the side
and d, so embed_corpus hashes each distinct trigram once and memoizes the
pair in a dict that lives for that one call (always DocTower, one d);
embed_text starts from an empty dict. A vector depends only on the
lowercased text, so embed_corpus also memoizes vectors per distinct text
within the call and embeds each text once; a repeated text gets a copy of
the first doc's vector, so no two doc_ids share an array. Nothing is cached
across calls, so there is no bound to choose and no state shared between
callers. The bits are those of hashing every occurrence: the weights are
the same doubles, and they are added into per-bucket Python floats from 0.0
in text order, the same IEEE additions as accumulating into a float64 array
element by element.

No training happens here; real deployments would swap in model-produced
vectors via load_embeddings.
"""

from __future__ import annotations

from enum import Enum
from pathlib import Path

import numpy as np

from .errors import InvalidParameter
from .jsonl import read_lines

DEFAULT_DIM = 64
# The smallest dimension either tower embeds into; search checks embeddings.tsv against it.
MIN_DIM = 8

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1

# Per-side weight salts. The bucket hash is unsalted so both towers agree on
# where a trigram lands; salts only modulate how much it contributes.
_SIDE_SALT = {"QueryTower": b"q-tower:1|", "DocTower": b"d-tower:1|"}
_WEIGHT_SPREAD = 0.25


class Side(str, Enum):
    QUERY = "QueryTower"
    DOC = "DocTower"


def _fnv1a(data: bytes, h: int = _FNV_OFFSET) -> int:
    """FNV-1a of data, continuing from state h (the offset basis by default)."""
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


# FNV-1a hashes byte by byte, so each side's state after its salt prefix is
# computed once and every trigram's salted hash continues from it.
_SALTED_STATE = {side: _fnv1a(salt) for side, salt in _SIDE_SALT.items()}


def _basis_vector(d: int) -> np.ndarray:
    v = np.zeros(d, dtype=np.float64)
    v[0] = 1.0
    return v


def _check_dim(d: int) -> None:
    if d < MIN_DIM:
        raise InvalidParameter(f"dimension {d} too small, need d >= {MIN_DIM}")


def _embed(lowered: str, salted: int, d: int, slots: dict[str, tuple[int, float]]) -> np.ndarray:
    """The unit vector of already-lowercased text; salted is the side's hash
    state after its salt, and slots memoizes each trigram's (bucket, weight)
    and must only ever be shared under one (side, d)."""
    n_grams = len(lowered) - 2
    if n_grams <= 0 or not lowered.strip():
        return _basis_vector(d)
    acc = [0.0] * d
    for i in range(n_grams):
        gram = lowered[i : i + 3]
        slot = slots.get(gram)
        if slot is None:
            data = gram.encode("utf-8")
            # Map the salted hash to [-1, 1) and use it to spread weights per side.
            jitter = ((_fnv1a(data, salted) >> 11) / float(1 << 53)) * 2.0 - 1.0
            slot = slots[gram] = (_fnv1a(data) % d, 1.0 + _WEIGHT_SPREAD * jitter)
        bucket, weight = slot
        acc[bucket] += weight
    v = np.array(acc, dtype=np.float64)
    return v / np.linalg.norm(v)


def embed_text(text: str, side: Side = Side.QUERY, d: int = DEFAULT_DIM) -> np.ndarray:
    """Embed text into a unit-norm float64 vector of dimension d (d >= 8).

    Deterministic across processes and platforms: fixed hash function, fixed
    salt constants, no randomness.
    """
    _check_dim(d)
    return _embed(text.lower(), _SALTED_STATE[Side(side).value], d, {})


def embed_corpus(docs, d: int = DEFAULT_DIM) -> dict[str, np.ndarray]:
    """doc_id -> embed_text(title + " " + description, DocTower, d) for each doc.

    Each distinct text is embedded and each distinct trigram hashed once per
    call. The first doc with a text gets the vector itself and each later one
    a copy, so every doc_id has its own array and no spare array is allocated.
    """
    _check_dim(d)
    salted = _SALTED_STATE[Side.DOC.value]
    slots: dict[str, tuple[int, float]] = {}
    by_text: dict[str, np.ndarray] = {}
    out: dict[str, np.ndarray] = {}
    for doc in docs:
        lowered = (doc.title + " " + doc.description).lower()
        v = by_text.get(lowered)
        if v is None:
            out[doc.doc_id] = by_text[lowered] = _embed(lowered, salted, d, slots)
        else:
            out[doc.doc_id] = v.copy()
    return out


def load_embeddings(path: str | Path) -> dict[str, np.ndarray]:
    """Read lines of `doc_id<TAB>v1,v2,...,vd` exactly as written.

    Vectors are not normalised here (build_index does that), so a
    save_embeddings/load_embeddings round trip is bit-exact. All vectors must
    share one dimension, and each doc_id may appear on one line only.
    """
    out: dict[str, np.ndarray] = {}
    dim: int | None = None

    def parse(line: str) -> None:
        nonlocal dim
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError("expected doc_id<TAB>values")
        doc_id, values = parts
        if doc_id in out:
            raise ValueError(f"duplicate doc_id {doc_id!r}")
        try:
            v = np.array(values.split(","), dtype=np.float64)
        except ValueError as exc:
            raise ValueError(f"bad vector value: {exc}") from exc
        if not np.all(np.isfinite(v)):
            raise ValueError("non-finite vector component")
        if dim is None:
            dim = v.size
        elif v.size != dim:
            raise ValueError(f"dimension {v.size} != {dim}")
        out[doc_id] = v

    read_lines(path, parse)
    return out


def save_embeddings(embeddings: dict[str, np.ndarray], path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for doc_id, v in embeddings.items():
            fh.write(f"{doc_id}\t{','.join(map(repr, v.tolist()))}\n")
