"""The one line reader behind every record file, and the JSON reader and writer.

Record files (the JSON-lines files and embeddings.tsv) hold one record per
line, UTF-8, blank lines ignored; read_lines is their one loop. Whole-file
JSON documents (model.json, report.json) are one indented object. Bad input
never escapes as a raw JSON, key or type error: it becomes a MalformedRecord
that names the file and, where known, the 1-based line.

The one JSON rule lives here, both ways, driven by each dataclass field's
annotation. Record.from_dict reads str, float, int and bool as such, an enum
as a JSON string naming a value, a nested Record as an object, tuple[R, ...]
as a list and dict[K, V] as an object whose entries are read as V and named
name['key'] in errors; a str key is kept, an int key must be exactly str(k)
and an enum key a member's value, so no two keys read as one. A field
annotated X | None may be absent or null; every other field is required;
other keys are ignored. Record.to_dict is the inverse: fields in field
order, an enum (value or key) as its value, an int key as str(k), a tuple as
a list, and an optional field that is None left out. Every record file,
model.json and report.json follows this rule; a check that belongs to a
record rather than to JSON is its __post_init__. Only IntegrityLabel writes
its own to_dict, keeping the "ts": null that labels.jsonl has always held
and perfbench's inputs digest hashes.

The generic to_dict costs about twice a hand-written one (40-43 against
21 ms for the 32,000 records gen-data writes at 10k docs, on a shared 2-vCPU
host), so record lines share one JSONEncoder: json.dumps with an option
builds a new one per line, and reusing it took encoding from 120-124 to
91-95 ms, leaving the four files' write time as it was.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import operator
import typing
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Iterable, TypeVar

from .errors import MalformedRecord

_T = TypeVar("_T")


def _malformed(path: str | Path, exc: Exception, line_no: int | None = None) -> MalformedRecord:
    """The MalformedRecord for a parse error or a rejected record at path:line_no.

    With no line_no (a whole-file JSON document), a parse error reports the
    line the decoder stopped at.
    """
    if isinstance(exc, json.JSONDecodeError):
        return MalformedRecord(str(path), line_no or exc.lineno, f"invalid JSON: {exc.msg}")
    if isinstance(exc, KeyError):
        return MalformedRecord(str(path), line_no, f"missing field {exc}")
    return MalformedRecord(str(path), line_no, str(exc))


def json_number(value, name: str) -> float:
    """value as a float if it is a finite JSON number (int or float, not a bool), else TypeError.

    Python's json reads NaN, Infinity and -Infinity; none of them is a JSON number.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} {value!r} is not a number")
    if not math.isfinite(value):
        raise TypeError(f"{name} {value!r} is not a finite number")
    return float(value)


def json_int(value, name: str) -> int:
    """value if it is a JSON integer, else TypeError; int() would turn 2.9 into 2, true into 1."""
    if type(value) is not int:
        raise TypeError(f"{name} {value!r} is not an integer")
    return value


def json_str(value, name: str) -> str:
    """value if it is a JSON string, else TypeError."""
    if not isinstance(value, str):
        raise TypeError(f"{name} {value!r} is not a string")
    return value


def json_list(value, name: str) -> list:
    """value if it is a JSON list, else TypeError; a string or object would iterate silently."""
    if not isinstance(value, list):
        raise TypeError(f"{name} {value!r} is not a list")
    return value


def json_object(value, name: str) -> dict:
    """value if it is a JSON object, else TypeError."""
    if not isinstance(value, dict):
        raise TypeError(f"{name} {value!r} is not an object")
    return value


def json_bool(value, name: str) -> bool:
    """value if it is a JSON true or false, else TypeError."""
    if not isinstance(value, bool):
        raise TypeError(f"{name} {value!r} is not true or false")
    return value


_PRIMITIVE_READERS = {str: json_str, float: json_number, int: json_int, bool: json_bool}


def _is_enum(hint: Any) -> bool:
    return isinstance(hint, type) and issubclass(hint, Enum)


def _read_key(key: type, k: str, name: str) -> Any:
    """JSON object key k of the dict field named name as a key of type key. A
    str key is kept; an int or enum key must be what its writer writes."""
    if key is str:
        return k
    try:
        out = key(k)
    except ValueError:
        out = None
    # int() also takes " 1", "01" and "1_0", none of which str() writes.
    if out is None or (key is int and str(out) != k):
        what = "an integer" if key is int else f"a valid {key.__name__}"
        raise ValueError(f"{name}[{k!r}] key is not {what}")
    return out


def _field_reader(hint: Any) -> Callable[[Any, str], Any]:
    """The reader of one field value annotated hint, called as reader(value, name)."""
    if hint in _PRIMITIVE_READERS:
        return _PRIMITIVE_READERS[hint]
    if _is_enum(hint):
        return lambda value, name: hint(json_str(value, name))
    if isinstance(hint, type) and issubclass(hint, Record):
        return lambda value, name: hint.from_dict(json_object(value, name))
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple and len(args) == 2 and args[1] is Ellipsis:
        item = _field_reader(args[0])
        return lambda value, name: tuple(item(v, name) for v in json_list(value, name))
    key = args[0] if typing.get_origin(hint) is dict else None
    if key is str or key is int or _is_enum(key):
        entry = _field_reader(args[1])
        return lambda value, name: {
            _read_key(key, k, name): entry(v, f"{name}[{k!r}]")
            for k, v in json_object(value, name).items()
        }
    raise NotImplementedError(f"no JSON reader for a field annotated {hint!r}")


# A writer maps a field value to its JSON value; None writes the value as it is.
_Writer = Callable[[Any], Any] | None


def _as_is(value: Any) -> Any:
    return value


def _field_writer(hint: Any) -> _Writer:
    """The writer of one field value annotated hint, the inverse of its reader."""
    if hint in _PRIMITIVE_READERS:
        return None
    if _is_enum(hint):
        return operator.attrgetter("value")
    if isinstance(hint, type) and issubclass(hint, Record):
        return hint.to_dict
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple and len(args) == 2 and args[1] is Ellipsis:
        item = _field_writer(args[0])
        return list if item is None else lambda value: [item(v) for v in value]
    if typing.get_origin(hint) is dict:
        # _field_reader has already refused any key but str, int or an enum.
        key = _as_is if args[0] is str else str if args[0] is int else operator.attrgetter("value")
        entry = _field_writer(args[1]) or _as_is
        return lambda value: {key(k): entry(v) for k, v in value.items()}
    raise NotImplementedError(f"no JSON writer for a field annotated {hint!r}")


@functools.cache
def _plan(cls: type) -> tuple[tuple[str, Callable[[Any, str], Any], _Writer, bool], ...]:
    """(name, reader, writer, optional) per dataclass field of cls, in field order."""
    hints = typing.get_type_hints(cls)
    plan = []
    for f in dataclasses.fields(cls):
        args = typing.get_args(hints[f.name])
        optional = type(None) in args
        hint = args[0] if optional else hints[f.name]
        plan.append((f.name, _field_reader(hint), _field_writer(hint), optional))
    return tuple(plan)


class Record:
    """Mixin for a dataclass read from and written to a JSON object by the module's one rule."""

    __slots__ = ()

    @classmethod
    def from_dict(cls: type[_T], d: dict) -> _T:
        """cls from the JSON object d; KeyError for a missing required field,
        TypeError or ValueError for a value of the wrong JSON type or range."""
        values = []
        for name, read, _, optional in _plan(cls):
            if optional and d.get(name) is None:
                values.append(None)
            else:
                values.append(read(d[name], name))
        return cls(*values)

    def to_dict(self) -> dict:
        """The JSON object of self, fields in field order; an optional field
        that is None is left out."""
        d = {}
        for name, _, write, optional in _plan(type(self)):
            value = getattr(self, name)
            if optional and value is None:
                continue
            d[name] = value if write is None else write(value)
        return d


def read_lines(path: str | Path, parse: Callable[[str], _T]) -> list[_T]:
    """parse of every nonblank line of path, newline removed, in file order.

    parse signals a bad line with KeyError, ValueError or TypeError; each
    becomes a MalformedRecord for that line.
    """
    records: list[_T] = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                records.append(parse(line.rstrip("\n")))
            # json.JSONDecodeError is a ValueError.
            except (KeyError, ValueError, TypeError) as exc:
                raise _malformed(path, exc, line_no) from exc
    return records


def _loads_object(text: str) -> dict:
    """text parsed as JSON; TypeError unless it is an object."""
    raw = json.loads(text)
    if not isinstance(raw, dict):
        raise TypeError(f"expected a JSON object, got {type(raw).__name__}")
    return raw


def read_jsonl(path: str | Path, from_dict: Callable[[dict], _T]) -> list[_T]:
    """Every nonblank line of path, parsed as a JSON object and passed to from_dict.

    from_dict signals a schema violation with KeyError, ValueError or
    TypeError; each of those, a line that is not valid JSON, and a line whose
    JSON is not an object raise MalformedRecord for that line.
    """
    return read_lines(path, lambda line: from_dict(_loads_object(line)))


def read_json(path: str | Path, from_dict: Callable[[dict], _T]) -> _T:
    """A whole-file JSON document at path, passed to from_dict.

    Broken JSON, a document that is not a JSON object, or a KeyError,
    ValueError or TypeError from from_dict raises MalformedRecord for the file.
    """
    try:
        return from_dict(_loads_object(Path(path).read_text(encoding="utf-8")))
    # json.JSONDecodeError is a ValueError.
    except (KeyError, ValueError, TypeError) as exc:
        raise _malformed(path, exc) from exc


def write_json(path: str | Path, d: dict) -> None:
    """Write d as one JSON document indented by 2, ending in a newline."""
    Path(path).write_text(json.dumps(d, indent=2) + "\n", encoding="utf-8")


# One encoder for every line: json.dumps with an option builds a new encoder per call.
_LINE_ENCODER = json.JSONEncoder(ensure_ascii=False)


def _encode(d: dict) -> str:
    return _LINE_ENCODER.encode(d) + "\n"


def write_jsonl(path: str | Path, dicts: Iterable[dict]) -> None:
    """Write one compact JSON object per line, non-ASCII kept as UTF-8."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for d in dicts:
            fh.write(_encode(d))


def append_jsonl(path: str | Path, d: dict) -> None:
    """Append one record in write_jsonl's encoding, creating path if absent."""
    with Path(path).open("a", encoding="utf-8") as fh:
        fh.write(_encode(d))
