"""The one line reader behind every record file, and the JSON reader and writer.

Record files (the JSON-lines files and embeddings.tsv) hold one record per
line, UTF-8, blank lines ignored; read_lines is their one loop. Whole-file
JSON documents (model.json, report.json, delta.json) are one indented
object. Bad input never escapes as a raw JSON, key or type error: it
becomes a MalformedRecord that names the file and, where known, the 1-based
line.

The one JSON rule lives here, driven by each dataclass field's annotation
and decided once per annotation for both directions (_codec). str, float,
int and bool are themselves; an enum is a JSON string naming a value; a
nested Record is an object whose fields are named name.field in errors;
tuple[R, ...] is a list whose items are named name[i]; dict[K, V] is an
object whose entries are V and are named name['key'], with a str key
kept, an int key written as str(k) and an enum key as its value, and a key
read only if it writes back as itself, so no two keys read as one; X | None
is X or null. A field annotated X | None may also be absent on reading and
is left out on writing when None; every other field is required; other
keys are ignored. Record.from_dict reads and Record.to_dict writes fields in
field order. Every record file, model.json, report.json and delta.json
follow this rule; a check that belongs to a record rather than to JSON is
its __post_init__.

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


# A codec is (reader, writer): reader(value, name) reads a JSON value, naming
# it name in errors; writer maps a value to its JSON value, None meaning as it is.
_Reader = Callable[[Any, str], Any]
_Writer = Callable[[Any], Any] | None


def _key_codec(key: Any) -> tuple[Callable[[str, str], Any], Callable[[Any], str]]:
    """The codec of a dict key of type key, read as reader(k, name). A key
    is read only if its writer writes it back as k (int() also takes "01",
    " 1" and "1_0"), so no two JSON keys read as one key."""
    if key is not str and key is not int and not _is_enum(key):
        raise NotImplementedError(f"no JSON codec for a dict key of type {key!r}")
    write = operator.attrgetter("value") if _is_enum(key) else str

    def read(k: str, name: str) -> Any:
        try:
            out = key(k)
            if write(out) == k:
                return out
        except ValueError:
            pass
        what = "an integer" if key is int else f"a valid {key.__name__}"
        raise ValueError(f"{name}[{k!r}] key is not {what}")

    return read, write


def _codec(hint: Any) -> tuple[_Reader, _Writer]:
    """The reader and writer of one value annotated hint, each the other's inverse."""
    if hint in _PRIMITIVE_READERS:
        return _PRIMITIVE_READERS[hint], None
    if _is_enum(hint):
        members = {m.value: m for m in hint}

        def read_enum(value: Any, name: str) -> Enum:
            member = members.get(json_str(value, name))
            if member is None:
                raise ValueError(f"{name} {value!r} is not a valid {hint.__name__}")
            return member

        return read_enum, operator.attrgetter("value")
    if isinstance(hint, type) and issubclass(hint, Record):
        return (
            lambda value, name: _read_record(hint, json_object(value, name), f"{name}."),
            hint.to_dict,
        )
    args = typing.get_args(hint)
    if type(None) in args:  # X | None
        read, write = _codec(args[0])
        return (
            lambda value, name: None if value is None else read(value, name),
            write and (lambda value: None if value is None else write(value)),
        )
    if typing.get_origin(hint) is tuple and len(args) == 2 and args[1] is Ellipsis:
        read, write = _codec(args[0])
        return (
            lambda value, name: tuple(
                read(v, f"{name}[{i}]") for i, v in enumerate(json_list(value, name))
            ),
            list if write is None else lambda value: [write(v) for v in value],
        )
    if typing.get_origin(hint) is dict:
        read_key, write_key = _key_codec(args[0])
        read, write = _codec(args[1])
        entry = write or (lambda v: v)
        return (
            lambda value, name: {
                read_key(k, name): read(v, f"{name}[{k!r}]")
                for k, v in json_object(value, name).items()
            },
            lambda value: {write_key(k): entry(v) for k, v in value.items()},
        )
    raise NotImplementedError(f"no JSON codec for a value annotated {hint!r}")


@functools.cache
def _plan(cls: type) -> tuple[tuple[str, _Reader, _Writer, bool], ...]:
    """(name, reader, writer, optional) per dataclass field of cls, in field
    order. An optional field, X | None, gets X's codec: Record itself reads
    it as None when absent or null and leaves it out when None."""
    hints = typing.get_type_hints(cls)
    plan = []
    for f in dataclasses.fields(cls):
        args = typing.get_args(hints[f.name])
        optional = type(None) in args
        plan.append((f.name, *_codec(args[0] if optional else hints[f.name]), optional))
    return tuple(plan)


def _read_record(cls: type[_T], d: dict, prefix: str) -> _T:
    """Record.from_dict, each field named prefix + field in errors: "" at the
    top of a file's object, "segment." inside its segment. A nested record is
    read by the rule alone, not by an override of its from_dict."""
    values = []
    for name, read, _, optional in _plan(cls):
        value = d.get(name)
        if value is None and optional:
            values.append(None)
        elif value is None and name not in d:
            raise KeyError(prefix + name)
        else:
            values.append(read(value, prefix + name))
    return cls(*values)


class Record:
    """Mixin for a dataclass read from and written to a JSON object by the module's one rule."""

    __slots__ = ()

    @classmethod
    def from_dict(cls: type[_T], d: dict) -> _T:
        """cls from the JSON object d; KeyError for a missing required field,
        TypeError or ValueError for a value of the wrong JSON type or range."""
        return _read_record(cls, d, "")

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
    becomes a MalformedRecord for that line, as does a line holding a byte
    that is not UTF-8.
    """
    records: list[_T] = []
    # surrogateescape keeps each undecodable byte on its own line, as a lone
    # surrogate that strict UTF-8 will not encode.
    with Path(path).open("r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                if not line.isascii():
                    _check_utf8(line)
                records.append(parse(line.rstrip("\n")))
            # json.JSONDecodeError is a ValueError.
            except (KeyError, ValueError, TypeError) as exc:
                raise _malformed(path, exc, line_no) from exc
    return records


def _check_utf8(line: str) -> None:
    """ValueError if line, read with surrogateescape, held a byte that is not UTF-8."""
    try:
        line.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ValueError(f"invalid UTF-8: byte 0x{ord(line[exc.start]) - 0xDC00:02x}") from None


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
