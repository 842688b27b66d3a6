"""The one line reader behind every record file, and the JSON reader and writer.

Record files (the JSON-lines files and embeddings.tsv) hold one record per
line, UTF-8, blank lines ignored; read_lines is their one loop. Whole-file
JSON documents (model.json, report.json) are one indented object. Bad input
never escapes as a raw JSON, key or type error: it becomes a MalformedRecord
that names the file and, where known, the 1-based line.

The one read rule lives here: Record.from_dict reads each dataclass field by
its annotation (str, float, int, bool, an enum as a JSON string, a nested
Record as an object, tuple[R, ...] as a list, dict[K, V] as an object whose
keys are kept as str, read by int() or named enum members and whose entries
are read as V and named name['key'] in errors). A field annotated X | None
may be absent or null; every other field is required; other keys are
ignored. Every record file, model.json and report.json is read by this rule;
a check that belongs to a record rather than to JSON is its __post_init__.
Writers stay per class (to_dict): a generic writer measured about 2.3 times
slower on a shared 2-vCPU host (38 against 92-111 ms for the 32,000 records
gen-data writes at 10k docs), a cost every CLI step that writes would pay.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
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


def _field_reader(hint: Any) -> Callable[[Any, str], Any]:
    """The reader of one field value annotated hint, called as reader(value, name)."""
    if hint in _PRIMITIVE_READERS:
        return _PRIMITIVE_READERS[hint]
    if isinstance(hint, type) and issubclass(hint, Enum):
        return lambda value, name: hint(json_str(value, name))
    if isinstance(hint, type) and issubclass(hint, Record):
        return lambda value, name: hint.from_dict(json_object(value, name))
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple and len(args) == 2 and args[1] is Ellipsis:
        item = _field_reader(args[0])
        return lambda value, name: tuple(item(v, name) for v in json_list(value, name))
    if typing.get_origin(hint) is dict:
        # A JSON key is a string: str keeps it, int and an enum convert it.
        key, entry = args[0], _field_reader(args[1])
        if key in (str, int) or (isinstance(key, type) and issubclass(key, Enum)):
            return lambda value, name: {
                key(k): entry(v, f"{name}[{k!r}]") for k, v in json_object(value, name).items()
            }
    raise NotImplementedError(f"no JSON reader for a field annotated {hint!r}")


@functools.cache
def _decode_plan(cls: type) -> tuple[tuple[str, Callable[[Any, str], Any], bool], ...]:
    """(name, reader, optional) per dataclass field of cls, in field order."""
    hints = typing.get_type_hints(cls)
    plan = []
    for f in dataclasses.fields(cls):
        args = typing.get_args(hints[f.name])
        optional = type(None) in args
        hint = args[0] if optional else hints[f.name]
        plan.append((f.name, _field_reader(hint), optional))
    return tuple(plan)


class Record:
    """Mixin for a dataclass read from a JSON object by the module's one read rule."""

    __slots__ = ()

    @classmethod
    def from_dict(cls: type[_T], d: dict) -> _T:
        """cls from the JSON object d; KeyError for a missing required field,
        TypeError or ValueError for a value of the wrong JSON type or range."""
        values = []
        for name, read, optional in _decode_plan(cls):
            if optional and d.get(name) is None:
                values.append(None)
            else:
                values.append(read(d[name], name))
        return cls(*values)


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


def _encode(d: dict) -> str:
    return json.dumps(d, ensure_ascii=False) + "\n"


def write_jsonl(path: str | Path, dicts: Iterable[dict]) -> None:
    """Write one compact JSON object per line, non-ASCII kept as UTF-8."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for d in dicts:
            fh.write(_encode(d))


def append_jsonl(path: str | Path, d: dict) -> None:
    """Append one record in write_jsonl's encoding, creating path if absent."""
    with Path(path).open("a", encoding="utf-8") as fh:
        fh.write(_encode(d))
