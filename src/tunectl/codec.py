"""One codec for every persisted document.

``to_doc`` turns a dataclass into plain data: a dict with camelCase keys in
field order, recursively, with Enums written as their values and tuples as
lists. A field whose metadata sets ``omit_none`` is left out while None,
and one that the constructor does not take (``init=False``) always.
``json_default`` is the same encoding as a ``json.dumps`` hook, for large
documents written straight to JSON. ``compact_json`` writes a document with
that hook and no spaces (journal records and commits); ``sorted_json``
writes plain data with sorted keys (events and metric points). Each is one
encoder, built once.

``from_doc`` rebuilds a value of a given type from that data, guided by type
hints. It is the one decoder, for stored documents and submitted ones
alike: it checks types, rejects unknown keys, and applies the rules a field
declares in its metadata (``minimum``, ``maximum``, ``exclusive_minimum``,
``finite``, ``non_empty``), and a ``ValueError`` from a class's own
constructor (a ``DocumentError`` there reports each of its lines). It
reports every problem at once, each under its path, as in
``parameters[0].feasibleSpace.min: must be finite``. A null stands for
an absent key when the field has a default and its type admits no None.

``Journal`` reads the resource journal and the metric log up to their last
newline, and appends to them with one write per append: a caller that holds
lines, as a run's resource store holds a tick's records, appends them in
one call.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import types
import typing
from enum import Enum
from functools import cache
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterable, Mapping, NamedTuple

_SCALARS = (str, int, float, bool, type(None))


class DocumentError(ValueError):
    """A document that does not fit its type. ``errors`` holds one
    ``path: message`` line per problem. ``value`` is what was decoded in
    spite of them when each only breaks a field's rule or names an unknown
    key, and None when a value is missing or of the wrong type."""

    def __init__(self, errors: list[str], value: Any = None) -> None:
        self.errors = errors
        self.value = value
        super().__init__("; ".join(errors))


class _Field(NamedTuple):
    name: str
    key: str  # the name in camelCase
    hint: Any
    optional: bool  # has a default
    null_is_default: bool  # optional, and its type admits no None
    omit_none: bool
    rules: Mapping[str, Any] | None  # its metadata, if any


@cache
def _fields(cls: type) -> tuple[_Field, ...]:
    hints = typing.get_type_hints(cls)
    out = []
    for f in [f for f in dataclasses.fields(cls) if f.init]:
        head, *rest = f.name.split("_")
        key = head + "".join(w[:1].upper() + w[1:] for w in rest)
        hint = hints[f.name]
        optional = f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING
        null_is_default = optional and not (hint is Any or type(None) in typing.get_args(hint))
        out.append(_Field(f.name, key, hint, optional, null_is_default, "omit_none" in f.metadata, f.metadata or None))
    return tuple(out)


def to_doc(obj: Any) -> Any:
    if type(obj) in _SCALARS:
        return obj
    if isinstance(obj, Enum):
        return obj.value
    if dataclasses.is_dataclass(obj):
        return {k: to_doc(v) for k, v in json_default(obj).items()}
    if isinstance(obj, (list, tuple)):
        return [to_doc(v) for v in obj]
    if isinstance(obj, dict):
        return {k: to_doc(v) for k, v in obj.items()}
    return obj


def json_default(obj: Any) -> Any:
    """``json.dumps(obj, default=json_default)`` writes what ``to_doc`` would
    for documents whose Enums are ``str`` Enums, as every persisted one is."""
    if dataclasses.is_dataclass(obj):
        fields = _fields(type(obj))
        return {f.key: v for f in fields if (v := getattr(obj, f.name)) is not None or not f.omit_none}
    raise TypeError(f"{type(obj).__name__} is not serializable")


compact_json = json.JSONEncoder(default=json_default, separators=(",", ":")).encode
sorted_json = json.JSONEncoder(sort_keys=True).encode


def from_doc(tp: Any, doc: Any) -> Any:
    """Rebuild a value of type ``tp`` from its ``to_doc`` form; raise
    :class:`DocumentError` on a document that does not fit."""
    errors: list[list] = []
    value = _decoder(tp)(doc, errors)
    if errors:
        raise DocumentError([_describe(e) for e in errors], None if _broken(errors, 0) else value)
    return value


# A decoder takes a document and the error list, and returns the value, or
# None when it could not build one. An error is a list: its message, then
# its path's segments from the innermost out, each appended on the way up,
# so a document that fits costs no path.
_Decoder = Callable[[Any, list], Any]


class _Kept(list):
    """An error that leaves the value built: a broken rule or an unknown key."""


def _broken(errors: list, start: int) -> bool:
    return any(type(e) is list for e in errors[start:])


def _fail(errors: list, message: str) -> None:
    errors.append([message])


def _nested(decode: _Decoder, doc: Any, errors: list, segment: str | int) -> Any:
    start = len(errors)
    value = decode(doc, errors)
    if len(errors) > start:
        for error in errors[start:]:
            error.append(segment)
    return value


def _describe(error: list) -> str:
    message, *segments = error
    path = "".join(f"[{s}]" if isinstance(s, int) else f".{s}" for s in reversed(segments))
    return f"{path.removeprefix('.')}: {message}" if path else message


@cache
def _decoder(tp: Any) -> _Decoder:
    """The decoder for type ``tp``, built once."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if tp is Any:
        return lambda doc, errors: doc

    if origin in (typing.Union, types.UnionType):
        # A document of a member's own type decodes as that member; a dict
        # as the first dataclass member whose required keys it holds, else
        # the first dataclass member; anything else as the first member.
        members = [a for a in args if a is not type(None)]
        exact = {a: _decoder(a) for a in members if not dataclasses.is_dataclass(a)}
        classes = [
            (_decoder(a), {f.key for f in _fields(a) if not f.optional}) for a in members if dataclasses.is_dataclass(a)
        ]
        first = _decoder(members[0])

        def decode_union(doc: Any, errors: list) -> Any:
            if doc is None and len(members) < len(args):
                return None
            if type(doc) in exact:
                return exact[type(doc)](doc, errors)
            if type(doc) is dict and classes:
                member = next((d for d, required in classes if required <= doc.keys()), classes[0][0])
                return member(doc, errors)
            return first(doc, errors)

        return decode_union

    if origin in (tuple, list):
        fixed = [_decoder(a) for a in args] if origin is tuple and args[-1] is not Ellipsis else None
        item = _decoder(args[0])

        def decode_sequence(doc: Any, errors: list) -> Any:
            if type(doc) is not list or (fixed is not None and len(doc) != len(fixed)):
                return _fail(errors, f"expected a list{f' of {len(fixed)} items' if fixed else ''}, got {doc!r}")
            decoders = fixed or [item] * len(doc)
            out = [_nested(d, v, errors, i) for i, (d, v) in enumerate(zip(decoders, doc))]
            return out if origin is list else tuple(out)

        return decode_sequence

    if origin is dict:
        key, value = _decoder(args[0]), _decoder(args[1])

        def decode_dict(doc: Any, errors: list) -> Any:
            if type(doc) is not dict:
                return _fail(errors, f"expected a mapping, got {doc!r}")
            return {_nested(key, k, errors, str(k)): _nested(value, v, errors, str(k)) for k, v in doc.items()}

        return decode_dict

    if dataclasses.is_dataclass(tp):
        fields = [(f, _decoder(f.hint)) for f in _fields(tp)]
        keys = {f.key for f, _ in fields}

        def decode_dataclass(doc: Any, errors: list) -> Any:
            if type(doc) is not dict:
                return _fail(errors, f"expected a mapping, got {doc!r}")
            first = len(errors)
            kwargs = {}
            for f, decode in fields:
                if f.key not in doc:
                    if not f.optional:
                        _fail(errors, f"missing required field '{f.key}'")
                elif doc[f.key] is not None or not f.null_is_default:
                    start = len(errors)
                    value = kwargs[f.name] = _nested(decode, doc[f.key], errors, f.key)
                    if f.rules is not None and len(errors) == start:
                        _check(value, f.rules, f.key, errors)
            if not keys.issuperset(doc):
                errors.extend(_Kept([f"unknown field '{k}'"]) for k in doc if k not in keys)
            if len(errors) > first and _broken(errors, first):
                return None
            try:
                return tp(**kwargs)
            except ValueError as exc:  # a check in the class's own constructor
                errors.extend([e] for e in getattr(exc, "errors", [str(exc)]))
                return None

        return decode_dataclass

    if issubclass(tp, Enum):
        allowed = ", ".join(m.value for m in tp)

        def decode_enum(doc: Any, errors: list) -> Any:
            try:
                return tp(doc)
            except (TypeError, ValueError):
                return _fail(errors, f"expected one of [{allowed}], got {doc!r}")

        return decode_enum

    kinds = (int, float) if tp is float else tp

    def decode_scalar(doc: Any, errors: list) -> Any:
        if isinstance(doc, kinds) and (type(doc) is not bool or tp is bool):
            return float(doc) if tp is float else doc
        return _fail(errors, f"expected {tp.__name__}, got {doc!r}")

    return decode_scalar


def _check(value: Any, rules: Mapping[str, Any], key: str, errors: list) -> None:
    """Record the first of a field's rules that its value breaks."""
    if value is None:
        return
    if rules.get("non_empty") and not value:
        message = f"expected a non-empty {'string' if isinstance(value, str) else 'list'}"
    elif rules.get("finite") and not math.isfinite(value):
        message = "must be finite"
    elif "minimum" in rules and not value >= rules["minimum"]:
        message = f"must be >= {rules['minimum']}"
    elif "maximum" in rules and not value <= rules["maximum"]:
        message = f"must be <= {rules['maximum']}"
    elif "exclusive_minimum" in rules and not value > rules["exclusive_minimum"]:
        message = f"must be > {rules['exclusive_minimum']}"
    else:
        return
    errors.append(_Kept([message, key]))


class Journal:
    """A JSON-lines file that grows by appended lines and is otherwise only
    rewritten whole, atomically (a temporary file and ``os.replace``).

    ``append`` writes through one unbuffered handle, kept open until
    ``close``: all its lines in one write, repeated until every byte is out,
    so they reach the operating system before it returns; nothing calls
    ``fsync``. If the path no longer names the file that handle holds, the
    append opens the path again rather than write where no one reads.

    Bytes after the last newline are a write cut short by a crash. ``read``
    always skips them. A caller that opens the file for writing also cuts
    them off with ``cut_tail`` after the read, so that its next append
    starts on a line of its own; a reader leaves them, since a writer may
    still be appending that line.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._fp: BinaryIO | None = None
        self._torn_at: int | None = None  # where the last read found a torn tail

    def read(self) -> list[bytes]:
        """The complete lines, without their newlines; none when the file
        does not exist."""
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            data = b""
        end = data.rfind(b"\n") + 1
        self._torn_at = end if end < len(data) else None
        return data[:end].split(b"\n")[:-1]

    def cut_tail(self) -> None:
        """Cut off the torn tail that the last ``read`` found, if any."""
        if self._torn_at is not None:
            self.truncate(self._torn_at)
            self._torn_at = None

    def append(self, lines: Iterable[str]) -> int:
        """Append ``lines``, each ending in a newline, and write them out;
        return the file's size after them."""
        if self._fp is not None and not self._holds_path():
            self.close()
        if self._fp is None:
            self._fp = self.path.open("ab", buffering=0)
        data = "".join(lines).encode("utf-8")
        while data:
            data = data[self._fp.write(data):]
        return self._fp.tell()

    def _holds_path(self) -> bool:
        try:
            return os.path.samestat(os.fstat(self._fp.fileno()), os.stat(self.path))
        except FileNotFoundError:
            return False

    def truncate(self, size: int) -> None:
        """Cut the file to its first ``size`` bytes, if it is longer."""
        self.close()
        try:
            with self.path.open("r+b") as fp:
                if fp.seek(0, os.SEEK_END) > size:
                    fp.truncate(size)
        except FileNotFoundError:
            pass

    def replace(self, lines: Iterable[str]) -> None:
        """Make the file hold exactly ``lines``, atomically."""
        self.close()
        tmp = self.path.with_name(self.path.name + ".tmp")
        with tmp.open("wb") as fp:
            for line in lines:
                fp.write(line.encode("utf-8"))
        os.replace(tmp, self.path)

    def close(self) -> None:
        """Close the append handle; a later append opens it again."""
        if self._fp is not None:
            self._fp.close()
            self._fp = None
