"""One codec for every persisted document.

``to_doc`` turns a dataclass into plain data: a dict with camelCase keys in
field order, recursively, with Enums written as their values and tuples as
lists. ``from_doc`` rebuilds a value of a given type from that data, guided
by type hints. It checks scalar types on the way, so it also reads documents
that come from outside the program. ``json_default`` is the same encoding as
a ``json.dumps`` hook, for large documents written straight to JSON.
``complete_lines`` reads the resource journal and the metric log up to
their last newline.
"""

from __future__ import annotations

import dataclasses
import os
import types
import typing
from enum import Enum
from functools import cache
from pathlib import Path
from typing import Any, BinaryIO, Iterable

_SCALARS = (str, int, float, bool, type(None))


@cache
def _fields(cls: type) -> tuple[tuple[str, str, Any, bool], ...]:
    """(attribute, document key, type hint, has a default) per field."""
    hints = typing.get_type_hints(cls)
    out = []
    for f in dataclasses.fields(cls):
        head, *rest = f.name.split("_")
        key = head + "".join(w[:1].upper() + w[1:] for w in rest)
        optional = f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING
        out.append((f.name, key, hints[f.name], optional))
    return tuple(out)


def to_doc(obj: Any) -> Any:
    if type(obj) in _SCALARS:
        return obj
    if isinstance(obj, Enum):
        return obj.value
    if dataclasses.is_dataclass(obj):
        return {key: to_doc(getattr(obj, name)) for name, key, _, _ in _fields(type(obj))}
    if isinstance(obj, (list, tuple)):
        return [to_doc(v) for v in obj]
    if isinstance(obj, dict):
        return {k: to_doc(v) for k, v in obj.items()}
    return obj


def json_default(obj: Any) -> Any:
    """``json.dumps(obj, default=json_default)`` writes what ``to_doc`` would
    for documents whose Enums are ``str`` Enums, as every persisted one is."""
    if dataclasses.is_dataclass(obj):
        return {key: getattr(obj, name) for name, key, _, _ in _fields(type(obj))}
    raise TypeError(f"{type(obj).__name__} is not serializable")


def from_doc(tp: Any, doc: Any) -> Any:
    """Rebuild a value of type ``tp`` from its ``to_doc`` form; raise
    TypeError or ValueError on a document that does not fit."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if tp is Any:
        return doc
    if origin in (typing.Union, types.UnionType):
        if doc is None and type(None) in args:
            return None
        # A dict decodes as the dataclass member; anything else as the first other one.
        members = [a for a in args if a is not type(None)]
        tp = next((a for a in members if dataclasses.is_dataclass(a) == isinstance(doc, dict)), members[0])
        return from_doc(tp, doc)
    if origin is tuple:
        _expect(doc, list)
        if args[-1] is Ellipsis:
            return tuple(from_doc(args[0], v) for v in doc)
        if len(args) != len(doc):
            raise ValueError(f"expected {len(args)} items, got {len(doc)}")
        return tuple(from_doc(a, v) for a, v in zip(args, doc))
    if origin is list:
        return [from_doc(args[0], v) for v in _expect(doc, list)]
    if origin is dict:
        return {k: from_doc(args[1], v) for k, v in _expect(doc, dict).items()}
    if dataclasses.is_dataclass(tp):
        _expect(doc, dict)
        kwargs = {}
        for name, key, hint, optional in _fields(tp):
            if key in doc:
                kwargs[name] = from_doc(hint, doc[key])
            elif not optional:
                raise ValueError(f"{tp.__name__}: missing field '{key}'")
        return tp(**kwargs)
    if isinstance(tp, type) and issubclass(tp, Enum):
        return tp(doc)
    if tp is float:
        return float(_expect(doc, (int, float)))
    return _expect(doc, tp)


def _expect(doc: Any, kinds: type | tuple[type, ...]) -> Any:
    kinds = kinds if isinstance(kinds, tuple) else (kinds,)
    if not isinstance(doc, kinds) or (isinstance(doc, bool) and bool not in kinds):
        raise TypeError(f"expected {' or '.join(k.__name__ for k in kinds)}, got {doc!r}")
    return doc


class Journal:
    """A JSON-lines file that grows by appended lines and is otherwise only
    rewritten whole, atomically (a temporary file and ``os.replace``).

    ``append`` writes through one handle, kept open until ``close``, and
    flushes to the operating system before it returns; nothing calls
    ``fsync``. If the path no longer names the file that handle holds, the
    append opens the path again rather than write where no one reads.

    Bytes after the last newline are a write cut short by a crash. ``read``
    always skips them. A caller that opens the file for writing
    (``writing``) also cuts them off, so that its next append starts on a
    line of its own; a reader leaves them, since a writer may still be
    appending that line.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._fp: BinaryIO | None = None

    def read(self, writing: bool) -> list[bytes]:
        """The complete lines, without their newlines; none when the file
        does not exist."""
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            return []
        end = data.rfind(b"\n") + 1
        if writing and end < len(data):
            self.truncate(end)
        return data[:end].split(b"\n")[:-1]

    def append(self, lines: Iterable[str]) -> int:
        """Append ``lines``, each ending in a newline, and flush them;
        return the file's size after them."""
        if self._fp is not None and not self._holds_path():
            self.close()
        if self._fp is None:
            self._fp = self.path.open("ab")
        for line in lines:
            self._fp.write(line.encode("utf-8"))
        self._fp.flush()
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

    def remove(self) -> None:
        self.close()
        self.path.unlink(missing_ok=True)

    def close(self) -> None:
        """Close the append handle; a later append opens it again."""
        if self._fp is not None:
            self._fp.close()
            self._fp = None
