"""Named axes: how a name resolves, and how it fails.

Flows, targets and backends are open catalogs: each is a
:class:`Registry` that user code extends with one ``register`` call.
Deploy executors and IR passes are closed tables.  All five fail the
same way on a name they do not hold: a subclass of
:class:`UnknownNameError` whose message names the bad name and lists
the known ones.  This module imports nothing from ``repro``, so every
axis can use it without an import cycle.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Iterable, Iterator, Optional, Tuple


class UnknownNameError(KeyError, ValueError):
    """A name an axis does not hold.  A ``KeyError`` because it is a
    failed lookup, and a ``ValueError`` because it is bad input (the
    serving edge answers it with a 400).  Subclasses set ``what``."""

    what = "name"

    def __init__(self, name: object, known: Iterable[str]):
        self.name = name
        self.known = tuple(known)
        ValueError.__init__(self, (
            f"unknown {self.what} {name!r}; registered {self.what} "
            f"names: {', '.join(self.known) or '(none)'}"))

    def __str__(self) -> str:          # KeyError would repr() the args
        return self.args[0]

    def __reduce__(self):              # crosses the process-pool seam
        return type(self), (self.name, self.known)


class Registry:
    """Thread-safe, insertion-ordered name -> entry map.

    Entries are instances of ``kind`` with a ``name`` attribute; one
    passed to :meth:`get` comes back untouched.  ``validate`` runs on
    every :meth:`register` and raises to reject the entry; a name
    :meth:`get` does not hold raises ``error``.
    """

    def __init__(self, kind: type, error: type,
                 validate: Optional[Callable[[object], None]] = None):
        self.kind = kind
        self.error = error
        self._validate = validate
        self._entries: Dict[str, object] = {}
        self._lock = threading.Lock()

    def register(self, entry, replace: bool = False):
        if not isinstance(entry, self.kind):
            raise TypeError(f"expected a {self.kind.__name__}, "
                            f"got {type(entry).__name__}")
        if self._validate is not None:
            self._validate(entry)
        with self._lock:
            if not replace and entry.name in self._entries:
                raise ValueError(f"{self.error.what} {entry.name!r} is "
                                 f"already registered "
                                 f"(pass replace=True)")
            self._entries[entry.name] = entry
        return entry

    def unregister(self, name: str) -> None:
        with self._lock:
            self._entries.pop(name, None)

    def get(self, name):
        if isinstance(name, self.kind):
            return name
        with self._lock:
            entry = self._entries.get(name)
        if entry is None:
            raise self.error(name, self.names())
        return entry

    def names(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(self._entries)

    def values(self) -> Tuple:
        with self._lock:
            return tuple(self._entries.values())

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    def __iter__(self) -> Iterator:
        return iter(self.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
