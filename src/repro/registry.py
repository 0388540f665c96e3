"""Typed plugin registries: the one extension mechanism for every axis.

CEDR's pitch is an *extensible* runtime - schedulers, platforms, and
applications plug in without touching the core.  This module is the
reproduction's realization of that pitch: one small, typed
:class:`Registry` that every extension axis instantiates -

========== ============================================ ==================
axis       registry                                     entry-point group
========== ============================================ ==================
schedulers ``repro.sched.SCHEDULERS``                   ``repro.schedulers``
platforms  ``repro.platforms.PLATFORMS``                ``repro.platforms``
apps       ``repro.apps.APPS``                          ``repro.apps``
workloads  ``repro.workload.WORKLOADS``                 ``repro.workloads``
faults     ``repro.faults.FAULT_KINDS``                 ``repro.fault_kinds``
arrivals   ``repro.serve.arrival.ARRIVALS``             ``repro.arrivals``
figures    ``repro.experiments.FIGURES``                ``repro.figures``
========== ============================================ ==================

Four properties matter:

* **In-process registration** is a one-liner (``REG.register(name, obj)``
  or the decorator form) and duplicate names fail loudly - two plugins
  silently shadowing each other is how extensible systems rot.
* **Entry-point discovery** is *lazy*: a registry with an
  ``entry_point_group`` imports and scans ``importlib.metadata`` once, on
  the first miss or listing (``names()``, ``len()``); a hit (``get``,
  ``in``) never scans.  So importing :mod:`repro` never pays for plugin
  resolution (a tier-1 test imports every package in a fresh interpreter
  and checks), and a broken third-party distribution only warns.
* **A builtin is a ref until it is used**: ``REG.register(name,
  ref="module:attr")`` enters *name* now and imports ``module`` on the
  first ``get`` / ``items()``, like an entry point (``names()`` never
  imports).  A registration made while that import runs (the module's own
  ``register_*`` call) replaces the ref and is not a duplicate; the entry
  is then what it registered, else ``attr``.  Any other is.
* **Unknown names are diagnosable**: the error lists every available
  entry and suggests the nearest match ("did you mean 'etf'?").  It
  subclasses both :class:`KeyError` and :class:`ValueError` so the
  pre-registry call sites (which raised one or the other) keep their
  exception contracts.
"""

from __future__ import annotations

import warnings
from typing import Callable, Generic, Iterator, Optional, TypeVar

__all__ = ["Registry", "RegistryError"]

T = TypeVar("T")

_MISSING = object()


class _Ref(str):
    """A builtin entry not imported yet: ``"module:attr"``."""


def did_you_mean(key: str, known: list[str]) -> str:
    """`` (did you mean 'x'?)`` naming the nearest of *known*, or ``""``."""
    import difflib  # error paths only: a lookup that hits never loads it

    close = difflib.get_close_matches(key, known, n=1)
    return f" (did you mean {close[0]!r}?)" if close else ""


class RegistryError(KeyError, ValueError):
    """An unknown name was looked up in a :class:`Registry`.

    Subclasses both :class:`KeyError` (the historical scheduler-lookup
    contract) and :class:`ValueError` (the historical ``ArrivalSpec`` /
    ``FaultConfig.parse_kinds`` contract), so every pre-registry caller
    keeps catching what it caught.
    """

    def __str__(self) -> str:
        # KeyError.__str__ returns repr(args[0]); the plain message reads
        # better in CLI error paths that print str(exc).
        return self.args[0] if self.args else ""


class Registry(Generic[T]):
    """A named collection of plugins of one kind.

    ``kind`` is the human-readable singular ("scheduler", "platform",
    "arrival process") used in every error message.  ``normalize``
    canonicalizes lookup keys (default: lowercase, so schedulers resolve
    case-insensitively - ``SCHEDULERS.create("RR")``; the app registry
    passes ``str.upper`` so ``pd`` and ``PD`` are the same application).
    """

    def __init__(
        self,
        kind: str,
        *,
        entry_point_group: Optional[str] = None,
        normalize: Callable[[str], str] = str.lower,
    ) -> None:
        self.kind = kind
        self.entry_point_group = entry_point_group
        self._normalize = normalize
        self._entries: dict[str, T] = {}
        # lazy: flipped false on the first lookup that scans entry points
        self._pending_discovery = entry_point_group is not None
        #: names whose ref's module is being imported (may register them)
        self._importing: set[str] = set()

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #

    def _key(self, name: str) -> str:
        return self._normalize(str(name))

    def register(self, name: str, obj: T = _MISSING, *, replace: bool = False,
                 ref: Optional[str] = None):
        """Add *obj* under *name*; duplicate names raise ``ValueError``.

        Usable directly (``REG.register("rr", RoundRobin)``) or as a
        decorator (``@REG.register("rr")``).  ``replace=True`` swaps an
        existing entry - test fixtures use it; plugins should not.
        ``ref="module:attr"`` registers a builtin lazily (module docstring).
        """
        if ref is not None:
            obj = _Ref(ref)
        elif obj is _MISSING:
            def deco(obj: T) -> T:
                self.register(name, obj, replace=replace)
                return obj

            return deco
        key = self._key(name)
        if not replace and key in self._entries and key not in self._importing:
            raise ValueError(f"{self.kind} {key!r} registered twice")
        self._entries[key] = obj
        return obj

    def unregister(self, name: str) -> T:
        """Remove and return the entry under *name* (tests clean up with
        this after registering throwaway plugins)."""
        key = self._key(name)
        try:
            return self._entries.pop(key)
        except KeyError:
            raise RegistryError(self._unknown(key)) from None

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #

    def get(self, name: str) -> T:
        """The entry registered under *name*, or a did-you-mean error."""
        key = self._key(name)
        if key not in self._entries:
            self.discover()
        try:
            entry = self._entries[key]
        except KeyError:
            raise RegistryError(self._unknown(key)) from None
        return self._load(key, entry) if type(entry) is _Ref else entry

    def _load(self, key: str, ref: _Ref) -> T:
        """Import a ref's module; keep what it registered, else its attr."""
        from importlib import import_module

        module, _, attr = ref.partition(":")
        self._importing.add(key)
        try:
            obj = import_module(module)
        finally:
            self._importing.discard(key)
        if self._entries.get(key) is ref:
            for part in attr.split("."):
                obj = getattr(obj, part)
            self._entries[key] = obj
        return self._entries[key]

    def create(self, name: str, /, **kwargs) -> T:
        """Look up *name* and call it: ``get(name)(**kwargs)``.

        The idiom for registries whose entries are classes or factories
        (``SCHEDULERS.create("etf")`` instantiates the heuristic).
        """
        return self.get(name)(**kwargs)

    def names(self) -> tuple[str, ...]:
        """Every registered name, sorted (discovers entry points first)."""
        self.discover()
        return tuple(sorted(self._entries))

    def items(self) -> tuple[tuple[str, T], ...]:
        """(name, entry) pairs, name-sorted (refs imported)."""
        return tuple((name, self.get(name)) for name in self.names())

    def __contains__(self, name: str) -> bool:
        key = self._key(name)
        if key not in self._entries:
            self.discover()
        return key in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        self.discover()
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Registry {self.kind}: {', '.join(sorted(self._entries))}>"

    def _unknown(self, key: str) -> str:
        known = sorted(self._entries)
        listing = ", ".join(known) if known else "(none registered)"
        return f"unknown {self.kind} {key!r}; available: {listing}{did_you_mean(key, known)}"

    # ------------------------------------------------------------------ #
    # entry-point discovery
    # ------------------------------------------------------------------ #

    def discover(self) -> int:
        """Scan the registry's entry-point group once; returns new entries.

        Third-party distributions declare plugins in their packaging
        metadata::

            [project.entry-points."repro.schedulers"]
            lottery = "my_pkg.sched:LotteryScheduler"

        Loading is lazy (first lookup) and defensive: one broken plugin
        warns and is skipped rather than breaking every ``repro`` command.
        In-process registrations always win over entry points of the same
        name, so a package that both imports-and-registers and declares an
        entry point does not collide with itself.
        """
        if not self._pending_discovery:
            return 0
        self._pending_discovery = False
        from importlib import metadata

        try:
            points = metadata.entry_points(group=self.entry_point_group)
        except Exception as exc:  # pragma: no cover - metadata backend quirk
            warnings.warn(
                f"{self.kind} entry-point scan failed: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )
            return 0
        added = 0
        for point in points:
            key = self._key(point.name)
            if key in self._entries:
                continue
            try:
                obj = point.load()
            except Exception as exc:
                warnings.warn(
                    f"failed to load {self.kind} plugin {point.name!r} "
                    f"from {point.value!r}: {exc}",
                    RuntimeWarning,
                    stacklevel=2,
                )
                continue
            # loading may have self-registered via a decorator at import
            # time; only fill the slot if it is still empty
            if key not in self._entries:
                self._entries[key] = obj
                added += 1
        return added
