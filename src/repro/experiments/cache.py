"""Content-addressed cache of sweep cells: never simulate the same run twice.

A grid cell is a pure function of its inputs - ``(platform, workload, mode,
rate, seed, config)`` fully determine the
:class:`~repro.metrics.RunResult` (every random stream is keyed on
``seed``; nothing leaks between runs).  That purity is what makes parallel
sweeps bit-identical to serial ones, and it equally makes every cell
*memoizable*: hash the inputs, look the digest up on disk, and only
simulate the cells the store has never seen.  Re-running a figure with one
more rate point, extra trials, or after an unrelated code change then costs
only the new cells - see "Incremental sweeps" in EXPERIMENTS.md.

Keying is **content-addressed**, not argument-spelling-addressed: the cell
is canonically encoded (dataclasses by field, mappings sorted, enums by
qualified name, floats by exact ``repr`` round-trip) and the SHA-256 of
that encoding names the entry.  Two configs that compare equal produce the
same digest no matter how they were constructed; any observable difference
- a timing-model coefficient, a fault-script entry, one runtime cost knob -
produces a different digest.  There is deliberately no "close enough":
a cache hit returns the bit-identical ``RunResult`` the simulation would
have produced.

Entries are one JSON file per digest under the cache root (default
``.repro-cache/``), written atomically (temp file + ``os.replace``) so a
killed sweep never leaves a torn entry, and self-describing: each carries
the schema tag and its full canonical key, which is re-checked on load so
a hash collision or encoder bug degrades to a miss, never to wrong data.
Corrupted or unreadable entries are deleted and re-simulated.

Cells that cannot be keyed or stored faithfully are *uncacheable*, not
errors: an exotic object in the key that the canonical encoder refuses, or
a result carrying a telemetry export (whose payload does not round-trip
through JSON unchanged).  Those cells simply run every time.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import json
import math
import os
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Optional

import numpy as np

from repro.atomic import atomic_write
from repro.metrics import RunResult

__all__ = [
    "CACHE_SCHEMA",
    "DEFAULT_CACHE_DIR",
    "CacheStats",
    "ResultCodec",
    "RUN_CODEC",
    "SweepCache",
    "UncacheableCell",
    "cell_digest",
]

#: entry format version; bump on any change to the canonical encoding or
#: the stored-result layout, which invalidates every existing entry (the
#: schema tag participates in the digest).
CACHE_SCHEMA = "repro.sweep-cache/1"

#: cache root used when caching is enabled without an explicit directory.
DEFAULT_CACHE_DIR = ".repro-cache"


class UncacheableCell(TypeError):
    """The cell key contains a value the canonical encoder cannot commit to."""


def _canon(obj: Any) -> Any:
    """Canonical JSON-ready encoding of one key component.

    The encoding must be *injective on observable state* (different
    configs -> different encodings) and *stable* (same config -> same
    encoding, across processes and dict orderings).  Dataclasses encode by
    declared field only, so derived caches living in non-field attributes
    (e.g. ``TimingModel``'s memo table) never perturb the key.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        # JSON floats round-trip exactly via repr, but inf/nan are not JSON
        if math.isfinite(obj):
            return obj
        return {"!float": repr(obj)}
    if isinstance(obj, enum.Enum):
        cls = type(obj)
        return {"!enum": f"{cls.__module__}.{cls.__qualname__}", "name": obj.name}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        # compare=False fields are excluded, mirroring dataclass equality:
        # derived state (e.g. DagProgram's node template) is not
        # observable state and must not perturb the digest
        cls = type(obj)
        return {
            "!dc": f"{cls.__module__}.{cls.__qualname__}",
            "fields": {
                f.name: _canon(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
                if f.compare
            },
        }
    if isinstance(obj, Mapping):
        items = [[_canon(k), _canon(v)] for k, v in obj.items()]
        items.sort(key=lambda kv: json.dumps(kv[0], sort_keys=True))
        return {"!map": items}
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        encoded = [_canon(v) for v in obj]
        encoded.sort(key=lambda v: json.dumps(v, sort_keys=True))
        return {"!set": encoded}
    if isinstance(obj, np.ndarray):
        # apps may precompute array state (e.g. LaneDetection's Gaussian
        # kernel); dtype + shape + raw C-order bytes is exact and stable
        arr = np.ascontiguousarray(obj)
        return {
            "!ndarray": arr.dtype.str,
            "shape": list(arr.shape),
            "data": arr.tobytes().hex(),
        }
    if isinstance(obj, np.generic):
        return _canon(obj.item())
    if hasattr(obj, "__dict__") and not callable(obj):
        # plain config-style object (e.g. a CedrApplication): class identity
        # plus every instance attribute is its observable state
        cls = type(obj)
        return {
            "!obj": f"{cls.__module__}.{cls.__qualname__}",
            "attrs": _canon(vars(obj)),
        }
    raise UncacheableCell(
        f"cannot canonically encode {type(obj).__name__!r} value {obj!r} "
        f"for cache keying"
    )


def cell_digest(cell: tuple) -> tuple[str, Any]:
    """(sha256 hex digest, canonical key) of one sweep cell.

    Raises :class:`UncacheableCell` when the cell cannot be keyed.
    """
    import hashlib  # here, not at the top: an uncached run never keys a cell
    key = [CACHE_SCHEMA, _canon(cell)]
    blob = json.dumps(key, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest(), key


#: result fields no cache entry carries (see ``ResultCodec.cacheable``)
_UNCACHED = ("telemetry",)


def _encode_result(value: Any) -> Any:
    """JSON-ready form of a frozen result dataclass, field by field: nested
    results recurse, tuples become lists, :data:`_UNCACHED` fields drop."""
    if dataclasses.is_dataclass(value):
        return {
            f.name: _encode_result(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if f.name not in _UNCACHED
        }
    if isinstance(value, (tuple, list)):
        return [_encode_result(v) for v in value]
    if isinstance(value, dict):
        return {k: _encode_result(v) for k, v in value.items()}
    return value


_hints = functools.cache(typing.get_type_hints)


def _decode_result(hint: Any, value: Any) -> Any:
    """Inverse of :func:`_encode_result` for a value annotated *hint*: a
    result dataclass field by field (left-out fields take their defaults),
    tuples and dicts item by item, a scalar through its constructor."""
    if dataclasses.is_dataclass(hint):
        hints = _hints(hint)
        return hint(**{
            f.name: _decode_result(hints[f.name], value[f.name])
            for f in dataclasses.fields(hint)
            if f.name not in _UNCACHED
        })
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        return tuple(_decode_result(args[0], v) for v in value)
    if typing.get_origin(hint) is dict:
        return {_decode_result(args[0], k): _decode_result(args[1], v) for k, v in value.items()}
    return hint(value)  # int, float, str


@dataclass(frozen=True)
class ResultCodec:
    """How one frozen result dataclass *cls* round-trips through a cache
    entry: field by field, less :data:`_UNCACHED`.

    ``kind`` tags the entry so a digest can never decode under the wrong
    codec (kind participates in the load-time recheck, like the stored
    key).  :data:`RUN_CODEC` handles batch :class:`RunResult` cells and
    keeps the original entry layout exactly (its kind is the implicit
    default, so pre-codec entries stay valid); the serve tier has its own
    for :class:`~repro.serve.driver.ServeResult` cells.
    """

    kind: str
    cls: type

    def encode(self, result: Any) -> dict:
        return _encode_result(result)

    def decode(self, data: dict) -> Any:
        return _decode_result(self.cls, data)

    def cacheable(self, result: Any) -> bool:
        """The storage gate: a run carrying telemetry (a serve result's own
        ``run`` included) would not come back bit-identical, so it reruns."""
        return getattr(result, "run", result).telemetry is None


#: the original batch-sweep codec; entries it writes omit the ``kind`` field
#: so every pre-codec cache entry on disk still decodes under it.
RUN_CODEC = ResultCodec("run/1", RunResult)


@dataclass
class CacheStats:
    """Counters for one cache handle's lifetime (reported by the CLI)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    uncacheable: int = 0
    corrupt: int = 0

    def summary(self) -> str:
        parts = [f"{self.hits} hits", f"{self.misses} misses"]
        if self.uncacheable:
            parts.append(f"{self.uncacheable} uncacheable")
        if self.corrupt:
            parts.append(f"{self.corrupt} corrupt entries dropped")
        return ", ".join(parts)


#: sentinel distinguishing "no probe supplied" from "probe said uncacheable"
_UNPROBED = object()


class SweepCache:
    """On-disk content-addressed store of sweep-cell results."""

    def __init__(self, root: "str | os.PathLike[str]" = DEFAULT_CACHE_DIR) -> None:
        self.root = Path(root)
        self.stats = CacheStats()

    def _path(self, digest: str) -> Path:
        return self.root / f"{digest}.json"

    def probe(self, cell: tuple) -> Optional[tuple[str, Any]]:
        """Key *cell* once: ``(digest, canonical key)``, or None if uncacheable.

        Pass the probe to both :meth:`get` and :meth:`put` so the lookup and
        the store agree on the digest even if the cell's objects are mutated
        (e.g. by lazy memoization) while the simulation runs in between.
        """
        try:
            return cell_digest(cell)
        except UncacheableCell:
            self.stats.uncacheable += 1
            return None

    def get(
        self, cell: tuple, probe: Any = _UNPROBED, codec: Optional[ResultCodec] = None
    ) -> Optional[RunResult]:
        """Stored result for *cell*, or ``None`` (counted as a miss)."""
        if codec is None:
            codec = RUN_CODEC
        if probe is _UNPROBED:
            probe = self.probe(cell)
        if probe is None:
            self.stats.misses += 1
            return None
        digest, key = probe
        path = self._path(digest)
        try:
            raw = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except OSError:
            self._drop_corrupt(path)
            return None
        try:
            entry = json.loads(raw)
            if entry["schema"] != CACHE_SCHEMA or entry["key"] != key:
                # schema drift, hash collision, or encoder bug: the stored
                # key is re-checked so none of those can surface wrong data
                raise ValueError("cache entry does not match its cell")
            if entry.get("kind", RUN_CODEC.kind) != codec.kind:
                raise ValueError("cache entry kind does not match its codec")
            result = codec.decode(entry["result"])
        except (ValueError, KeyError, TypeError):
            self._drop_corrupt(path)
            return None
        self.stats.hits += 1
        return result

    def put(
        self,
        cell: tuple,
        result: RunResult,
        probe: Any = _UNPROBED,
        codec: Optional[ResultCodec] = None,
    ) -> bool:
        """Persist *result* under *cell*'s digest; True if stored."""
        if codec is None:
            codec = RUN_CODEC
        if not codec.cacheable(result):
            # e.g. telemetry exports carry tuples that do not survive a
            # JSON round trip bit-identically; such runs stay uncached
            self.stats.uncacheable += 1
            return False
        if probe is _UNPROBED:
            probe = self.probe(cell)
        if probe is None:
            return False
        digest, key = probe
        entry = {"schema": CACHE_SCHEMA, "key": key, "result": codec.encode(result)}
        if codec.kind != RUN_CODEC.kind:
            entry["kind"] = codec.kind
        self.root.mkdir(parents=True, exist_ok=True)
        with atomic_write(self._path(digest)) as fh:
            json.dump(entry, fh, separators=(",", ":"))
        self.stats.stores += 1
        return True

    def _drop_corrupt(self, path: Path) -> None:
        self.stats.corrupt += 1
        self.stats.misses += 1
        try:
            path.unlink()
        except OSError:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SweepCache {self.root} {self.stats.summary()}>"
