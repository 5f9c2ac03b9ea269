"""Act-signature decode cache for NEURAL-LANTERN.

Acts are structural: two plans that filter-then-scan the same way produce the
*same* tag-abstracted token sequence (``Act.key``), regardless of which
relations or predicates they mention.  The US-5 frequency-threshold policy
routes exactly the *frequently repeated* operators to the neural generator, so
the decoder is asked the same question over and over — a perfect caching
workload.

:class:`DecodeCache` is an LRU map from the abstracted source-token signature
(plus beam size) to the full **ranked candidate list** produced by beam
search.  Caching the whole ranked list — not just the best hypothesis — is
what keeps the anti-habituation behaviour alive: the generator cycles through
the surviving beam alternatives on repeated exposures, and those alternatives
survive a cache hit unchanged.

Hit/miss counters are exposed (:attr:`DecodeCache.hits`,
:attr:`DecodeCache.misses`, :meth:`DecodeCache.stats`) so benchmarks can
report cache effectiveness alongside response times.

Keys identify the *question* (act signature + beam width + numeric
precision), not the model answering it: entries are not invalidated by
weight updates, so owners that keep training the wrapped model must
:meth:`DecodeCache.clear` afterwards.  The precision component (the model
dtype, see :attr:`QEP2Seq.precision`) keeps a float64 warm cache imported
into a float32 model — or vice versa — from serving stale cross-precision
candidates.

Below the LRU tier sits an optional **compiled tier**
(:class:`CompiledCache`): an immutable, sorted-key snapshot produced by
``python -m repro.nlg.compile`` that serves pre-decoded workload
signatures by binary search with zero matmuls and zero lock contention on
writes (it is never mutated, so lookups need no lock at all).

The LRU cache is thread-safe: every operation takes an internal ``RLock``,
so a single warm cache can be shared by the worker threads of the
LANTERN-SERVE ``ThreadingHTTPServer`` (and by any other concurrent
narration pipeline) without torn LRU state or lost counter increments.
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left
from collections import OrderedDict
from typing import Optional, Sequence

from repro.errors import NLGError

#: default number of act signatures kept before LRU eviction
DEFAULT_CACHE_SIZE = 256

#: the precision tag of the default float64 model — the default keeps
#: legacy (pre-precision) callers and checkpoints working
DEFAULT_PRECISION = "float64"

#: a cache key: the abstracted source tokens, the beam size they were
#: decoded with (different beam sizes yield different ranked lists), and
#: the numeric precision (dtype) of the decoding model
CacheKey = tuple[tuple[str, ...], int, str]

#: on-disk format marker of compiled cache files
COMPILED_FORMAT_NAME = "lantern-compiled-cache"
COMPILED_FORMAT_VERSION = 1


def make_key(
    source_tokens: Sequence[str], beam_size: int, precision: str = DEFAULT_PRECISION
) -> CacheKey:
    """Build the canonical cache key for one act decode.

    ``beam_size`` must be the *effective* decode width (callers resolve
    ``None`` defaults via the model config first) — keying on an unresolved
    sentinel would alias entries decoded under different widths.
    ``precision`` is the decoding model's dtype so float32 candidates
    never alias float64 ones.
    """
    return (tuple(source_tokens), int(beam_size), str(precision))


def normalize_precision(tag: object) -> str:
    """Read a precision tag from an imported snapshot.

    Snapshots written while int8/float16 inference replicas existed tag
    plain entries ``"<dtype>:none"``; that reads as ``"<dtype>"``.
    Called only where entries enter a process (compiled-cache files,
    checkpoint and ``/admin/cache`` imports), never on the lookup path.
    """
    dtype, separator, mode = str(tag).partition(":")
    return dtype if separator and mode == "none" else str(tag)


class CompiledCache:
    """An immutable pre-decoded narration cache (LANTERN-ZERO tier).

    Built offline by ``python -m repro.nlg.compile``: every tag-abstracted
    act signature of a workload is decoded once through batched beam search
    and the ranked candidate lists are frozen into a JSON file with the
    signatures *sorted*, so lookups are a binary search over tuples —
    no hashing of long token sequences, no locks (never mutated), no
    matmuls.  The file records the beam size and model precision it was
    compiled under; lookups under any other beam/precision miss, which is
    the same cross-precision guarantee the LRU tier gets from its key.
    """

    def __init__(
        self,
        entries: Sequence[tuple[Sequence[str], Sequence[Sequence[str]]]],
        beam_size: int,
        precision: str = DEFAULT_PRECISION,
    ) -> None:
        self.beam_size = int(beam_size)
        self.precision = str(precision)
        pairs = sorted(
            (tuple(tokens), tuple(tuple(c) for c in candidates))
            for tokens, candidates in entries
        )
        self._keys: list[tuple[str, ...]] = [pair[0] for pair in pairs]
        self._values: list[tuple[tuple[str, ...], ...]] = [pair[1] for pair in pairs]
        # hits return these prebuilt snapshots without copying — the tier is
        # mounted read-only, so one shared list per signature is safe and
        # keeps the per-hit cost at the binary search alone
        self._served: list[list[list[str]]] = [
            [list(candidate) for candidate in value] for value in self._values
        ]

    def lookup(self, key: CacheKey) -> Optional[list[list[str]]]:
        """Ranked candidates for ``key``, or ``None`` when the signature is
        unknown or the key's beam/precision differ from the compiled ones.

        The returned lists are a **shared snapshot** (no per-hit copies);
        callers must treat them as read-only, exactly like the mounted file.
        """
        tokens, beam_size, precision = key
        if beam_size != self.beam_size or precision != self.precision:
            return None
        index = bisect_left(self._keys, tokens)
        if index < len(self._keys) and self._keys[index] == tokens:
            return self._served[index]
        return None

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: CacheKey) -> bool:
        return self.lookup(key) is not None

    # -- serialization -----------------------------------------------------

    def to_payload(self) -> dict:
        """The JSON-serializable on-disk form (entries stay sorted)."""
        return {
            "format": COMPILED_FORMAT_NAME,
            "version": COMPILED_FORMAT_VERSION,
            "beam_size": self.beam_size,
            "precision": self.precision,
            "entries": [
                [list(tokens), [list(candidate) for candidate in candidates]]
                for tokens, candidates in zip(self._keys, self._values)
            ],
        }

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_payload(), handle, ensure_ascii=False)

    @classmethod
    def from_payload(cls, payload: dict) -> "CompiledCache":
        if not isinstance(payload, dict) or payload.get("format") != COMPILED_FORMAT_NAME:
            raise NLGError(
                f"not a compiled narration cache (expected format {COMPILED_FORMAT_NAME!r})"
            )
        if payload.get("version") != COMPILED_FORMAT_VERSION:
            raise NLGError(
                f"unsupported compiled-cache version {payload.get('version')!r}"
            )
        try:
            entries = [
                ([str(t) for t in tokens], [[str(t) for t in cand] for cand in candidates])
                for tokens, candidates in payload["entries"]
            ]
            return cls(
                entries,
                beam_size=int(payload["beam_size"]),
                precision=normalize_precision(payload.get("precision", DEFAULT_PRECISION)),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise NLGError(f"malformed compiled-cache payload: {error}") from error

    @classmethod
    def load(cls, path) -> "CompiledCache":
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        return cls.from_payload(payload)


class DecodeCache:
    """An LRU cache of ranked beam-search candidate lists.

    Values are stored as tuples of token tuples (immutable), so a cached
    entry can never be corrupted by a caller mutating the returned lists;
    :meth:`get` rebuilds fresh ``list[list[str]]`` objects on every LRU hit.
    Compiled-tier hits return the tier's shared read-only snapshots instead
    (see :meth:`CompiledCache.lookup`).

    A :class:`CompiledCache` can be mounted read-only *under* the LRU tier
    (:meth:`mount_compiled`): lookups fall through LRU → compiled, compiled
    hits count as hits (tracked separately in ``compiled_hits``) and are
    *not* promoted into the LRU — the compiled tier is already O(log n)
    and promotion would just evict genuinely dynamic entries.
    """

    def __init__(self, max_size: int = DEFAULT_CACHE_SIZE, enabled: bool = True) -> None:
        self.max_size = max(int(max_size), 0)
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        self.compiled_hits = 0
        self._compiled: Optional[CompiledCache] = None
        self._entries: OrderedDict[CacheKey, tuple[tuple[str, ...], ...]] = OrderedDict()
        # reentrant so owners can compose operations (e.g. stats() inside a
        # locked section) without deadlocking on their own lock
        self._lock = threading.RLock()

    # -- core operations ---------------------------------------------------

    def get(self, key: CacheKey) -> Optional[list[list[str]]]:
        """Ranked candidates for ``key``, or ``None`` on a miss.

        A hit refreshes the entry's LRU position and increments ``hits``;
        a miss (or a disabled cache) increments ``misses``.  When a compiled
        tier is mounted, LRU misses fall through to it; compiled hits count
        as hits (and ``compiled_hits``) without LRU promotion.
        """
        with self._lock:
            if not self.enabled:
                self.misses += 1
                return None
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return [list(tokens) for tokens in entry]
            compiled = self._compiled
            if compiled is not None:
                candidates = compiled.lookup(key)
                if candidates is not None:
                    self.hits += 1
                    self.compiled_hits += 1
                    return candidates
            self.misses += 1
            return None

    def put(self, key: CacheKey, candidates: Sequence[Sequence[str]]) -> None:
        """Store the ranked candidate list, evicting the LRU entry if full."""
        with self._lock:
            if not self.enabled or self.max_size == 0:
                return
            self._entries[key] = tuple(tuple(tokens) for tokens in candidates)
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_size:
                self._entries.popitem(last=False)

    # -- compiled tier -----------------------------------------------------

    def mount_compiled(self, compiled: CompiledCache) -> None:
        """Mount an immutable pre-decoded tier under the LRU."""
        with self._lock:
            self._compiled = compiled

    def unmount_compiled(self) -> None:
        with self._lock:
            self._compiled = None

    @property
    def compiled(self) -> Optional[CompiledCache]:
        return self._compiled

    # -- management --------------------------------------------------------

    def clear(self, reset_counters: bool = True) -> None:
        """Drop all LRU entries (and, by default, the hit/miss counters).

        A mounted compiled tier survives — it holds offline-verified
        decodes that no runtime event (like continued training of a
        *different* model) can invalidate without also swapping the file.
        """
        with self._lock:
            self._entries.clear()
            if reset_counters:
                self.reset_counters()

    def export_entries(self) -> list[tuple[CacheKey, tuple[tuple[str, ...], ...]]]:
        """A point-in-time snapshot of the cached entries, LRU-oldest first.

        LANTERN-PERSIST serializes this into checkpoints so a restarted
        service boots with a warm cache; re-inserting the snapshot through
        :meth:`put` in order reproduces the eviction order exactly.
        """
        with self._lock:
            return list(self._entries.items())

    def reset_counters(self) -> None:
        """Zero the hit/miss counters while keeping the cached entries.

        Benchmarks call this between a priming pass and the measured pass so
        the reported hit rate reflects only the measured (warm) lookups.
        """
        with self._lock:
            self.hits = 0
            self.misses = 0
            self.compiled_hits = 0

    def configure(self, max_size: Optional[int] = None, enabled: Optional[bool] = None) -> None:
        """Adjust size/enablement in place (used by ``LanternConfig`` wiring)."""
        with self._lock:
            if max_size is not None:
                self.max_size = max(int(max_size), 0)
                while len(self._entries) > self.max_size:
                    self._entries.popitem(last=False)
            if enabled is not None:
                self.enabled = bool(enabled)
                if not self.enabled:
                    self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        with self._lock:
            return key in self._entries

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when untouched)."""
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def stats(self) -> dict[str, float]:
        """Counters for benchmark reporting (read atomically)."""
        with self._lock:
            document: dict[str, float] = {
                "hits": self.hits,
                "misses": self.misses,
                "size": len(self._entries),
                "max_size": self.max_size,
                "hit_rate": self.hit_rate,
            }
            if self._compiled is not None:
                document["compiled_hits"] = self.compiled_hits
                document["compiled_size"] = len(self._compiled)
            return document

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DecodeCache(size={len(self._entries)}/{self.max_size}, "
            f"hits={self.hits}, misses={self.misses})"
        )
