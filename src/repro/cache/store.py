"""The compilation cache: an in-memory LRU front over an optional
on-disk content-addressed store.

Design points:

* **Thread safety** — every structure is guarded by one re-entrant lock;
  payloads enter the cache only as complete dicts, so a concurrent
  reader can never observe a partially-written entry.
* **Atomic disk writes** — entries are serialised to a temporary file in
  the same directory and ``os.replace``d into place, which is atomic on
  POSIX and Windows; a crashed writer leaves at most a ``*.tmp`` file,
  never a torn JSON document.
* **Content addressing** — keys are sha256 hex digests produced by
  :mod:`repro.cache.key`; the disk layout shards by the first two hex
  characters (``<dir>/ab/abcdef....json``) to keep directories small.
* **Statistics** — hits/misses/evictions/stores plus disk counters,
  exposed through :class:`CacheStats` and the CLI's ``--cache-stats``.

The cache also hosts the *frontend memo* — an in-memory-only map from a
pre-parse kernel fingerprint to the type-checked IR and its digest, which
is what lets a warm ``compile_kernel`` skip the Python-AST frontend.  IR
objects are treated as immutable by the whole pipeline (transforms
rebuild nodes), so sharing them across compiles is safe.
"""

from __future__ import annotations

import base64
import binascii
import collections
import contextlib
import dataclasses
import json
import os
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..atomic import write_atomic
from ..obs.hist import observe


@dataclasses.dataclass
class CacheStats:
    """Counters for one :class:`CompilationCache`."""

    hits: int = 0                # in-memory hits
    misses: int = 0              # not found anywhere
    evictions: int = 0           # LRU evictions from the memory front
    stores: int = 0              # new entries written
    disk_hits: int = 0           # found on disk (after a memory miss)
    disk_writes: int = 0
    frontend_hits: int = 0       # pre-parse fingerprint memo hits
    frontend_misses: int = 0
    lint_hits: int = 0           # lint-result memo hits (per canonical IR)
    lint_misses: int = 0

    @property
    def lookups(self) -> int:
        """IR-level (artifact store) lookups only."""
        return self.hits + self.disk_hits + self.misses

    @property
    def frontend_lookups(self) -> int:
        return self.frontend_hits + self.frontend_misses

    @property
    def lint_lookups(self) -> int:
        return self.lint_hits + self.lint_misses

    @property
    def lint_hit_rate(self) -> float:
        """Hit rate of the lint-result memo alone."""
        total = self.lint_lookups
        return self.lint_hits / total if total else 0.0

    @property
    def ir_hit_rate(self) -> float:
        """Hit rate of the content-addressed artifact store alone."""
        total = self.lookups
        return (self.hits + self.disk_hits) / total if total else 0.0

    @property
    def frontend_hit_rate(self) -> float:
        """Hit rate of the pre-parse fingerprint memo alone."""
        total = self.frontend_lookups
        return self.frontend_hits / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        out: Dict[str, float] = dataclasses.asdict(self)
        out["ir_hit_rate"] = self.ir_hit_rate
        out["frontend_hit_rate"] = self.frontend_hit_rate
        out["lint_hit_rate"] = self.lint_hit_rate
        return out

    def metrics(self) -> Dict[str, float]:
        """The canonical ``cache.*`` metrics namespace
        (:mod:`repro.obs.metrics`)."""
        return {
            "cache.ir.hits": self.hits,
            "cache.ir.disk_hits": self.disk_hits,
            "cache.ir.misses": self.misses,
            "cache.ir.stores": self.stores,
            "cache.ir.evictions": self.evictions,
            "cache.ir.disk_writes": self.disk_writes,
            "cache.ir.hit_rate": self.ir_hit_rate,
            "cache.frontend.hits": self.frontend_hits,
            "cache.frontend.misses": self.frontend_misses,
            "cache.frontend.hit_rate": self.frontend_hit_rate,
            "cache.lint.hits": self.lint_hits,
            "cache.lint.misses": self.lint_misses,
            "cache.lint.hit_rate": self.lint_hit_rate,
        }

    def summary(self) -> str:
        return (f"hits={self.hits} disk_hits={self.disk_hits} "
                f"misses={self.misses} stores={self.stores} "
                f"evictions={self.evictions} "
                f"ir_hit_rate={self.ir_hit_rate:.1%} "
                f"frontend_hits={self.frontend_hits} "
                f"frontend_misses={self.frontend_misses} "
                f"frontend_hit_rate={self.frontend_hit_rate:.1%} "
                f"lint_hits={self.lint_hits} "
                f"lint_misses={self.lint_misses}")


class CompilationCache:
    """Content-addressed store for compilation artifacts.

    :param capacity: maximum in-memory entries (LRU eviction beyond it).
    :param directory: optional on-disk store; created on first write.
        Entries evicted from memory remain retrievable from disk, and a
        fresh process pointed at the same directory sees prior results.
    """

    def __init__(self, capacity: int = 512,
                 directory: Optional[str] = None):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self.directory = os.path.abspath(directory) if directory else None
        self.stats = CacheStats()
        self._lock = threading.RLock()
        self._entries: "collections.OrderedDict[str, Dict[str, Any]]" = \
            collections.OrderedDict()
        # fingerprint -> (ir_digest, typechecked KernelIR); memory only
        self._frontend: "collections.OrderedDict[str, Tuple[str, Any]]" = \
            collections.OrderedDict()
        # lint key (canonical-IR digest + lint config) -> diagnostics;
        # memory only, so cached compiles skip re-running the pipeline
        self._lint: "collections.OrderedDict[str, List[Any]]" = \
            collections.OrderedDict()
        # key -> [lock, refcount]: the single-flight table behind
        # locked(); entries exist only while some thread holds or waits
        # on the key, so the table cannot grow with the key space
        self._key_locks: Dict[str, List[Any]] = {}

    # -- main entry store ---------------------------------------------------

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """Return the payload for *key*, consulting memory then disk.

        Service time lands in the ``cache.hist.hit_ms`` /
        ``cache.hist.miss_ms`` histograms (a miss here is only the
        lookup cost — the compile it triggers is timed by its own
        spans), so a disk tier gone slow shows up as a fat hit tail.
        """
        started = time.perf_counter()
        with self._lock:
            payload = self._entries.get(key)
            if payload is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                observe("cache.hist.hit_ms",
                        (time.perf_counter() - started) * 1e3)
                return payload
        payload = self._disk_read(key)
        with self._lock:
            if payload is not None:
                self.stats.disk_hits += 1
                self._insert(key, payload)
            else:
                self.stats.misses += 1
        observe("cache.hist.hit_ms" if payload is not None
                else "cache.hist.miss_ms",
                (time.perf_counter() - started) * 1e3)
        return payload

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        """Store *payload* (a complete JSON-able dict) under *key*."""
        # content addressing makes re-stores of an existing key no-ops:
        # an entry evicted from memory but still on disk is neither a new
        # store (stats) nor worth rewriting (the bytes cannot differ)
        path = self._disk_path(key)
        on_disk = path is not None and os.path.exists(path)
        with self._lock:
            fresh = key not in self._entries and not on_disk
            self._insert(key, payload)
            if fresh:
                self.stats.stores += 1
        if path is not None and not on_disk:
            self._disk_write(key, payload)

    @contextlib.contextmanager
    def locked(self, key: str) -> Iterator[None]:
        """Serialise the miss-compile-store window for one *key*.

        A shared cache instance makes reads and writes individually
        safe, but the *compose* of a miss followed by a fresh compile is
        not: N server threads asking for the same kernel at once all
        miss, then all pay the full compile (a cache stampede) and race
        to store.  The compile driver wraps its lookup+compile+store in
        ``with store.locked(key)``, so the first thread compiles and
        every racer re-reads the stored entry as a hit.  Per-key, so
        distinct kernels still compile concurrently; re-entrant-free
        (one thread must not nest two ``locked`` calls on one key).
        """
        with self._lock:
            entry = self._key_locks.get(key)
            if entry is None:
                entry = [threading.Lock(), 0]
                self._key_locks[key] = entry
            entry[1] += 1
        entry[0].acquire()
        try:
            yield
        finally:
            entry[0].release()
            with self._lock:
                entry[1] -= 1
                if entry[1] == 0:
                    self._key_locks.pop(key, None)

    def invalidate(self, key: str) -> None:
        """Drop *key* everywhere — memory and disk.  For callers that find
        a stored payload undecodable; the next put() re-stores it."""
        with self._lock:
            self._entries.pop(key, None)
        path = self._disk_path(key)
        if path is not None:
            try:
                os.unlink(path)
            except OSError:
                pass

    def _insert(self, key: str, payload: Dict[str, Any]) -> None:
        self._entries[key] = payload
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            if key in self._entries:
                return True
        return self._disk_path(key) is not None \
            and os.path.exists(self._disk_path(key))

    def clear(self, disk: bool = False) -> None:
        """Drop every in-memory entry; with *disk*, delete stored files."""
        with self._lock:
            self._entries.clear()
            self._frontend.clear()
            self._lint.clear()
        if disk and self.directory and os.path.isdir(self.directory):
            for shard in os.listdir(self.directory):
                shard_dir = os.path.join(self.directory, shard)
                if not os.path.isdir(shard_dir):
                    continue
                for name in os.listdir(shard_dir):
                    if name.endswith(".json"):
                        try:
                            os.unlink(os.path.join(shard_dir, name))
                        except OSError:
                            pass

    # -- binary artifacts ---------------------------------------------------

    def put_artifact(self, key: str, payload: Dict[str, Any],
                     blob: bytes) -> None:
        """Store *payload* plus a binary *blob* (base64-embedded) under
        *key*.  Used for native shared objects, whose bytes cannot ride
        in a JSON document directly."""
        entry = dict(payload)
        entry["blob_b64"] = base64.b64encode(blob).decode("ascii")
        self.put(key, entry)

    def get_artifact(self, key: str
                     ) -> Optional[Tuple[Dict[str, Any], bytes]]:
        """(payload, blob) for *key*, or None on a miss **or** an entry
        whose embedded blob fails to decode — undecodable entries are
        invalidated so the next store heals them."""
        entry = self.get(key)
        if entry is None:
            return None
        encoded = entry.get("blob_b64")
        if not isinstance(encoded, str):
            self.invalidate(key)
            return None
        try:
            blob = base64.b64decode(encoded.encode("ascii"),
                                    validate=True)
        except (binascii.Error, ValueError):
            self.invalidate(key)
            return None
        payload = {k: v for k, v in entry.items() if k != "blob_b64"}
        return payload, blob

    # -- frontend memo ------------------------------------------------------

    def frontend_get(self, fingerprint: str) -> Optional[Tuple[str, Any]]:
        """(ir_digest, typechecked IR) for a kernel fingerprint, if known."""
        with self._lock:
            hit = self._frontend.get(fingerprint)
            if hit is not None:
                self._frontend.move_to_end(fingerprint)
                self.stats.frontend_hits += 1
            else:
                self.stats.frontend_misses += 1
            return hit

    def frontend_put(self, fingerprint: str, ir_dig: str, ir: Any) -> None:
        with self._lock:
            self._frontend[fingerprint] = (ir_dig, ir)
            self._frontend.move_to_end(fingerprint)
            while len(self._frontend) > self.capacity:
                self._frontend.popitem(last=False)

    # -- lint memo ----------------------------------------------------------

    def lint_get(self, key: str) -> Optional[List[Any]]:
        """The memoised diagnostics for one lint *key* (canonical-IR
        digest plus lint configuration), or None.  Returns a copy: the
        compile driver re-emits the list to active collectors and
        callers must not mutate the memo."""
        with self._lock:
            hit = self._lint.get(key)
            if hit is not None:
                self._lint.move_to_end(key)
                self.stats.lint_hits += 1
                return list(hit)
            self.stats.lint_misses += 1
            return None

    def lint_put(self, key: str, diagnostics: List[Any]) -> None:
        with self._lock:
            self._lint[key] = list(diagnostics)
            self._lint.move_to_end(key)
            while len(self._lint) > self.capacity:
                self._lint.popitem(last=False)

    # -- disk layer ---------------------------------------------------------

    def _disk_path(self, key: str) -> Optional[str]:
        if self.directory is None:
            return None
        return os.path.join(self.directory, key[:2], f"{key}.json")

    def _disk_read(self, key: str) -> Optional[Dict[str, Any]]:
        path = self._disk_path(key)
        if path is None or not os.path.exists(path):
            return None
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return json.load(fh)
        except ValueError:
            # corrupt file: a miss — and since put() skips writes for
            # existing files, unlink it so the re-store can heal it
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        except OSError:
            return None

    def _disk_write(self, key: str, payload: Dict[str, Any]) -> None:
        path = self._disk_path(key)
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            write_atomic(path, json.dumps(payload, separators=(",", ":")))
            with self._lock:
                self.stats.disk_writes += 1
        except OSError:
            pass               # disk store is best-effort


# --------------------------------------------------------------------------
# Process-wide default cache
# --------------------------------------------------------------------------

_default_cache: Optional[CompilationCache] = None
_default_lock = threading.Lock()


def get_default_cache() -> CompilationCache:
    """The process-wide cache used by ``compile_kernel(..., cache=True)``.

    Honors ``REPRO_CACHE_DIR`` (on-disk store location) and
    ``REPRO_CACHE_CAPACITY`` (in-memory entry limit) at first use.
    """
    global _default_cache
    with _default_lock:
        if _default_cache is None:
            directory = os.environ.get("REPRO_CACHE_DIR") or None
            capacity = int(os.environ.get("REPRO_CACHE_CAPACITY", "512"))
            _default_cache = CompilationCache(capacity=capacity,
                                              directory=directory)
        return _default_cache


def set_default_cache(cache: Optional[CompilationCache]) -> None:
    """Replace (or with ``None``, reset) the process-wide default cache."""
    global _default_cache
    with _default_lock:
        _default_cache = cache
