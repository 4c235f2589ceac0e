"""Optimization-selection databases (paper Section V-B + auto-tuning).

Two tables live here:

* :class:`OptimizationDatabase` — the paper's original knowledge base.
  "The knowledge we get from our micro-benchmarks ... are stored in a
  database that is utilized by the source-to-source compiler to decide
  what optimization should be applied for which a) target hardware and
  b) backend."  :func:`default_database` builds it by *running* the
  micro-benchmarks in :mod:`repro.mapping.microbench` against the
  simulated devices — the same way the authors populated theirs against
  silicon.

* :class:`TunedDatabase` — the measurement-driven extension
  (docs/TUNING.md).  Where the paper's table holds per-(device, backend)
  *policy* decisions (texture path, scratchpad staging), this one holds
  per-kernel *winners*: the block configuration the auto-tuner
  (:mod:`repro.mapping.tuner`) measured as fastest, keyed by
  ``(kernel_fingerprint, device, backend, engine)``.  The fingerprint is
  the canonical-IR digest (:func:`repro.cache.key.ir_digest`), so two
  textually different kernels that lower to the same IR share one entry
  and a changed kernel can never pick up a stale winner.  Entries
  persist in an atomic, versioned on-disk JSON store: a torn write is
  impossible (temp file + ``os.replace``), a corrupt or
  stale-format store degrades to an empty database (a tuning *miss*,
  never an error) and is healed by the next save.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from ..atomic import write_atomic
from ..hwmodel.database import DEVICES
from ..hwmodel.device import DeviceSpec


@dataclasses.dataclass(frozen=True)
class OptimizationEntry:
    """Per (device, backend) optimization decisions."""

    device: str
    backend: str
    padding_bytes: int            # global-memory row alignment
    texture_beneficial: bool      # read through texture/image path?
    smem_beneficial: bool         # stage local-operator tiles?
    constant_mask_static: bool    # statically initialised constant memory


class OptimizationDatabase:
    """Lookup table consulted during compilation."""

    def __init__(self):
        self._entries: Dict[Tuple[str, str], OptimizationEntry] = {}

    def add(self, entry: OptimizationEntry) -> None:
        self._entries[(entry.device, entry.backend)] = entry

    def lookup(self, device: DeviceSpec,
               backend: str) -> Optional[OptimizationEntry]:
        entry = self._entries.get((device.name, backend))
        if entry is not None:
            return entry
        # fall back to any same-architecture entry.  Sorted by device
        # name so the fallback is deterministic: dict iteration order
        # depends on insertion history, and two builds that populated
        # the table in different orders used to return different
        # entries for the same phantom device.
        for (name, be), e in sorted(self._entries.items()):
            if be != backend:
                continue
            other = DEVICES.get(name)
            if other is not None and other.architecture == \
                    device.architecture:
                return e
        return None

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self):
        return list(self._entries.values())


_default: Optional[OptimizationDatabase] = None
_default_lock = threading.Lock()


def default_database(rebuild: bool = False) -> OptimizationDatabase:
    """The database populated by the built-in micro-benchmarks (cached).

    Thread-safe: the build runs under a lock and the module global is
    published only once the database is complete, so two racing first
    callers (serve workers, parallel graph compiles) get one fully
    populated instance instead of rebuilding twice or observing a
    half-published global.
    """
    global _default
    with _default_lock:
        if _default is None or rebuild:
            from .microbench import build_database
            built = build_database()      # publish atomically: the
            _default = built              # global only ever holds a
        return _default                   # complete database


# --------------------------------------------------------------------------
# Tuned-configuration database (measurement-driven auto-tuning)
# --------------------------------------------------------------------------

#: bump to invalidate every persisted tuned entry on a format change;
#: a store with any other version loads as empty (a miss) and is
#: rewritten at the current version by the next save
TUNED_FORMAT_VERSION = 1

#: engines a tuned entry may be recorded under — the provenance of its
#: measured signal (docs/TUNING.md)
TUNED_ENGINES = ("sim", "native")


@dataclasses.dataclass(frozen=True)
class TunedEntry:
    """One measured winner for ``(fingerprint, device, backend, engine)``.

    *fingerprint* is the canonical-IR digest
    (:func:`repro.cache.key.ir_digest`); *signal* names the
    measurement that scored the winner (``"model"``, ``"sim"`` wall
    clock, or ``"native"`` wall clock); *score_ms* is the winning score
    in that signal's units; *trials* how many configurations were
    actually measured to find it.
    """

    fingerprint: str
    device: str
    backend: str
    engine: str
    block: Tuple[int, int]
    score_ms: float
    signal: str = "model"
    trials: int = 0
    created: float = 0.0

    @property
    def key(self) -> Tuple[str, str, str, str]:
        return (self.fingerprint, self.device, self.backend, self.engine)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "fingerprint": self.fingerprint,
            "device": self.device,
            "backend": self.backend,
            "engine": self.engine,
            "block": list(self.block),
            "score_ms": float(self.score_ms),
            "signal": self.signal,
            "trials": int(self.trials),
            "created": float(self.created),
        }

    @classmethod
    def from_dict(cls, raw: Any) -> "TunedEntry":
        """Strict decode; raises ``ValueError`` on any malformed field so
        the store loader can skip (heal) exactly the bad entries."""
        if not isinstance(raw, dict):
            raise ValueError("tuned entry is not an object")
        try:
            block = raw["block"]
            if (not isinstance(block, (list, tuple)) or len(block) != 2
                    or not all(isinstance(b, int) and b >= 1
                               for b in block)):
                raise ValueError(f"bad block {block!r}")
            entry = cls(
                fingerprint=str(raw["fingerprint"]),
                device=str(raw["device"]),
                backend=str(raw["backend"]),
                engine=str(raw["engine"]),
                block=(int(block[0]), int(block[1])),
                score_ms=float(raw["score_ms"]),
                signal=str(raw.get("signal", "model")),
                trials=int(raw.get("trials", 0)),
                created=float(raw.get("created", 0.0)),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed tuned entry: {exc}") from None
        if not entry.fingerprint or entry.score_ms < 0:
            raise ValueError("malformed tuned entry: empty fingerprint "
                             "or negative score")
        return entry


class TunedDatabase:
    """Persistent store of measured per-kernel winners.

    In-memory map with an optional on-disk JSON document behind it.
    Writes are atomic (temp file + ``os.replace``); loads are forgiving:
    an unreadable file, a foreign/stale ``format`` or a malformed entry
    never raises — bad state degrades to tuning *misses* (counted in
    :attr:`healed`) and the next :meth:`record` rewrites a clean store.
    Thread-safe: all access runs under one lock.
    """

    def __init__(self, path: Optional[str] = None):
        self.path = os.path.abspath(path) if path else None
        self.healed = 0           # corrupt entries/stores dropped on load
        self._lock = threading.RLock()
        self._entries: Dict[Tuple[str, str, str, str], TunedEntry] = {}
        if self.path is not None:
            self._load()

    # -- queries ------------------------------------------------------------

    def lookup(self, fingerprint: str, device: str, backend: str,
               engine: str = "sim") -> Optional[TunedEntry]:
        """The tuned winner for the key, or ``None`` (a miss).

        Falls back to an entry of the same ``(fingerprint, device,
        backend)`` tuned under another engine — a native-measured winner
        is a better guess for a simulator run than Algorithm 2's static
        choice, and vice versa.  The fallback is deterministic (sorted
        by engine name).
        """
        with self._lock:
            exact = self._entries.get((fingerprint, device, backend,
                                       engine))
            if exact is not None:
                return exact
            others = [e for k, e in sorted(self._entries.items())
                      if k[0] == fingerprint and k[1] == device
                      and k[2] == backend]
            return others[0] if others else None

    def entries(self) -> List[TunedEntry]:
        with self._lock:
            return [self._entries[k] for k in sorted(self._entries)]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- mutation -----------------------------------------------------------

    def record(self, entry: TunedEntry, persist: bool = True) -> None:
        """Install *entry* (replacing any previous winner for its key)
        and, with *persist* and a backing path, save the whole store."""
        if not isinstance(entry, TunedEntry):
            raise TypeError("record expects a TunedEntry")
        with self._lock:
            self._entries[entry.key] = entry
            if persist:
                self._save()

    def clear(self, disk: bool = False) -> None:
        with self._lock:
            self._entries.clear()
            if disk and self.path is not None:
                try:
                    os.unlink(self.path)
                except OSError:
                    pass

    def save(self) -> bool:
        """Force a write of the current entries; True when written."""
        with self._lock:
            return self._save()

    # -- disk layer ---------------------------------------------------------

    def _load(self) -> None:
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            return
        except (OSError, ValueError):
            self.healed += 1        # unreadable/corrupt store: empty
            return
        if not isinstance(doc, dict) \
                or doc.get("format") != TUNED_FORMAT_VERSION:
            self.healed += 1        # stale/foreign layout: a miss
            return
        raw_entries = doc.get("entries")
        if not isinstance(raw_entries, list):
            self.healed += 1
            return
        for raw in raw_entries:
            try:
                entry = TunedEntry.from_dict(raw)
            except ValueError:
                self.healed += 1    # skip exactly the bad entries
                continue
            self._entries[entry.key] = entry

    def _save(self) -> bool:
        """Write the store atomically; best-effort (False on OSError)."""
        if self.path is None:
            return False
        doc = {
            "format": TUNED_FORMAT_VERSION,
            "entries": [self._entries[k].to_dict()
                        for k in sorted(self._entries)],
        }
        try:
            os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
            write_atomic(self.path,
                         json.dumps(doc, indent=1, sort_keys=True) + "\n")
        except OSError:
            return False
        return True


def fresh_entry(fingerprint: str, device: str, backend: str, engine: str,
                block: Tuple[int, int], score_ms: float, signal: str,
                trials: int) -> TunedEntry:
    """A :class:`TunedEntry` stamped with the current time."""
    return TunedEntry(fingerprint=fingerprint, device=device,
                      backend=backend, engine=engine,
                      block=(int(block[0]), int(block[1])),
                      score_ms=float(score_ms), signal=signal,
                      trials=int(trials), created=time.time())


_default_tuned: Optional[TunedDatabase] = None
_default_tuned_lock = threading.Lock()


def default_tuned_database(rebuild: bool = False) -> TunedDatabase:
    """The process-wide tuned-config store the compile driver consults.

    Honors ``REPRO_OPTDB_PATH`` (on-disk location) at first use; without
    it the store is in-memory only, so a fresh process starts with an
    empty database and ``compile_kernel`` falls back to Algorithm 2
    everywhere.  Same atomic-publish locking discipline as
    :func:`default_database`.
    """
    global _default_tuned
    with _default_tuned_lock:
        if _default_tuned is None or rebuild:
            path = os.environ.get("REPRO_OPTDB_PATH") or None
            built = TunedDatabase(path=path)
            _default_tuned = built
        return _default_tuned


def set_default_tuned_database(db: Optional[TunedDatabase]) -> None:
    """Replace (or with ``None``, reset) the process-wide tuned store."""
    global _default_tuned
    with _default_tuned_lock:
        _default_tuned = db
