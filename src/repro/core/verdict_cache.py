"""Cross-query verdict cache keyed on canonical problem fingerprints.

CEGIS-style outer loops (and plain re-runs of a benchmark) issue the same —
or nearly the same — AB-query over and over.  With hash-consed expressions
(:mod:`repro.core.expr`) every problem has a cheap canonical fingerprint
(:meth:`repro.core.problem.ABProblem.fingerprint`), which makes a
content-addressed verdict store possible:

* **keys** — ``blake2b(problem fingerprint + sorted assumptions)``.  The
  fingerprint already normalizes clause order, literal order, commutative
  argument order, and constraint orientation, so presentation differences
  collapse onto one entry.
* **values** — the final verdict and, for SAT, the witness model.

Soundness rules enforced by the pipeline when consulting the store:

* cached **UNSAT** verdicts are returned directly — they are only ever
  stored from complete runs, and a fingerprint match means the query is
  semantically identical;
* cached **SAT** verdicts are *revalidated* against the live problem with
  :meth:`ABProblem.check_model` at the current tolerance before being
  trusted (a different tolerance or an incompatible assumption set simply
  misses);
* **UNKNOWN** is never cached;
* a SAT entry that fails revalidation is a miss: the query is solved
  normally.

Entries written with a ``lemmas`` list (the format before lemmas were
dropped from the cache) still load; the list is ignored.

The store is in-memory (bounded LRU) with an optional on-disk mirror: one
JSON file per key, written atomically (tmp + rename) so concurrent workers
can share a cache directory without torn reads.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections import OrderedDict
from typing import Dict, Optional, Sequence

__all__ = ["CachedVerdict", "VerdictCache"]

_SCHEMA = 1


class CachedVerdict:
    """One stored verdict: status plus, for SAT, the witness model."""

    __slots__ = ("status", "boolean", "theory")

    def __init__(
        self,
        status: str,
        boolean: Optional[Dict[int, bool]] = None,
        theory: Optional[Dict[str, float]] = None,
    ):
        if status not in ("sat", "unsat"):
            raise ValueError(f"only definite verdicts are cacheable, got {status!r}")
        self.status = status
        self.boolean = dict(boolean) if boolean else {}
        self.theory = dict(theory) if theory else {}

    def to_json(self) -> Dict:
        return {
            "schema": _SCHEMA,
            "status": self.status,
            "boolean": [[var, bool(val)] for var, val in sorted(self.boolean.items())],
            "theory": {name: float(val) for name, val in sorted(self.theory.items())},
        }

    @classmethod
    def from_json(cls, payload: Dict) -> Optional["CachedVerdict"]:
        if not isinstance(payload, dict) or payload.get("schema") != _SCHEMA:
            return None
        status = payload.get("status")
        if status not in ("sat", "unsat"):
            return None
        try:
            boolean = {int(var): bool(val) for var, val in payload.get("boolean", [])}
            theory = {str(k): float(v) for k, v in (payload.get("theory") or {}).items()}
        except (TypeError, ValueError):
            return None
        return cls(status, boolean, theory)

    def __repr__(self) -> str:
        return (
            f"CachedVerdict({self.status}, |model|={len(self.boolean)}+"
            f"{len(self.theory)})"
        )


class VerdictCache:
    """Fingerprint -> :class:`CachedVerdict` store (memory + optional disk).

    ``directory=None`` keeps the cache purely in-memory (bounded LRU of
    ``capacity`` entries).  With a directory, entries are mirrored to
    ``<directory>/<key>.json`` and missing memory entries fall back to
    disk, so separate processes — including parallel workers — share
    verdicts across runs.
    """

    def __init__(self, directory: Optional[str] = None, capacity: int = 1024):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.directory = directory
        self.capacity = capacity
        self._memory: "OrderedDict[str, CachedVerdict]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        if directory:
            os.makedirs(directory, exist_ok=True)

    def __reduce__(self):
        # A pickled cache (a parallel task's config) arrives as a fresh,
        # empty cache on the same directory: each process keeps its own
        # memory layer and counters and shares entries through the disk
        # mirror.
        return (VerdictCache, (self.directory, self.capacity))

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------
    @staticmethod
    def key(
        problem, assumptions: Sequence[int] = (), tolerance: Optional[float] = None
    ) -> str:
        """Cache key for a query: problem fingerprint + sorted assumptions.

        Assumptions are the *user-level* literals of the query; session
        activation literals must be excluded by the caller (they are
        process-local bookkeeping, and the session's mirror CNF already
        carries the asserted clauses the fingerprint covers).  The
        tolerance participates because boundary-point verdicts can
        legitimately differ between tolerances.
        """
        import hashlib

        digest = hashlib.blake2b(digest_size=16)
        digest.update(problem.fingerprint().encode())
        digest.update(b"|")
        digest.update(",".join(map(str, sorted(assumptions))).encode())
        if tolerance is not None:
            digest.update(b"|tol:")
            digest.update(repr(float(tolerance)).encode())
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------
    def lookup(self, key: str) -> Optional[CachedVerdict]:
        entry = self._memory.get(key)
        if entry is not None:
            self._memory.move_to_end(key)
            self.hits += 1
            return entry
        entry = self._read_disk(key)
        if entry is not None:
            self._remember(key, entry)
            self.hits += 1
            return entry
        self.misses += 1
        return None

    def store(
        self,
        key: str,
        status: str,
        boolean: Optional[Dict[int, bool]] = None,
        theory: Optional[Dict[str, float]] = None,
    ) -> CachedVerdict:
        entry = CachedVerdict(status, boolean, theory)
        self._remember(key, entry)
        self._write_disk(key, entry)
        self.stores += 1
        return entry

    def __len__(self) -> int:
        return len(self._memory)

    def counters(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "stores": self.stores}

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _remember(self, key: str, entry: CachedVerdict) -> None:
        self._memory[key] = entry
        self._memory.move_to_end(key)
        while len(self._memory) > self.capacity:
            self._memory.popitem(last=False)

    def _path(self, key: str) -> Optional[str]:
        if not self.directory:
            return None
        return os.path.join(self.directory, f"{key}.json")

    def _read_disk(self, key: str) -> Optional[CachedVerdict]:
        path = self._path(key)
        if path is None:
            return None
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return None
        return CachedVerdict.from_json(payload)

    def _write_disk(self, key: str, entry: CachedVerdict) -> None:
        path = self._path(key)
        if path is None:
            return
        try:
            fd, tmp_path = tempfile.mkstemp(
                prefix=f".{key}.", suffix=".tmp", dir=self.directory
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(entry.to_json(), handle, sort_keys=True)
                os.replace(tmp_path, path)
            except BaseException:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
                raise
        except OSError:
            # A read-only or vanished cache directory degrades to
            # memory-only operation rather than failing the solve.
            pass
