"""Persistent, content-addressed on-disk artifact store.

:class:`ArtifactStore` is the disk tier behind the process-local
:class:`~repro.scenarios.cache.ArtifactCache`: mapping, workload and
simulation artifacts are spilled to (and served from) files named by the
same SHA-256 content fingerprints that key the in-memory regions.  That is
what lets parallel :class:`~repro.scenarios.sweep.SweepRunner` workers and
successive CLI/bench invocations share warm artifacts instead of each
recomputing every mapping and simulation from scratch.

Design rules, in decreasing order of importance:

* **Keys are pure functions of content.**  There is no invalidation
  protocol: a changed spec produces a different key and misses cleanly,
  exactly as in the in-memory cache.
* **Versioning.**  Entries live under a namespace directory encoding the
  store schema and the fingerprint canonicalisation version
  (:data:`~repro.scenarios.fingerprint.CANONICAL_VERSION`), and every
  entry embeds both in its envelope.  A version bump — new canonical
  rules, new envelope layout — silently invalidates the whole namespace
  (old entries are simply never looked up).  Artifact *payloads* carry
  their own schema stamps (``MAPPING_PAYLOAD_VERSION``,
  ``SIMULATION_PAYLOAD_VERSION``, ``ACCURACY_PAYLOAD_VERSION``) checked
  at rehydration time, so an algorithm change that leaves keys unchanged
  still misses instead of serving stale results.  The store itself checks
  only its envelope — payload stamps belong to the artifact types and are
  enforced by their ``from_payload`` loaders.
* **Concurrent writers are safe.**  Writes go to a unique temporary file
  in the destination directory followed by an atomic :func:`os.replace`;
  readers therefore never observe partial entries, and racing writers
  resolve last-writer-wins — harmless, because a key determines its
  content, so duplicate writes are byte-identical artifacts.
* **Corruption tolerates itself away, visibly.**  A truncated, garbled
  or mismatched entry reads as a miss (and is deleted best-effort); the
  caller rebuilds and rewrites it.  Each such discard logs one
  ``WARNING`` on the ``repro.scenarios.store`` logger naming the entry.
  The store is an accelerator, never an authority.

Two operational caveats.  Entries are pickled, and unpickling executes
code: share a store directory only within a single trust domain — never
point ``--cache-dir``/``$REPRO_CACHE_DIR`` at a location other users can
write to.  And the store never evicts (keys are content hashes, so old
entries are simply never looked up again once specs change): reclaim disk
with :meth:`ArtifactStore.clear` or by deleting the directory.
"""

from __future__ import annotations

import logging
import os
import pickle
import tempfile
import warnings
from pathlib import Path
from typing import Optional, Union

from .fingerprint import CANONICAL_VERSION

#: pickled-envelope layout version; bump on any change to the entry format.
SCHEMA_VERSION = 1

logger = logging.getLogger(__name__)


class ArtifactStore:
    """Content-addressed file store: one pickled envelope per fingerprint.

    Entries are laid out as ``<root>/<namespace>/<region>/<key[:2]>/<key>``
    (the two-character shard keeps directory fan-out bounded on large
    stores).  All methods are safe under concurrent processes.
    """

    def __init__(self, root: Optional[Union[str, Path]] = None):
        self.root = Path(root) if root is not None else self.default_root()
        self._namespace = self.root / f"v{SCHEMA_VERSION}-c{CANONICAL_VERSION}"
        self._write_failed = False

    @staticmethod
    def default_root() -> Path:
        """``$REPRO_CACHE_DIR`` when set, else ``~/.cache/repro``."""
        env = os.environ.get("REPRO_CACHE_DIR")
        if env:
            return Path(env)
        return Path.home() / ".cache" / "repro"

    # ------------------------------------------------------------------ #
    def _path(self, region: str, key: str) -> Path:
        if not key or any(c in key for c in "/\\"):
            raise ValueError(f"malformed artifact key {key!r}")
        return self._namespace / region / key[:2] / key

    def load(self, region: str, key: str) -> Optional[object]:
        """The stored payload for ``key``, or ``None`` on any kind of miss.

        Corrupt entries (truncated writes that predate atomic-rename
        stores, bit rot) and envelopes from other schema/canonicalisation
        versions or with mismatched addressing are treated as misses; the
        offending file is removed best-effort so it is rebuilt exactly
        once, and logged as a ``WARNING``; a plain miss is silent.
        """
        path = self._path(region, key)
        try:
            with path.open("rb") as handle:
                envelope = pickle.load(handle)
        except FileNotFoundError:
            return None
        except Exception:  # truncated/garbled pickle, unreadable file, ...
            self._discard_corrupt(region, key, path, "unreadable")
            return None
        if (
            not isinstance(envelope, dict)
            or envelope.get("schema") != SCHEMA_VERSION
            or envelope.get("canonical") != CANONICAL_VERSION
            or envelope.get("region") != region
            or envelope.get("key") != key
        ):
            self._discard_corrupt(region, key, path, "envelope mismatch")
            return None
        return envelope.get("payload")

    def store(self, region: str, key: str, payload: object) -> None:
        """Persist ``payload`` under ``key`` (atomic, last-writer-wins).

        Persist failures — read-only store, full disk, an unpicklable
        payload — degrade the store to a read-only tier with a single
        warning rather than failing the sweep: the caller already holds
        the built artifact, and persistence is an accelerator, not a
        correctness requirement.
        """
        path = self._path(region, key)
        envelope = {
            "schema": SCHEMA_VERSION,
            "canonical": CANONICAL_VERSION,
            "region": region,
            "key": key,
            "payload": payload,
        }
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                prefix=f".{key[:8]}-", suffix=".tmp", dir=path.parent
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    pickle.dump(envelope, handle, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp_name, path)
            except BaseException:
                self._discard(Path(tmp_name))
                raise
        except Exception as error:
            if not self._write_failed:
                self._write_failed = True
                warnings.warn(
                    f"artifact store at {self.root} failed to persist an "
                    f"entry ({type(error).__name__}: {error}); continuing "
                    "without persistence",
                    RuntimeWarning,
                    stacklevel=2,
                )

    # ------------------------------------------------------------------ #
    def __contains__(self, region_key) -> bool:
        region, key = region_key
        return self._path(region, key).exists()

    def __len__(self) -> int:
        """Number of persisted entries in the current namespace."""
        if not self._namespace.exists():
            return 0
        return sum(
            1
            for path in self._namespace.rglob("*")
            if path.is_file() and not path.name.endswith(".tmp")
        )

    def size(self, region: str) -> int:
        """Number of persisted entries in one region."""
        region_dir = self._namespace / region
        if not region_dir.exists():
            return 0
        return sum(
            1
            for path in region_dir.rglob("*")
            if path.is_file() and not path.name.endswith(".tmp")
        )

    def clear(self) -> None:
        """Delete every entry of the current namespace (reclaims disk).

        Other namespaces (older schema/canonicalisation versions) are left
        alone; delete :attr:`root` itself to drop those too.
        """
        import shutil

        shutil.rmtree(self._namespace, ignore_errors=True)

    def _discard_corrupt(
        self, region: str, key: str, path: Path, reason: str
    ) -> None:
        logger.warning(
            "discarding corrupt store entry: region=%s key=%s path=%s reason=%s",
            region, key, path, reason,
        )
        self._discard(path)

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass
