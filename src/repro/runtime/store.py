"""Crash-consistent artifact store: checksummed, atomic, quarantining.

Every artifact the runtime persists (model checkpoints, mid-training
snapshots, cached grid cells) funnels through this module so a ``kill -9``
mid-write, a full disk, or silent media corruption can never masquerade as
a *valid* artifact:

* **Atomic writes** — payload goes to ``<path>.tmp.npz`` (or ``.tmp`` for
  JSON), is flushed and ``fsync``'d, then ``os.replace``'d over the final
  name; the destination directory is fsync'd too, so after a crash the
  final path holds either the old artifact or the complete new one.
* **Content digests** — a SHA-256 over every entry's name, dtype, shape
  and bytes is embedded *inside* the artifact (npz entry
  ``__repro_digest__`` / JSON envelope key ``digest``) and re-verified on
  load.  Zip CRCs catch most torn writes; the digest also catches bit rot
  and truncations that happen to leave a well-formed archive.
* **Quarantine, never silent loss** — a corrupt or torn artifact is moved
  to a ``quarantine/`` directory next to where it lived (``.cache/`` →
  ``.cache/quarantine/``), a :class:`StoreFault` event is recorded and a
  WARNING naming the quarantined path is logged.  Callers then see a cache
  miss and regenerate — loudly, with the evidence preserved on disk.
* **Chaos hooks** — ``REPRO_FAULT_PLAN`` disk kinds (``torn-write@store``,
  ``enospc@store``, ``bitrot@store``) fire here, keyed by a write-attempt
  counter, so the recovery path above is itself testable.

This module is the only one that knows the on-disk format.  An artifact
without a digest is not trusted: it is quarantined like a corrupt one.
"""

from __future__ import annotations

import errno
import hashlib
import json
import logging
import os
import zipfile
import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

logger = logging.getLogger(__name__)

#: reserved npz entry holding the artifact's content digest.
DIGEST_KEY = "__repro_digest__"
#: subdirectory (sibling of the artifact) corrupt files are moved into.
QUARANTINE_DIRNAME = "quarantine"
#: per-directory cap on quarantined files; oldest (by name) pruned beyond it.
QUARANTINE_KEEP = 16
#: fault-plan scope consulted for every store write.
STORE_SCOPE = "store"

#: everything a corrupt / truncated / wrong-layout artifact can raise while
#: being opened and read.
#: NotImplementedError / zlib.error / IndexError look exotic but are what
#: zipfile raises when a bit flip lands in a header's compression-method,
#: deflate stream, or offset field — found by the byte-level fuzz sweep.
_READ_ERRORS = (zipfile.BadZipFile, OSError, EOFError, KeyError, ValueError,
                NotImplementedError, zlib.error, IndexError)


class CorruptArtifact(RuntimeError):
    """An artifact failed its embedded content-digest verification."""


@dataclass(frozen=True)
class StoreFault:
    """One detected (or injected) storage fault, kept for tests/reports."""

    path: str
    kind: str        # "digest-mismatch" | "unreadable" | "stale" | injected kind
    detail: str
    quarantined_to: Optional[str] = None


_EVENTS: List[StoreFault] = []
#: store writes so far, driving the ``attempt=`` clause of disk faults.
_write_attempts = 0


def fault_events() -> List[StoreFault]:
    """Storage fault events recorded in this process (oldest first)."""
    return list(_EVENTS)


def clear_fault_events() -> None:
    _EVENTS.clear()


def reset_write_attempts() -> None:
    """Reset the disk-fault attempt counter (test isolation)."""
    global _write_attempts
    _write_attempts = 0


def _record(fault: StoreFault) -> None:
    _EVENTS.append(fault)
    # Surface on the active run journal, if any (lazy import: journal is a
    # sibling module and must not create an import cycle at package init).
    from . import journal
    journal.emit({"event": "store-fault", "path": fault.path,
                  "kind": fault.kind, "detail": fault.detail,
                  "quarantined_to": fault.quarantined_to})


# ---------------------------------------------------------------------------
# digests


def state_digest(state: Dict[str, np.ndarray]) -> str:
    """Hex SHA-256 over a state dict's names, dtypes, shapes and bytes."""
    digest = hashlib.sha256()
    for name in sorted(state):
        array = np.ascontiguousarray(state[name])
        digest.update(name.encode())
        digest.update(str(array.dtype).encode())
        digest.update(str(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def json_digest(payload: Any) -> str:
    """Hex SHA-256 over a canonical JSON encoding of ``payload``."""
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                         default=str)
    return hashlib.sha256(encoded.encode()).hexdigest()


# ---------------------------------------------------------------------------
# quarantine


def quarantine(path: str, kind: str, detail: str) -> Optional[str]:
    """Move a defective artifact aside and record a loud fault event.

    Returns the quarantine destination (``None`` if the move itself failed,
    in which case the file is removed best-effort so it cannot be re-read
    as a valid artifact).  Never raises.
    """
    directory = os.path.dirname(os.path.abspath(path))
    qdir = os.path.join(directory, QUARANTINE_DIRNAME)
    dest: Optional[str] = None
    try:
        os.makedirs(qdir, exist_ok=True)
        base = os.path.join(qdir, os.path.basename(path))
        dest = base
        suffix = 0
        while os.path.exists(dest):
            suffix += 1
            dest = f"{base}.{suffix}"
        os.replace(path, dest)
    except OSError:
        dest = None
        try:
            os.remove(path)
        except OSError:
            pass
    else:
        _prune_quarantine(qdir)
    fault = StoreFault(path=path, kind=kind, detail=detail,
                       quarantined_to=dest)
    _record(fault)
    logger.warning(
        "artifact %s is defective (%s: %s); quarantined to %s — will be "
        "regenerated, not silently reused", path, kind, detail,
        dest if dest else "<removed: quarantine move failed>")
    return dest


def _prune_quarantine(qdir: str) -> None:
    """Keep the quarantine directory bounded (oldest names pruned first)."""
    try:
        entries = sorted(entry.path for entry in os.scandir(qdir)
                         if entry.is_file())
    except OSError:
        return
    for stale in entries[:-QUARANTINE_KEEP] if len(entries) > QUARANTINE_KEEP else []:
        try:
            os.remove(stale)
        except OSError:
            pass


# ---------------------------------------------------------------------------
# injected disk faults


def _planned_disk_fault() -> Optional[str]:
    from ..faults.runtime import maybe_disk_fault  # lazy: avoids init cycle
    global _write_attempts
    attempt = _write_attempts
    _write_attempts += 1
    return maybe_disk_fault(STORE_SCOPE, attempt)


def _apply_post_write_fault(path: str, kind: str) -> None:
    """Damage the *final* artifact per the injected fault kind."""
    size = os.path.getsize(path)
    if kind == "torn-write":
        with open(path, "r+b") as handle:
            handle.truncate(max(1, size // 2))
        detail = f"injected torn write: truncated to {max(1, size // 2)}B"
    else:  # bitrot
        offset = size // 2
        with open(path, "r+b") as handle:
            handle.seek(offset)
            byte = handle.read(1)
            handle.seek(offset)
            handle.write(bytes([byte[0] ^ 0xFF]))
        detail = f"injected bit rot at offset {offset}"
    _record(StoreFault(path=path, kind=kind, detail=detail))
    logger.warning("disk-fault plan damaged %s (%s)", path, kind)


def _fsync_directory(directory: str) -> None:
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fs without dir fsync
        pass
    finally:
        os.close(fd)


def _atomic_commit(tmp: str, path: str, planned: Optional[str]) -> None:
    """fsync'd rename of ``tmp`` onto ``path``, honoring injected faults."""
    if planned == "enospc":
        try:
            os.remove(tmp)
        except OSError:
            pass
        _record(StoreFault(path=path, kind="enospc",
                           detail="injected ENOSPC during write"))
        logger.warning("disk-fault plan failed the write of %s (ENOSPC)",
                       path)
        raise OSError(errno.ENOSPC, "No space left on device (injected)",
                      path)
    os.replace(tmp, path)
    _fsync_directory(os.path.dirname(os.path.abspath(path)))
    if planned in ("torn-write", "bitrot"):
        _apply_post_write_fault(path, planned)


# ---------------------------------------------------------------------------
# npz state dicts


def save_state(path: str, state: Dict[str, np.ndarray]) -> None:
    """Atomically write a state dict with an embedded content digest.

    On any ``OSError`` (real ENOSPC included) the temp file is removed and
    the previous artifact at ``path`` — if any — is left untouched.
    """
    if DIGEST_KEY in state:
        raise ValueError(f"state dict may not use the reserved key "
                         f"{DIGEST_KEY!r}")
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    planned = _planned_disk_fault()
    tmp = path + ".tmp.npz"
    payload = dict(state)
    payload[DIGEST_KEY] = np.array(state_digest(state))
    try:
        with open(tmp, "wb") as handle:
            np.savez(handle, **payload)
            handle.flush()
            os.fsync(handle.fileno())
    except OSError:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise
    _atomic_commit(tmp, path, planned)


def load_state(path: str) -> Dict[str, np.ndarray]:
    """Strict load: raises on unreadable archives and on a missing or
    mismatched content digest."""
    with np.load(path) as archive:
        state = {key: archive[key] for key in archive.files}
    recorded = str(state.pop(DIGEST_KEY, "<none>"))
    actual = state_digest(state)
    if recorded != actual:
        raise CorruptArtifact(
            f"content digest mismatch in {path}: recorded "
            f"{recorded[:12]}…, actual {actual[:12]}…")
    return state


def try_load_state(path: str) -> Optional[Dict[str, np.ndarray]]:
    """Load a state dict, or ``None`` (miss) if absent or defective.

    Defective artifacts are quarantined — see :func:`quarantine` — so the
    caller's regeneration can atomically rewrite ``path``.
    """
    if not os.path.exists(path):
        return None
    try:
        return load_state(path)
    except CorruptArtifact as error:
        quarantine(path, "digest-mismatch", str(error))
        return None
    except _READ_ERRORS as error:
        quarantine(path, "unreadable", f"{type(error).__name__}: {error}")
        return None


# ---------------------------------------------------------------------------
# JSON artifacts


def save_json(path: str, payload: Any) -> None:
    """Atomically write ``payload`` inside a digest-carrying envelope."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    planned = _planned_disk_fault()
    envelope = {"digest": json_digest(payload), "payload": payload}
    tmp = path + ".tmp"
    try:
        with open(tmp, "w") as handle:
            json.dump(envelope, handle, default=str)
            handle.flush()
            os.fsync(handle.fileno())
    except OSError:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise
    _atomic_commit(tmp, path, planned)


def load_json(path: str) -> Any:
    """Strict JSON load: raises on parse errors, a missing digest envelope
    and digest mismatches."""
    with open(path) as handle:
        document = json.load(handle)
    if not (isinstance(document, dict)
            and set(document) == {"digest", "payload"}):
        raise CorruptArtifact(f"{path} has no digest envelope")
    actual = json_digest(document["payload"])
    if document["digest"] != actual:
        raise CorruptArtifact(
            f"content digest mismatch in {path}: recorded "
            f"{str(document['digest'])[:12]}…, actual {actual[:12]}…")
    return document["payload"]


def try_load_json(path: str) -> Optional[Any]:
    """Load a JSON artifact, or ``None`` (miss) if absent or defective."""
    if not os.path.exists(path):
        return None
    try:
        return load_json(path)
    except CorruptArtifact as error:
        quarantine(path, "digest-mismatch", str(error))
        return None
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        quarantine(path, "unreadable", f"{type(error).__name__}: {error}")
        return None
    except _READ_ERRORS as error:
        quarantine(path, "unreadable", f"{type(error).__name__}: {error}")
        return None
