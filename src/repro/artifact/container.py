"""The versioned on-disk model container: ``manifest.json`` + raw payloads.

The deployment contract of the paper's on-device story is the *exported
artifact*, not the in-memory model: what ships to a phone is a directory
(or zip) the serving runtime can open, verify, and serve from.  The layout
is deliberately boring:

::

    artifact/
      manifest.json           # format version, shapes, technique, hashes
      payloads/<name>.bin     # raw C-order array bytes, one file per tensor

* **manifest.json** carries everything structural: format magic + version,
  the payload index (dtype, shape, byte count, sha256 content hash per
  payload), the tower plan (kind, pooling, scalar metadata; its arrays are
  the ``tower/*`` payloads), and the embedding section — the technique's
  frozen-form tree (:mod:`repro.frozen`), plus at int8/int4 the per-table
  layout and calibration percentile of a
  :class:`repro.quant.QuantizedEmbedding`.  Every form table is one
  payload at FP32 and one codes + scales payload pair at int8/int4.
* **payloads** are raw bytes — ``np.ndarray.tobytes()`` on save,
  ``np.frombuffer`` on load — so an int8 table costs one byte per code on
  disk, which is what makes the int8 artifact ≤ 0.35× its FP32 sibling.

Format v3 adds three storage-plane features on top of the v2 layout
(which remains readable, as does v1):

* **Payload aliasing** — payloads are content-addressed at write time:
  two entries whose bytes hash identically share one member file, and the
  duplicate's index entry records ``"alias": <canonical name>``.  A v2
  checkpoint stored the FP32 table up to three times (``embedding/*``,
  ``checkpoint/model/*``, ``checkpoint/best/*``); a v3 checkpoint stores
  it once.
* **mmap loading** — ``load_artifact(path, mmap=True)`` (directory
  containers only) exposes each payload as a read-only ``np.memmap``, so
  opening a multi-GB table costs milliseconds and rows page in on demand
  through the normal gather kernels.  mmap loads verify member *sizes*
  but skip the sha256 pass — hashing would read every byte, which is
  exactly the cost mmap exists to avoid; use the default eager load when
  end-to-end byte verification matters more than start latency.
* **Delta artifacts** — :func:`save_delta` stores only what changed since
  a parent artifact: unchanged payloads become ``"source": "parent"``
  references, row-sparse changes become ``"source": "rows"`` patches
  (changed row indices + replacement rows), and the manifest's ``delta``
  section chains to the parent by path and manifest hash.  ``load``
  resolves the chain transparently to a full view, re-verifying every
  reconstructed payload against its recorded full-content sha256 — a
  corrupted or broken chain raises :class:`ArtifactIntegrityError`.

Format v4 stores the FP32 embedding as its frozen form, as int8/int4
sections already did, so serving any v4 container builds no module.  The
FP32 sections of v1–v3 stored a constructor recipe plus the module's state
dict; :mod:`repro.artifact.legacy` reads those, and the reader dispatches
on the section's contents, not on the version number.

Every eager load verifies the per-payload sha256 before any array is
handed to the serving stack; failures raise the typed errors of
:mod:`repro.artifact.errors` so callers can distinguish damage from
version skew from producer bugs.

Saving at ``bits ∈ {8, 4}`` runs the normal calibration pass and stores
the resulting integer codes + scales; loading adopts them *without*
recalibration.  Both halves therefore sit on the same single-rounding
path as the in-memory quantized engine, which is why
``ServeSession.load(save_artifact(model))`` serves bit-identical
predictions (pinned across techniques × widths in
``tests/artifact/test_roundtrip.py``).
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import shutil
import struct
import zipfile
import zlib

import numpy as np

from repro.artifact.errors import (
    ArtifactError,
    ArtifactFormatError,
    ArtifactIntegrityError,
    ArtifactVersionError,
    NonFiniteError,
)
from repro.artifact.plan import TowerPlan
from repro.frozen import FrozenForm
from repro.quant.embedding import QuantizedEmbedding, quantize_embedding
from repro.quant.table import QuantizedTable

__all__ = [
    "FORMAT_MAGIC",
    "FORMAT_VERSION",
    "READABLE_VERSIONS",
    "ModelArtifact",
    "PendingArtifact",
    "collect_artifact",
    "load_artifact",
    "read_manifest",
    "save_artifact",
    "save_delta",
]

FORMAT_MAGIC = "repro.model-artifact"
#: Written by this runtime.  v3 = v2 plus content-addressed payload
#: aliasing, an optional ``delta`` provenance section, and mmap-friendly
#: guarantees (payload members are raw C-order bytes at offset 0 — which
#: they always were; v3 merely promises it).  v4 stores the FP32 embedding
#: as its frozen form instead of a rebuild spec plus state dict.
FORMAT_VERSION = 4
#: Versions this runtime can open.  v1 containers never carry a
#: checkpoint; v2 adds the checkpoint section; both predate aliasing and
#: deltas, so their entries read through the same generic path.
READABLE_VERSIONS = (1, 2, 3, 4)

_MANIFEST = "manifest.json"
_PAYLOAD_DIR = "payloads"
_CHECKPOINT_PREFIX = "checkpoint/"
_DELTA_PREFIX = "delta/"
#: defensive bound on provenance-chain walks (a cycle cannot actually be
#: constructed — each link records its parent's manifest hash — but a
#: hand-edited manifest should fail loudly, not recurse forever)
_MAX_DELTA_DEPTH = 64
#: a row patch bigger than this fraction of the table stops being a saving
#: (indices + values + bookkeeping) — store the payload outright instead
_DELTA_ROW_FRACTION = 0.5


def _sha256(data) -> str:
    return hashlib.sha256(data).hexdigest()


def _sha256_array(arr: np.ndarray) -> str:
    """Content hash without the ``tobytes()`` copy (arrays are C-order)."""
    return hashlib.sha256(np.ascontiguousarray(arr).data).hexdigest()


def _payload_file(name: str) -> str:
    """Manifest payload name → archive member path (stable, collision-free:
    names are state-dict-style dotted keys under unique slash prefixes)."""
    return f"{_PAYLOAD_DIR}/{name.replace('/', '.')}.bin"


# -- writing ----------------------------------------------------------------------


class _Store:
    """Payload accumulator shared by the dir and zip writers."""

    def __init__(self) -> None:
        self.arrays: dict[str, np.ndarray] = {}

    def add(self, name: str, array: np.ndarray) -> str:
        if name in self.arrays:
            raise ValueError(f"duplicate payload {name!r}")
        self.arrays[name] = np.ascontiguousarray(array)
        return name


def _remove_any(path: str) -> None:
    """Delete a file or tree if present (stale temp from a crashed save)."""
    if os.path.isdir(path):
        shutil.rmtree(path, ignore_errors=True)
    elif os.path.exists(path):
        try:
            os.remove(path)
        except OSError:
            pass


def _fsync_write(file_path: str, data: bytes) -> None:
    """Write + fsync, so a rename never publishes bytes still in flight."""
    with open(file_path, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())


def _swap_into_place(tmp: str, path: str) -> None:
    """Publish ``tmp`` at ``path``: atomic for files, two renames for dirs.

    A file (zip) target is a single ``os.replace`` — crash-atomic.  A
    directory target cannot be renamed over a non-empty directory, so a
    previous artifact is first moved aside, then the new one renamed in,
    then the old one deleted; a crash between the renames leaves the old
    artifact recoverable at ``<path>.replaced.<pid>`` and never a
    half-written mixture at ``path`` itself.
    """
    if not os.path.isdir(tmp):
        if os.path.isdir(path):  # kind change: dir artifact -> zip artifact
            shutil.rmtree(path)
        os.replace(tmp, path)
        return
    old = f"{path}.replaced.{os.getpid()}"
    _remove_any(old)
    rolled_aside = False
    if os.path.isdir(path):
        os.rename(path, old)
        rolled_aside = True
    elif os.path.exists(path):  # kind change: zip artifact -> dir artifact
        os.remove(path)
    try:
        os.rename(tmp, path)
    except OSError:
        if rolled_aside:
            os.rename(old, path)  # roll the previous artifact back
        raise
    if rolled_aside:
        shutil.rmtree(old, ignore_errors=True)


def _write_container(path: str, manifest: dict, store: _Store,
                     finalize_index=None) -> int:
    """Write dir (default) or zip (``*.zip`` path); returns manifest bytes.

    Each tensor is serialized exactly once — hashed and written from the
    same byte string, one payload at a time (a large table would otherwise
    materialize twice) — and the payload index lands in ``manifest``
    before the manifest itself is written last.

    Payloads are content-addressed as they stream through: a tensor whose
    bytes hash identically to one already written gets an index entry
    pointing at the existing member plus an ``"alias"`` marker, and its
    bytes are never written again.  That is the whole v3 dedup story —
    readers need no special casing beyond honoring ``"file"``.

    ``finalize_index`` (delta writer hook) may rewrite the payload index
    after all members are on disk but before the manifest is serialized.

    The write is *atomic at the artifact level*: everything lands in a
    ``<path>.incoming.<pid>`` sibling first (fsynced), which is only then
    swapped into place.  A crash mid-save — including SIGKILL — leaves
    either the previous artifact intact or no artifact, never a truncated
    container at ``path``; the stale temp is cleaned up by the next save.
    """
    index: dict[str, dict] = {}
    by_digest: dict[str, tuple[str, str]] = {}  # sha256 -> (member, canonical name)

    def plan(name: str, arr: np.ndarray, data: bytes) -> str | None:
        """Index one payload; returns the member to write, or None if its
        bytes already live in the container (aliased) or are pure zeros
        (elided — the content is fully determined by dtype + shape)."""
        entry = {
            "dtype": arr.dtype.str,
            "shape": list(arr.shape),
            "nbytes": len(data),
            "sha256": _sha256(data),
        }
        if not arr.any():
            # The degenerate case of content addressing: an all-zero
            # payload (untouched optimizer slots, zero-init biases) needs
            # no member file at all — readers reconstruct it from the
            # entry.  Checkpoints with plain-SGD velocity shed a full
            # table-size blob here.
            index[name] = {"zeros": True, **entry}
            return None
        hit = by_digest.get(entry["sha256"])
        if hit is not None:
            member, canonical = hit
            index[name] = {"file": member, "alias": canonical, **entry}
            return None
        member = _payload_file(name)
        by_digest[entry["sha256"]] = (member, name)
        index[name] = {"file": member, **entry}
        return member

    def manifest_bytes() -> bytes:
        manifest["payloads"] = finalize_index(index) if finalize_index else index
        # Compact separators: the manifest rides along with every shipped
        # model, so its bytes count against the same budget the payloads do.
        return json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()

    tmp = f"{path}.incoming.{os.getpid()}"
    # Sweep debris from saves that died mid-write — ours *and* other pids'
    # (a SIGKILLed exporter leaves its .incoming/.replaced siblings behind).
    for pattern in (".incoming.*", ".replaced.*"):
        for stale in glob.glob(glob.escape(path) + pattern):
            _remove_any(stale)
    try:
        if path.endswith(".zip"):
            with open(tmp, "wb") as raw_fh:
                with zipfile.ZipFile(raw_fh, "w", zipfile.ZIP_STORED) as zf:
                    for name, arr in store.arrays.items():
                        data = arr.tobytes()
                        member = plan(name, arr, data)
                        if member is not None:
                            zf.writestr(member, data)
                    raw = manifest_bytes()
                    zf.writestr(_MANIFEST, raw)
                raw_fh.flush()
                os.fsync(raw_fh.fileno())
        else:
            os.makedirs(os.path.join(tmp, _PAYLOAD_DIR), exist_ok=True)
            for name, arr in store.arrays.items():
                data = arr.tobytes()
                member = plan(name, arr, data)
                if member is not None:
                    _fsync_write(os.path.join(tmp, member), data)
            raw = manifest_bytes()
            _fsync_write(os.path.join(tmp, _MANIFEST), raw)
        _swap_into_place(tmp, path)
    except BaseException:
        _remove_any(tmp)
        raise
    return len(raw)


# -- reading ----------------------------------------------------------------------


class _Reader:
    """Uniform byte access over a directory or zip container."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._zip: zipfile.ZipFile | None = None
        if os.path.isdir(path):
            return
        if not os.path.exists(path):
            raise ArtifactFormatError(f"no artifact at {path!r}")
        if not os.path.isfile(path):
            raise ArtifactFormatError(
                f"{path!r} is neither an artifact directory nor a zip container"
            )
        try:
            self._zip = zipfile.ZipFile(path, "r")
        except (zipfile.BadZipFile, zipfile.LargeZipFile, EOFError, OSError) as exc:
            # A file that *starts* as a zip but cannot be opened was an
            # artifact once — truncation/corruption, not a format mixup.
            if self._sniff_zip(path):
                raise ArtifactIntegrityError(
                    f"{path!r} is a truncated or corrupted zip container: {exc}"
                ) from exc
            raise ArtifactFormatError(
                f"{path!r} is neither an artifact directory nor a zip container"
            ) from None

    @property
    def is_dir(self) -> bool:
        return self._zip is None

    @staticmethod
    def _sniff_zip(path: str) -> bool:
        try:
            with open(path, "rb") as fh:
                return fh.read(2) == b"PK"
        except OSError:
            return False

    def read(self, member: str) -> bytes:
        try:
            if self._zip is not None:
                with self._zip.open(member) as fh:
                    return fh.read()
            with open(os.path.join(self.path, member), "rb") as fh:
                return fh.read()
        except (KeyError, FileNotFoundError):
            raise ArtifactIntegrityError(
                f"artifact member {member!r} missing from {self.path!r}"
            ) from None
        except (zipfile.BadZipFile, zlib.error, struct.error, EOFError, OSError) as exc:
            # zipfile's own CRC check, a truncated member, or a short read —
            # damage inside the container, surfaced typed (never a bare
            # BadZipFile/struct.error escaping to the serving stack).
            raise ArtifactIntegrityError(
                f"artifact member {member!r} in {self.path!r} is corrupted "
                f"or truncated: {exc}"
            ) from exc

    def close(self) -> None:
        if self._zip is not None:
            self._zip.close()


def _check_manifest(raw: bytes, path: str) -> dict:
    try:
        manifest = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ArtifactFormatError(f"unparseable manifest in {path!r}: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != FORMAT_MAGIC:
        raise ArtifactFormatError(
            f"{path!r} manifest does not declare format {FORMAT_MAGIC!r}"
        )
    version = manifest.get("format_version")
    # A JSON integer only: ``in`` compares with ==, which would read true
    # as v1 and 3.0 as v3.
    if type(version) is not int or version not in READABLE_VERSIONS:
        raise ArtifactVersionError(
            f"artifact format version {version!r} not readable by this runtime "
            f"(readable: {', '.join(map(str, READABLE_VERSIONS))})"
        )
    for key in ("bits", "model", "embedding", "tower", "payloads"):
        if key not in manifest:
            raise ArtifactFormatError(f"manifest missing required field {key!r}")
    return manifest


def _read_raw_manifest(path: str) -> bytes:
    reader = _Reader(path)
    try:
        try:
            return reader.read(_MANIFEST)
        except ArtifactIntegrityError:
            raise ArtifactFormatError(f"{path!r} has no {_MANIFEST}") from None
    finally:
        reader.close()


def read_manifest(path: str) -> tuple[dict, int]:
    """Open ``path``'s manifest *only* — no payload bytes are read.

    Returns ``(manifest, manifest_nbytes)``.  This is what ``repro
    artifact inspect``, checkpoint rotation, and delta provenance walks
    use: structure and hashes without paying for the tensors.
    """
    raw = _read_raw_manifest(path)
    return _check_manifest(raw, path), len(raw)


class _PayloadLoader:
    """Turn payload index entries into arrays — eagerly or memory-mapped.

    Eager: each member is read once, hashed once, and every entry sharing
    it (aliases) is verified against that hash; arrays are writable copies
    (serving scratch paths may write).  mmap: each distinct ``(member,
    dtype, shape)`` becomes one read-only ``np.memmap`` shared by all its
    aliases; sizes are stat-checked, hashing is skipped by design.
    """

    def __init__(self, reader: _Reader, path: str, mmap: bool) -> None:
        self.reader = reader
        self.path = path
        self.mmap = mmap
        self._raw: dict[str, tuple[bytes, str]] = {}
        self._maps: dict[tuple, np.ndarray] = {}

    @staticmethod
    def parse(name: str, meta: dict) -> tuple[str, int, str, np.dtype, tuple]:
        try:
            member = meta["file"]
            nbytes = int(meta["nbytes"])
            digest = meta["sha256"]
            dtype = np.dtype(meta["dtype"])
            shape = tuple(int(s) for s in meta["shape"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ArtifactFormatError(
                f"malformed payload index entry for {name!r}: {exc!r}"
            ) from exc
        return member, nbytes, digest, dtype, shape

    def load(self, name: str, meta: dict) -> np.ndarray:
        if meta.get("zeros"):
            # Elided all-zero payload: no member file exists; the entry's
            # dtype + shape fully determine the content.
            try:
                dtype = np.dtype(meta["dtype"])
                shape = tuple(int(s) for s in meta["shape"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ArtifactFormatError(
                    f"malformed payload index entry for {name!r}: {exc!r}"
                ) from exc
            return np.zeros(shape, dtype=dtype)
        member, nbytes, digest, dtype, shape = self.parse(name, meta)
        if self.mmap:
            return self._load_mmap(name, member, nbytes, dtype, shape)
        data, found = self._member_bytes(member)
        if len(data) != nbytes:
            raise ArtifactIntegrityError(
                f"payload {name!r}: {len(data)} bytes on disk, manifest "
                f"says {nbytes}"
            )
        if found != digest:
            raise ArtifactIntegrityError(
                f"payload {name!r} content hash mismatch — artifact is corrupted"
            )
        try:
            arr = np.frombuffer(data, dtype=dtype).reshape(shape)
        except (TypeError, ValueError) as exc:
            raise ArtifactFormatError(
                f"payload {name!r} has inconsistent dtype/shape metadata: {exc}"
            ) from exc
        # frombuffer views are read-only; serving scratch paths may write.
        return arr.copy()

    def _member_bytes(self, member: str) -> tuple[bytes, str]:
        hit = self._raw.get(member)
        if hit is None:
            data = self.reader.read(member)
            hit = self._raw[member] = (data, _sha256(data))
        return hit

    def _load_mmap(self, name: str, member: str, nbytes: int,
                   dtype: np.dtype, shape: tuple) -> np.ndarray:
        key = (member, dtype.str, shape)
        hit = self._maps.get(key)
        if hit is not None:
            return hit
        if int(np.prod(shape, dtype=np.int64)) * dtype.itemsize != nbytes:
            raise ArtifactFormatError(
                f"payload {name!r} has inconsistent dtype/shape metadata: "
                f"{shape} × {dtype} != {nbytes} bytes"
            )
        full = os.path.join(self.path, member)
        try:
            size = os.path.getsize(full)
        except OSError:
            raise ArtifactIntegrityError(
                f"artifact member {member!r} missing from {self.path!r}"
            ) from None
        if size != nbytes:
            raise ArtifactIntegrityError(
                f"payload {name!r}: {size} bytes on disk, manifest says {nbytes}"
            )
        if nbytes == 0:
            arr: np.ndarray = np.zeros(shape, dtype=dtype)
        else:
            try:
                arr = np.memmap(full, dtype=dtype, mode="r", shape=shape, order="C")
            except (OSError, ValueError) as exc:
                raise ArtifactIntegrityError(
                    f"cannot map payload {name!r} from {member!r}: {exc}"
                ) from exc
        self._maps[key] = arr
        return arr


# -- delta resolution --------------------------------------------------------------


def _resolve_parent_path(ref: str, delta_path: str) -> str | None:
    """Where a delta's parent lives: as recorded, else beside the delta.

    The beside-the-delta fallback is what makes a directory of chained
    artifacts relocatable as a unit — ship the folder, the chain holds.
    Resolution can never adopt a wrong parent: whatever path wins must
    still match the recorded manifest hash.
    """
    beside = os.path.dirname(os.path.abspath(delta_path))
    candidates = [ref]
    if os.path.isabs(ref):
        candidates.append(os.path.join(beside, os.path.basename(ref.rstrip("/\\"))))
    else:
        candidates.append(os.path.join(beside, ref))
    for cand in candidates:
        if os.path.exists(cand):
            return cand
    return None


def _load_delta_parent(delta: dict, path: str, mmap: bool, depth: int) -> "ModelArtifact":
    if depth + 1 > _MAX_DELTA_DEPTH:
        raise ArtifactFormatError(
            f"delta chain from {path!r} exceeds depth {_MAX_DELTA_DEPTH} "
            "(cyclic or hand-damaged provenance)"
        )
    try:
        ref = delta["parent"]
        recorded = delta["parent_manifest_sha256"]
    except (KeyError, TypeError) as exc:
        raise ArtifactFormatError(f"malformed delta section in {path!r}: {exc!r}") from exc
    parent_path = _resolve_parent_path(ref, path)
    if parent_path is None:
        raise ArtifactIntegrityError(
            f"delta parent {ref!r} not found (as recorded, or beside {path!r}) "
            "— the chain is broken"
        )
    try:
        raw = _read_raw_manifest(parent_path)
    except ArtifactError as exc:
        raise ArtifactIntegrityError(
            f"delta parent at {parent_path!r} is unreadable: {exc}"
        ) from exc
    if _sha256(raw) != recorded:
        raise ArtifactIntegrityError(
            f"delta parent manifest at {parent_path!r} does not match the "
            "recorded provenance hash — the chain is broken"
        )
    # A zip parent cannot mmap; its arrays load eagerly and are shared by
    # reference into the child's view, which is still zero extra copies.
    return load_artifact(parent_path, mmap=mmap and os.path.isdir(parent_path),
                         _depth=depth + 1)


def _require_parent(parent: "ModelArtifact | None", name: str, path: str) -> "ModelArtifact":
    if parent is None:
        raise ArtifactFormatError(
            f"payload {name!r} is parent-sourced but {path!r} has no delta section"
        )
    return parent


def _from_parent(parent: "ModelArtifact | None", name: str, meta: dict,
                 path: str) -> np.ndarray:
    parent = _require_parent(parent, name, path)
    parent_meta = parent.manifest["payloads"].get(name)
    if parent_meta is None:
        raise ArtifactIntegrityError(
            f"delta payload {name!r} is parent-sourced but the parent at "
            f"{parent.path!r} has no such payload — the chain is broken"
        )
    if parent_meta.get("sha256") != meta.get("sha256"):
        raise ArtifactIntegrityError(
            f"delta payload {name!r}: parent content does not match the "
            "recorded sha256 — the chain is broken"
        )
    return parent.array(name)


def _patch_rows(parent: "ModelArtifact | None", name: str, meta: dict,
                loader: _PayloadLoader, path: str) -> np.ndarray:
    parent = _require_parent(parent, name, path)
    try:
        rows_meta, values_meta = meta["rows"], meta["values"]
        digest = meta["sha256"]
        dtype = np.dtype(meta["dtype"])
        shape = tuple(int(s) for s in meta["shape"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactFormatError(
            f"malformed row-patch entry for {name!r}: {exc!r}"
        ) from exc
    rows = loader.load(f"{name}(rows)", rows_meta)
    values = loader.load(f"{name}(values)", values_meta)
    try:
        base = parent.array(name)
    except ArtifactFormatError:
        raise ArtifactIntegrityError(
            f"row-patched payload {name!r} missing from the delta parent at "
            f"{parent.path!r} — the chain is broken"
        ) from None
    if tuple(base.shape) != shape or base.dtype != dtype:
        raise ArtifactIntegrityError(
            f"row-patched payload {name!r}: parent is {base.shape}/{base.dtype}, "
            f"manifest expects {shape}/{dtype} — the chain is broken"
        )
    if rows.ndim != 1 or values.shape != (rows.size,) + shape[1:]:
        raise ArtifactFormatError(
            f"row patch for {name!r} is malformed: {rows.shape} indices vs "
            f"{values.shape} replacement rows"
        )
    if rows.size and (int(rows.min()) < 0 or int(rows.max()) >= shape[0]):
        raise ArtifactIntegrityError(
            f"row patch for {name!r} addresses rows outside [0, {shape[0]})"
        )
    out = np.array(base, dtype=dtype, copy=True)  # materialize (parent may be mmap)
    out[np.asarray(rows, dtype=np.int64)] = values
    if _sha256_array(out) != digest:
        raise ArtifactIntegrityError(
            f"row-patched payload {name!r} does not reconstruct to the "
            "manifest's sha256 — the delta chain is corrupted"
        )
    return out


# -- the artifact object ----------------------------------------------------------


def _legacy_quant_meta(meta: dict, tables: dict) -> dict:
    """Read a quantized section written before frozen forms.

    Those writers stored a ``mode`` instead of a form.  The table, memcom
    and tt_rec modes stored the same per-table payloads a form stores, so
    they map onto the equivalent form.  The module mode stored an FP32
    working copy, which this runtime no longer serves.
    """
    def gather(table, *index):
        return {"gather": table, "index": list(index) or ["id"]}

    mode = meta["mode"]
    if mode == "table":
        keep = meta.get("remap_keep")
        form = gather("table") if keep is None else gather("table", "clip", keep)
    elif mode == "memcom":
        mul = [gather("shared", "mod", meta["num_hash"]), gather("multiplier")]
        form = {"combine": "mul", "parts": mul, "args": []}
        if "bias" in tables:
            form = {"combine": "add", "parts": [form, gather("bias")], "args": []}
    elif mode == "tt_rec":
        _, v2, v3 = meta["vocab_shape"]
        digits = [gather("core1", "div", v2 * v3), gather("core2", "digit", v3, v2),
                  gather("core3", "mod", v3)]
        form = {"combine": "tt", "parts": digits,
                "args": [*meta["dim_shape"], meta["tt_rank"]]}
    elif mode == "module":
        raise ArtifactFormatError(
            f"this int{meta['bits']} artifact stores {meta['technique']!r} in the "
            "retired quantized module mode (an FP32 working copy), which is no "
            "longer served; re-export it from the FP32 artifact or model"
        )
    else:
        raise ArtifactFormatError(f"unknown quantized mode {mode!r}")
    return {**meta, "form": form}


class ModelArtifact:
    """A loaded (or freshly written) container: manifest + named arrays.

    Handed out by :func:`save_artifact` and :func:`load_artifact`; consumed
    by :meth:`repro.serve.ServeSession.load`.  The arrays here are the
    *storage* forms — FP32 form tables, or int8/int4 codes plus scales —
    and :meth:`serving_embedding` / :meth:`tower_plan` reconstitute the
    serving-side objects from them.  A delta artifact's arrays are already
    chain-resolved: they are the full target state.
    """

    def __init__(self, manifest: dict, arrays: dict[str, np.ndarray], path: str,
                 manifest_nbytes: int, *, mmap_backed: bool = False,
                 delta_chain: tuple[str, ...] = ()) -> None:
        self.manifest = manifest
        self.path = path
        self._arrays = arrays
        self._manifest_nbytes = int(manifest_nbytes)
        #: arrays are read-only np.memmaps over the container (v3 dir loads)
        self.mmap_backed = bool(mmap_backed)
        #: resolved parent paths, root first; empty for a full artifact
        self.delta_chain = tuple(delta_chain)

    # -- metadata ---------------------------------------------------------------

    @property
    def bits(self) -> int:
        return int(self.manifest["bits"])

    @property
    def technique(self) -> str:
        return self.manifest["embedding"]["technique"]

    @property
    def architecture(self) -> str:
        return self.manifest["model"]["architecture"]

    @property
    def input_length(self) -> int:
        return int(self.manifest["model"]["input_length"])

    @property
    def has_checkpoint(self) -> bool:
        """Whether this container carries resumable-training state (v2+)."""
        return "checkpoint" in self.manifest

    @property
    def is_delta(self) -> bool:
        """Whether this container stores changes against a parent artifact."""
        return "delta" in self.manifest

    def checkpoint_meta(self) -> dict:
        """The checkpoint's JSON metadata (epoch, RNG states, history, …)."""
        try:
            return self.manifest["checkpoint"]["meta"]
        except (KeyError, TypeError):
            raise ArtifactFormatError(
                f"artifact at {self.path!r} carries no training checkpoint"
            ) from None

    def checkpoint_arrays(self) -> dict[str, np.ndarray]:
        """The checkpoint's named tensors (model state, optimizer slots).

        Keys are the checkpoint-local names (``model/…``, ``opt/…``);
        every array was sha256-verified on load like any other payload.
        """
        try:
            names = self.manifest["checkpoint"]["arrays"]
        except (KeyError, TypeError):
            raise ArtifactFormatError(
                f"artifact at {self.path!r} carries no training checkpoint"
            ) from None
        return {name: self.array(_CHECKPOINT_PREFIX + name) for name in names}

    def payload_bytes(self) -> int:
        """*Logical* tensor bytes — what the payloads decompress to.  With
        aliasing/deltas the on-disk container can be much smaller; see
        :meth:`stored_bytes`."""
        return int(sum(p["nbytes"] for p in self.manifest["payloads"].values()))

    def total_bytes(self) -> int:
        """Logical container size: payloads plus the manifest itself."""
        return self.payload_bytes() + self._manifest_nbytes

    def stored_bytes(self) -> int:
        """Bytes this container actually occupies on disk.

        For an alias-free full artifact this equals :meth:`total_bytes`
        (modulo filesystem rounding); aliasing collapses duplicate payloads
        and a delta stores only patches, so the ratio
        ``stored_bytes / total_bytes`` is the dedup/delta win.
        """
        if os.path.isdir(self.path):
            total = 0
            for root, _dirs, files in os.walk(self.path):
                total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
            return total
        return os.path.getsize(self.path)

    def array(self, name: str) -> np.ndarray:
        try:
            return self._arrays[name]
        except KeyError:
            raise ArtifactFormatError(f"manifest references no payload {name!r}") from None

    # -- reconstruction ---------------------------------------------------------

    def _payloads_under(self, prefix: str) -> dict[str, np.ndarray]:
        """A section's arrays, keyed by their payload names after ``prefix``."""
        return {
            name[len(prefix):]: arr for name, arr in self._arrays.items()
            if name.startswith(prefix)
        }

    def tower_plan(self) -> TowerPlan:
        tower = self.manifest["tower"]
        meta = dict(tower["meta"])
        arrays = self._payloads_under("tower/")
        return TowerPlan(tower["kind"], int(tower["pool"]), meta=meta, arrays=arrays)

    def serving_embedding(self):
        """The embedding in its serving form.

        FP32 artifacts return a :class:`~repro.frozen.FrozenForm` over the
        stored FP32 arrays (mmap-backed ones are served without a copy);
        quantized artifacts return a :class:`~repro.quant.QuantizedEmbedding`
        adopting the stored codes.
        """
        section = self.manifest["embedding"]
        kind = section.get("kind")
        if kind == "fp32" and "form" not in section:  # v1–v3: spec + state
            from repro.artifact.legacy import legacy_fp32_form

            state = self._payloads_under("embedding/")
            return legacy_fp32_form(section.get("spec"), state, self.mmap_backed)
        if kind == "fp32":
            try:
                return FrozenForm.from_spec(
                    section["form"], self._payloads_under("embedding/"),
                    technique=section["technique"],
                    vocab_size=section["vocab_size"],
                    output_dim=section["output_dim"],
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ArtifactFormatError(
                    f"malformed FP32 embedding section: {exc!r}"
                ) from exc
        if kind != "quantized":
            raise ArtifactFormatError(f"unknown embedding kind {kind!r}")
        # The payload hashes only prove the tensors are intact; a manifest
        # whose *structure* lies (missing table entries, absent meta keys)
        # must still fail typed, never with a raw KeyError.
        try:
            meta = section["quant"]
            if "form" not in meta:
                meta = _legacy_quant_meta(meta, section.get("tables", {}))
            tables: dict[str, QuantizedTable] = {}
            for name, tmeta in section["tables"].items():
                tables[name] = QuantizedTable(
                    self.array(f"embedding/{name}.codes"),
                    self.array(f"embedding/{name}.scales"),
                    int(tmeta["bits"]),
                    int(tmeta["dim"]),
                    per_row=bool(tmeta["per_row"]),
                )
            return QuantizedEmbedding.from_state(meta, tables)
        except (KeyError, TypeError, ValueError) as exc:
            raise ArtifactFormatError(
                f"malformed quantized embedding section: {exc!r}"
            ) from exc

    def describe(self) -> str:
        """One-paragraph human summary (the CLI's post-export report)."""
        kind = f"int{self.bits}" if self.bits != 32 else "fp32"
        extra = ""
        if self.is_delta:
            extra = f", delta of {self.delta_chain[-1] if self.delta_chain else '?'}"
        if self.mmap_backed:
            extra += ", mmap"
        return (
            f"ModelArtifact[{self.architecture}/{self.technique} {kind}] "
            f"v{self.manifest['format_version']} at {self.path}: "
            f"{len(self.manifest['payloads'])} payloads, "
            f"{self.total_bytes():,} bytes{extra}"
        )

    def __repr__(self) -> str:
        return self.describe()


# -- save / load ------------------------------------------------------------------


class PendingArtifact:
    """A collected-but-unwritten artifact: manifest skeleton + snapshots.

    :func:`collect_artifact` does all the model reads synchronously —
    table copies, tower snapshots, quantization — so :meth:`write` touches
    only these frozen arrays.  That split is what makes async
    checkpointing safe: training may mutate the model while the write
    thread serializes the snapshot.
    """

    def __init__(self, manifest: dict, store: _Store) -> None:
        self.manifest = manifest
        self._store = store

    def write(self, path: str) -> ModelArtifact:
        manifest = dict(self.manifest)  # the writer adds "payloads"
        manifest_nbytes = _write_container(path, manifest, self._store)
        return ModelArtifact(manifest, dict(self._store.arrays), path, manifest_nbytes)


def collect_artifact(
    model,
    bits: int = 32,
    percentile: float | None = None,
    checkpoint: tuple[dict, dict] | None = None,
) -> PendingArtifact:
    """Snapshot ``model`` into a :class:`PendingArtifact` (no disk I/O).

    This is the read-the-model half of :func:`save_artifact`; see there
    for the contract.  Callers that must not block on disk (async
    checkpoints) collect here and ``write`` elsewhere.
    """
    if bits not in (32, 8, 4):
        raise ValueError(f"artifact bits must be 32, 8 or 4, got {bits}")
    if checkpoint is not None and bits != 32:
        raise ValueError("training checkpoints require bits=32 (FP32 state)")
    if not hasattr(model, "embedding"):
        raise TypeError(f"no artifact export for model type {type(model).__name__}")
    # Imported here: exporting needs a live model, whose classes are loaded
    # already, while loading an artifact never reads one.
    from repro.models.tower import tower_plan_of

    model.eval()
    plan = tower_plan_of(model)
    form = model.embedding.frozen()
    store = _Store()

    for key, arr in plan.arrays.items():
        store.add(f"tower/{key}", arr)
    # The tower's arrays are named by their payloads (``tower/<name>``).
    tower_section = {"kind": plan.kind, "pool": plan.pool, "meta": plan.meta}

    embedding_section: dict = {
        "technique": form.technique,
        "vocab_size": form.vocab_size,
        "output_dim": form.output_dim,
    }
    if bits == 32:
        # One FP32 payload per form table: copies, as a state dict holds,
        # so training may go on while the write runs.
        for name, table in form.tables.items():
            store.add(f"embedding/{name}", table.data.copy())
        embedding_section.update({"kind": "fp32", "form": form.spec()})
    else:
        # One codes/scales payload pair per form table.
        meta, tables = quantize_embedding(form, bits, percentile=percentile).state()
        table_metas = {}
        for name, table in tables.items():
            store.add(f"embedding/{name}.codes", table.codes)
            store.add(f"embedding/{name}.scales", table.scales)
            table_metas[name] = {
                "bits": table.bits,
                "dim": table.dim,
                "per_row": table.per_row,
                "num_rows": table.num_rows,
            }
        embedding_section.update(
            {"kind": "quantized", "quant": meta, "tables": table_metas}
        )

    manifest = {
        "format": FORMAT_MAGIC,
        "format_version": FORMAT_VERSION,
        "bits": int(bits),
        "model": {
            "architecture": type(model).__name__,
            "kind": plan.kind,
            "input_length": int(model.input_length),
        },
        "embedding": embedding_section,
        "tower": tower_section,
        # "payloads" is filled by the writer, which hashes while writing.
    }
    if checkpoint is not None:
        ckpt_meta, ckpt_arrays = checkpoint
        for name, arr in ckpt_arrays.items():
            store.add(_CHECKPOINT_PREFIX + name, np.asarray(arr))
        manifest["checkpoint"] = {"meta": ckpt_meta, "arrays": sorted(ckpt_arrays)}
    _check_finite(store)
    return PendingArtifact(manifest, store)


def _check_finite(store: _Store) -> None:
    """Refuse NaN and ±inf in any float payload, before anything is written
    (a min and a max per payload, which allocate nothing)."""
    for name, arr in store.arrays.items():
        if arr.dtype.kind == "f" and arr.size and not np.isfinite([arr.min(), arr.max()]).all():
            where = np.argwhere(~np.isfinite(arr))[0]
            raise NonFiniteError(
                f"payload {name!r} holds a non-finite value in row "
                f"{int(where[0]) if where.size else 0}; nothing was written"
            )


def save_artifact(
    model,
    path: str,
    bits: int = 32,
    percentile: float | None = None,
    checkpoint: tuple[dict, dict] | None = None,
) -> ModelArtifact:
    """Export ``model`` as a serving artifact at ``path`` (dir, or ``*.zip``).

    ``bits=32`` stores the embedding's frozen form with one FP32 payload
    per form table; ``bits ∈ {8, 4}`` calibrates that form through
    :func:`repro.quant.quantize_embedding` (optionally percentile-clipped)
    and stores the integer codes + scales.  Every float payload is checked
    first: NaN or ±inf raises :class:`~repro.artifact.NonFiniteError` (or,
    in a table being calibrated, ``ValueError``) and nothing is written.
    The tower is stored FP32 in all cases — the paper's on-device setting
    quantizes storage, not arithmetic.

    ``checkpoint`` — a ``(meta, arrays)`` pair as produced by
    :func:`repro.train.checkpoint.capture_state` — additionally embeds the
    resumable-training state (format v2+).  Checkpoint tensors ride the same
    sha256-verified payload index as the serving tensors, so a truncated or
    flipped checkpoint byte raises :class:`ArtifactIntegrityError` on load.
    A checkpointed artifact is still a complete serving artifact:
    ``ServeSession.load`` simply ignores the extra section.  Checkpoints
    require ``bits=32`` — training state is FP32 by definition.  Under v3
    aliasing the checkpoint's duplicate table bytes (serving copy, model
    copy, best copy) are stored exactly once.
    """
    return collect_artifact(model, bits=bits, percentile=percentile,
                            checkpoint=checkpoint).write(path)


def save_delta(
    model,
    path: str,
    parent: str,
    touched_rows=None,
    *,
    bits: int = 32,
    percentile: float | None = None,
    checkpoint: tuple[dict, dict] | None = None,
) -> ModelArtifact:
    """Export ``model`` as a **delta artifact** against ``parent``.

    The container stores only what changed since the parent export:
    payloads whose bytes are identical become parent references, 2-D+
    payloads with sparse row changes become row patches (changed indices +
    replacement rows), and anything else — new, reshaped, or mostly
    rewritten — is stored outright.  The manifest is the *complete*
    manifest of the target state (full shapes and full-content sha256 per
    payload) plus a ``delta`` provenance section naming the parent and the
    sha256 of its manifest; :func:`load_artifact` resolves the chain
    transparently and re-verifies every reconstructed payload, so a
    corrupted or missing link raises :class:`ArtifactIntegrityError`.

    ``touched_rows`` (optional row indices) is a producer-side assertion:
    if any payload's rows changed *outside* this set, the save fails with
    ``ValueError`` — the online trainer's claim about what it touched is
    checked against the actual diff, never trusted.

    The parent must share the model contract (architecture, input length,
    storage width).  ``parent`` is recorded as given; on load it is
    resolved as recorded or beside the delta, so a directory of chained
    artifacts can be shipped as a unit.
    """
    pending = collect_artifact(model, bits=bits, percentile=percentile,
                               checkpoint=checkpoint)
    manifest = pending.manifest
    parent_art = load_artifact(parent, mmap=os.path.isdir(parent))
    if (
        parent_art.manifest["model"] != manifest["model"]
        or parent_art.technique != manifest["embedding"]["technique"]
        or parent_art.bits != int(bits)
    ):
        raise ValueError(
            f"delta parent at {parent!r} does not share the model contract "
            f"({parent_art.architecture}/{parent_art.technique}/int{parent_art.bits} "
            f"vs {manifest['model']['architecture']}/"
            f"{manifest['embedding']['technique']}/int{bits})"
        )
    parent_index = parent_art.manifest["payloads"]
    parent_depth = int(parent_art.manifest.get("delta", {}).get("depth", 0))
    touched = (
        None if touched_rows is None
        else np.unique(np.asarray(touched_rows, dtype=np.int64))
    )

    delta_store = _Store()
    sources: dict[str, str] = {}
    targets: dict[str, dict] = {}
    from_parent = patched = 0
    for name, arr in pending._store.arrays.items():
        digest = _sha256_array(arr)
        targets[name] = {
            "dtype": arr.dtype.str,
            "shape": list(arr.shape),
            "nbytes": int(arr.nbytes),
            "sha256": digest,
        }
        pmeta = parent_index.get(name)
        if pmeta is not None and pmeta.get("sha256") == digest:
            sources[name] = "parent"
            from_parent += 1
            continue
        row_patchable = (
            pmeta is not None
            and arr.ndim >= 2
            and pmeta.get("dtype") == arr.dtype.str
            and [int(s) for s in pmeta.get("shape", [])] == list(arr.shape)
        )
        if row_patchable:
            base = parent_art.array(name)
            changed = np.flatnonzero(
                (arr != base).any(axis=tuple(range(1, arr.ndim)))
            ).astype(np.int64)
            if touched is not None:
                stray = np.setdiff1d(changed, touched)
                if stray.size:
                    raise ValueError(
                        f"payload {name!r}: rows {stray[:8].tolist()}"
                        f"{'…' if stray.size > 8 else ''} changed since the "
                        "parent but are not in touched_rows"
                    )
            if changed.size and changed.size <= _DELTA_ROW_FRACTION * arr.shape[0]:
                delta_store.add(f"{_DELTA_PREFIX}{name}.rows", changed)
                delta_store.add(f"{_DELTA_PREFIX}{name}.values", arr[changed])
                sources[name] = "rows"
                patched += 1
                continue
        delta_store.add(name, arr)
        sources[name] = "self"

    parent_path = _resolve_parent_path(parent, path) or parent
    manifest["delta"] = {
        "parent": parent,
        "parent_manifest_sha256": _sha256(_read_raw_manifest(parent_path)),
        "depth": parent_depth + 1,
        "payloads_from_parent": from_parent,
        "payloads_patched": patched,
    }

    def finalize(index: dict) -> dict:
        out = {}
        for name, src in sources.items():
            if src == "self":
                out[name] = index[name]
            elif src == "parent":
                out[name] = {"source": "parent", **targets[name]}
            else:
                out[name] = {
                    "source": "rows",
                    **targets[name],
                    "rows": index[f"{_DELTA_PREFIX}{name}.rows"],
                    "values": index[f"{_DELTA_PREFIX}{name}.values"],
                }
        return out

    manifest_nbytes = _write_container(path, manifest, delta_store,
                                       finalize_index=finalize)
    # The returned artifact is the *resolved* view: full target arrays,
    # exactly what load_artifact(path) reconstructs.
    return ModelArtifact(
        manifest, dict(pending._store.arrays), path, manifest_nbytes,
        delta_chain=parent_art.delta_chain + (parent_art.path,),
    )


def load_artifact(path: str, mmap: bool = False, *, _depth: int = 0) -> ModelArtifact:
    """Open, validate and integrity-check an artifact written by
    :func:`save_artifact` / :func:`save_delta`.

    ``mmap=True`` (directory containers only) maps payloads as read-only
    ``np.memmap`` arrays instead of reading them: load time and resident
    memory become O(manifest), and table rows page in on demand.  Member
    sizes are still checked; the per-payload sha256 pass is skipped (it
    would read every byte).  Delta chains resolve transparently in either
    mode — parent-sourced payloads are shared from the parent's view,
    row-patched payloads are materialized and re-verified against their
    recorded full-content hash.

    Raises :class:`ArtifactFormatError` for malformed containers,
    :class:`ArtifactVersionError` for unreadable format versions, and
    :class:`ArtifactIntegrityError` when any payload's bytes disagree with
    the manifest's sha256 (or are missing), or when a delta chain is
    broken — missing/substituted parent, damaged patch, bad reconstruction.
    """
    reader = _Reader(path)
    try:
        try:
            raw_manifest = reader.read(_MANIFEST)
        except ArtifactIntegrityError:
            raise ArtifactFormatError(f"{path!r} has no {_MANIFEST}") from None
        manifest = _check_manifest(raw_manifest, path)
        if mmap and not reader.is_dir:
            raise ArtifactFormatError(
                f"mmap loading requires a directory-form artifact; {path!r} "
                "is a zip container (extract it, or load with mmap=False)"
            )
        parent: ModelArtifact | None = None
        delta_chain: tuple[str, ...] = ()
        if "delta" in manifest:
            parent = _load_delta_parent(manifest["delta"], path, mmap, _depth)
            delta_chain = parent.delta_chain + (parent.path,)
        payload_index = manifest["payloads"]
        if not isinstance(payload_index, dict):
            raise ArtifactFormatError("manifest 'payloads' must be an object")
        loader = _PayloadLoader(reader, path, mmap)
        arrays: dict[str, np.ndarray] = {}
        for name, meta in payload_index.items():
            if not isinstance(meta, dict):
                raise ArtifactFormatError(
                    f"malformed payload index entry for {name!r}: not an object"
                )
            source = meta.get("source", "self")
            if source == "self":
                arrays[name] = loader.load(name, meta)
            elif source == "parent":
                arrays[name] = _from_parent(parent, name, meta, path)
            elif source == "rows":
                arrays[name] = _patch_rows(parent, name, meta, loader, path)
            else:
                raise ArtifactFormatError(
                    f"payload {name!r} has unknown source {source!r}"
                )
    except ArtifactError:
        reader.close()
        raise
    reader.close()
    return ModelArtifact(manifest, arrays, path, len(raw_manifest),
                         mmap_backed=mmap, delta_chain=delta_chain)
