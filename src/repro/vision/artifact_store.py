"""Shared store of derived vision artifacts: pyramids built once per sweep.

PR 7's :mod:`repro.video.framestore` made *raw frames* render-once
fleet-wide, but every derived artifact was still recomputed per method
arm per worker: a fig6 sweep runs ~8 method arms over the same clips,
and each arm would rebuild identical :class:`~repro.vision.optical_flow.FramePyramid`
levels and Scharr gradients from scratch.  This module is the frame
store one layer up and the one cache of derived pyramids (trackers read
through it with :func:`~repro.vision.pyramid_cache.load_pyramid`): a
content-addressed, byte-budgeted store of **pyramid artifacts** — the per-level images plus
(optionally) the warmed ``(Ix, Iy)`` gradient pairs — keyed by

    ``(scene fingerprint, frame_index, pyramid_levels, warm_gradients)``

so two arms (or two worker processes) requesting the same frame's
pyramid land on the same entry.  Pyramid construction is a pure function
of the rendered frame, which is itself a pure function of the scene
fingerprint and frame index, so a stored artifact is bit-identical to a
fresh build: the store changes *when* pyramids are computed, never
*what* they are.

Two tiers, both literally PR 7's machinery re-keyed:

- the in-process tier subclasses :class:`~repro.video.framestore.FrameStore`
  (byte-budgeted LRU, freeze-on-store, first-insert-wins);
- the cross-process tier subclasses
  :class:`~repro.video.framestore.SharedFrameStore` (read-only
  ``multiprocessing.shared_memory`` segments, flock'd pickled index,
  compute leases so concurrent workers wait for the first builder,
  parent-only eviction/reclaim, never-close attach registry — see
  DESIGN.md §9 for the lifecycle rules, which apply unchanged here).

The payload crossing either backing is one packed ``uint8`` buffer per
artifact (header + aligned float64 level/gradient planes), so the
backing stores bytes exactly as it stores frames; unpacking creates
zero-copy views into the stored buffer.  See DESIGN.md §13.
"""

from __future__ import annotations

import pickle
import struct
import threading
from dataclasses import dataclass

import numpy as np

from repro.video.framestore import (
    BYTES_PER_MB,  # noqa: F401 - re-exported convenience
    FrameStore,
    SharedFrameStore,
    StoreToken,
    shared_store_available,
)
from repro.vision.optical_flow import FramePyramid

# Packed-buffer layout: [u64 header_len][pickled meta][aligned planes...].
# Alignment keeps the float64 views on natural boundaries; the padding is
# zero-filled so packing is deterministic byte-for-byte.
_PACK_HEADER = struct.Struct("<Q")
_PACK_ALIGN = 16
_PACK_VERSION = 1


def _align(offset: int) -> int:
    return (offset + _PACK_ALIGN - 1) // _PACK_ALIGN * _PACK_ALIGN


@dataclass(frozen=True)
class PyramidArtifact:
    """One frame's derived pyramid payload: level images + optional gradients.

    ``images`` is exactly what :func:`~repro.vision.image.build_pyramid`
    produces (finest first); ``gradients`` is ``None`` for a lazy
    artifact or one ``(Ix, Iy)`` pair per level for a warmed one.  The
    warm flag is part of the store key, so lazy and warmed artifacts for
    the same frame are distinct entries — a reader asking for gradients
    never lands on an entry that lacks them.
    """

    images: tuple[np.ndarray, ...]
    gradients: tuple[tuple[np.ndarray, np.ndarray], ...] | None = None

    @property
    def warmed(self) -> bool:
        return self.gradients is not None

    @property
    def levels(self) -> int:
        return len(self.images)

    @property
    def nbytes(self) -> int:
        total = sum(int(arr.nbytes) for arr in self.images)
        if self.gradients is not None:
            total += sum(int(gx.nbytes) + int(gy.nbytes) for gx, gy in self.gradients)
        return total

    @classmethod
    def from_pyramid(cls, pyramid: FramePyramid, warmed: bool) -> "PyramidArtifact":
        """Capture a built pyramid (warming its gradients when asked)."""
        images = tuple(pyramid.images)
        if not warmed:
            return cls(images=images, gradients=None)
        pyramid.warm_gradients()
        return cls(
            images=images,
            gradients=tuple(pyramid.gradients(level) for level in range(pyramid.levels)),
        )

    def to_pyramid(self) -> FramePyramid:
        """Reconstruct the pyramid without rebuilding anything."""
        return FramePyramid.from_arrays(self.images, self.gradients)


def pack_artifact(artifact: PyramidArtifact) -> np.ndarray:
    """Serialise an artifact into one contiguous ``uint8`` buffer.

    The buffer is what crosses the backing store (and, on the shared
    tier, what lives in the read-only segment); :func:`unpack_artifact`
    reconstructs zero-copy views over it.
    """
    planes = [np.ascontiguousarray(arr, dtype=np.float64) for arr in artifact.images]
    if artifact.gradients is not None:
        for gx, gy in artifact.gradients:
            planes.append(np.ascontiguousarray(gx, dtype=np.float64))
            planes.append(np.ascontiguousarray(gy, dtype=np.float64))
    meta = (
        _PACK_VERSION,
        artifact.warmed,
        len(artifact.images),
        tuple((tuple(plane.shape), plane.dtype.str) for plane in planes),
    )
    header = pickle.dumps(meta, protocol=pickle.HIGHEST_PROTOCOL)
    cursor = _align(_PACK_HEADER.size + len(header))
    offsets = []
    for plane in planes:
        offsets.append(cursor)
        cursor = _align(cursor + int(plane.nbytes))
    buffer = np.zeros(cursor, dtype=np.uint8)
    _PACK_HEADER.pack_into(buffer, 0, len(header))
    buffer[_PACK_HEADER.size : _PACK_HEADER.size + len(header)] = np.frombuffer(
        header, dtype=np.uint8
    )
    for plane, offset in zip(planes, offsets):
        view = buffer[offset : offset + plane.nbytes].view(plane.dtype)
        view.reshape(plane.shape)[...] = plane
    return buffer


def unpack_artifact(buffer: np.ndarray) -> PyramidArtifact:
    """Rebuild an artifact as views into ``buffer`` (no plane is copied)."""
    header_len = int(buffer[: _PACK_HEADER.size].view("<u8")[0])
    version, warmed, num_images, plane_meta = pickle.loads(
        buffer[_PACK_HEADER.size : _PACK_HEADER.size + header_len].tobytes()
    )
    if version != _PACK_VERSION:
        raise ValueError(f"unknown artifact pack version {version!r}")
    cursor = _align(_PACK_HEADER.size + header_len)
    planes: list[np.ndarray] = []
    for shape, dtype_str in plane_meta:
        dtype = np.dtype(dtype_str)
        nbytes = int(np.prod(shape)) * dtype.itemsize
        planes.append(buffer[cursor : cursor + nbytes].view(dtype).reshape(shape))
        cursor = _align(cursor + nbytes)
    images = tuple(planes[:num_images])
    if not warmed:
        return PyramidArtifact(images=images, gradients=None)
    pairs = planes[num_images:]
    gradients = tuple(
        (pairs[2 * level], pairs[2 * level + 1]) for level in range(num_images)
    )
    return PyramidArtifact(images=images, gradients=gradients)


class _PrivateBacking(FrameStore):
    """In-process byte-budgeted LRU of packed artifacts."""

    _METRIC_PREFIX = "artifactstore"


class SharedArtifactBacking(SharedFrameStore):
    """Cross-process packed-artifact segments (PR 7 machinery re-keyed).

    The ``get``-miss compute lease carries over unchanged: the first
    worker to miss a pyramid claims the *build*, later workers poll
    until the ``put`` fills it instead of rebuilding duplicates.
    """

    _METRIC_PREFIX = "artifactstore"
    _SEGMENT_PREFIX = "reproas"


class ArtifactStore:
    """Typed facade over a packed-buffer backing store.

    Encodes the 4-tuple artifact key into the backing's
    ``(fingerprint, frame_index)`` key space (the kind/levels/warm
    columns fold into the fingerprint string), packs on ``put``, and
    unpacks on ``get``.  ``stats``/``set_budget``/``clear``/``reclaim``/
    ``close`` delegate, so the sweep engine manages this store exactly
    like the frame store.
    """

    def __init__(self, backing: FrameStore | SharedFrameStore) -> None:
        self.backing = backing

    # -- key scheme ----------------------------------------------------------

    @staticmethod
    def _backing_fingerprint(fingerprint: str, levels: int, warmed: bool) -> str:
        return f"{fingerprint}|pyr:{int(levels)}:{1 if warmed else 0}"

    # -- delegated state -----------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self.backing.enabled

    @property
    def max_bytes(self) -> int:
        return self.backing.max_bytes

    @property
    def owner(self) -> bool:
        """Whether this process owns eviction (always true in-process)."""
        return getattr(self.backing, "owner", True)

    @property
    def token(self) -> StoreToken:
        return self.backing.token

    def set_obs(self, obs=None) -> None:
        self.backing.set_obs(obs)

    def stats(self) -> dict:
        return self.backing.stats()

    def set_budget(self, max_bytes: int) -> None:
        self.backing.set_budget(max_bytes)

    def clear(self) -> None:
        self.backing.clear()

    def reclaim(self) -> int:
        reclaim = getattr(self.backing, "reclaim", None)
        return reclaim() if reclaim is not None else 0

    def close(self) -> None:
        close = getattr(self.backing, "close", None)
        if close is not None:
            close()

    # -- core ----------------------------------------------------------------

    def get(
        self, fingerprint: str, frame_index: int, levels: int, warmed: bool
    ) -> PyramidArtifact | None:
        """The stored artifact, or ``None``.

        On the shared tier a miss is a *build claim* (exactly the frame
        store's render lease): the caller is expected to build the
        pyramid and :meth:`put` it, and concurrent readers of the same
        key wait for the fill instead of building duplicates.
        """
        buffer = self.backing.get(
            self._backing_fingerprint(fingerprint, levels, warmed), frame_index
        )
        if buffer is None:
            return None
        return unpack_artifact(buffer)

    def put(
        self,
        fingerprint: str,
        frame_index: int,
        levels: int,
        warmed: bool,
        artifact: PyramidArtifact,
    ) -> PyramidArtifact:
        """Publish a built artifact; first insert wins.

        Returns the canonical artifact for the key: views over the
        stored (frozen / segment-backed) buffer when the insert — or an
        earlier racing one — succeeded, the caller's own artifact
        unchanged when nothing was stored (store disabled, artifact over
        budget).  Callers should adopt the return value so every
        consumer in the fleet reads the same bytes.
        """
        if not self.backing.enabled:
            return artifact
        buffer = pack_artifact(artifact)
        stored = self.backing.put(
            self._backing_fingerprint(fingerprint, levels, warmed), frame_index, buffer
        )
        return unpack_artifact(stored)


# -- process-wide default ------------------------------------------------------
#
# Mirrors repro.video.framestore: a disabled-by-default process instance,
# an overlay slot for a sweep worker's attached shared store, and a
# configure hook the engine (and --artifact-store-mb) drive.
# load_pyramid resolves the default at call time, so configuring it
# after pipelines were built still takes effect.

_default_store = ArtifactStore(_PrivateBacking(0))
_installed_store: ArtifactStore | None = None
_default_lock = threading.Lock()


def default_store() -> ArtifactStore:
    """The process-wide artifact store (disabled until configured)."""
    installed = _installed_store
    return installed if installed is not None else _default_store


def install_store(store: ArtifactStore | None) -> ArtifactStore | None:
    """Overlay (or, with ``None``, remove) the process-default store."""
    global _installed_store
    with _default_lock:
        previous = _installed_store
        _installed_store = store
    return previous


def configure_default(max_bytes: int) -> ArtifactStore:
    """Set the active process-wide store's budget and return it."""
    with _default_lock:
        store = _installed_store if _installed_store is not None else _default_store
    store.set_budget(max_bytes)
    return store


def create_shared(max_bytes: int) -> ArtifactStore:
    """Create an owning cross-process artifact store (the sweep parent)."""
    return ArtifactStore(SharedArtifactBacking.create(max_bytes))


def attach_shared(token: StoreToken) -> ArtifactStore:
    """Attach to a live shared artifact store (sweep workers)."""
    return ArtifactStore(SharedArtifactBacking.attach(token))
