"""Frame pyramids read through the derived-artifact store.

Pyramid construction (Gaussian blur + subsample per level, plus the
Scharr gradients) is the fixed per-frame cost of the tracking hot path.
A pyramid is a pure function of ``(scene, frame_index, levels)``, so one
built anywhere in a sweep can serve every method arm and worker process
that asks for the same key.  :func:`load_pyramid` is that read-through:
it asks the :class:`~repro.vision.artifact_store.ArtifactStore` first,
and on a miss builds the pyramid, warms its gradients, publishes it and
adopts the canonical stored copy.  A store-served pyramid is
bit-identical to a fresh build, so the store changes *when* pyramids are
computed, never *what* they are.

There is deliberately no per-run cache in front of the store.  A
pipeline never asks for the same ``(frame, levels)`` twice within one
run — each tracker keeps its current pyramid itself — so a local LRU
here only ever missed.  The one cache owner for derived pyramids is the
artifact store.
"""

from __future__ import annotations

import threading
from typing import Callable

import numpy as np

from repro.video.framestore import scene_fingerprint
from repro.vision.artifact_store import ArtifactStore, PyramidArtifact, default_store
from repro.vision.optical_flow import FramePyramid

# Process-wide totals: ``hits`` counts pyramids served by the artifact
# store, ``misses`` pyramids built here.  The sweep engine diffs them
# around each shard to funnel per-shard sweep.pyramid_* metrics — same
# idea as diffing the frame store's stats().
_TOTALS_LOCK = threading.Lock()
_TOTALS = {"hits": 0, "misses": 0}


def counters_snapshot() -> dict[str, int]:
    """Point-in-time copy of the process-wide pyramid totals."""
    with _TOTALS_LOCK:
        return dict(_TOTALS)


def _bump_total(key: str) -> None:
    with _TOTALS_LOCK:
        _TOTALS[key] += 1


def clip_fingerprint(clip) -> str | None:
    """The scene fingerprint that keys ``clip``'s pyramids, or ``None``.

    Exported clips carry a scene shim with no ``(config, seed)`` identity;
    their pyramids are always built locally rather than risking a store
    key that is not content-addressed.
    """
    scene = getattr(clip, "scene", None)
    if scene is None or not (hasattr(scene, "config") and hasattr(scene, "seed")):
        return None
    return scene_fingerprint(scene)


def load_pyramid(
    frames: Callable[[int], np.ndarray],
    frame_index: int,
    levels: int,
    fingerprint: str | None,
    store: ArtifactStore | None = None,
) -> FramePyramid:
    """The ``levels``-level pyramid of frame ``frame_index``.

    ``frames`` renders a frame by index; it is only called on a build.
    ``store`` overrides the process-default artifact store (benches and
    tests).  With no ``fingerprint``, or with the store disabled, this is
    just ``FramePyramid(frames(frame_index), levels)``.  With a store,
    pyramids are traded warmed, so the gradient work is shared fleet-wide
    alongside the level images.
    """
    if fingerprint is not None and store is None:
        store = default_store()
    if fingerprint is None or not store.enabled:
        _bump_total("misses")
        return FramePyramid(frames(frame_index), levels)
    artifact = store.get(fingerprint, frame_index, levels, True)
    if artifact is not None:
        _bump_total("hits")
        return artifact.to_pyramid()
    _bump_total("misses")
    pyramid = FramePyramid(frames(frame_index), levels)
    # Publish and adopt the canonical stored copy so every consumer in
    # the fleet shares the same (frozen) bytes.
    canonical = store.put(
        fingerprint,
        frame_index,
        levels,
        True,
        PyramidArtifact.from_pyramid(pyramid, warmed=True),
    )
    return canonical.to_pyramid()
