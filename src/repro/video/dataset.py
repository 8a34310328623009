"""Video clips and suites: the unit of work every experiment consumes.

A :class:`VideoClip` bundles a scene (ground truth) with a renderer
(pixels) under a human-readable name.  A :class:`VideoSuite` is an ordered
collection of clips — the reproduction's stand-in for the paper's training
corpus (105 205 frames) and evaluation corpus (141 213 frames), scaled to
what a CPU-only environment can process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.video.framestore import FrameStore
from repro.video.library import make_scenario
from repro.video.render import FrameRenderer
from repro.video.scenario import ScenarioConfig
from repro.video.scene import FrameAnnotation, Scene


@dataclass
class VideoClip:
    """One synthetic video: ground truth plus lazily rendered frames."""

    name: str
    scene: Scene
    renderer: FrameRenderer = field(repr=False)

    @property
    def config(self) -> ScenarioConfig:
        return self.scene.config

    @property
    def num_frames(self) -> int:
        return self.scene.config.num_frames

    @property
    def fps(self) -> float:
        return self.scene.config.fps

    def frame(self, index: int) -> np.ndarray:
        """Rendered grayscale frame at ``index``."""
        return self.renderer.render(index)

    def annotation(self, index: int) -> FrameAnnotation:
        """Ground truth at ``index``."""
        return self.scene.annotation(index)

    def chunk_bounds(self, chunk_seconds: float = 1.0) -> list[tuple[int, int]]:
        """Half-open ``(start, stop)`` frame ranges of fixed-duration chunks.

        The adaptation trainer works on 1-second chunks (paper §IV-D3).
        The final partial chunk is included if it has at least one frame.
        """
        if chunk_seconds <= 0:
            raise ValueError("chunk_seconds must be positive")
        chunk_frames = max(1, int(round(chunk_seconds * self.fps)))
        bounds = []
        for start in range(0, self.num_frames, chunk_frames):
            bounds.append((start, min(start + chunk_frames, self.num_frames)))
        return bounds


def make_clip(
    scenario: str | ScenarioConfig,
    seed: int,
    num_frames: int | None = None,
    name: str | None = None,
    frame_store: FrameStore | None = None,
    **overrides,
) -> VideoClip:
    """Build a clip from a preset name or an explicit scenario config.

    ``frame_store`` pins the renderer to a specific shared
    :class:`~repro.video.framestore.FrameStore`; the default (``None``)
    resolves the process-wide store at render time, which is inert until
    someone gives it a byte budget.
    """
    if isinstance(scenario, str):
        config = make_scenario(scenario, num_frames=num_frames, **overrides)
    else:
        config = scenario
        if num_frames is not None:
            config = config.with_frames(num_frames)
    scene = Scene(config, seed=seed)
    renderer = FrameRenderer(scene, frame_store=frame_store)
    clip_name = name or f"{config.name}-{seed}"
    return VideoClip(name=clip_name, scene=scene, renderer=renderer)


@dataclass
class VideoSuite:
    """An ordered, named collection of clips."""

    name: str
    clips: list[VideoClip]

    def __iter__(self) -> Iterator[VideoClip]:
        return iter(self.clips)

    def __len__(self) -> int:
        return len(self.clips)

    @property
    def total_frames(self) -> int:
        return sum(clip.num_frames for clip in self.clips)

    def describe(self) -> str:
        lines = [f"suite {self.name}: {len(self.clips)} clips, {self.total_frames} frames"]
        for clip in self.clips:
            lines.append(
                f"  {clip.name}: {clip.num_frames} frames @ {clip.fps:g} fps "
                f"(~{clip.config.content_speed_hint():.2f} px/frame)"
            )
        return "\n".join(lines)
