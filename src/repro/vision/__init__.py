"""Classic computer-vision substrate, implemented from scratch on numpy.

The paper uses OpenCV's ``goodFeaturesToTrack`` (Shi-Tomasi) and
``calcOpticalFlowPyrLK`` (pyramidal Lucas-Kanade).  OpenCV is unavailable
here, so this package provides equivalent implementations:

- :mod:`repro.vision.image` — gradients, smoothing, pyramids, bilinear
  sampling.
- :mod:`repro.vision.features` — Shi-Tomasi corner response and
  ``good_features_to_track`` with mask support.
- :mod:`repro.vision.optical_flow` — iterative pyramidal Lucas-Kanade
  sparse optical flow with per-point tracking status.

They exhibit the same qualitative failure modes as the originals (feature
loss and drift that grow with inter-frame motion), which is what makes the
paper's tracking-degradation behaviour emerge rather than being scripted.
"""

from repro.vision.image import (
    gaussian_blur,
    gaussian_blur_batched,
    image_gradients,
    pyramid_down,
    build_pyramid,
    sample_bilinear,
)
from repro.vision.features import (
    good_features_to_track,
    shi_tomasi_response,
    suppress_min_distance,
)
from repro.vision.fast import fast_corners, fast_response
from repro.vision.block_motion import (
    BlockMotionField,
    BlockMotionParams,
    block_motion_field,
    box_block_centers,
)
from repro.vision.optical_flow import FlowResult, FramePyramid, LKParams, track_features
from repro.vision.artifact_store import (
    ArtifactStore,
    PyramidArtifact,
    pack_artifact,
    unpack_artifact,
)
from repro.vision.pyramid_cache import load_pyramid

__all__ = [
    "gaussian_blur",
    "gaussian_blur_batched",
    "image_gradients",
    "pyramid_down",
    "build_pyramid",
    "sample_bilinear",
    "good_features_to_track",
    "suppress_min_distance",
    "shi_tomasi_response",
    "fast_corners",
    "fast_response",
    "BlockMotionField",
    "BlockMotionParams",
    "block_motion_field",
    "box_block_centers",
    "FlowResult",
    "FramePyramid",
    "LKParams",
    "track_features",
    "load_pyramid",
    "ArtifactStore",
    "PyramidArtifact",
    "pack_artifact",
    "unpack_artifact",
]
