"""A cheap pixel-statistics object detector.

This is the second *physical implementation* of image analysis (the paper's
example contrasts a VLM-based implementation with an OCR/classic-CV one).  It
only looks at rendered pixels: it finds uniformly colored rectangular regions
that differ from the background and reports them as class-less "region"
objects, plus poster-level color statistics.  It is much cheaper than the VLM
but knows nothing about object classes, so classification functions built on
it are less accurate -- exactly the cost/accuracy spread the optimizer needs.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from repro.data.images import SyntheticImage
from repro.models.calls import CallSpec, declare
from repro.models.cost import CostMeter

DETECTOR_CALL_TOKENS = 40


class PixelObjectDetector:
    """Detects colored regions in synthetic poster pixels."""

    #: Prompt/setup tokens one serial request embeds (detector configuration
    #: a batched invocation pays once); DETECTOR_CALL_TOKENS is 40, so most
    #: of a call's prompt is shareable setup — like a real vision backend.
    BATCH_OVERHEAD_TOKENS = 32

    #: The charged entry points (see :mod:`repro.models.calls`).
    CALLS = declare(CallSpec("detect", "pixel_detection"))

    def __init__(self, cost_meter: Optional[CostMeter] = None, name: str = "detector:pixel-stats",
                 min_region_fraction: float = 0.005):
        self.cost_meter = cost_meter
        self.name = name
        self.min_region_fraction = min_region_fraction

    def _charge(self, purpose: str) -> None:
        if self.cost_meter is not None:
            self.cost_meter.record(self.name, purpose,
                                   prompt_tokens=DETECTOR_CALL_TOKENS, completion_tokens=20)

    def detect(self, image: SyntheticImage, purpose: str = "pixel_detection") -> Dict[str, Any]:
        """Detect colored regions and compute poster-level statistics."""
        pixels = image.render_pixels()
        height, width = pixels.shape[:2]
        background = np.array(image.background_color, dtype=int)
        diff = np.abs(pixels.astype(int) - background).sum(axis=2)
        foreground = diff > 30

        regions: List[Dict[str, Any]] = []
        visited = np.zeros_like(foreground, dtype=bool)
        min_pixels = max(4, int(self.min_region_fraction * width * height))
        # Simple flood-fill over a coarse grid: sufficient for rectangles.
        for y in range(0, height, 4):
            for x in range(0, width, 4):
                if not foreground[y, x] or visited[y, x]:
                    continue
                # Bounding box of connected color: approximate by the color of
                # the seed pixel.
                seed_color = pixels[y, x]
                same_color = np.all(pixels == seed_color, axis=2) & foreground & (~visited)
                if same_color.sum() < min_pixels:
                    visited |= same_color
                    continue
                region_ys, region_xs = np.where(same_color)
                bbox = (int(region_xs.min()), int(region_ys.min()),
                        int(region_xs.max()) + 1, int(region_ys.max()) + 1)
                regions.append({
                    "class_name": "region",
                    "bbox": list(bbox),
                    "attributes": {"color_rgb": [int(c) for c in seed_color]},
                })
                visited |= same_color

        result = {
            "objects": regions,
            "relationships": [],
            "color_variance": image.color_variance(),
            "saturation": image.saturation(),
            "coverage": float(foreground.mean()),
            "text_overlay": "",
        }
        self._charge(purpose)
        return result
