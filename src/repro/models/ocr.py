"""A Tesseract-style OCR text extractor over synthetic posters.

The paper's example of physical-plan alternatives is "an image-to-text
extraction operator may be instantiated using either a VLM-based
implementation or an OCR-based implementation such as Tesseract".  The
synthetic poster's ``text_overlay`` plays the role of printed text; the OCR
extractor reads it (occasionally garbling characters), charges very few
tokens, and knows nothing about the depicted objects.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.data.images import SyntheticImage
from repro.models.calls import CallSpec, declare
from repro.models.cost import CostMeter
from repro.utils.seed import SeededRNG
from repro.utils.text import estimate_tokens

OCR_CALL_TOKENS = 12


class OCRTextExtractor:
    """Reads the printed text on a poster."""

    #: Prompt/setup tokens one serial request embeds (engine configuration a
    #: batched invocation pays once); OCR_CALL_TOKENS is 12.
    BATCH_OVERHEAD_TOKENS = 8

    #: The charged entry points (see :mod:`repro.models.calls`).
    CALLS = declare(CallSpec("extract_text", "ocr"))

    def __init__(self, cost_meter: Optional[CostMeter] = None, error_rate: float = 0.02,
                 seed: object = 0, name: str = "ocr:sim-tesseract"):
        if not 0.0 <= error_rate <= 1.0:
            raise ValueError("error_rate must be in [0, 1]")
        self.cost_meter = cost_meter
        self.error_rate = error_rate
        self.name = name
        self._rng = SeededRNG(("ocr", seed))

    def _charge(self, purpose: str, text: str) -> None:
        if self.cost_meter is not None:
            self.cost_meter.record(self.name, purpose,
                                   prompt_tokens=OCR_CALL_TOKENS,
                                   completion_tokens=estimate_tokens(text))

    def extract_text(self, image: SyntheticImage, purpose: str = "ocr") -> Dict[str, Any]:
        """Extract printed text from the poster.

        Returns the recognized text and a per-character confidence; characters
        are occasionally garbled according to ``error_rate``.
        """
        rng = self._rng.fork(image.uri)
        source = image.text_overlay or ""
        recognized = []
        errors = 0
        for char in source:
            if char.isalpha() and rng.chance(self.error_rate):
                recognized.append(rng.choice("abcdefghijklmnopqrstuvwxyz"))
                errors += 1
            else:
                recognized.append(char)
        text = "".join(recognized)
        confidence = 1.0 if not source else 1.0 - errors / max(1, len(source))
        result = {"text": text, "confidence": confidence}
        self._charge(purpose, text)
        return result
