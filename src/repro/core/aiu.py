"""AIU — Approximate Image Uploading (Section III-C).

Unique images are compressed twice before transmission:

* **quality compression** at a fixed proportion (0.85 — beyond it SSIM
  collapses, Figure 5(a)), and
* **resolution compression** at the EAU proportion
  ``Cr = 0.8 - 0.8 * Ebat`` — lower battery, lower resolution, smaller
  upload (Figure 5(b)); the loss is unrecoverable, which is exactly the
  trade AIS makes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..energy import EnergyCostModel, WorkCost, ZERO_COST
from ..imaging import jpeg
from ..imaging.image import Image
from ..imaging.resolution import compress_resolution
from ..obs.journal import get_journal
from .config import DEFAULT_QUALITY_PROPORTION
from .policies import LinearPolicy, eau_policy


@dataclass(frozen=True)
class AiuResult:
    """The prepared upload: final image + what preparing it cost."""

    image: Image
    quality_proportion: float
    resolution_proportion: float
    cost: WorkCost

    @property
    def upload_bytes(self) -> int:
        """Bytes that will hit the uplink."""
        return self.image.nominal_bytes


@dataclass
class ApproximateImageUploading:
    """The AIU stage: quality + EAU resolution compression."""

    quality_proportion: float = DEFAULT_QUALITY_PROPORTION
    policy: LinearPolicy = field(default_factory=eau_policy)
    cost_model: EnergyCostModel = field(default_factory=EnergyCostModel)
    enabled: bool = True

    def resolution_proportion_for(self, ebat: float) -> float:
        """The EAU resolution compression proportion."""
        if not self.enabled:
            return 0.0
        return self.policy(ebat)

    def prepare(self, image: Image, ebat: float) -> AiuResult:
        """Compress *image* for upload at the current battery level."""
        if not self.enabled:
            return self._emit(
                AiuResult(
                    image=image,
                    quality_proportion=0.0,
                    resolution_proportion=0.0,
                    cost=ZERO_COST,
                ),
                source=image,
                ebat=ebat,
                mode="passthrough",
            )
        resolution_proportion = self.resolution_proportion_for(ebat)
        # Resolution first: the quality encode then runs over fewer
        # pixels, which is also the cheaper CPU order.
        prepared = image
        cost = ZERO_COST
        if resolution_proportion > 0.0:
            prepared = compress_resolution(prepared, resolution_proportion)
            cost = cost + self.cost_model.compression_cost(image.nominal_pixels)
        if self.quality_proportion > 0.0:
            prepared = jpeg.compress_quality(prepared, self.quality_proportion)
            cost = cost + self.cost_model.compression_cost(prepared.nominal_pixels)
        return self._emit(
            AiuResult(
                image=prepared,
                quality_proportion=self.quality_proportion,
                resolution_proportion=resolution_proportion,
                cost=cost,
            ),
            source=image,
            ebat=ebat,
            mode="transmit",
        )

    def _emit(
        self, result: AiuResult, source: Image, ebat: float, mode: str
    ) -> AiuResult:
        """Journal the transmit/passthrough decision with bitmap sizes."""
        journal = get_journal()
        if journal.enabled:
            journal.emit(
                "aiu.prepare",
                image_id=source.image_id,
                mode=mode,
                ebat=ebat,
                quality=result.quality_proportion,
                resolution=result.resolution_proportion,
                input_pixels=source.nominal_pixels,
                output_pixels=result.image.nominal_pixels,
                input_bytes=source.nominal_bytes,
                upload_bytes=result.upload_bytes,
            )
        return result
