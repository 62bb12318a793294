"""The BEES client — the full smartphone pipeline of Figure 2.

For every batch:

1. **AFE** extracts ORB features from EAC-compressed bitmaps.
2. The features are uploaded and **CBRD** classifies each image against
   the server index with the EDR threshold.
3. **IBRD/SSMM** summarises the surviving (unique-so-far) images,
   keeping one representative per similarity component.
4. **AIU** quality- and resolution-compresses each selected image, and
   the result goes up the uplink; the server indexes its features.

Every stage reads the *current* battery fraction, so the pipeline's
behaviour genuinely adapts as energy drains mid-batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..baselines.base import BatchReport, SharingScheme
from ..energy import COMPRESSION, FEATURE_EXTRACTION, FEATURE_UPLOAD, IMAGE_UPLOAD
from ..features.sizes import nominal_feature_bytes
from ..imaging.image import Image
from ..sim.device import Smartphone
from .afe import ApproximateFeatureExtraction
from .aiu import ApproximateImageUploading
from .ard import CrossBatchDetector
from .config import BeesConfig
from .server import BeesServer
from .ssmm import SubmodularSelector, select_unique_subset


@dataclass
class BeesScheme(SharingScheme):
    """BEES, assembled from its three approximate stages."""

    config: BeesConfig = field(default_factory=BeesConfig)
    selector: SubmodularSelector = field(default_factory=SubmodularSelector)
    name: str = "BEES"

    def __post_init__(self) -> None:
        self.afe = ApproximateFeatureExtraction(
            policy=self.config.eac, enabled=self.config.enable_afe
        )
        self.cbrd = CrossBatchDetector(
            policy=self.config.edr, enabled=self.config.enable_cbrd
        )
        self.aiu = ApproximateImageUploading(
            quality_proportion=self.config.quality_proportion,
            policy=self.config.eau,
            enabled=self.config.enable_aiu,
        )

    # -- pipeline ------------------------------------------------------------

    def process_batch(
        self, device: Smartphone, server: BeesServer, images: "list[Image]"
    ) -> BatchReport:
        report = BatchReport(scheme=self.name, n_images=len(images))
        before = device.meter.snapshot()
        before_bytes = device.uplink.sent_bytes
        self.afe.cost_model = device.cost_model
        self.aiu.cost_model = device.cost_model

        # Stage 1 + 2: AFE extraction, feature upload, CBRD verdicts.
        survivors: list[tuple[Image, object]] = []
        per_image = {}
        for image in images:
            if not device.alive:
                report.halted = True
                break
            afe_result = self.afe.extract(image, device.ebat)
            afe_seconds = afe_result.cost.seconds
            if not device.spend(afe_result.cost, FEATURE_EXTRACTION):
                report.halted = True
                break
            payload = nominal_feature_bytes(
                afe_result.features.kind,
                len(afe_result.features),
                max(1, image.pixels),
                image.nominal_pixels,
            )
            transfer = device.upload(
                payload + server.query_response_bytes, FEATURE_UPLOAD
            )
            if transfer is None:
                report.halted = True
                break
            decision = self.cbrd.decide(afe_result.features, server, device.ebat)
            report.stage_seconds += [
                ("afe", afe_seconds), ("feature_upload", transfer.seconds)
            ]
            seconds = afe_seconds + transfer.seconds
            if decision.redundant:
                # Detection-phase time of an eliminated image is
                # elimination overhead, not that image's upload delay.
                report.elimination_seconds += seconds
                report.eliminated_cross_batch.append(image.image_id)
            else:
                per_image[image.image_id] = seconds
                survivors.append((image, afe_result.features))

        # Stage 3: IBRD via SSMM over the cross-batch-unique survivors.
        if survivors and self.config.enable_ssmm and not report.halted:
            result = select_unique_subset(
                [features for _, features in survivors],
                cut_threshold=self.config.ssmm_cut(device.ebat),
                selector=self.selector,
                budget=self.config.ssmm_budget,
            )
            chosen = set(result.selected)
            selected = [survivors[i] for i in sorted(chosen)]
            report.eliminated_in_batch.extend(
                survivors[i][0].image_id
                for i in range(len(survivors))
                if i not in chosen
            )
        else:
            selected = survivors

        # Stage 4: AIU compression and image upload.
        for image, features in selected:
            if not device.alive:
                report.halted = True
                break
            aiu_result = self.aiu.prepare(image, device.ebat)
            aiu_seconds = aiu_result.cost.seconds
            if not device.spend(aiu_result.cost, COMPRESSION):
                report.halted = True
                break
            transfer = device.upload(aiu_result.upload_bytes, IMAGE_UPLOAD)
            if transfer is None:
                report.halted = True
                break
            report.stage_seconds += [
                ("aiu", aiu_seconds), ("image_upload", transfer.seconds)
            ]
            per_image[image.image_id] = (
                per_image.get(image.image_id, 0.0) + aiu_seconds + transfer.seconds
            )
            server.receive_image(
                aiu_result.image, features, received_bytes=aiu_result.upload_bytes
            )
            report.uploaded_ids.append(image.image_id)

        report.per_image_seconds = list(per_image.values())
        report.total_seconds = float(sum(per_image.values()))
        report.sent_bytes = device.uplink.sent_bytes - before_bytes
        report.energy_by_category = device.meter.since(before)
        return self.observe_batch(report)
