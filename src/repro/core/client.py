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
from ..obs.runtime import get_obs
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
        obs = get_obs()

        with obs.span(
            "bees.batch", scheme=self.name, n_images=len(images), ebat=device.ebat
        ) as batch_span:
            # Stage 1 + 2: AFE extraction, feature upload, CBRD verdicts.
            survivors: list[tuple[Image, object]] = []
            per_image = {}
            for image in images:
                if not device.alive:
                    report.halted = True
                    break
                with obs.span(
                    "bees.afe", image_id=image.image_id, ebat=device.ebat
                ) as span:
                    afe_result = self.afe.extract(image, device.ebat)
                    afe_seconds = afe_result.cost.seconds
                    alive = device.spend(afe_result.cost, FEATURE_EXTRACTION)
                    span.set_attribute("sim_seconds", afe_seconds)
                    span.set_attribute(
                        "compression", afe_result.compression_proportion
                    )
                if not alive:
                    report.halted = True
                    break
                payload = nominal_feature_bytes(
                    afe_result.features.kind,
                    len(afe_result.features),
                    max(1, image.pixels),
                    image.nominal_pixels,
                )
                with obs.span(
                    "bees.feature_upload", image_id=image.image_id, bytes=payload
                ):
                    transfer = device.upload(
                        payload + server.query_response_bytes, FEATURE_UPLOAD
                    )
                if transfer is None:
                    report.halted = True
                    break
                with obs.span("bees.cbrd", image_id=image.image_id) as span:
                    decision = self.cbrd.decide(
                        afe_result.features, server, device.ebat
                    )
                    span.set_attribute("redundant", decision.redundant)
                    span.set_attribute("max_similarity", decision.max_similarity)
                    span.set_attribute("threshold", decision.threshold)
                if obs.enabled:
                    obs.observe_stage(self.name, "afe", afe_seconds)
                    obs.observe_stage(self.name, "feature_upload", transfer.seconds)
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
                with obs.span(
                    "bees.ssmm", n_candidates=len(survivors), ebat=device.ebat
                ) as span:
                    cut = self.config.ssmm_cut(device.ebat)
                    result = select_unique_subset(
                        [features for _, features in survivors],
                        cut_threshold=cut,
                        selector=self.selector,
                        budget=self.config.ssmm_budget,
                    )
                    chosen = set(result.selected)
                    span.set_attribute("n_selected", len(chosen))
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
                with obs.span(
                    "bees.aiu", image_id=image.image_id, ebat=device.ebat
                ) as span:
                    aiu_result = self.aiu.prepare(image, device.ebat)
                    aiu_seconds = aiu_result.cost.seconds
                    alive = device.spend(aiu_result.cost, COMPRESSION)
                    span.set_attribute("sim_seconds", aiu_seconds)
                    span.set_attribute("upload_bytes", aiu_result.upload_bytes)
                if not alive:
                    report.halted = True
                    break
                with obs.span(
                    "bees.image_upload",
                    image_id=image.image_id,
                    bytes=aiu_result.upload_bytes,
                ):
                    transfer = device.upload(aiu_result.upload_bytes, IMAGE_UPLOAD)
                if transfer is None:
                    report.halted = True
                    break
                if obs.enabled:
                    obs.observe_stage(self.name, "aiu", aiu_seconds)
                    obs.observe_stage(self.name, "image_upload", transfer.seconds)
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
            batch_span.set_attribute("bytes_sent", report.sent_bytes)
            batch_span.set_attribute("n_uploaded", report.n_uploaded)
            batch_span.set_attribute(
                "n_eliminated_cross", len(report.eliminated_cross_batch)
            )
            batch_span.set_attribute(
                "n_eliminated_in_batch", len(report.eliminated_in_batch)
            )
            batch_span.set_attribute("halted", report.halted)
        return self.observe_batch(report)
