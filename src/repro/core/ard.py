"""ARD — Approximate Redundancy Detection (Section III-B).

Cross-batch redundancy detection (CBRD): the client queries the server
index with an image's features; if the maximum similarity exceeds the
EDR threshold ``T = 0.013 + 0.006 * Ebat``, the image is redundant and
is not uploaded.  Lowering ``T`` at low battery eliminates more images,
spending the scarce energy only on genuinely novel content.

In-batch redundancy detection (IBRD) is delegated to SSMM
(:mod:`repro.core.ssmm`); this module hosts the decision plumbing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..features.base import FeatureSet
from ..index.index import QueryResult
from ..obs.journal import get_journal
from .policies import LinearPolicy, edr_policy

if TYPE_CHECKING:  # pragma: no cover
    from .server import BeesServer


@dataclass(frozen=True)
class CbrdDecision:
    """The verdict on one queried image."""

    image_id: str
    redundant: bool
    max_similarity: float
    threshold: float
    best_match_id: "str | None"


@dataclass
class CrossBatchDetector:
    """CBRD: query the server index, compare against the EDR threshold."""

    policy: LinearPolicy = field(default_factory=edr_policy)
    enabled: bool = True

    def threshold_for(self, ebat: float) -> float:
        """The EDR similarity threshold at the given battery level."""
        return self.policy(ebat)

    def decide(
        self, features: FeatureSet, server: "BeesServer", ebat: float
    ) -> CbrdDecision:
        """Query the server and classify the image.

        With CBRD disabled (ablation) every image is declared unique
        without touching the index.
        """
        threshold = self.threshold_for(ebat)
        if not self.enabled:
            return self._emit(
                CbrdDecision(
                    image_id=features.image_id,
                    redundant=False,
                    max_similarity=0.0,
                    threshold=threshold,
                    best_match_id=None,
                ),
                votes=0,
            )
        result: QueryResult = server.query_features(features)
        return self._emit(
            CbrdDecision(
                image_id=features.image_id,
                redundant=result.best_similarity > threshold,
                max_similarity=result.best_similarity,
                threshold=threshold,
                best_match_id=result.best_id,
            ),
            votes=result.candidates_checked,
        )

    def _emit(self, decision: CbrdDecision, votes: int) -> CbrdDecision:
        """Journal the verdict; every construction path funnels through
        here so the decision journal never misses a CBRD outcome."""
        journal = get_journal()
        if journal.enabled:
            journal.emit(
                "cbrd.verdict",
                image_id=decision.image_id,
                redundant=decision.redundant,
                max_similarity=decision.max_similarity,
                threshold=decision.threshold,
                best_match=decision.best_match_id,
                votes=votes,
            )
        return decision
