"""SSMM — the Similarity-aware Submodular Maximization Model.

Section III-B2.  Given a batch of images as a weighted graph
``G = (V, E, w)`` with edge weights equal to pairwise Equation-2
similarities, SSMM selects the *unique image subset* to upload:

1. Cut every edge with weight below the threshold ``Tw`` (itself set by
   the energy-aware policy); the remaining connected components are the
   batch's similarity clusters.
2. The adaptive budget ``b`` is the number of components — one
   representative per distinct piece of content.
3. Greedily maximise the submodular objective
   ``F(S) = λ_cov * f_cov(S) + λ_div * f_div(S)`` subject to
   ``|S| <= b`` (Algorithm 1), where

   * ``f_cov(S) = Σ_{i∈V} max_{j∈S} w(i, j)`` rewards summaries whose
     members stand in for every image (coverage), and
   * ``f_div(S) = Σ_i 1[S ∩ I_i ≠ ∅]`` rewards touching many
     components (diversity).

Both components are monotone submodular, so the lazy-free greedy of
Nemhauser et al. guarantees ``F(Ŝ) >= (1 - 1/e) F(S*)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..features.base import FeatureSet
from ..kernels.batch import batch_similarity_matrix
from ..obs.journal import DecisionJournal, get_journal


def similarity_matrix(feature_sets: "list[FeatureSet]") -> np.ndarray:
    """Pairwise Equation-2 similarity matrix; the diagonal is 1.

    Computed by the batched kernel
    (:func:`repro.kernels.batch.batch_similarity_matrix`), which hoists
    the per-set descriptor preparation out of the O(n²) pair loop — the
    matrix is byte-identical to the historical per-pair
    :func:`~repro.features.similarity.jaccard_similarity` loop.
    """
    return batch_similarity_matrix(feature_sets)


def partition_components(weights: np.ndarray, cut_threshold: float) -> np.ndarray:
    """Connected components after cutting edges below *cut_threshold*.

    Returns an integer label per vertex.  Union-find keeps this linear
    in the number of surviving edges.
    """
    weights = np.asarray(weights)
    if weights.ndim != 2 or weights.shape[0] != weights.shape[1]:
        raise ConfigurationError(f"weights must be square, got {weights.shape}")
    n = weights.shape[0]
    parent = np.arange(n)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    rows, cols = np.nonzero(np.triu(weights >= cut_threshold, k=1))
    for i, j in zip(rows.tolist(), cols.tolist()):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri

    # Root resolution, vectorized: pointer-jump every vertex at once
    # until the parent array is a fixed point.  Path halving above
    # bounds the chain depth, so this converges in O(log n) gathers —
    # replacing the per-vertex Python `find` loop.
    roots = parent
    while True:
        jumped = roots[roots]
        if np.array_equal(jumped, roots):
            break
        roots = jumped
    _, labels = np.unique(roots, return_inverse=True)
    return labels


@dataclass(frozen=True)
class SsmmResult:
    """What SSMM decided for one batch."""

    selected: list  # indices into the batch, in greedy pick order
    budget: int
    component_labels: np.ndarray
    objective: float

    @property
    def n_components(self) -> int:
        return int(self.component_labels.max()) + 1 if len(self.component_labels) else 0


@dataclass
class SubmodularSelector:
    """The coverage + diversity objective and its greedy maximiser."""

    coverage_weight: float = 1.0
    diversity_weight: float = 1.0

    def __post_init__(self) -> None:
        if self.coverage_weight < 0 or self.diversity_weight < 0:
            raise ConfigurationError("submodular component weights must be >= 0")

    # -- objective -----------------------------------------------------------

    def coverage(self, weights: np.ndarray, selected: "list[int]") -> float:
        """``f_cov``: how well *selected* represents every batch image."""
        if not selected:
            return 0.0
        return float(weights[:, selected].max(axis=1).sum())

    def diversity(self, labels: np.ndarray, selected: "list[int]") -> float:
        """``f_div``: the number of components *selected* touches."""
        if not selected:
            return 0.0
        return float(len(set(labels[selected].tolist())))

    def objective(
        self, weights: np.ndarray, labels: np.ndarray, selected: "list[int]"
    ) -> float:
        """``F(S)`` — the weighted sum of the component functions."""
        return (
            self.coverage_weight * self.coverage(weights, selected)
            + self.diversity_weight * self.diversity(labels, selected)
        )

    # -- Algorithm 1 -----------------------------------------------------------

    def greedy(
        self, weights: np.ndarray, labels: np.ndarray, budget: int
    ) -> "list[int]":
        """The similarity-aware greedy algorithm (Algorithm 1).

        Vectorised marginal-gain evaluation: at each step the candidate
        that most increases ``F`` joins the summary, until the budget is
        filled or no candidate has positive gain.
        """
        n = weights.shape[0]
        if budget < 1:
            raise ConfigurationError(f"budget must be >= 1, got {budget}")
        budget = min(budget, n)

        selected: list[int] = []
        # Running per-image best similarity to the summary (for f_cov).
        best = np.zeros(n)
        covered_components: set[int] = set()
        remaining = np.ones(n, dtype=bool)

        for _ in range(budget):
            # f_cov gain of adding v: sum of max(0, w[:, v] - best).
            gains = (
                np.maximum(weights - best[:, None], 0.0).sum(axis=0)
                * self.coverage_weight
            )
            # f_div gain: +1 for a component not yet covered.
            new_component = np.array(
                [label not in covered_components for label in labels]
            )
            gains = gains + self.diversity_weight * new_component
            gains[~remaining] = -np.inf
            pick = int(np.argmax(gains))
            if not np.isfinite(gains[pick]):
                break
            if gains[pick] <= 0.0 and selected:
                break
            selected.append(pick)
            remaining[pick] = False
            best = np.maximum(best, weights[:, pick])
            covered_components.add(int(labels[pick]))
        return selected


def select_unique_subset(
    feature_sets: "list[FeatureSet]",
    cut_threshold: float,
    selector: "SubmodularSelector | None" = None,
    budget: "int | str" = "components",
    weights: "np.ndarray | None" = None,
) -> SsmmResult:
    """Run the full SSMM pipeline on one batch.

    ``budget`` is the paper's adaptive rule (``"components"``) or a
    fixed integer (the fixed-budget ablation).  A precomputed similarity
    matrix can be passed via *weights* to avoid re-matching.
    """
    if selector is None:
        selector = SubmodularSelector()
    n = len(feature_sets)
    if n == 0:
        return SsmmResult(
            selected=[], budget=0, component_labels=np.zeros(0, dtype=int), objective=0.0
        )
    if weights is None:
        weights = similarity_matrix(feature_sets)
    elif weights.shape != (n, n):
        raise ConfigurationError(
            f"weights shape {weights.shape} does not match batch size {n}"
        )
    labels = partition_components(weights, cut_threshold)
    if budget == "components":
        resolved_budget = int(labels.max()) + 1
    else:
        resolved_budget = int(budget)
    selected = selector.greedy(weights, labels, resolved_budget)
    result = SsmmResult(
        selected=selected,
        budget=resolved_budget,
        component_labels=labels,
        objective=selector.objective(weights, labels, selected),
    )
    journal = get_journal()
    if journal.enabled:
        _emit_selection(
            journal, feature_sets, cut_threshold, selector, weights, result
        )
    return result


def _emit_selection(
    journal: "DecisionJournal",
    feature_sets: "list[FeatureSet]",
    cut_threshold: float,
    selector: SubmodularSelector,
    weights: np.ndarray,
    result: SsmmResult,
) -> None:
    """Journal one SSMM selection, including per-pick marginal coverage.

    The marginal gains re-evaluate the objective over the greedy pick
    prefixes — O(budget · n²) on batch-sized inputs, and only paid when
    the journal is enabled.
    """
    labels = result.component_labels
    gains: "list[dict[str, object]]" = []
    previous = 0.0
    for position in range(len(result.selected)):
        prefix = list(result.selected[: position + 1])
        value = selector.objective(weights, labels, prefix)
        gains.append(
            {
                "image": feature_sets[result.selected[position]].image_id,
                "gain": value - previous,
            }
        )
        previous = value
    chosen = set(result.selected)
    journal.emit(
        "ssmm.select",
        n_candidates=len(feature_sets),
        budget=result.budget,
        n_components=result.n_components,
        cut_threshold=cut_threshold,
        objective=result.objective,
        selected=[
            feature_sets[i].image_id for i in sorted(chosen)
        ],
        rejected=[
            feature_sets[i].image_id
            for i in range(len(feature_sets))
            if i not in chosen
        ],
        marginal_gains=gains,
    )
