"""BEES configuration.

One dataclass gathers every knob of the pipeline; the ``ea_disabled``
constructor builds the BEES-EA ablation (all policies pinned at their
full-battery values), and the three ``enable_*`` flags support the
component ablation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigurationError
from .policies import LinearPolicy, eac_policy, eau_policy, edr_policy, ssmm_cut_policy

#: The fixed JPEG quality-compression proportion (Section III-C suggests
#: 0.85: beyond it image quality degrades sharply).
DEFAULT_QUALITY_PROPORTION = 0.85

#: The EDR similarity-threshold band, derived from the policy itself so
#: the linear coefficients stay literal in exactly one module
#: (:mod:`repro.core.policies`).  ``MIN`` is T at Ebat = 0 (aggressive
#: elimination), ``MAX`` is T at Ebat = 1 — the *strictest* operating
#: point, which the fixed-threshold baselines (SmartEye, MRC) and
#: BEES-EA all pin so every scheme detects the same planted redundancy.
EDR_THRESHOLD_MIN = edr_policy()(0.0)
EDR_THRESHOLD_MAX = edr_policy()(1.0)

#: Quality proportions the Figure 5(a) compression sweep samples,
#: anchored on the fixed quality proportion.
FIT_PROPORTIONS = (0.0, 0.2, 0.4, 0.6, 0.8, DEFAULT_QUALITY_PROPORTION, 0.9, 0.95)


@dataclass(frozen=True)
class BeesConfig:
    """All tunables of the BEES pipeline."""

    eac: LinearPolicy = field(default_factory=eac_policy)
    edr: LinearPolicy = field(default_factory=edr_policy)
    ssmm_cut: LinearPolicy = field(default_factory=ssmm_cut_policy)
    eau: LinearPolicy = field(default_factory=eau_policy)
    quality_proportion: float = DEFAULT_QUALITY_PROPORTION
    #: Component toggles (for ablations; all on in BEES proper).
    enable_afe: bool = True
    enable_cbrd: bool = True
    enable_ssmm: bool = True
    enable_aiu: bool = True
    #: SSMM budget rule: "components" (the paper's adaptive rule) or a
    #: fixed positive integer for the fixed-budget ablation.
    ssmm_budget: object = "components"

    def __post_init__(self) -> None:
        if not 0.0 <= self.quality_proportion <= 0.95:
            raise ConfigurationError(
                f"quality_proportion must be in [0, 0.95], got {self.quality_proportion}"
            )
        if self.ssmm_budget != "components":
            if not isinstance(self.ssmm_budget, int) or self.ssmm_budget < 1:
                raise ConfigurationError(
                    "ssmm_budget must be 'components' or a positive int, "
                    f"got {self.ssmm_budget!r}"
                )

    @classmethod
    def ea_disabled(cls, **overrides) -> "BeesConfig":
        """The BEES-EA configuration: no energy-aware adaptation.

        Every policy is pinned at its full-battery (Ebat = 1) value, so
        the pipeline still eliminates redundancy and compresses uploads
        but never trades quality for energy as the battery drains.
        """
        defaults = dict(
            eac=LinearPolicy.fixed(eac_policy()(1.0)),
            edr=LinearPolicy.fixed(edr_policy()(1.0)),
            ssmm_cut=LinearPolicy.fixed(ssmm_cut_policy()(1.0)),
            eau=LinearPolicy.fixed(eau_policy()(1.0)),
        )
        defaults.update(overrides)
        return cls(**defaults)
