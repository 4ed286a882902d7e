"""Detect and characterize extrapolation in multivariate-response regression.

The pipeline: fit a Bayesian multivariate linear model by Gibbs sampling,
turn the posterior draws into per-location predictive-variance measures
(MVPV and CMVPV), derive cutoffs from the observed locations, flag
extrapolations, and grow a classification tree describing where in
covariate space the flagged locations live.
"""

from extrapolmv.dataset import (
    Dataset,
    IngestConfig,
    RankDeficientError,
    SynthSpec,
    TransformSpec,
    apply_transforms,
    load_csv,
    synthesize,
    write_csv,
)
from extrapolmv.diagnostics import (
    HighLeverageRule,
    cooks_distance,
    hat_diagonal,
    high_leverage_set,
    ivh_contains,
    ivh_value,
    ivh_values,
    leverage_from_mahalanobis,
    mahalanobis_sq,
)
from extrapolmv.sampler import (
    ConvergenceSummary,
    ModelSpec,
    PosteriorDraws,
    convergence_summary,
    ess,
    gibbs_fit,
    load_fit,
    rhat,
    save_fit,
)
from extrapolmv.extrapolation import (
    CutoffSpec,
    ExtrapolationReport,
    conditional_mvn,
    score_locations,
    score_locations_analytic,
    write_scores_csv,
)
from extrapolmv.cart import (
    TreeNode,
    TreeParams,
    export_tree,
    grow_tree,
    import_tree,
    predict_tree,
)

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "IngestConfig",
    "RankDeficientError",
    "SynthSpec",
    "TransformSpec",
    "apply_transforms",
    "load_csv",
    "synthesize",
    "write_csv",
    "HighLeverageRule",
    "cooks_distance",
    "hat_diagonal",
    "high_leverage_set",
    "ivh_contains",
    "ivh_value",
    "ivh_values",
    "leverage_from_mahalanobis",
    "mahalanobis_sq",
    "ConvergenceSummary",
    "ModelSpec",
    "PosteriorDraws",
    "convergence_summary",
    "ess",
    "gibbs_fit",
    "load_fit",
    "rhat",
    "save_fit",
    "CutoffSpec",
    "ExtrapolationReport",
    "conditional_mvn",
    "score_locations",
    "score_locations_analytic",
    "write_scores_csv",
    "TreeNode",
    "TreeParams",
    "export_tree",
    "grow_tree",
    "import_tree",
    "predict_tree",
]
