"""Training-data subset selection under cardinality budgets and
filter-then-select mini-batch active learning, with built-in kNN and
logistic-regression classifiers and a desk-scale experiment harness.
"""

from .active import (
    ALConfig,
    ALState,
    FilteredSet,
    RoundRecord,
    UncertaintyMethod,
    fass_round,
    filter_uncertain,
    run_al,
    select_batch,
    uncertainty,
    uncertainty_scores,
)
from .dataset import (
    FeatureMatrix,
    LabeledDataset,
    LabelVector,
    SplitSpec,
    gen_synthetic,
    load_dataset,
    load_features,
    load_labels,
    save_features,
    save_labels,
    split,
    split_indices,
)
from .errors import (
    CapacityError,
    FeatureFormatError,
    LabelParseError,
    SubsetSelectionError,
    TruncationError,
    UnsupportedObjectiveError,
    ValidationError,
)
from .harness import (
    CurveRecord,
    SweepConfig,
    emit_csv,
    parse_csv,
    run_goal2,
    sweep_goal1,
)
from .kernels import (
    DistanceKernel,
    SimilarityKernel,
    cosine_similarity,
    euclidean_distance,
    sparsify_knn,
)
from .models import (
    KnnConfig,
    LogRegModel,
    knn_accuracy,
    knn_predict,
    logreg_fit,
)
from .objectives import (
    DisparityMin,
    FacilityLocation,
    disparity_min_value,
    facility_location_value,
)
from .optimize import (
    BudgetSpec,
    Selection,
    brute_force,
    farthest_point,
    greedy_lazy,
    greedy_naive,
    padded_order,
    select_subset,
)

__version__ = "0.1.0"
