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
    LogRegModel,
    knn_accuracy,
    knn_subset_accuracies,
    logreg_fit,
)
from .objectives import (
    DisparityMin,
    FacilityLocation,
    facility_location_value,
)
from .optimize import (
    Selection,
    farthest_point,
    greedy_lazy,
    padded_order,
    select_subset,
)

__version__ = "0.1.0"
