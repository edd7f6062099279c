"""Merge tree edit distances and their stability under minimal vertex
perturbations: field and merge tree construction, eight edit distances,
a perturbation classifier and empirical stability verification."""

from .field import (
    TOLERANCE,
    Domain1Skeleton,
    ScalarField,
    apply_value_change,
    build_domain,
    build_grid_domain,
    validate_field,
)
from .mergetree import (
    AbstractMergeTree,
    Branch,
    BranchDecomposition,
    LabeledTree,
    abstract_merge_tree,
    build_bdt,
    build_obdt,
    label_for_scheme,
    merge_tree_of,
    persistence_branch_decomposition,
    tree_included_up_to_iso,
)
from .editcore import (
    ABS_DIFF,
    WASSERSTEIN_POINT,
    CostModel,
    EditMapping,
    EditOp,
    MappingConstraint,
    brute_force_distance,
    check_sequence,
    deform_brute_force,
    mapping_to_sequence,
)
from .distances import (
    DEFAULT_GUARDS,
    Guards,
    MetricId,
    compute,
    delta_b,
    delta_e,
    delta_g,
    delta_l,
    delta_p,
    delta_s,
    delta_w,
    delta_x,
    tree_distance,
)
from .perturb import (
    ChangeClass,
    MinimalPerturbation,
    PerturbationSequence,
    check_minimal,
    classify_change,
    classify_change_detailed,
    decompose_perturbation,
    enumerate_minimal_perturbations,
    scenario_suite,
)
from .stability import (
    STABILITY_MATRIX,
    BoundReport,
    CounterexampleFamily,
    check_bound,
    counterexample,
    counterexample_fields,
    instability_growth,
    linear_growth_ok,
    run_finite_stability,
    run_stability_suite,
)

__version__ = "0.1.0"
