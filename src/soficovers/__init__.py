"""Canonical covers of sofic shifts presented by labeled graphs.

The package builds, for an essential right-resolving presentation:

- the subset (determinization) graph and the past cover, the subset
  cover on stabilized endpoint sets of left-infinite paths
  (:mod:`.covers`);
- the future cover (follower-merged past cover) and the extended
  future cover, with label-preserving isomorphism checks
  (:mod:`.covers`, :mod:`.analysis`);
- bundle graphs whose vertices track label fibers, per-word fiber sets
  and fiber counts (:mod:`.fibers`);
- sliding block codes between presentations and the induced conjugacy
  of past covers, with bounded diagram verification (:mod:`.codes`);
- serialization, DOT export, and a command line (:mod:`.io`,
  :mod:`.cli`);
- the bundled example suite behind ``soficovers verify-paper``
  (:mod:`.verification`, :mod:`.fixtures`).
"""

from .analysis import (
    ComponentInfo,
    IsomorphismResult,
    components_and_sources,
    follower_partition,
    graphs_isomorphic,
    is_follower_separated,
    periodic_points,
)
from .codes import (
    CheckOutcome,
    ConjugacySquare,
    LiftedCode,
    SlidingBlockCode,
    SquareReport,
    apply_code,
    apply_code_cyclic,
    apply_lifted,
    fill_gap,
    higher_block,
    identity_square,
    inverse_square,
    lift_conjugacy,
    renaming_square,
    verify_lift_diagrams,
    verify_square,
)
from .covers import (
    CoverBundle,
    ExtendedFutureCover,
    FutureCover,
    RegularityReport,
    StableCore,
    SubsetGraph,
    check_regular,
    extended_future_cover,
    future_cover,
    merged_graph,
    past_set_ray,
    stable_core,
    stable_sets_from_tails,
    subset_construction,
)
from .errors import (
    BudgetExceededError,
    EmptyShiftError,
    GraphFormatError,
    LabelPathDiedError,
    NotRightResolvingError,
    SoficError,
    UnrealizableWordError,
    VerificationError,
    exit_code_for,
)
from .fibers import (
    BundleGraph,
    FiberCore,
    FiberData,
    bundle_graph,
    fiber_core,
    fiber_count_periodic,
    fiber_sets_on_periodic,
)
from .fixtures import BASE_FIXTURES, load_fixture
from .graphs import (
    LabeledGraph,
    PeriodicWord,
    build_graph,
    check_right_resolving,
    essentialize,
    graph_from_parts,
    is_essential,
    normalize_periodic,
    path_window,
)
from .io import (
    code_from_data,
    code_to_data,
    export_dot,
    graph_to_data,
    load_code,
    load_graph,
    load_square,
    parse_periodic,
    square_from_data,
    square_to_data,
)
from .verification import (
    CriterionResult,
    VerifyBounds,
    headline_counts,
    run_acceptance,
    run_criterion,
)

__version__ = "0.1.0"

__all__ = [
    "BASE_FIXTURES",
    "BudgetExceededError",
    "BundleGraph",
    "CheckOutcome",
    "ComponentInfo",
    "ConjugacySquare",
    "CoverBundle",
    "CriterionResult",
    "EmptyShiftError",
    "ExtendedFutureCover",
    "FiberCore",
    "FiberData",
    "FutureCover",
    "GraphFormatError",
    "IsomorphismResult",
    "LabelPathDiedError",
    "LabeledGraph",
    "LiftedCode",
    "NotRightResolvingError",
    "PeriodicWord",
    "RegularityReport",
    "SlidingBlockCode",
    "SoficError",
    "SquareReport",
    "StableCore",
    "SubsetGraph",
    "UnrealizableWordError",
    "VerificationError",
    "VerifyBounds",
    "apply_code",
    "apply_code_cyclic",
    "apply_lifted",
    "build_graph",
    "bundle_graph",
    "check_regular",
    "check_right_resolving",
    "code_from_data",
    "code_to_data",
    "components_and_sources",
    "essentialize",
    "exit_code_for",
    "export_dot",
    "extended_future_cover",
    "fiber_core",
    "fiber_count_periodic",
    "fiber_sets_on_periodic",
    "fill_gap",
    "follower_partition",
    "future_cover",
    "graph_from_parts",
    "graph_to_data",
    "graphs_isomorphic",
    "headline_counts",
    "higher_block",
    "identity_square",
    "inverse_square",
    "is_essential",
    "is_follower_separated",
    "lift_conjugacy",
    "load_code",
    "load_fixture",
    "load_graph",
    "load_square",
    "merged_graph",
    "normalize_periodic",
    "parse_periodic",
    "past_set_ray",
    "path_window",
    "periodic_points",
    "renaming_square",
    "run_acceptance",
    "run_criterion",
    "square_from_data",
    "square_to_data",
    "stable_core",
    "stable_sets_from_tails",
    "subset_construction",
    "verify_lift_diagrams",
    "verify_square",
]
