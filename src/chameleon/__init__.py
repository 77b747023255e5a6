"""Exact arithmetic for piecewise-linear circle maps with power-of-n slopes.

The package builds expanding circle maps from integer partition data,
refines their vertex towers, runs the break-value calculus, and decides
when the conjugator back to the multiplication model is itself
piecewise linear — all in exact rational arithmetic.
"""

from .blocks import (
    BlockLawReport,
    PrefixBlock,
    ScanReport,
    exhaustive_scan,
    prefix_blocks,
    verify_block_laws,
)
from .breaks import (
    BreakAssignment,
    BreakSumTable,
    CriterionVerdict,
    Discrepancy,
    OrbitMergeViolation,
    break_sum_table,
    coboundary_check,
    find_break_sum_discrepancy,
    iterated_break_sum,
    orbit_merge_violations,
    pl_criterion,
)
from .conjugacy import (
    ConjugacyCheck,
    Conjugator,
    Enclosure,
    EqualityCounterexample,
    ImageStatusReport,
    default_memo_depth,
    equal_pairs,
    extract_pl_h,
    nadic_image_status,
    partition_from_expanding_map,
    periodic_points,
)
from .errors import (
    BadCyclicOrder,
    BadLength,
    BudgetExceeded,
    ChameleonError,
    ClassMismatch,
    DivergentCycle,
    DivergentFixedPoint,
    EndpointNotNAdic,
    FixedPointsNotVertices,
    InconsistentResidue,
    NeutralBranch,
    NotAPowerRatio,
    NotAVertex,
    NotInDelta,
    NotIncreasing,
    NotInvertible,
    NotMarkov,
    NotPL,
    NotPowerForm,
    NonzeroCosetShift,
    OddCount,
    ParseError,
    ReconstructionMismatch,
    RefusalError,
    SlopeNotPowerOfN,
)
from .exact import (
    NAdic,
    as_fraction,
    digit_class,
    format_rational,
    is_nadic,
    is_smooth,
    keep_last_digits,
    parse_rational,
    power_exponent,
    ratio_exponent,
    reduce_to_circle,
    to_nadic,
    trailing_zeros,
)
from .golden import Check, ExampleReport, example_ids, load_example, run_example
from .interpolate import (
    interpolate_circle,
    interpolate_line,
    match_on_interval,
    random_dyadic_homeomorphism,
)
from .maps import (
    AffinePiece,
    MembershipReport,
    OrbitResult,
    PLCircleMap,
    PLLineMap,
    break_value,
    classify,
    coset_shift,
    map_from_dict,
    map_to_dict,
    multiplication_map,
    orbit,
    sum_of_breaks,
)
from .markov import (
    AffineMarkovPartition,
    BuildReport,
    LevelChain,
    PartitionLevelTable,
    VertexRef,
    build_expanding_map,
    fixed_point_class,
    interval_length_at,
    natural_slope,
    reduce_ref,
    stable_level,
    vertex_value,
)

__version__ = "0.1.0"
