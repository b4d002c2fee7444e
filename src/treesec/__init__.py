"""treesec: protection numbers (ranks), security, and extremal constructions
for rooted trees, with exhaustive brute-force verification at desk scale."""

from .builders import (
    binary_power_representation,
    build_almost_complete,
    build_almost_complete_stepwise,
    build_binary_caterpillar,
    build_complete_binary,
    build_complete_kary,
    build_power_spine,
    build_starlike,
)
from .errors import GuardError, ParseError, SizeError, TreesecError
from .exhaustive import (
    RootRankExtremes,
    ShapeCensus,
    brute_force_extremes,
    brute_force_max_root_rank,
    census_json,
    census_table,
    census_tsv,
    count_shapes,
    enumerate_kary_trees,
    enumerate_shapes,
    maximizer_shapes,
)
from .formulas import (
    BoundReport,
    complete_binary_security,
    floor_log2,
    intlog,
    max_root_rank_general,
    max_root_rank_kary,
    max_root_rank_starlike,
    max_security,
    power_spine_security,
    zero_bits,
)
from .rewrites import (
    RewriteStep,
    RewriteTrace,
    SwitchContext,
    flip_adjacent,
    hoist_min_saturated,
    normalize_to_power_spine,
    reroot_at_vertex,
    spine_reinsert,
    switch_disjoint,
    switch_nested_high_sibling,
    switch_nested_low_sibling,
)
from .trees import (
    RootedTree,
    ShapeReport,
    all_ranks,
    canonical_form,
    canonical_order,
    classify,
    export_dot,
    is_isomorphic,
    parse,
    partition_vector,
    protected_count,
    read_tree,
    saturated_vertices,
    security,
    serialize,
    tree_from_json,
    tree_to_json,
)

__version__ = "0.1.0"
