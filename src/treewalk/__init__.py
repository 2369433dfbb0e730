"""Exact random-walk statistics on trees, extremal tree families, and
exhaustive audits of their closed-form descriptions."""

from .audit import (
    DISCREPANCY,
    OUT_OF_RANGE,
    REFUTED,
    VERIFIED,
    AuditReport,
    BarycenterEquivalenceReport,
    Witness,
    audit_formula,
    audit_proposition_barycenter,
    audit_theorem_global,
    audit_theorem_max,
    audit_theorem_min,
    check_barycenter_equivalences,
)
from .enumeration import DEFAULT_CAP, enumerate_trees, tree_classes
from .families import (
    FAMILY_NAMES,
    FORMULA_IDS,
    FamilySpec,
    balanced_double_broom,
    balanced_lever,
    broom_tree,
    closed_form,
    delta_inequalities_hold,
    double_broom_tree,
    generate,
    is_double_broom,
    lever_tree,
    path_tree,
    star_tree,
)
from .oracles import distances
from .simulate import WalkSample, simulate_hitting
from .transforms import (
    TraceStep,
    TransformTrace,
    broomify,
    maximize_pipeline,
    minimize_pipeline,
    move_leaf,
)
from .trees import (
    SplitPart,
    SplitResult,
    Tree,
    build_tree,
    canonical_form,
    diameter_and_geodesic,
    format_edge_list,
    parse_edge_list,
    prufer_decode,
    rooted_canonical_form,
    v_split,
)
from .walkstats import (
    BarycenterResult,
    HittingProfile,
    barycenter,
    hitting_profile,
    joining_all,
    joining_time,
    kemeny,
    meeting_time,
    t_bestmeet,
    t_bestmeet_set,
    t_meet,
    t_meet_set,
)

__version__ = "0.1.0"
