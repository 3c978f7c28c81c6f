"""Verification lab for Collatz-type maps, their first-return sections, and
exact finite truncations of the induced Hilbert-space operators."""

from .gcmap import (
    INCONCLUSIVE,
    PASS,
    VIOLATION,
    AffineBranch,
    CheckReport,
    DomainError,
    EnteredCycle,
    GCMap,
    Inconclusive,
    OrbitRecord,
    PuncturedResidueSet,
    ResidueSet,
    load_map,
    map_from_dict,
    map_to_dict,
)
from .dynamics import (
    ClassesReport,
    EquivalenceVerdict,
    Related,
    Unrelated,
    check_reduction_necessary,
    check_reduction_sufficient,
    classes,
    equivalent,
    return_time,
)
from .conditions import (
    CKMatrix,
    CKViolation,
    NotResidueRepresentable,
    SectionCKReport,
    SeparatingResult,
    WitnessTable,
    ck_for_section,
    cuntz_krieger_condition,
    derive_witnesses,
    is_aperiodic,
    itinerary,
    residue_image,
    residue_image_exceptions,
    separating_condition,
)
from .operators import (
    BasisWindow,
    SectionOperators,
    TruncatedOperator,
    build_T,
    build_branch_ops,
    build_section_ops,
    descent_check,
    identity_operator,
    norm_bound_check,
    reachable_span,
    span_vs_class,
    verify_branch_relations,
    verify_section_relations,
)
from .families import (
    Section,
    collatz,
    identity_map,
    mersenne,
    preset_map,
    preset_section,
    qx1,
    section_of,
    three_x_d,
    verify_mersenne_identities,
    verify_q5_group,
)
from .rangecheck import RangeReport, verify_range, verify_range_collatz

__version__ = "0.1.0"
