"""Symmetric linear arc monadic Datalog for finite constraint templates.

The package decides whether the constraint satisfaction problem of a finite
relational structure is solvable in the symmetric linear arc monadic
fragment of Datalog, emits the canonical program when it is, and bundles
the machinery behind that decision: homomorphism search, polymorphism
detection through indicator structures, Datalog fragment evaluation with
derivation traces, caterpillar unfoldings, and pp-power gadget reductions.

`slamlog.classify` is the submodule; the function is
`slamlog.classify.classify`.
"""

from .classify import (
    Caps,
    ClassificationReport,
    NotSlam,
    SweepReport,
    Verdict,
    emit_slam,
    enumerate_instances,
    verify_duality_pair,
    verify_program_solves,
)
from .datalog import (
    Atom,
    DatalogFormatError,
    Derivation,
    DerivationStep,
    EvalResult,
    FragmentFlags,
    Program,
    RepairFailed,
    Rule,
    canonical_program,
    canonical_rule_key,
    evaluate,
    fragment_of,
    name_subset,
    parse_program,
    render_program,
    repair_to_symmetric,
    reverse_rule,
    subset_name,
)
from .gadget import (
    GadgetFormatError,
    PPPowerSpec,
    apply_gadget_reduction,
    parse_ppower_spec,
    pp_power,
    render_ppower_spec,
)
from .homsolver import (
    SignatureMismatch,
    WitnessError,
    arc_consistency,
    core_of,
    enumerate_homomorphisms,
    find_homomorphism,
    find_isomorphism,
    hom_equivalent,
    is_core,
    is_homomorphism,
    is_isomorphic,
)
from .polymorph import (
    AbsorptiveResult,
    CapExceeded,
    MinorCondition,
    OperationTable,
    SetSystem,
    TotallySymmetricResult,
    absorptive_check,
    block_symmetric_absorptive,
    canonical_set_system,
    condition_pairs,
    find_polymorphism_satisfying,
    indicator_structure,
    lattice_polymorphisms,
    quasi_majority,
    quasi_maltsev,
    quasi_minority,
    subset_power_structure,
    totally_symmetric,
    totally_symmetric_check,
)
from .structures import (
    ConjunctiveQuery,
    IncidenceGraph,
    Partition,
    ShapeFlags,
    Signature,
    Structure,
    StructureFormatError,
    UnfoldError,
    canonical_database,
    canonical_query,
    incidence_graph,
    longest_path,
    make_structure,
    parse_structure,
    render_structure,
    shape_of,
    unfold,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
