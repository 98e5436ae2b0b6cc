"""Finite many-sorted logic engine over relational tables.

Two equivalent views of the same data: structures satisfying specifications
(classification form) and table-valued diagrams (interpretation form),
connected by conversion passages and a table-to-relation reflection.
"""

from .core import (
    ClassificationReport,
    Signature,
    SignatureMorphism,
    TypeDomain,
    TypeDomainMorphism,
    check_signature_morphism,
    check_type_domain_morphism,
    classify,
    enumerate_tuples,
    pushed_signature,
    tuple_along,
)
from .formula import (
    Atom,
    Bottom,
    Constraint,
    Diff,
    Exists,
    Forall,
    Formula,
    Impl,
    Join,
    Meet,
    Neg,
    Schema,
    Sequent,
    Subst,
    Top,
    enfold_constraint,
    enfold_sequent,
    infer_signature,
    parse_formula,
    print_formula,
)
from .logic_db import (
    Database,
    DatabaseMorphism,
    SoundLogic,
    SoundLogicMorphism,
    db_image,
    db_mor_to_snd_mor,
    db_project,
    db_to_snd,
    snd_mor_to_db_mor,
    snd_to_db,
    validate_database,
    validate_db_morphism,
)
from .specs import (
    AbstractSpec,
    CompositeDeclaration,
    FormalSpec,
    GeneratingConstraint,
    SpecMorphism,
    TablePassage,
    abstract_table_passage,
    companion_formal,
    satisfies_spec,
    validate_spec_morphism,
)
from .structure import (
    ConstraintVerdict,
    LaxStructure,
    LaxStructureMorphism,
    StrictStructure,
    StrictStructureMorphism,
    interpret_by_oracle,
    interpret_relation,
    interpret_table,
    intent_contains,
    satisfies_constraint,
    satisfies_sequent,
    strict_morphism_to_lax,
    to_lax,
    tuple_satisfies,
    validate_lax_morphism,
    validate_strict,
)
from .tables import (
    Relation,
    Table,
    TableMorphism,
    check_table_morphism,
    fiber_boolean,
    fiber_flow,
    key_equivalent,
    relation_include,
    table_flow_type_domain,
    table_image,
    table_sigma,
    table_substitution,
)
from .workspace import Workspace, load_workspace

__all__ = sorted(n for n, v in globals().items() if n[0] != "_" and type(v) is not type(core))
