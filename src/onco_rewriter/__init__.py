"""Rewriting of concept-level queries over annotated UML models into CQL.

The package turns an annotated information model and a thesaurus fixture
into an EL ontology, extracts the relevant thesaurus module, classifies the
union, and rewrites domain-concept queries into structurally valid CQL XML
through a bag-monoid comprehension intermediate form.
"""

from .cql import (
    CqlAssociation,
    CqlAttribute,
    CqlGroup,
    CqlQuery,
    CqlTarget,
    QueryModifier,
    parse_xml,
    semantically_equal,
    to_xml,
    validate_grammar,
)
from .metrics import PathMetrics, TimingReport, path_metrics, stage_timings
from .model import (
    Annotation,
    Signature,
    Thesaurus,
    UMLAssociation,
    UMLAttribute,
    UMLClass,
    UMLModel,
    load_model,
    load_thesaurus,
    model_signature,
)
from .module_extraction import extract_module, strip_disjoints
from .ontology import (
    AxiomSet,
    Conjunction,
    DataExistential,
    Existential,
    Named,
    SubClassOf,
    SubPropertyOf,
    TransitiveProperty,
    el_conformance_report,
    generate_ontology,
    merge_axiom_sets,
    model_naming,
    parse_axioms,
    serialize_axioms,
)
from .pipeline import (
    MccComprehension,
    PipelineError,
    RewriteOptions,
    RewriteResult,
    extract_data_values,
    extract_uml,
    find_property_paths,
    format_comprehension,
    format_query,
    mcc_to_cql,
    parse_query,
    prepare_context,
    reinsert_data_values,
    rewrite,
    rewrite_prepared,
    to_mcc,
    validate_semantics,
)
from .reasoner import (
    AssociationPath,
    SubsumptionIndex,
    association_reachable,
    classify,
    entails_subclass,
    find_paths,
)

__version__ = "0.1.0"
