"""The axiom half of classification, kept as a reference for the tests.

``decompose`` turns an EL axiom set into the ``Facts`` that
``reasoner.classify`` closes, so ``classify(decompose(axiom_set))`` is what
classifying the axiom set gives. One walk checks the EL rules
(``check_el_axiom``) and collects the class names; the first violation
anywhere is reported before any left-hand side that is not a name. The
right-hand side of each subclass axiom is then split into its top-level
conjuncts (nested conjunctions flattened): named classes are direct
superclasses, and an existential restriction with a named filler is an
attribute (hasAttribute) or an association edge (a property under
hasAssociation in the property hierarchy). Compound fillers, such as noted
qualifier lists, and datatype restrictions contribute no entries.
"""

from __future__ import annotations

from collections import defaultdict

from onco_rewriter.model import closure
from onco_rewriter.ontology import (
    HAS_ASSOCIATION,
    HAS_ATTRIBUTE,
    AxiomSet,
    ClassExpr,
    Conjunction,
    Existential,
    Facts,
    Named,
    SubClassOf,
    SubPropertyOf,
    check_el_axiom,
)
from onco_rewriter.reasoner import ReasonerError


def decompose(axiom_set: AxiomSet) -> Facts:
    violations: list[str] = []
    names: set[str] = set()
    prop_children: defaultdict[str, list[str]] = defaultdict(list)
    for position, axiom in enumerate(axiom_set.axioms):
        check_el_axiom(axiom, position, violations, names)
        if isinstance(axiom, SubPropertyOf):
            prop_children[axiom.sup].append(axiom.sub)
    if violations:
        raise ReasonerError(f"non-EL axiom encountered: {violations[0]}")
    subclass_axioms = [a for a in axiom_set.axioms if isinstance(a, SubClassOf)]
    if not all(isinstance(a.sub, Named) for a in subclass_axioms):
        raise ReasonerError("subclass axioms must have a named left-hand side")

    # the properties whose reflexive-transitive superproperties include hasAssociation
    associations = set(closure([HAS_ASSOCIATION], lambda prop: prop_children.get(prop, ())))
    direct_sup: defaultdict[str, set[str]] = defaultdict(set)
    direct_edges: defaultdict[str, set[tuple[str, str]]] = defaultdict(set)
    direct_attrs: defaultdict[str, set[str]] = defaultdict(set)

    def split(lhs: str, expr: ClassExpr) -> None:
        if isinstance(expr, Named):
            direct_sup[lhs].add(expr.name)
        elif isinstance(expr, Conjunction):
            for part in expr.parts:
                split(lhs, part)
        elif isinstance(expr, Existential) and isinstance(expr.filler, Named):
            if expr.property_name == HAS_ATTRIBUTE:
                direct_attrs[lhs].add(expr.filler.name)
            elif expr.property_name in associations:
                direct_edges[lhs].add((expr.property_name, expr.filler.name))

    for axiom in subclass_axioms:
        split(axiom.sub.name, axiom.sup)
    return Facts(names, direct_sup, direct_edges, direct_attrs)
