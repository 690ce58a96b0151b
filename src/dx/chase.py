"""Canonical universal solution and solution checking."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .logic import query_answers
from .model import (
    Atom,
    Const,
    Instance,
    NullAllocator,
    SchemaMapping,
    StTgd,
    Value,
    Var,
    match_conjunction,
    require_ground,
    value_key,
)


@dataclass(frozen=True)
class Trigger:
    """One st-tgd fired by one body match: (tgd index, frontier values, other values)."""

    tgd_index: int
    frontier: Tuple[Tuple[Var, Value], ...]
    rest: Tuple[Tuple[Var, Value], ...]

    def binding(self) -> Dict[Var, Value]:
        return dict(self.frontier + self.rest)


def trigger_set(mapping: SchemaMapping, source: Instance) -> Tuple[Trigger, ...]:
    """All (tgd, body-match) pairs in deterministic order: tgds in mapping
    order, matches in canonical value order.  The matcher visits each
    sequence of body atoms once, and a binding of every body variable fixes
    that sequence, so no binding repeats."""
    triggers: List[Trigger] = []
    for idx, tgd in enumerate(mapping.st_tgds):
        frontier = sorted(tgd.frontier_vars(), key=lambda v: v.name)
        rest_vars = sorted(tgd.body_vars() - tgd.frontier_vars(), key=lambda v: v.name)
        matches = sorted(
            match_conjunction([(a.rel, a.terms) for a in tgd.body], source),
            key=lambda bnd: tuple(value_key(bnd[v]) for v in frontier + rest_vars),
        )
        for bnd in matches:
            triggers.append(
                Trigger(
                    idx,
                    tuple((v, bnd[v]) for v in frontier),
                    tuple((v, bnd[v]) for v in rest_vars),
                )
            )
    return tuple(triggers)


def canonical_solution(mapping: SchemaMapping, source: Instance) -> Instance:
    """Chase the source with the st-tgds, one disjoint fresh-null tuple per
    trigger.  Egds and general constraints are not used here."""
    require_ground(source, "source instance")
    allocator = NullAllocator("c")
    atoms: List[Atom] = []
    for trig in trigger_set(mapping, source):
        tgd = mapping.st_tgds[trig.tgd_index]
        assignment: Dict[Var, Value] = trig.binding()
        for z in tgd.exists_vars:
            assignment[z] = allocator.fresh()
        for pa in tgd.head:
            atoms.append(
                Atom(
                    pa.rel,
                    tuple(t if isinstance(t, Const) else assignment[t] for t in pa.terms),
                )
            )
    return Instance(atoms)


def _tgd_satisfied(tgd: StTgd, source: Instance, target: Instance) -> bool:
    body_patterns = [(a.rel, a.terms) for a in tgd.body]
    head_patterns = [(a.rel, a.terms) for a in tgd.head]
    for bnd in match_conjunction(body_patterns, source):
        head_bnd = {v: bnd[v] for v in tgd.frontier_vars()}
        if next(match_conjunction(head_patterns, target, head_bnd), None) is None:
            return False
    return True


def egd_satisfied(egd, target: Instance) -> bool:
    patterns = [(a.rel, a.terms) for a in egd.body]
    for bnd in match_conjunction(patterns, target):
        if bnd[egd.equated[0]] != bnd[egd.equated[1]]:
            return False
    return True


def is_solution(mapping: SchemaMapping, source: Instance, target: Instance) -> bool:
    """True iff source + target satisfies every constraint of the mapping."""
    require_ground(source, "source instance")
    for tgd in mapping.st_tgds:
        if not _tgd_satisfied(tgd, source, target):
            return False
    for egd in mapping.egds:
        if not egd_satisfied(egd, target):
            return False
    if mapping.general_constraints:
        combined = source.union(target)
        for sentence in mapping.general_constraints:
            if not query_answers(sentence, combined):
                return False
    return True
