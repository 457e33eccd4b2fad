"""Spec validation and the is-a queries as they were when each query
walked the ``is_a`` edge list on every call.

``ScanSchema`` answers ``parent_of``, ``subtypes_of``, ``root_of``,
``ancestors_of``, ``descendants_of`` and ``stored_types`` by scanning the
edges; its parent walk stops before the first type it has passed already,
the start included, as ``ConceptualSchema``'s does. ``validate_spec`` keeps
its own parent map and its own cycle walk. Kept as the oracle of the
differential tests in ``test_specmodel.py``, which draw edge lists with
repeated subtypes, self-edges, cycles and undeclared names.
"""

from __future__ import annotations

from ocedf.errors import SpecError
from ocedf.specmodel import ConceptualSchema, Diagnostic, EventRule, ObjectRule, ProjectSpec


class ScanSchema(ConceptualSchema):
    """A ``ConceptualSchema`` whose is-a queries scan the edge list."""

    def parent_of(self, name: str) -> str | None:
        for sub, sup in self.is_a:
            if sub == name:
                return sup
        return None

    def subtypes_of(self, name: str) -> list[str]:
        return [sub for sub, sup in self.is_a if sup == name]

    def root_of(self, name: str) -> str:
        chain = [name, *self.ancestors_of(name)]
        if self.parent_of(chain[-1]) is not None:   # the walk stopped with a parent left
            raise SpecError(f"is-a cycle reached from {name!r}")
        return chain[-1]

    def ancestors_of(self, name: str) -> list[str]:
        """Parents up to the root, or up to the first type met twice."""
        chain = [name]
        current = self.parent_of(name)
        while current is not None and current not in chain:
            chain.append(current)
            current = self.parent_of(current)
        return chain[1:]

    def descendants_of(self, name: str) -> list[str]:
        out = []
        frontier = [name]
        while frontier:
            here = frontier.pop()
            for sub in self.subtypes_of(here):
                if sub not in out:
                    out.append(sub)
                    frontier.append(sub)
        return out

    def stored_types(self) -> list[str]:
        subs = {sub for sub, _ in self.is_a}
        return [t for t in self.object_types if t not in subs]


def _hierarchy_errors(schema: ConceptualSchema) -> tuple[list[Diagnostic], bool]:
    """The is-a hierarchy's errors, and whether it has a cycle."""
    out = []
    declared = set(schema.object_types)
    parents: dict[str, str] = {}
    for i, (sub, sup) in enumerate(schema.is_a):
        path = f"schema.is_a[{i}]"
        for name in (sub, sup):
            if name not in declared:
                out.append(Diagnostic("error", path, f"is_a references undeclared type {name!r}"))
        if sub in parents:
            out.append(Diagnostic("error", path, f"subtype {sub!r} has two supertypes"))
        else:
            parents[sub] = sup

    # cycle check via parent-chain walking
    known_cyclic: set[str] = set()
    for start in parents:
        if start in known_cyclic:
            continue
        seen = {start}
        current = parents.get(start)
        while current is not None:
            if current in seen:
                known_cyclic.update(seen)
                out.append(Diagnostic("error", "schema.is_a", f"is-a cycle involving {current!r}"))
                break
            seen.add(current)
            current = parents.get(current)

    if not known_cyclic:
        for sup in sorted({sup for _, sup in schema.is_a}):
            if sup in declared and sup not in schema.discriminators:
                out.append(Diagnostic("error", "schema.discriminators",
                                      f"supertype {sup!r} has no discriminator attribute"))
    return out, bool(known_cyclic)


def validate_spec(spec: ProjectSpec) -> list[Diagnostic]:
    """Cross-validate a parsed spec; returns diagnostics, errors first."""
    schema = spec.schema
    declared = set(schema.object_types)
    out, cyclic = _hierarchy_errors(schema)

    for i, (src, tgt, _q) in enumerate(schema.o2o_types):
        for name in (src, tgt):
            if name not in declared:
                out.append(Diagnostic("error", f"schema.o2o_types[{i}]",
                                      f"o2o relation type references undeclared type {name!r}"))

    question_ids = {q.id for q in spec.q2ot.questions}
    for qid, otype in sorted(spec.q2ot.marks):
        if qid not in question_ids:
            out.append(Diagnostic("error", f"q2ot.{qid}", f"mark references undeclared question {qid!r}"))
        if otype not in declared:
            out.append(Diagnostic("error", f"q2ot.{qid}", f"mark references undeclared type {otype!r}"))

    for col in spec.xmatrix.columns:
        if col not in declared:
            out.append(Diagnostic("error", "extraction_matrix.columns",
                                  f"column references undeclared type {col!r}"))

    # supertype/subtype exclusivity: a row may scope an expectation at the
    # supertype level or at subtype level, never both at once
    if not cyclic:
        for activity in spec.xmatrix.activities:
            for sup in sorted({sup for _, sup in schema.is_a}):
                if sup not in spec.xmatrix.columns or sup not in declared:
                    continue
                sup_cell = spec.xmatrix.cell(activity, sup)
                if sup_cell is None or (sup_cell.max == 0):
                    continue
                for sub in schema.descendants_of(sup):
                    sub_cell = spec.xmatrix.cell(activity, sub)
                    if sub_cell is not None and sub_cell.max != 0:
                        out.append(Diagnostic(
                            "error", f"extraction_matrix.rows.{activity}",
                            f"both supertype {sup!r} and subtype {sub!r} carry nonzero ranges"))

    for activity in spec.plan:
        if activity not in spec.xmatrix.activities:
            out.append(Diagnostic("error", "plan", f"plan lists unknown activity {activity!r}"))

    synthesizing: dict[str, int] = {}   # table -> first event rule that synthesizes its event ids
    for i, rule in enumerate(spec.mappings):
        path = f"mappings[{i}]"
        if isinstance(rule, ObjectRule):
            if rule.object_type not in declared:
                out.append(Diagnostic("error", path, f"object rule maps undeclared type {rule.object_type!r}"))
            elif not cyclic:
                root = schema.root_of(rule.object_type)
                needs_discriminator = rule.subtype_column is not None or root != rule.object_type
                if needs_discriminator and root not in schema.discriminators:
                    out.append(Diagnostic("error", path,
                                          f"rule needs a discriminator on supertype {root!r}"))
        elif isinstance(rule, EventRule):
            if rule.activity is not None and rule.activity not in spec.xmatrix.activities:
                out.append(Diagnostic("error", path,
                                      f"event rule activity {rule.activity!r} is not an extraction matrix row"))
            if rule.id_column is None:
                first = synthesizing.setdefault(rule.source_table, i)
                if first != i:
                    out.append(Diagnostic(
                        "error", path,
                        f"event rule on table {rule.source_table!r} has no id_column, like "
                        f"mappings[{first}]: both would synthesize the same event ids"))

    # warnings: leaf types no question ever asks about (candidates for the
    # next modeling iteration)
    if not cyclic:
        marked = {t for _, t in spec.q2ot.marks}
        parents = {sup for _, sup in schema.is_a}
        for t in schema.object_types:
            if t in parents:
                continue
            if t not in marked:
                out.append(Diagnostic("warning", "q2ot", f"object type {t!r} is not marked by any question"))

    out.sort(key=lambda d: (0 if d.severity == "error" else 1))
    return out
