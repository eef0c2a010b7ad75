"""Field descriptors: serializable recipes for rebuilding vector fields.

Control schedules reference fields by id in their JSON form; this module
walks descriptors out of schedules and rebuilds fields from them.  Only
fields produced by the public constructors carry descriptors; ad-hoc
callables cannot be serialized.
"""

from __future__ import annotations

from .errors import FieldConstructionError


def field_to_descriptor(f) -> dict:
    if f.descriptor is None:
        raise FieldConstructionError(
            "field has no serializable descriptor (built from a raw callable)")
    return f.descriptor


def field_from_descriptor(d: dict):
    from . import fields as F

    kind = d["kind"]
    if kind == "builtin":
        return F.builtin_field(d["name"], **d.get("params", {}))
    if kind == "expression":
        return F.expression_field(d["exprs"])
    if kind == "corrected":
        from .correction import corrected_field_from_descriptor

        return corrected_field_from_descriptor(d)
    if kind == "pushforward":
        from .deform import pushforward_from_descriptor

        return pushforward_from_descriptor(d)
    raise FieldConstructionError(f"unknown field descriptor kind {kind!r}")


def collect_fields(schedule) -> list:
    """Fields referenced by a schedule, deduplicated in first-appearance order."""
    seen = {}

    def visit_field(f):
        if f is not None and id(f) not in seen:
            seen[id(f)] = f

    def visit(u):
        kind = getattr(u, "kind", None)
        if kind == "steer":
            visit_field(u.field)
        elif kind == "field_difference":
            visit_field(u.field_a)
            visit_field(u.field_b)
        elif kind == "sum":
            for p in u.parts:
                visit(p)

    for s in schedule.segments:
        visit(s.u)
    return list(seen.values())
