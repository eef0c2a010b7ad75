"""Field descriptors: serializable recipes for rebuilding vector fields.

Control schedules reference fields by id in their JSON form; this module
rebuilds fields from their descriptors.  Only fields produced by the public
constructors carry descriptors; ad-hoc callables cannot be serialized.
"""

from __future__ import annotations

from .errors import FieldConstructionError


def field_from_descriptor(d: dict):
    from . import fields as F

    kind = d["kind"]
    if kind == "builtin":
        return F.builtin_field(d["name"], **d.get("params", {}))
    if kind == "expression":
        return F.expression_field(d["exprs"], d["sup_bound"], d["lip_bound"],
                                  F.FieldSpec.from_dict(d).domain_box)
    if kind == "corrected":
        from .correction import corrected_field_from_descriptor

        return corrected_field_from_descriptor(d)
    if kind == "pushforward":
        from .deform import pushforward_from_descriptor

        return pushforward_from_descriptor(d)
    raise FieldConstructionError(f"unknown field descriptor kind {kind!r}")

