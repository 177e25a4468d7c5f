"""JSON document format for vertex families.

A family document is a single JSON object
``{"n": int, "r": int, "sets": [[...], ...], "meta": {...}}`` with 1-based
elements. CSV export writes one row per set with elements separated by
spaces, so small families can be compared against printed tables by eye.
"""

from __future__ import annotations

import json
from typing import Any, TextIO

from .core import KneserParams, ParameterError, VertexFamily


class FamilyDocumentError(ValueError):
    """Malformed family document, with field context in the message."""


def parse_family_document(obj: Any) -> tuple[VertexFamily, dict]:
    if not isinstance(obj, dict):
        raise FamilyDocumentError("document root must be a JSON object")
    for key in ("n", "r", "sets"):
        if key not in obj:
            raise FamilyDocumentError(f"missing required field {key!r}")
    n, r, sets = obj["n"], obj["r"], obj["sets"]
    # type() rather than isinstance(): JSON true parses to a bool, an int
    if type(n) is not int or type(r) is not int:
        raise FamilyDocumentError("fields 'n' and 'r' must be integers")
    try:
        params = KneserParams(n, r)
    except ParameterError as exc:
        raise FamilyDocumentError(str(exc)) from exc
    if not isinstance(sets, list):
        raise FamilyDocumentError("field 'sets' must be a list of lists")

    seen: dict[frozenset, int] = {}
    for idx, s in enumerate(sets):
        where = f"sets[{idx}]"
        if not isinstance(s, list) or not all(type(x) is int for x in s):
            raise FamilyDocumentError(f"{where}: must be a list of integers")
        if len(s) != r:
            raise FamilyDocumentError(
                f"{where}: expected {r} elements, got {len(s)}"
            )
        if len(set(s)) != len(s):
            dup = next(x for x in s if s.count(x) > 1)
            raise FamilyDocumentError(f"{where}: duplicate element {dup}")
        for x in s:
            if not 1 <= x <= n:
                raise FamilyDocumentError(
                    f"{where}: element {x} outside [1..{n}]"
                )
        key = frozenset(s)
        if key in seen:
            raise FamilyDocumentError(
                f"{where}: duplicate of sets[{seen[key]}]"
            )
        seen[key] = idx

    meta = obj.get("meta", {})
    if meta is None:
        meta = {}
    if not isinstance(meta, dict):
        raise FamilyDocumentError("field 'meta' must be an object if present")
    return VertexFamily.from_sets(params, sets), meta


def load_family_document(fh: TextIO) -> tuple[VertexFamily, dict]:
    try:
        obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FamilyDocumentError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return parse_family_document(obj)


def family_to_document(family: VertexFamily, meta: dict | None = None) -> dict:
    doc: dict[str, Any] = {
        "n": family.params.n,
        "r": family.params.r,
        "sets": family.as_sets(),
    }
    if meta:
        doc["meta"] = meta
    return doc


def family_to_json(family: VertexFamily, meta: dict | None = None) -> str:
    return json.dumps(family_to_document(family, meta), indent=2)


def family_to_csv(family: VertexFamily) -> str:
    return "\n".join(" ".join(str(x) for x in v.elements) for v in family)
