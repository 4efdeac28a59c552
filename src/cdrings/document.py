"""Flat-file serialization of algebras (the CLI's document format).

A document is a single JSON object with a format_version, the dense
structure tensor in row-major triple order, the unit, the involution matrix
as a list of rows, labels, and a provenance record (tower parameters or
presentation name). Serialization is canonical: sorted keys, fixed
separators, trailing newline, so save(load(p)) is byte-identical and
documents diff cleanly. Loading validates the algebra and refuses anything
structurally broken.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .algebra import FiniteAlgebra, ensure_valid

FORMAT_VERSION = 1
_INTEGER_DEPTHS = {"modulus": 0, "rank": 0, "structure": 1, "unit": 1, "involution": 2}


def algebra_to_document(algebra: FiniteAlgebra, provenance: dict | None = None) -> dict:
    d = algebra.rank
    return {
        "format_version": FORMAT_VERSION,
        "modulus": algebra.modulus,
        "rank": d,
        "labels": list(algebra.labels),
        "structure": [int(v) for v in algebra.structure.reshape(d * d * d)],
        "unit": [int(v) for v in algebra.unit],
        "involution": [[int(v) for v in row] for row in algebra.involution],
        "provenance": provenance or {"kind": "unspecified", "name": algebra.name},
    }


def _integers(value, key: str, depth: int):
    """value if it is an int or, at depth > 0, a list of values one level
    shallower; a float, bool, string or missing key (None) is a ValueError."""
    if depth and isinstance(value, list):
        return [_integers(item, key, depth - 1) for item in value]
    if type(value) is not int:
        raise ValueError(f"{key}: expected integers, found {value!r}")
    return value


def document_to_algebra(doc: dict) -> FiniteAlgebra:
    prov = doc.get("provenance", {}) if isinstance(doc, dict) else None
    if not isinstance(prov, dict):
        raise ValueError("a document and its provenance must be JSON objects")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported format_version {version!r}")
    n, d, flat, unit, involution = (
        _integers(doc.get(key), key, depth) for key, depth in _INTEGER_DEPTHS.items()
    )
    structure = np.array(flat, dtype=np.int64)
    if structure.shape != (d * d * d,):
        raise ValueError(f"structure tensor has {structure.size} entries, expected {d**3}")
    labels = doc.get("labels")
    if labels is not None and not (
        isinstance(labels, list) and len(labels) == d and all(isinstance(s, str) for s in labels)
    ):
        raise ValueError(f"labels: expected a list of {d} strings, found {labels!r}")
    algebra = FiniteAlgebra(
        n,
        structure.reshape(d, d, d),
        unit,
        involution,
        labels=labels,
        name=_provenance_name(prov),
    )
    return ensure_valid(algebra)


def _provenance_name(prov: dict) -> str:
    """The provenance `name`, else one made from its kind and tower parameters;
    a name or kind that is not a string, or tower params that are not a list
    of integers, is a ValueError."""
    name, kind = prov.get("name"), prov.get("kind", "unspecified")
    for key, value in (("name", name), ("kind", kind)):
        if value is not None and not isinstance(value, str):
            raise ValueError(f"provenance {key}: expected a string, found {value!r}")
    if kind == "tower":
        params = prov.get("params", [])
        if not isinstance(params, list) or any(type(p) is not int for p in params):
            raise ValueError(f"provenance params: expected a list of integers, found {params!r}")
        kind = f"tower(Z{prov.get('base')};{','.join(str(p) for p in params)})"
    return name or kind


def dumps_document(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def save_algebra(path, algebra: FiniteAlgebra, provenance: dict | None = None) -> Path:
    path = Path(path)
    path.write_text(dumps_document(algebra_to_document(algebra, provenance)))
    return path


def load_algebra(path) -> FiniteAlgebra:
    doc = json.loads(Path(path).read_text())
    return document_to_algebra(doc)
