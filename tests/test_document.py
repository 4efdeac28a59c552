import json

import numpy as np
import pytest

from cdrings.algebra import scalar_ring
from cdrings.document import (
    algebra_to_document,
    document_to_algebra,
    dumps_document,
    load_algebra,
    save_algebra,
)
from cdrings.doubling import tower
from cdrings.errors import InvalidAlgebra
from cdrings.presentations import quaternion_algebra


def test_roundtrip_preserves_algebra(tmp_path):
    alg = tower(4, 1, 1, 1)
    path = tmp_path / "oct.json"
    save_algebra(path, alg, {"kind": "tower", "base": 4, "params": [1, 1, 1]})
    loaded = load_algebra(path)
    assert loaded == alg
    assert loaded.labels == alg.labels


def test_roundtrip_is_byte_identical(tmp_path):
    alg = quaternion_algebra(6, 1, 5)
    path = tmp_path / "quat.json"
    save_algebra(path, alg, {"kind": "quaternion", "n": 6, "a": 1, "b": 5})
    first = path.read_bytes()
    loaded = load_algebra(path)
    doc = json.loads(first)
    again = dumps_document(algebra_to_document(loaded, doc["provenance"]))
    assert again.encode() == first


def test_roundtrip_preserves_analysis_results(tmp_path):
    from cdrings.analysis import center, essentiality_data

    alg = tower(4, 1, 1)
    path = tmp_path / "q.json"
    save_algebra(path, alg)
    loaded = load_algebra(path)
    assert center(loaded).Z == center(alg).Z
    assert essentiality_data(loaded).I == essentiality_data(alg).I


def test_load_rejects_wrong_version():
    alg = tower(4, 1)
    doc = algebra_to_document(alg)
    doc["format_version"] = 99
    with pytest.raises(ValueError):
        document_to_algebra(doc)


def test_load_rejects_invalid_algebra():
    alg = tower(4, 1)
    doc = algebra_to_document(alg)
    doc["involution"] = [[2, 0], [0, 2]]  # does not square to identity
    with pytest.raises(InvalidAlgebra):
        document_to_algebra(doc)


def test_load_rejects_bad_tensor_size():
    alg = tower(4, 1)
    doc = algebra_to_document(alg)
    doc["structure"] = doc["structure"][:-1]
    with pytest.raises(ValueError):
        document_to_algebra(doc)


def _malformed(**changes):
    """The rank-2 Z4 document with keys replaced, or deleted where None."""
    doc = algebra_to_document(tower(4, 1))
    for key, value in changes.items():
        if value is None:
            del doc[key]
        else:
            doc[key] = value
    return doc


@pytest.mark.parametrize(
    "doc",
    [
        {"format_version": 1},
        [1, 2, 3],
        _malformed(provenance="x"),
        _malformed(modulus=None),
        _malformed(structure=None),
        _malformed(rank="1"),
        _malformed(rank=[2]),
        _malformed(modulus=4.0),
        _malformed(modulus=True),
        _malformed(structure=[1.5] + [0] * 7),
        _malformed(structure=[True] + [0] * 7),
        _malformed(unit=[1, "0"]),
        _malformed(involution=[[1, 0], [0, 3.0]]),
        _malformed(involution=[1, 0, 0, 3]),
    ],
    ids=lambda doc: json.dumps(doc)[:40],
)
def test_load_rejects_malformed_documents(doc):
    # Each used to crash (KeyError, AttributeError, TypeError) or, for 1.5,
    # be truncated to 1 and analyzed.
    with pytest.raises(ValueError):
        document_to_algebra(doc)


def _z2_with(**changes):
    """The rank-1 Z2 document with keys replaced."""
    return dict(algebra_to_document(scalar_ring(2)), **changes)


@pytest.mark.parametrize(
    "doc",
    [
        _z2_with(labels=5),
        _z2_with(labels="x"),
        _z2_with(labels=[3]),
        _malformed(labels=["1", "i", "j"]),
        _z2_with(provenance={"name": 7}),
        _z2_with(provenance={"kind": 7}),
        _z2_with(provenance={"kind": "tower", "params": 5}),
        _z2_with(provenance={"kind": "tower", "base": 2, "params": [1, "1"]}),
        _z2_with(provenance={"kind": "tower", "name": "Z2", "params": [True]}),
    ],
    ids=[
        "labels-int",
        "labels-string",
        "labels-not-strings",
        "labels-too-many",
        "name-int",
        "kind-int",
        "params-int",
        "params-string-entry",
        "params-bool-entry",
    ],
)
def test_load_rejects_bad_labels_and_provenance(doc):
    # The int labels and int params used to raise TypeError; "x", [3] and
    # a name of 7 were accepted, the last printing its header as "7:".
    with pytest.raises(ValueError):
        document_to_algebra(doc)


def test_load_accepts_absent_labels_and_a_tower_provenance():
    doc = _z2_with(provenance={"kind": "tower", "base": 2, "params": []})
    del doc["labels"]
    alg = document_to_algebra(doc)
    assert alg.labels == ["e0"] and alg.name == "tower(Z2;)"


def test_structure_is_row_major_triple_index():
    alg = quaternion_algebra(4, 1, 1)
    doc = algebra_to_document(alg)
    flat = np.array(doc["structure"]).reshape(4, 4, 4)
    assert np.array_equal(flat, np.asarray(alg.structure))
    # i * j = k sits at [1][2][3]
    assert flat[1][2][3] == 1
