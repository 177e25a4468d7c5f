"""Tests for the JSON family-document format."""

import io
import json
import tracemalloc

import pytest

from kneserdom import (
    FamilyDocumentError,
    InvariantKind,
    KneserParams,
    VertexFamily,
    family_to_csv,
    family_to_document,
    load_family_document,
    parse_family_document,
    table3_packing,
    verify,
)


def doc(n=7, r=3, sets=None, **extra):
    if sets is None:
        sets = [[1, 2, 3], [1, 4, 5]]
    base = {"n": n, "r": r, "sets": sets}
    base.update(extra)
    return base


class TestParse:
    def test_roundtrip(self):
        family, meta = parse_family_document(doc(meta={"note": "hi"}))
        assert family.params == KneserParams(7, 3)
        assert family.as_sets() == [[1, 2, 3], [1, 4, 5]]
        assert meta == {"note": "hi"}
        assert parse_family_document(family_to_document(family))[0] == family

    def test_json_roundtrip(self):
        family = table3_packing(5)
        again, meta = load_family_document(
            io.StringIO(json.dumps(family_to_document(family), indent=2)))
        assert again == family
        assert meta == {}

    def test_large_n_small_family_allocates_little(self):
        # memory follows the members, not n: no per-element table is built
        # before the check; members use small elements, since a vertex's
        # mask is as wide as its largest element
        text = json.dumps({"n": 10**7, "r": 3, "sets": [[1, 2, 3], [1, 4, 5]]})
        tracemalloc.start()
        try:
            family, _ = load_family_document(io.StringIO(text))
            report = verify(family, InvariantKind.TWO_PACKING)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not report.valid  # K(10^7, 3) has diameter 2
        assert peak < 10**6

    def test_empty_sets_allowed(self):
        family, _ = parse_family_document(doc(sets=[]))
        assert len(family) == 0

    @pytest.mark.parametrize(
        "broken,message",
        [
            ([1, 2, 3], "document root must be a JSON object"),
            ({"n": 7, "r": 3}, "missing required field 'sets'"),
            ({"r": 3, "sets": []}, "missing required field 'n'"),
            (doc(n="7"), "fields 'n' and 'r' must be integers"),
            (doc(n=5, r=3), "need n >= 2r"),
            (doc(n=10**7 + 1), "n = 10000001 exceeds the largest supported n"),
            (doc(n=10**7, r=1, sets=[[10**7 - i] for i in range(200)]),
             "sets[100]: the masks would exceed 1000000000 bits in all"),
            (doc(sets={"a": 1}), "field 'sets' must be a list of lists"),
            (doc(sets=[[1, 2, "3"]]), "sets[0]: must be a list of integers"),
            (doc(sets=[[1, 2]]), "sets[0]: expected 3 elements, got 2"),
            (doc(sets=[[1, 2, 2]]), "sets[0]: duplicate element 2"),
            (doc(sets=[[1, 2, 8]]), "sets[0]: element 8 outside [1..7]"),
            (
                doc(sets=[[1, 2, 3], [3, 2, 1]]),
                "sets[1]: duplicate of sets[0]",
            ),
            (doc(meta=[1]), "field 'meta' must be an object if present"),
            (doc(r=True, sets=[[True]]), "fields 'n' and 'r' must be integers"),
            (doc(sets=[[1, 2, True]]), "sets[0]: must be a list of integers"),
        ],
    )
    def test_precise_errors(self, broken, message):
        with pytest.raises(FamilyDocumentError) as err:
            parse_family_document(broken)
        assert message in str(err.value)

    def test_invalid_json_reports_position(self):
        with pytest.raises(FamilyDocumentError) as err:
            load_family_document(io.StringIO('{"n": 7,'))
        assert "invalid JSON at line" in str(err.value)


class TestEmit:
    def test_csv_layout(self):
        family = VertexFamily.from_sets(
            KneserParams(7, 3), [[1, 2, 3], [1, 4, 5]]
        )
        assert family_to_csv(family) == "1 2 3\n1 4 5"

    def test_json_is_valid_and_ordered(self):
        family = table3_packing(4)
        obj = json.loads(json.dumps(
            family_to_document(family, {"source": "recorded"}), indent=2))
        assert obj["n"] == 9 and obj["r"] == 4
        assert obj["sets"][0] == [1, 2, 3, 5]
        assert obj["meta"] == {"source": "recorded"}

    def test_document_omits_empty_meta(self):
        family = table3_packing(4)
        assert "meta" not in family_to_document(family)
