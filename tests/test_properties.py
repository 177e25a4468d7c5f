"""Property tests: the domination verifier under relabellings of [n] and on
supersets of valid families, the 2-packing verifier on subfamilies, the
lifts on subfamilies of odd-graph packings, the family-document parser on
any JSON-like object, the Delsarte dual against its independent check, and
the CLI's own option reader against argparse on well-formed calls."""

from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from kneserdom import (
    FamilyDocumentError,
    InternalCheckError,
    InvariantKind,
    KneserParams,
    Vertex,
    VertexFamily,
    cli,
    diagonal_lift,
    doubling_lift,
    parse_family_document,
    rho3_witness,
    verify,
    verify_2_packing,
)
from kneserdom.certify import check_delsarte_dual, is_defined
from kneserdom.construct import TABLE3_PACKINGS, table3_packing
from kneserdom.solve import delsarte_lp

from helpers import (
    closed_neighbor_count,
    open_neighbor_count,
    pairwise_intersections,
)

KINDS = (InvariantKind.K_DOMINATION, InvariantKind.K_TUPLE,
         InvariantKind.K_TUPLE_TOTAL)


def _relabel(perm, mask):
    """The image of `mask` under the permutation perm of the bit positions."""
    return sum(1 << perm[x] for x in range(len(perm)) if mask >> x & 1)


def _is_violation(u, D, kind, k):
    if kind is InvariantKind.K_DOMINATION:
        return u not in D and open_neighbor_count(u, D) < k
    if kind is InvariantKind.K_TUPLE:
        return closed_neighbor_count(u, D) < k
    return open_neighbor_count(u, D) < k


@st.composite
def relabelled_families(draw):
    """(D, the image of D under a permutation of [n], the permutation,
    kind, k) on a Kneser graph of at most 462 vertices."""
    r = draw(st.integers(1, 4))
    n = draw(st.integers(2 * r, min(2 * r + 4, 11)))
    params = KneserParams(n, r)
    masks = list(params.vertex_masks())
    members = draw(st.lists(st.sampled_from(masks), unique=True, min_size=1,
                            max_size=min(len(masks), 30)))
    perm = draw(st.permutations(range(n)))
    kind = draw(st.sampled_from(KINDS))
    k = draw(st.integers(1, 3))
    D = VertexFamily(params, tuple(Vertex(m) for m in members))
    image = VertexFamily(params, tuple(Vertex(_relabel(perm, m))
                                       for m in members))
    return D, image, perm, kind, k


@settings(max_examples=300, deadline=None, database=None)
@given(relabelled_families())
def test_relabelling_keeps_the_verdict(case):
    """A permutation of [n] is an automorphism of K(n,r), so it keeps the
    verdict and, for a valid family, the count; an invalid family's reported
    violation, mapped back, is a violation of the original family."""
    D, image, perm, kind, k = case
    assume(is_defined(D.params, kind, k))
    before, after = verify(D, kind, k), verify(image, kind, k)
    assert before.valid == after.valid
    if after.valid:
        assert after.checked_count == before.checked_count
        return
    inverse = [0] * len(perm)
    for x, y in enumerate(perm):
        inverse[y] = x
    u = Vertex(_relabel(inverse, after.witness_violation.mask))
    assert _is_violation(u, D, kind, k)
    assert _is_violation(before.witness_violation, D, kind, k)


@st.composite
def band_instances(draw):
    """K(n,r) with r <= 9 inside the band 2r+1 <= n <= 3r-2."""
    r = draw(st.integers(3, 9))
    return KneserParams(draw(st.integers(2 * r + 1, 3 * r - 2)), r)


@settings(max_examples=60, deadline=None, database=None)
@given(band_instances())
def test_delsarte_dual_proves_the_lp_value(params):
    """The LP's dual passes the check that shares no code with the solve,
    and proves exactly the LP value; half of it proves nothing, since the
    dual constraints of the distances the optimum uses are tight."""
    bound, dual = delsarte_lp(params.n, params.r)
    assert bound == 1 + sum(dual)
    check_delsarte_dual(params, dual, bound)
    half = [y / 2 for y in dual]
    with pytest.raises(InternalCheckError,
                       match="^Delsarte dual violates the constraint"):
        check_delsarte_dual(params, half, 1 + sum(half))


@st.composite
def packing_subfamilies(draw):
    """A recorded 2-packing of K(3r-3, r) and a subfamily of it, members in
    any order."""
    S = table3_packing(draw(st.sampled_from(sorted(TABLE3_PACKINGS))))
    picks = draw(st.lists(st.sampled_from(range(len(S))), unique=True))
    return S, VertexFamily(S.params, tuple(S.members[i] for i in picks))


@settings(max_examples=200, deadline=None, database=None)
@given(packing_subfamilies())
def test_subfamily_of_a_packing_is_a_packing(case):
    """Distance >= 3 is a condition on each pair alone, so every subfamily
    of a valid 2-packing is valid, with every one of its pairs checked."""
    S, sub = case
    assert verify_2_packing(S).valid
    report = verify_2_packing(sub)
    assert report.valid
    assert report.checked_count == len(sub) * (len(sub) - 1) // 2


@st.composite
def odd_graph_subpackings(draw):
    """A subfamily, members in any order, of a 2-packing of an odd graph
    K(2r+1, r): the recorded packing of K(9,4), or the rho3 witness of
    K(2r+1, r) for 3 <= r <= 7."""
    S = draw(st.sampled_from([table3_packing(4)]
                             + [rho3_witness(r, r - 1) for r in range(3, 8)]))
    picks = draw(st.lists(st.sampled_from(range(len(S))), unique=True))
    return VertexFamily(S.params, tuple(S.members[i] for i in picks))


@settings(max_examples=200, deadline=None, database=None)
@given(odd_graph_subpackings(), st.integers(2, 4))
def test_lifts_of_a_packing_are_packings(S, a):
    """The doubling lift of a 2-packing of K(2r+1, r) is a 2-packing of
    K(2r+1+2a, r+a) of twice the size; the diagonal lift is a 2-packing of
    K(2r+2, r+1) whose intersections are all one larger."""
    n, r = S.params.n, S.params.r
    doubled = doubling_lift(S, a)
    assert doubled.params == KneserParams(n + 2 * a, r + a)
    assert len(doubled) == 2 * len(S)
    assert verify_2_packing(doubled).valid
    diagonal = diagonal_lift(S)
    assert diagonal.params == KneserParams(n + 1, r + 1)
    assert verify_2_packing(diagonal).valid
    assert pairwise_intersections(diagonal) == {
        pair: size + 1 for pair, size in pairwise_intersections(S).items()}


# Integers stay small: an element near 10**9 makes a mask of about a
# gigabyte.
_small_ints = st.integers(-3, 40)
_json_values = st.recursive(
    st.none() | st.booleans() | _small_ints | st.floats()
    | st.text(max_size=3),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner,
                                     max_size=4)),
    max_leaves=12,
)


@st.composite
def family_documents(draw):
    """A document with fields n, r and sets of r elements each, mostly in
    range, in which up to two fields are then dropped or replaced by any
    JSON value, or a meta field is added."""
    r = draw(st.integers(-1, 6))
    n = draw(st.integers(2 * max(r, 0), 40) | _small_ints)
    element = st.integers(1, max(n, 1)) | _small_ints
    doc = {"n": n, "r": r,
           "sets": draw(st.lists(st.lists(element, min_size=max(r, 0),
                                          max_size=max(r, 0)), max_size=4))}
    fields = st.sampled_from(("n", "r", "sets", "meta"))
    for key in draw(st.sets(fields, max_size=2)):
        if draw(st.booleans()):
            doc.pop(key, None)
        else:
            doc[key] = draw(_json_values)
    return doc


@settings(max_examples=500, deadline=None, database=None)
@given(_json_values | family_documents())
def test_parser_returns_a_family_or_a_document_error(obj):
    """Any JSON-like object parses to the family it describes, or is
    rejected with FamilyDocumentError, never with another exception."""
    try:
        family, meta = parse_family_document(obj)
    except FamilyDocumentError:
        return
    assert family.params == KneserParams(obj["n"], obj["r"])
    assert family.as_sets() == [sorted(s) for s in obj["sets"]]
    assert isinstance(meta, dict)


@st.composite
def valid_families_and_supersets(draw):
    """A valid family of K(n,2), n <= 8, or of K(7,3) for a defined kind and
    k, and a superset of it: the shortest valid prefix of a random order of
    the vertices, then any vertices added."""
    n, r = draw(st.sampled_from([(n, 2) for n in range(4, 9)] + [(7, 3)]))
    params = KneserParams(n, r)
    kind = draw(st.sampled_from(KINDS))
    k = draw(st.integers(1, 3))
    assume(is_defined(params, kind, k))
    pool = [Vertex(m) for m in params.vertex_masks()]
    order = draw(st.permutations(pool))
    size = next(size for size in range(1, len(pool) + 1)
                if verify(VertexFamily(params, tuple(order[:size])), kind,
                          k).valid)
    added = draw(st.lists(st.sampled_from(pool), unique=True))
    base = VertexFamily(params, tuple(order[:size]))
    extra = tuple(v for v in added if v not in base)
    return base, VertexFamily(params, base.members + extra), kind, k


@settings(max_examples=200, deadline=None, database=None)
@given(valid_families_and_supersets())
def test_superset_of_a_valid_family_is_valid(case):
    """Adding vertices only adds neighbours in the family, and a k-dominating
    family exempts its new members, so every kind stays valid."""
    base, superset, kind, k = case
    assert verify(base, kind, k).valid
    assert verify(superset, kind, k).valid


_DIGITS = ("0123456789", "٠١٢٣٤٥٦٧٨٩", "０１２３４５６７８９")


def _option_values(spec):
    """Strings that `spec`'s type and choices accept, none starting with a
    dash but "-" itself: integers in any of three digit scripts, floats,
    choices and any other text."""
    if spec.get("type") is int:
        numbers = (st.sampled_from(spec["choices"]) if "choices" in spec
                   else st.integers(0, 10**6))
        return st.builds(
            lambda number, digits: str(number).translate(
                str.maketrans(_DIGITS[0], digits)),
            numbers, st.sampled_from(_DIGITS))
    if spec.get("type") is float:
        return st.floats(0, 1e9, allow_nan=False).map(repr)
    if "choices" in spec:
        return st.sampled_from(spec["choices"])
    return st.just("-") | st.text(max_size=8).filter(lambda s: s[:1] != "-")


@st.composite
def well_formed_calls(draw):
    """(subcommand, argv) with each row's exact flag zero to two times, a
    required one at least once, in any order, with its value after "=" or
    in the next string; `--check` bare."""
    name = draw(st.sampled_from(sorted(cli.COMMANDS)))
    groups = []
    for flag, spec in cli.COMMANDS[name].options:
        for _ in range(draw(st.integers(1 if spec.get("required") else 0, 2))):
            if "action" in spec:
                groups.append([flag])
                continue
            value = draw(_option_values(spec))
            groups.append([f"{flag}={value}"] if draw(st.booleans())
                          else [flag, value])
    groups = draw(st.permutations(groups))
    return name, [word for group in groups for word in group]


@settings(max_examples=200, deadline=None, database=None)
@given(well_formed_calls())
def test_exact_flag_calls_parse_as_argparse_parses_them(call):
    """`cli._parse` reads these calls itself, into the namespace that
    argparse gives for the same rows."""
    name, argv = call
    prog, rows = f"kneserdom {name}", cli.COMMANDS[name].options
    with mock.patch.object(cli, "_argparse",
                           side_effect=AssertionError("handed to argparse")):
        args = cli._parse(prog, rows, argv)
    assert vars(args) == vars(cli._argparse(prog, rows, argv))
