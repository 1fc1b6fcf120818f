from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive_oracles as ref
from mgonal import (
    PolygonalForm,
    ResourceCapError,
    TreeParseError,
    build_tree,
    deserialize_tree,
    represented_set,
    serialize_tree,
    walk_summary,
)
from mgonal.escalator import EscalatorNode, EscalatorTree

# ---------------------------------------------------------------------------
# building


def test_triangular_tree_is_the_known_one():
    tree = build_tree(3, max_depth=8, bound=2000)
    assert tree.complete
    assert len(tree.nodes) == 18
    assert tree.gamma_estimate == 8
    # three triangular numbers represent every integer (Gauss)
    assert min(n.depth for n in tree.nodes if n.truant is None) == 3


def test_hexagonal_tree_matches_triangular_gamma():
    tree = build_tree(6, max_depth=8, bound=2000)
    assert tree.complete
    assert tree.gamma_estimate == 8


def test_root_is_the_empty_form_with_truant_one():
    tree = build_tree(5, max_depth=0, bound=100)
    assert len(tree.nodes) == 1
    assert tree.root.form.coeffs == ()
    assert tree.root.truant == 1
    assert tree.gamma_estimate == 1
    assert not tree.complete  # the root still wants children


def test_escalating_the_root_gives_the_unit_coefficient():
    tree = build_tree(7, max_depth=1, bound=100)
    assert [ch.form.coeffs for ch in tree.root.children] == [(1,)]


def escalations(node):
    """Every one-coefficient extension of the node's form from its last
    coefficient (1 for the empty form) up to its truant."""
    lo = node.form.coeffs[-1] if node.form.coeffs else 1
    return [node.form.extend(k) for k in range(lo, node.truant + 1)]


def cut(tree, cap):
    """The tree's first cap nodes in breadth-first order, copied, each with
    its children that are kept."""
    copies = {id(n): EscalatorNode(n.form, n.truant) for n in tree.nodes[:cap]}
    for n in tree.nodes[:cap]:
        copies[id(n)].children = [copies[id(c)] for c in n.children if id(c) in copies]
    return EscalatorTree(tree.m, tree.bound, tree.max_depth, list(copies.values()))


def test_children_satisfy_the_escalation_contract():
    bound = 2000
    tree = build_tree(5, max_depth=2, bound=bound)
    for node in tree.nodes:
        if node.truant is None or node.depth >= 2:
            continue
        assert node.children, "non-universal internal node must have children"
        # every k in [lo, t] is a child, in ascending order: each represents
        # t as (t - k) + k * P_m(1), and P_m(1) = 1
        lo = node.form.coeffs[-1] if node.form.coeffs else 1
        last_coeffs = [ch.form.coeffs[-1] for ch in node.children]
        assert last_coeffs == list(range(lo, node.truant + 1))
        for ch in node.children:
            assert node.truant in represented_set(ch.form, bound)
            assert ch.truant is None or ch.truant > node.truant


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=3, max_value=30),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=1, max_value=3000),
)
def test_exactly_the_nodes_with_a_truant_above_max_depth_get_children(m, max_depth, bound):
    # each truant against a set built from scratch, and children for exactly
    # the nodes that have a truant and lie above max_depth
    tree = build_tree(m, max_depth, bound)
    for node in tree.nodes:
        assert node.truant == represented_set(node.form, bound).truant()
        expands = node.truant is not None and node.depth < max_depth
        assert [ch.form for ch in node.children] == (escalations(node) if expands else [])


def test_nodes_are_breadth_first():
    tree = build_tree(4, max_depth=3, bound=500)
    depths = [n.depth for n in tree.nodes]
    assert depths == sorted(depths)


def test_gamma_estimate_is_monotone_in_depth():
    gammas = [build_tree(5, max_depth=d, bound=2000).gamma_estimate for d in (1, 2, 3)]
    assert gammas == sorted(gammas)


def test_node_cap_error_and_truncate():
    with pytest.raises(ResourceCapError):
        build_tree(3, max_depth=5, bound=2000, node_cap=5)
    tree = cut(build_tree(3, max_depth=5, bound=2000), 5)
    assert len(tree.nodes) <= 5
    assert not tree.complete


def test_a_tree_stopped_by_the_node_cap_is_incomplete():
    # the full tree has 18 nodes; under caps 13..17 node (1, 1, 3), truant 8,
    # gets only some of its six children
    full = build_tree(3, max_depth=12, bound=2000)
    for cap in range(1, 18):
        tree = cut(full, cap)
        assert len(tree.nodes) == cap
        assert not tree.complete, cap
        assert not deserialize_tree(serialize_tree(tree)).complete, cap
    assert build_tree(3, max_depth=12, bound=2000, node_cap=18).complete


@pytest.mark.parametrize("build", [build_tree, walk_summary])
def test_build_arguments_are_validated(build):
    with pytest.raises(TypeError):
        build(3, max_depth=2, bound=100, on_cap="truncate")  # the option is gone
    with pytest.raises(ValueError):
        build(3, max_depth=-1, bound=100)
    with pytest.raises(ValueError, match="bound must be >= 1"):
        build(3, max_depth=2, bound=0)
    for cap in (0, -1):
        with pytest.raises(ValueError, match="node_cap must be >= 1"):
            build(3, max_depth=2, bound=100, node_cap=cap)


@pytest.mark.parametrize("m", range(3, 14))
def test_walk_summary_is_the_tree_cut_at_the_node_cap(m):
    # the gamma command's fold against build_tree's tree, cut at caps from 1
    # to one past its size
    for max_depth in (0, 1, 2, 3, 5, 8, 12):
        for bound in (1, 7, 50, 2000):
            full = build_tree(m, max_depth, bound)
            n = len(full.nodes)
            for cap in sorted({1, 2, n // 3, n // 2, n - 1, n, n + 1} - {0}):
                tree = cut(full, cap)
                assert walk_summary(m, max_depth, bound, node_cap=cap) == (
                    tree.truants, len(tree.nodes), tree.complete
                ), (max_depth, bound, cap)


# ---------------------------------------------------------------------------
# the shape shared by all large m


def test_large_m_depth4_trees_share_the_quaternary_figure():
    expected = [tuple(c) for c in ref.quaternary_figure()]
    for m in (12, 101):
        tree = build_tree(m, max_depth=4, bound=2000)
        depth4 = sorted(n.form.coeffs for n in tree.nodes if n.depth == 4)
        assert depth4 == expected
        internal = {
            n.form.coeffs: n.truant for n in tree.nodes if n.depth < 4
        }
        assert internal == ref.INTERNAL_TRUANTS


def test_very_large_m_has_no_shallow_universal_node():
    # with only 4 variables there are at most 2**4 subset sums of small
    # values available below m - 3, so nothing at depth <= 4 can cover
    # 1..(m-4) once m - 4 > 16
    tree = build_tree(101, max_depth=4, bound=2000)
    assert all(n.truant is not None for n in tree.nodes)
    assert not tree.complete


# ---------------------------------------------------------------------------
# byte-level pins: the serialized trees of m = 3..14 (depth 12, bound 2e4)
# and the complete trees of m = 15..18 (depth cap m + 4, bound 1e5)

TREE_SHA256_DEPTH12_BOUND_2E4 = {
    3: "5bcd6bd17871a1ff9cfb3fa745206987437ec8d4f8bc767ea608c776baa98b7a",
    4: "388761559a66ebf0d818fb866f096e622a91260abd2c38139adaf6ea20dc860f",
    5: "2d001f814e6728cf76f7e1a08e6aa335b28f358d356bb376f35988479ec63b60",
    6: "6147c7fb007c508b2d2df7a6e6427d57797d7bccd1b810c7fe1f706f03396595",
    7: "1298539c1e7c031e3f77798637db1bd2ce804a4dbf642819327ef448f1ea4fca",
    8: "010826d66eefeb9cd7bc43721598aa78956ac01f9b6b1ab974c1da95c514616b",
    9: "2f0dc9c8511a9c1a7d6fe4afe5d427f8eaa074dff5cc69d62e8ed346aadde3ce",
    10: "f746d7268f6b467057bbf8eee8b9a588effd00d13fa927045949b80aabf6b177",
    11: "af2b5fa85ecc65da6e5bdfd455597b289486e01b92961e1503e4734684641eb2",
    12: "2f19fce7f8fb24dea3e8d63691dde1b9a34d0f75455597b4b7a2f85f1bf7d4ee",
    13: "d6feba87a95d060c8e52cab105121af5094522ac616f90cfd686fef1de678c98",
    14: "82b41bdad0f8df6b6c1b53a1eb089bbe18a094196508040795f8c5d45352ffb8",
}

# m -> (gamma_m, nodes, sha256 of the serialized tree)
COMPLETE_TREES_BOUND_1E5 = {
    15: (143, 8413, "cf0ffc290b3f0e26c675bfebb1c47fe49dce9b45c1eabb00e8eeda004b7b2bfd"),
    16: (127, 12420, "58f39393d0198d647a8a352004156e1f72bf2d2b80489c519872c84d00e360de"),
    17: (149, 16371, "0a82cf551250a298d48bacf0d7621e7fc6acf836db4ba4fc00df65664c38124b"),
    18: (119, 29593, "e4c0d4bcb90e9f5744ac4bd8328a1317e472feb7ca4d45963cd09fa79c91ed4c"),
    # mostly B-universal children of internal nodes, none of which gets a set
    19: (132, 44108, "f346118656dd5626a7449535c73a3e5424b45144239b8c97808e37c11645b820"),
    20: (148, 64177, "ba8bd8838511e3324822e33dc022623db2a32e1a603b08ee9673049e49579f36"),
}


def _sha256(tree) -> str:
    return hashlib.sha256(serialize_tree(tree).encode()).hexdigest()


@pytest.mark.parametrize("m", sorted(TREE_SHA256_DEPTH12_BOUND_2E4))
def test_depth12_trees_are_pinned_byte_for_byte(m):
    tree = build_tree(m, 12, 20000)
    assert tree.complete
    assert _sha256(tree) == TREE_SHA256_DEPTH12_BOUND_2E4[m]


@pytest.mark.parametrize("m", sorted(COMPLETE_TREES_BOUND_1E5))
def test_complete_trees_beyond_m14_are_pinned(m):
    tree = build_tree(m, m + 4, 100_000)
    assert tree.complete
    assert (tree.gamma_estimate, len(tree.nodes), _sha256(tree)) == (
        COMPLETE_TREES_BOUND_1E5[m]
    )


def assert_parses_node_by_node(tree):
    text = serialize_tree(tree)
    back = deserialize_tree(text)
    assert len(back.nodes) == len(tree.nodes)
    for built, parsed in zip(tree.nodes, back.nodes):
        assert parsed.form == built.form
        assert parsed.truant == built.truant
        assert [c.form.coeffs for c in parsed.children] == [
            c.form.coeffs for c in built.children
        ]
    assert serialize_tree(back) == text


@pytest.mark.parametrize("m", sorted(TREE_SHA256_DEPTH12_BOUND_2E4))
def test_pinned_depth12_trees_parse_node_by_node(m):
    assert_parses_node_by_node(build_tree(m, 12, 20000))


def test_pinned_complete_m15_tree_parses_node_by_node():
    assert_parses_node_by_node(build_tree(15, 19, 100_000))


# trees whose deepest level is max_depth, where only the leaves' truants are
# computed: (m, max_depth, bound) -> (nodes, gamma estimate, sha256).  At
# bound 1e5 the m = 5 leaves are mostly universal, so their windows grow to
# the bound; the m = 50 leaves all find their truant in the first window.
TREES_WITH_MAX_DEPTH_LEAVES = {
    (19, 5, 10_000): (230, 126, "9c1a201f4ce1f49775dfcf0796431b40b886795bf5f09afdc1f86395a26122c5"),
    (23, 5, 10_000): (229, 96, "711569e1723d5ea1747ce32db23ffc6d78ca0174b47b258a713931147af76df2"),
    (30, 5, 10_000): (229, 57, "f58a92cd0e783fed2b2fe9cb96e7c3e13a3bbba1a65b22f05267fce6e973bbca"),
    (47, 5, 10_000): (229, 32, "7b91569fe63daaad5f5b10ed7cf4fe96ab49e799bf826efacba8bc26647d3c2d"),
    (64, 5, 10_000): (229, 32, "509ec4ac707f8fee342335e6c1c06a293e5647775c5627a17e9bb650831f75aa"),
    (110, 5, 10_000): (229, 32, "c16b1b8fdcff1ca056ec20e2fc03e1754729e1a6da20fe33093f559a4754fbd6"),
    (5, 4, 100_000): (132, 109, "f3420f2a59a7d7df60096c8b356dd12c2937a8cec1cc84cddb5e93a39bbf19df"),
    (50, 4, 100_000): (37, 16, "a179bbb169f369f242836c5587ac88b65d8c4f882f5de09a51fcf3114ecb2099"),
}


@pytest.mark.parametrize("args", sorted(TREES_WITH_MAX_DEPTH_LEAVES))
def test_trees_with_max_depth_leaves_are_pinned(args):
    tree = build_tree(*args)
    assert any(n.depth == tree.max_depth for n in tree.nodes)
    assert (len(tree.nodes), tree.gamma_estimate, _sha256(tree)) == (
        TREES_WITH_MAX_DEPTH_LEAVES[args]
    )


# (nodes, gamma_m, S_m) of build_tree's complete trees at bound 1e5 and depth
# cap m + 4, reached by the walk without keeping a tree.  gamma_m is not
# monotone in m: gamma_23 = 196 < gamma_22 = 227.
WALKED_BOUND_1E5 = {
    21: (99786, 155, [
        1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 19, 20, 22,
        23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 37, 38, 39, 40, 41,
        43, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53, 56, 57, 58, 59, 62, 66, 67,
        68, 70, 71, 73, 75, 76, 77, 78, 79, 80, 81, 82, 83, 85, 86, 87, 88, 89,
        92, 94, 95, 99, 100, 101, 104, 106, 107, 114, 125, 130, 139, 143, 152,
        155
    ]),
    22: (140671, 227, [
        1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 20, 21,
        23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 39, 40, 41,
        42, 43, 45, 46, 47, 48, 49, 50, 51, 52, 53, 54, 55, 56, 59, 60, 61, 62,
        65, 69, 70, 71, 73, 74, 75, 77, 79, 80, 81, 82, 83, 84, 85, 86, 87, 89,
        90, 91, 92, 93, 94, 97, 98, 99, 100, 103, 104, 105, 106, 108, 109, 111,
        112, 113, 120, 121, 131, 137, 140, 142, 144, 146, 149, 160, 170, 187,
        227
    ]),
    23: (182404, 196, [
        1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 21,
        22, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 41,
        42, 43, 44, 45, 47, 48, 49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 62,
        63, 64, 65, 68, 72, 73, 74, 76, 77, 78, 79, 81, 82, 83, 84, 85, 86, 87,
        88, 89, 90, 91, 93, 94, 95, 96, 97, 98, 99, 102, 103, 104, 105, 109,
        110, 111, 113, 114, 116, 117, 118, 119, 121, 126, 127, 137, 144, 147,
        149, 156, 157, 166, 189, 196
    ]),
    24: (274578, 242, [
        1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20,
        22, 23, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40,
        41, 43, 44, 45, 46, 47, 49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 60,
        61, 62, 65, 66, 67, 68, 71, 75, 76, 77, 79, 80, 81, 82, 83, 85, 86, 87,
        88, 89, 90, 91, 92, 93, 94, 95, 97, 98, 99, 100, 101, 102, 103, 104,
        107, 108, 109, 110, 112, 113, 114, 115, 116, 118, 119, 121, 122, 123,
        124, 125, 130, 132, 143, 154, 164, 242
    ]),
}


@pytest.mark.parametrize("m", sorted(WALKED_BOUND_1E5))
def test_walk_summary_past_m20_is_pinned(m):
    truants, nodes, complete = walk_summary(m, m + 4, 100_000)
    assert complete
    assert (nodes, truants[-1], truants) == WALKED_BOUND_1E5[m]


def test_node_cap_inside_the_leaf_level_is_pinned():
    # m = 19 at depth 5 has 37 nodes above depth 5 and 193 at it
    tree = cut(build_tree(19, 5, 10_000), 150)
    assert sum(n.depth == 5 for n in tree.nodes) == 113
    assert (len(tree.nodes), tree.gamma_estimate, _sha256(tree)) == (
        150, 94, "6c2cd3e5aa5d1ebab2ca919aefab04ecb0d9f908f2c3a6fb787082ecf74bd446"
    )
    assert walk_summary(19, 5, 10_000, node_cap=150) == (tree.truants, 150, False)
    with pytest.raises(ResourceCapError, match="exceeded node cap 229"):
        build_tree(19, 5, 10_000, node_cap=229)
    assert len(build_tree(19, 5, 10_000, node_cap=230).nodes) == 230


# S_m, the truants of the complete tree, as published (not taken from this
# program):
# - m = 3, and m = 6 whose generalized values are the triangular numbers:
#   Bosma and Kane, "The triangular theorem of eight".
# - m = 4: Bhargava, "On the Conway-Schneeberger fifteen theorem".
# - m = 5: Ju, "Universal sums of generalized pentagonal numbers".
# - m = 8: Ju and Oh, "Universal sums of generalized octagonal numbers".
PUBLISHED_TRUANTS = {
    3: [1, 2, 4, 5, 8],
    4: [1, 2, 3, 5, 6, 7, 10, 14, 15],
    5: [1, 3, 8, 9, 11, 18, 19, 25, 27, 43, 98, 109],
    6: [1, 2, 4, 5, 8],
    8: [1, 2, 3, 4, 6, 7, 9, 12, 13, 14, 18, 60],
}


@pytest.mark.parametrize("m", sorted(PUBLISHED_TRUANTS))
def test_truants_of_complete_trees_are_the_published_sets(m):
    tree = build_tree(m, 12, 20000)
    assert tree.complete
    assert tree.truants == PUBLISHED_TRUANTS[m]
    assert tree.gamma_estimate == tree.truants[-1]


# ---------------------------------------------------------------------------
# serialization


def roundtrip(tree):
    text = serialize_tree(tree)
    back = deserialize_tree(text)
    assert serialize_tree(back) == text
    return back


def test_serialize_round_trip_preserves_everything():
    tree = build_tree(5, max_depth=2, bound=500)
    back = roundtrip(tree)
    assert back.m == tree.m
    assert back.bound == tree.bound
    assert back.max_depth == tree.max_depth
    assert len(back.nodes) == len(tree.nodes)
    assert back.gamma_estimate == tree.gamma_estimate
    assert back.complete == tree.complete
    assert {n.form.coeffs: n.truant for n in back.nodes} == {
        n.form.coeffs: n.truant for n in tree.nodes
    }


def test_serialized_document_is_compact_sorted_json():
    tree = build_tree(3, max_depth=2, bound=100)
    doc = json.loads(serialize_tree(tree))
    assert set(doc) == {"m", "bound", "max_depth", "nodes"}
    coeff_lists = [tuple(n["coeffs"]) for n in doc["nodes"]]
    assert coeff_lists == sorted(coeff_lists)
    assert ": " not in serialize_tree(tree)


def valid_doc():
    return json.loads(serialize_tree(build_tree(3, max_depth=2, bound=100)))


def expect_parse_error(doc, match):
    with pytest.raises(TreeParseError, match=match):
        deserialize_tree(json.dumps(doc))


def test_parse_rejects_invalid_json():
    # also JSON that the json module cannot decode: too deep, too long an integer
    for text in ("{nope", "[" * 100_000, '{"m": ' + "9" * 5000 + "}"):
        with pytest.raises(TreeParseError, match="invalid JSON"):
            deserialize_tree(text)


def test_parse_rejects_non_object():
    with pytest.raises(TreeParseError, match="expected a JSON object"):
        deserialize_tree("[1,2]")


def test_parse_rejects_wrong_top_level_keys():
    doc = valid_doc()
    doc["extra"] = 1
    expect_parse_error(doc, "expected exactly keys")


def test_parse_rejects_bad_scalar_fields():
    doc = valid_doc()
    doc["m"] = 2
    expect_parse_error(doc, "m: expected an integer >= 3")
    doc = valid_doc()
    doc["bound"] = "100"
    expect_parse_error(doc, "bound: expected an integer")


def test_parse_rejects_wrong_node_keys():
    doc = valid_doc()
    del doc["nodes"][0]["truant"]
    expect_parse_error(doc, "expected keys")


def test_parse_rejects_unsorted_coefficients():
    doc = valid_doc()
    for node in doc["nodes"]:
        if node["coeffs"] == [1, 2]:
            node["coeffs"] = [2, 1]
    expect_parse_error(doc, "sorted")
    # a coefficient that is not a positive integer fails at the same path
    for bad in (True, 0):
        doc = valid_doc()
        i = next(i for i, n in enumerate(doc["nodes"]) if n["coeffs"] == [1, 2])
        doc["nodes"][i]["coeffs"] = [1, bad]
        expect_parse_error(doc, rf"nodes\[{i}\]\.coeffs: .*positive integers")


def expect_exact_parse_error(doc, message):
    with pytest.raises(TreeParseError) as info:
        deserialize_tree(json.dumps(doc))
    assert str(info.value) == message


def depth3_doc_and_positions():
    doc = json.loads(serialize_tree(build_tree(3, max_depth=3, bound=100)))
    return doc, {tuple(n["coeffs"]): i for i, n in enumerate(doc["nodes"])}


@pytest.mark.parametrize("bad", [2.0, True])
def test_parse_rejects_a_non_integer_coefficient_with_its_path(bad):
    # as the last coefficient and inside a prefix that is itself a node
    doc, pos = depth3_doc_and_positions()
    i = pos[(1, 2)]
    doc["nodes"][i]["coeffs"] = [1, bad]
    expect_exact_parse_error(
        doc, f"nodes[{i}].coeffs: coefficients must be positive integers, got {bad!r}"
    )
    doc, pos = depth3_doc_and_positions()
    i = pos[(1, 2, 3)]
    doc["nodes"][i]["coeffs"] = [1, bad, 3]
    expect_exact_parse_error(
        doc, f"nodes[{i}].coeffs: coefficients must be positive integers, got {bad!r}"
    )


@pytest.mark.parametrize("bad", [1.0, True])
def test_parse_rejects_a_non_integer_truant_with_its_path(bad):
    doc, pos = depth3_doc_and_positions()
    i = pos[(1, 1)]
    doc["nodes"][i]["truant"] = bad
    expect_exact_parse_error(doc, f"nodes[{i}].truant: expected an integer >= 1, got {bad!r}")


@pytest.mark.parametrize("bad", [1.0, True, -1])
def test_parse_rejects_a_bad_child_index_with_its_path(bad):
    doc, pos = depth3_doc_and_positions()
    i = pos[(1,)]
    assert doc["nodes"][i]["children"][:1] == [pos[(1, 1)]]
    doc["nodes"][i]["children"][1] = bad
    expect_exact_parse_error(
        doc, f"nodes[{i}].children[1]: expected an integer >= 0, got {bad!r}"
    )


def test_parse_rejects_node_order_violation():
    doc = valid_doc()
    doc["nodes"][0], doc["nodes"][1] = doc["nodes"][1], doc["nodes"][0]
    expect_parse_error(doc, "strictly sorted")


def test_parse_rejects_nodes_deeper_than_max_depth():
    doc = valid_doc()
    doc["max_depth"] = 1
    expect_parse_error(doc, "deeper than max_depth")


def test_parse_rejects_universal_node_with_children():
    doc = valid_doc()
    # make some childless node universal, then give it a bogus child index
    for i, node in enumerate(doc["nodes"]):
        if not node["children"]:
            node["truant"] = "universal"
            node["children"] = [0]
            break
    expect_parse_error(doc, "universal nodes have no children")


def test_parse_rejects_child_index_out_of_range():
    doc = valid_doc()
    doc["nodes"][0]["children"].append(99)
    expect_parse_error(doc, "index out of range")


def test_parse_rejects_root_listed_as_its_own_child():
    doc = valid_doc()
    doc["nodes"][0]["children"].append(0)
    expect_parse_error(doc, "does not extend parent")


def test_parse_rejects_duplicate_child_index():
    doc = valid_doc()
    doc["nodes"][0]["children"].append(doc["nodes"][0]["children"][0])
    expect_parse_error(doc, "duplicate child index")


def test_parse_rejects_universal_root():
    doc = {"m": 3, "bound": 10, "max_depth": 1,
           "nodes": [{"coeffs": [], "truant": "universal", "children": []}]}
    expect_parse_error(doc, r"nodes\[0\]\.truant: the empty form represents only 0")


def test_parse_rejects_truant_above_bound():
    doc = valid_doc()
    doc["nodes"][-1]["truant"] = doc["bound"] + 1
    expect_parse_error(doc, "truant exceeds bound")


def test_parse_ignores_child_order():
    tree = build_tree(5, max_depth=3, bound=500)
    doc = json.loads(serialize_tree(tree))
    for node in doc["nodes"]:
        node["children"].reverse()
    back = deserialize_tree(json.dumps(doc))
    assert [n.form.coeffs for n in back.nodes] == [n.form.coeffs for n in tree.nodes]
    assert [[c.form.coeffs for c in n.children] for n in back.nodes] == [
        [c.form.coeffs for c in n.children] for n in tree.nodes
    ]


def test_parse_rejects_child_that_does_not_extend_parent():
    doc = valid_doc()
    root_pos = next(i for i, n in enumerate(doc["nodes"]) if n["coeffs"] == [])
    deep_pos = next(i for i, n in enumerate(doc["nodes"]) if len(n["coeffs"]) == 2)
    doc["nodes"][root_pos]["children"] = [deep_pos]
    expect_parse_error(doc, "does not extend parent")


def test_parse_rejects_child_listed_by_two_parents():
    # only a node's one-shorter prefix can be its parent, so every node has
    # at most one incoming link, which the parser's link count relies on
    doc = json.loads(serialize_tree(build_tree(3, max_depth=3, bound=100)))
    pos = {tuple(n["coeffs"]): i for i, n in enumerate(doc["nodes"])}
    doc["nodes"][pos[(1, 1)]]["children"].append(pos[(1, 2, 2)])
    expect_parse_error(doc, "does not extend parent")


def test_parse_rejects_coefficient_outside_escalation_range():
    # the root's truant is 1, so a child coefficient of 2 is out of range;
    # [2] sorts after every [1, ...] node, so appending keeps the order valid
    doc = valid_doc()
    doc["nodes"].append({"coeffs": [2], "truant": 2, "children": []})
    root = next(n for n in doc["nodes"] if n["coeffs"] == [])
    root["children"].append(len(doc["nodes"]) - 1)
    expect_parse_error(doc, "outside the escalation range")


def test_parse_rejects_missing_root():
    doc = valid_doc()
    root_pos = next(i for i, n in enumerate(doc["nodes"]) if n["coeffs"] == [])
    del doc["nodes"][root_pos]
    for node in doc["nodes"]:
        node["children"] = [
            k - 1 if k > root_pos else k
            for k in node["children"]
            if k != root_pos
        ]
    expect_parse_error(doc, "exactly one root")


def test_parse_rejects_unreachable_nodes():
    doc = valid_doc()
    # orphan a leaf by dropping it from its parent's child list
    for node in doc["nodes"]:
        if node["children"]:
            node["children"] = node["children"][:-1]
            break
    expect_parse_error(doc, "unreachable")


# ---------------------------------------------------------------------------
# fuzzing the parser

_SMALL = st.integers(-1, 6)


@st.composite
def tree_shaped_documents(draw):
    """Documents grown like trees, so that many parse, then maybe broken:
    a child index appended to some node, and a field set to a small integer
    or a random list."""
    max_depth = draw(st.integers(0, 3))
    coeffs = [()]
    for _ in range(draw(st.integers(0, 8))):
        parent = draw(st.sampled_from(coeffs))
        lo = parent[-1] if parent else 1
        child = parent + (draw(st.integers(lo, lo + 2)),)
        if len(child) <= max_depth and child not in coeffs:
            coeffs.append(child)
    coeffs.sort()
    kids = {c: [i for i, d in enumerate(coeffs) if d[:-1] == c and d] for c in coeffs}
    nodes = []
    for c in coeffs:
        children = draw(st.permutations(kids[c]))
        reach = max((coeffs[i][-1] for i in children), default=1)
        leaf_truant = st.just("universal") if c else st.integers(1, 2)
        truant = draw(st.integers(reach, reach + 2)) if children else draw(leaf_truant)
        nodes.append({"coeffs": list(c), "truant": truant, "children": children})
    truants = [n["truant"] for n in nodes if n["truant"] != "universal"]
    doc = {"m": draw(st.integers(3, 5)), "bound": max(truants) + draw(st.integers(0, 2)),
           "max_depth": max_depth, "nodes": nodes}
    if draw(st.booleans()):
        node = draw(st.sampled_from(nodes))
        node["children"].append(draw(st.integers(0, len(nodes) - 1)))
    if draw(st.booleans()):
        target = draw(st.sampled_from([doc, *nodes]))
        key = draw(st.sampled_from(sorted(target)))
        target[key] = draw(_SMALL | st.lists(_SMALL, max_size=3))
    return doc


_NODE = st.fixed_dictionaries({
    "coeffs": st.lists(st.integers(0, 3), max_size=3),
    "truant": st.one_of(st.just("universal"), st.integers(0, 5)),
    "children": st.lists(st.integers(0, 6), max_size=4),
})
_DOCUMENTS = tree_shaped_documents() | st.fixed_dictionaries({
    "m": st.integers(2, 5),
    "bound": st.integers(0, 6),
    "max_depth": st.integers(0, 3),
    "nodes": st.lists(_NODE, max_size=7),
})
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


def parses_canonically_or_is_rejected(text):
    """Whether the parser accepts text; an accepted document must be
    accepted by the naive rule checker too and re-serialize stably, a
    rejected one must be rejected by it."""
    try:
        tree = deserialize_tree(text)
    except TreeParseError:
        assert not ref.valid_tree_document(text)
        return False
    assert ref.valid_tree_document(text)
    first = serialize_tree(tree)
    assert serialize_tree(deserialize_tree(first)) == first
    return True


@settings(max_examples=400, deadline=None)
@given(_DOCUMENTS, st.booleans())
def test_parser_fuzz_structured_documents(doc, pretty):
    # whitespace and child order are not part of the canonical form
    parses_canonically_or_is_rejected(json.dumps(doc, indent=1 if pretty else None))


@settings(max_examples=200, deadline=None)
@given(_JSON | st.text())
def test_parser_fuzz_arbitrary_json(value):
    parses_canonically_or_is_rejected(value if isinstance(value, str) else json.dumps(value))
