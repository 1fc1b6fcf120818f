"""Escalator trees for sums of generalized m-gonal numbers.

The root is the empty form, whose truant (smallest unrepresented positive
integer) is 1.  A node with truant t and last coefficient a_n has one child
for every coefficient a_{n+1} in [a_n, t]: each such extension represents t
as (t - a_{n+1}) + a_{n+1} * P_m(1), because P_m(1) = 1 and t - a_{n+1} < t
is already represented.  A coefficient above t cannot help, since its
nonzero multiples all exceed t, which is why the range is capped at the
truant.  The maximum truant over a fully built tree is the empirical
gamma-value for m: every universal form's coefficients dominate some path,
so every truant is a certificate that universal forms must represent it.

Trees are bounded twice over: representation testing is relative to a bound
B (so "universal" leaves are B-universal, an empirical flag), and expansion
stops at max_depth.  A tree is *complete* when every node that is not
B-universal has its whole escalation range as children; only then is the
gamma estimate an empirical value rather than a lower bound.

Each node's children get their truants from one pass over its represented
set in [0, B]: whether k is represented by a child depends only on the
parent's values up to k, so a fold over a window [0, w] that grows until it
holds a missing value (or reaches B) decides the child's truant.  Only a
child that gets children of its own (it has a truant and lies above
max_depth) has its whole set folded.  build_tree and walk_summary read
one breadth-first walk that keeps no more than those sets.
"""

from __future__ import annotations

from collections import deque
from reprlib import recursive_repr  # loaded by collections already

from .errors import ResourceCapError, TreeParseError
from .polygonal import (
    DEFAULT_BOUND,
    PolygonalForm,
    _check_int,
    _extended_truants,
    extend_set,
    represented_set,
)

DEFAULT_NODE_CAP = 10**6
_UNIVERSAL = "universal"
_NODE_KEYS = frozenset({"coeffs", "truant", "children"})


class EscalatorNode:
    """A form, its truant (None when it is B-universal) and its children.
    Mutable and unhashable; equal to a node with equal fields."""

    __slots__ = ("form", "truant", "children")
    __match_args__ = ("form", "truant")

    def __init__(
        self,
        form: PolygonalForm,
        truant: int | None,
        *,
        children: list[EscalatorNode] | None = None,
    ) -> None:
        self.form = form
        self.truant = truant
        self.children = [] if children is None else children

    @recursive_repr()
    def __repr__(self) -> str:
        return (
            f"EscalatorNode(form={self.form!r}, truant={self.truant!r}, "
            f"children={self.children!r})"
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.form, self.truant, self.children) == (
            other.form, other.truant, other.children
        )

    @property
    def depth(self) -> int:
        return self.form.n


class EscalatorTree:
    """A tree's parameters and its nodes in breadth-first order, root first.
    Mutable and unhashable; equal to a tree with equal fields."""

    __match_args__ = ("m", "bound", "max_depth", "nodes")

    def __init__(self, m: int, bound: int, max_depth: int, nodes: list[EscalatorNode]) -> None:
        self.m = m
        self.bound = bound
        self.max_depth = max_depth
        self.nodes = nodes

    @recursive_repr()
    def __repr__(self) -> str:
        return (
            f"EscalatorTree(m={self.m!r}, bound={self.bound!r}, "
            f"max_depth={self.max_depth!r}, nodes={self.nodes!r})"
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.m, self.bound, self.max_depth, self.nodes) == (
            other.m, other.bound, other.max_depth, other.nodes
        )

    @property
    def root(self) -> EscalatorNode:
        return self.nodes[0]

    @property
    def truants(self) -> list[int]:
        """The distinct truants of the nodes, ascending: S_m when the tree
        is complete.  The root's truant, 1, keeps the list nonempty."""
        return sorted({n.truant for n in self.nodes if n.truant is not None})

    @property
    def gamma_estimate(self) -> int:
        """Largest truant; only a lower bound unless complete."""
        return self.truants[-1]

    @property
    def complete(self) -> bool:
        """Whether every node that is not B-universal has a child for each
        coefficient of its escalation range."""
        return all(
            n.truant is None or len(n.children) == len(_escalation_range(n))
            for n in self.nodes
        )


def _escalation_range(node: EscalatorNode) -> range:
    """Coefficients that escalate a node with a truant t: from its last
    coefficient (1 for the empty form) up to t.  Each k in the range
    represents t as (t - k) + k * P_m(1), with P_m(1) = 1."""
    lo = node.form.coeffs[-1] if node.form.coeffs else 1
    return range(lo, node.truant + 1)


def _walk(m: int, max_depth: int, bound: int, node_cap: int):
    """build_tree's nodes in its order, as (parent position, depth,
    coefficient, truant), the root's (None, 0, None, 1), after checking the
    arguments of both readers.  The queue holds only expanding nodes' sets."""
    _check_int(max_depth, "max_depth")
    _check_int(bound, "bound")
    _check_int(node_cap, "node_cap")
    if max_depth < 0:
        raise ValueError("max_depth must be nonnegative")
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if node_cap < 1:
        raise ValueError("node_cap must be >= 1")
    rep = represented_set(PolygonalForm(m, ()), bound)
    yield None, 0, None, rep.truant()
    queue = deque([(0, 0, 1, rep.truant(), rep)] if max_depth else [])
    position = 0
    while queue:  # (position, depth, last coefficient, truant, set)
        parent, depth, lo, t, rep = queue.popleft()
        depth += 1
        coeffs = range(lo, t + 1)  # the escalation range
        for k, truant in zip(coeffs, _extended_truants(rep, m, coeffs)):
            yield parent, depth, k, truant
            position += 1
            if truant is not None and depth < max_depth:
                queue.append((position, depth, k, truant, extend_set(rep, m, k)))


def build_tree(
    m: int,
    max_depth: int = 4,
    bound: int = DEFAULT_BOUND,
    *,
    node_cap: int = DEFAULT_NODE_CAP,
) -> EscalatorTree:
    """Breadth-first escalator tree down to max_depth.

    Children are generated in ascending coefficient order, so the node list
    is deterministic.  A tree of more than node_cap nodes raises
    ResourceCapError; leaves count toward the cap like every node.
    """
    nodes: list[EscalatorNode] = []
    for parent, _, k, truant in _walk(m, max_depth, bound, node_cap):
        if len(nodes) == node_cap:
            raise ResourceCapError(f"escalator tree for m={m} exceeded node cap {node_cap}")
        if parent is None:
            nodes.append(EscalatorNode(PolygonalForm(m, ()), truant))
        else:
            child = EscalatorNode(nodes[parent].form.extend(k), truant)
            nodes[parent].children.append(child)
            nodes.append(child)
    return EscalatorTree(m, bound, max_depth, nodes)


def walk_summary(
    m: int, max_depth: int = 4, bound: int = DEFAULT_BOUND, *, node_cap: int = DEFAULT_NODE_CAP
) -> tuple[list[int], int, bool]:
    """(truants, len(nodes), complete) of build_tree's tree cut to its first
    node_cap nodes, without the tree: S_m, ascending, when complete.  The
    cut tree is complete when it is whole and no max_depth node has a truant."""
    truants: set[int] = set()
    nodes, complete = 0, True
    for _, depth, _, truant in _walk(m, max_depth, bound, node_cap):
        if nodes == node_cap:
            return sorted(truants), nodes, False
        nodes += 1
        if truant is not None:
            truants.add(truant)
            complete = complete and depth < max_depth
    return sorted(truants), nodes, complete


def serialize_tree(tree: EscalatorTree) -> str:
    """Deterministic JSON document for a tree.

    Nodes are sorted lexicographically by coefficient vector and children
    are stored as indices into that flat array, so serialization is a pure
    function of the tree's content.
    """
    import json

    order = sorted(range(len(tree.nodes)), key=lambda i: tree.nodes[i].form.coeffs)
    position = {id(tree.nodes[i]): pos for pos, i in enumerate(order)}
    doc_nodes = []
    for i in order:
        node = tree.nodes[i]
        doc_nodes.append(
            {
                "coeffs": list(node.form.coeffs),
                "truant": _UNIVERSAL if node.truant is None else node.truant,
                "children": sorted(position[id(ch)] for ch in node.children),
            }
        )
    doc = {
        "m": tree.m,
        "bound": tree.bound,
        "max_depth": tree.max_depth,
        "nodes": doc_nodes,
    }
    return json.dumps(doc, separators=(",", ":"))


def _parse_error(path: str, why: str) -> TreeParseError:
    return TreeParseError(f"{path}: {why}")


def _require_int(value, path: str, minimum: int) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise _parse_error(path, f"expected an integer >= {minimum}, got {value!r}")
    return value


def deserialize_tree(text: str) -> EscalatorTree:
    """Parse a tree document produced by serialize_tree.

    Validation is structural (field types, truants within the bound, sorted
    canonical node order, parent/child coefficient linkage, one tree);
    semantic facts such as truant correctness are the builder's job, not the
    parser's.  A checked link extends its parent by one coefficient, so no
    node has two parents and the sorted nodes form one tree rooted at the
    first node exactly when there are len(nodes) - 1 links.
    """
    import json

    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too-long integers, deep nesting
        raise _parse_error("document", f"invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise _parse_error("document", "expected a JSON object")
    expected = {"m", "bound", "max_depth", "nodes"}
    if set(doc) != expected:
        raise _parse_error(
            "document", f"expected exactly keys {sorted(expected)}, got {sorted(doc)}"
        )
    m = _require_int(doc["m"], "m", 3)
    bound = _require_int(doc["bound"], "bound", 1)
    max_depth = _require_int(doc["max_depth"], "max_depth", 0)
    raw_nodes = doc["nodes"]
    if not isinstance(raw_nodes, list) or not raw_nodes:
        raise _parse_error("nodes", "expected a nonempty array")

    # Per node, one C-level test per field clears the usual case; an error's
    # path and message are built only once a check has failed.
    parsed: list[EscalatorNode] = []
    child_indices: list[list[int]] = []
    prev_coeffs: tuple[int, ...] | None = None
    for idx, raw in enumerate(raw_nodes):
        if type(raw) is not dict or raw.keys() != _NODE_KEYS:
            raise _parse_error(
                f"nodes[{idx}]", "expected keys ['children', 'coeffs', 'truant']"
            )
        raw_coeffs = raw["coeffs"]
        if type(raw_coeffs) is not list:
            raise _parse_error(f"nodes[{idx}].coeffs", "expected an array")
        try:
            form = PolygonalForm(m, tuple(raw_coeffs))
        except ValueError as exc:
            raise _parse_error(f"nodes[{idx}].coeffs", str(exc)) from exc
        coeffs = form.coeffs
        if len(coeffs) > max_depth:
            raise _parse_error(f"nodes[{idx}].coeffs", "node deeper than max_depth")
        if prev_coeffs is not None and coeffs <= prev_coeffs:
            raise _parse_error(
                f"nodes[{idx}].coeffs", "nodes must be strictly sorted lexicographically"
            )
        prev_coeffs = coeffs
        node_truant = raw["truant"]
        if node_truant == _UNIVERSAL and coeffs:
            node_truant = None
        elif type(node_truant) is not int or not 1 <= node_truant <= bound:
            path = f"nodes[{idx}].truant"
            if node_truant == _UNIVERSAL:
                raise _parse_error(path, "the empty form represents only 0")
            node_truant = _require_int(node_truant, path, 1)
            if node_truant > bound:
                raise _parse_error(path, f"truant exceeds bound {bound}")
        kids = raw["children"]
        if type(kids) is not list:
            raise _parse_error(f"nodes[{idx}].children", "expected an array")
        if kids:
            if set(map(type, kids)) != {int} or min(kids) < 0:
                for j, k in enumerate(kids):
                    _require_int(k, f"nodes[{idx}].children[{j}]", 0)
            if len(set(kids)) != len(kids):
                raise _parse_error(f"nodes[{idx}].children", "duplicate child index")
            if node_truant is None:
                raise _parse_error(
                    f"nodes[{idx}].children", "universal nodes have no children"
                )
        parsed.append(EscalatorNode(form, node_truant))
        child_indices.append(kids)

    for idx, kids in enumerate(child_indices):
        if not kids:
            continue
        parent = parsed[idx]
        # the parent's coefficients, its children's depth and its escalation
        # range, once per parent
        prefix = parent.form.coeffs
        depth = len(prefix) + 1
        span = _escalation_range(parent)
        for j, k in enumerate(kids):
            if k >= len(parsed):
                raise _parse_error(f"nodes[{idx}].children[{j}]", "index out of range")
            coeffs = parsed[k].form.coeffs
            if len(coeffs) != depth or coeffs[:-1] != prefix:
                raise _parse_error(
                    f"nodes[{idx}].children[{j}]",
                    "child does not extend parent by one coefficient",
                )
            if coeffs[-1] not in span:
                raise _parse_error(
                    f"nodes[{idx}].children[{j}]",
                    "child coefficient outside the escalation range",
                )
        parent.children.extend(parsed[k] for k in sorted(kids))  # ascending, as build_tree

    if parsed[0].form.coeffs:
        raise _parse_error("nodes", "expected exactly one root (empty coefficient list)")
    if sum(map(len, child_indices)) != len(parsed) - 1:
        raise _parse_error("nodes", "some nodes are unreachable from the root")
    # breadth-first order as build_tree makes it: lexicographic within a depth
    parsed.sort(key=lambda n: len(n.form.coeffs))
    return EscalatorTree(m, bound, max_depth, parsed)
