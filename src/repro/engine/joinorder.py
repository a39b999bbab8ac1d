"""Statistics-driven join reordering and multiway lowering.

This is the physical-rewrite pass that runs between lowering and plan
emission (:func:`repro.engine.compile.compile_expression` invokes it when
compiled with a :class:`~repro.engine.stats.PlanStatistics` provider).
It rewrites the *equality-join subgraphs* of the plan DAG — maximal trees
of ``HashJoin``/``NestedLoopProduct`` operators, bounded by shared nodes
and non-join operators, whose leaves are the join's base inputs:

1. **extract** the subgraph: leaves in syntactic order, every equality
   key pair and residual condition re-expressed in the *global*
   coordinates of the subgraph's output layout, and the equivalence
   classes the key pairs induce (transitively equal columns join
   interchangeably, which is what lets a star query join two dimensions
   through the fact table's key without a cross product);
2. **search** join orders with the cost model of
   :mod:`repro.engine.cost`: exact Selinger-style dynamic programming
   over connected subsets up to :data:`DP_LIMIT` relations (left-deep by
   default, bushy optionally), greedy cheapest-pair-first merging above;
   cross products are priced only when a subset has no connected split;
3. **lower** the chosen order, fusing every left-deep run of two or more
   keyed single-relation builds into one
   :class:`~repro.engine.plan.MultiwayHashJoin` (one hash index per
   build input, the accumulated row probes them in sequence without
   intermediate tuples); a permutation ``Project`` restores the original
   column order when it changed, and hoisted residuals plus any
   equalities not enforced as keys become one ``Filter`` on top — so the
   rewritten subtree is observably equivalent to the original.

The rewrite is adopted only when the searched order prices strictly
cheaper than the syntactic one (the permutation's cost included) or when
multiway fusion applies; otherwise the original nodes are left untouched.
Ablation: :func:`set_join_ordering`/:func:`join_ordering`, counters in
:func:`joinorder_stats` (a ``runtime_stats()`` family).
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.algebra.expressions import SelectionCondition, flatten_for_product
from repro.algebra.optimizer import conjoin, conjuncts, shift_condition
from repro.engine.cost import (
    Estimate,
    join_estimate,
    join_step_cost,
    subtree_estimate,
)
from repro.engine.plan import (
    Filter,
    HashJoin,
    MultiwayHashJoin,
    NestedLoopProduct,
    PhysicalPlan,
    PlanNode,
    Project,
)
from repro.engine.stats import PlanStatistics
from repro.types.type_system import TupleType

#: At most this many relations are ordered by exact DP; larger subgraphs
#: fall back to the greedy cheapest-pair-first search.
DP_LIMIT = 8

#: Minimum keyed single-relation builds in a left-deep run for the run to
#: lower to one MultiwayHashJoin (a 1-build run is just a HashJoin).
MIN_MULTIWAY_BUILDS = 2

_INTERIOR = (HashJoin, NestedLoopProduct)


class _JoinOrderState:
    """The process-wide join-ordering switch and engagement counters."""

    __slots__ = ("enabled", "stats")

    def __init__(self) -> None:
        self.enabled = True
        self.stats = {
            "plans_considered": 0,
            "subgraphs_considered": 0,
            "subgraphs_reordered": 0,
            "orders_unchanged": 0,
            "skipped_no_stats": 0,
            "dp_searches": 0,
            "greedy_searches": 0,
            "multiway_joins": 0,
            "relations_profiled": 0,
            "overlap_probes": 0,
            "stale_plan_recompiles": 0,
        }


_JOINORDER = _JoinOrderState()


def joinorder_enabled() -> bool:
    """Whether compilation may reorder joins and emit multiway operators."""
    return _JOINORDER.enabled


def set_join_ordering(enabled: bool) -> bool:
    """Enable/disable cost-based join ordering; returns the previous setting.

    Disabling restores the syntactic join order everywhere (plans follow
    the expression's product shape, joins stay binary ``HashJoin`` nodes);
    answers are identical in both modes — the switch trades planning
    effort for execution speed, never semantics.
    """
    previous = _JOINORDER.enabled
    _JOINORDER.enabled = bool(enabled)
    return previous


@contextmanager
def join_ordering(enabled: bool = True):
    """Context-manager form of :func:`set_join_ordering`."""
    previous = set_join_ordering(enabled)
    try:
        yield
    finally:
        set_join_ordering(previous)


def joinorder_stats() -> dict[str, int]:
    """A snapshot of the join-ordering engagement counters.

    ``plans_considered`` — compiled plans inspected for join subgraphs;
    ``subgraphs_considered`` / ``subgraphs_reordered`` /
    ``orders_unchanged`` / ``skipped_no_stats`` — per-subgraph outcomes;
    ``dp_searches`` / ``greedy_searches`` — which search ran;
    ``multiway_joins`` — MultiwayHashJoin operators emitted;
    ``relations_profiled`` / ``overlap_probes`` — statistics-layer work
    (:mod:`repro.engine.stats`); ``stale_plan_recompiles`` — cached plans
    recompiled because their statistics fingerprint drifted.
    """
    return dict(_JOINORDER.stats)


# ---------------------------------------------------------------------------
# Subgraph extraction


class _Subgraph:
    """One equality-join subgraph in global-coordinate form."""

    __slots__ = (
        "root",
        "leaves",
        "offsets",
        "widths",
        "pairs",
        "residuals",
        "original_tree",
        "classes",
        "coord_leaf",
    )

    def __init__(self, root: PlanNode) -> None:
        self.root = root
        self.leaves: list[PlanNode] = []
        self.offsets: list[int] = []
        self.widths: list[int] = []
        self.pairs: list[tuple[int, int]] = []
        self.residuals: list[SelectionCondition] = []
        self.original_tree: tuple = ()
        self.classes: list[tuple[int, ...]] = []
        self.coord_leaf: dict[int, int] = {}


def _width(node: PlanNode) -> int:
    return len(flatten_for_product(node.output_type))


def _collect_subgraph(root: PlanNode) -> _Subgraph:
    subgraph = _Subgraph(root)

    def walk(node: PlanNode, offset: int) -> tuple[tuple, int]:
        absorb = node is root or (
            isinstance(node, _INTERIOR) and node.consumers <= 1
        )
        if absorb and isinstance(node, _INTERIOR):
            left_tree, left_width = walk(node.left, offset)
            right_tree, right_width = walk(node.right, offset + left_width)
            if isinstance(node, HashJoin):
                for left_key, right_key in zip(node.left_keys, node.right_keys):
                    subgraph.pairs.append(
                        (offset + left_key, offset + left_width + right_key)
                    )
                if node.residual is not None:
                    subgraph.residuals.append(
                        shift_condition(node.residual, offset)
                    )
            return ("join", left_tree, right_tree), left_width + right_width
        index = len(subgraph.leaves)
        width = _width(node)
        subgraph.leaves.append(node)
        subgraph.offsets.append(offset)
        subgraph.widths.append(width)
        for coordinate in range(offset + 1, offset + width + 1):
            subgraph.coord_leaf[coordinate] = index
        return ("leaf", index), width

    subgraph.original_tree, _total = walk(root, 0)
    # Equality conjuncts buried in a join's residual (they did not straddle
    # that particular join's two sides, e.g. fact-to-dimension equalities
    # below a top-level join) are join edges for the *search*: lift them
    # into the pair set so the connectivity graph sees them, leaving only
    # genuinely non-key conjuncts as residuals.
    residuals: list[SelectionCondition] = []
    for residual in subgraph.residuals:
        for conjunct in conjuncts(residual):
            pair = _leaf_crossing_equality(conjunct, subgraph.coord_leaf)
            if pair is not None:
                subgraph.pairs.append(pair)
            else:
                residuals.append(conjunct)
    subgraph.residuals = residuals
    subgraph.classes = _equivalence_classes(subgraph.pairs)
    return subgraph


def _leaf_crossing_equality(
    condition: SelectionCondition, coord_leaf: dict[int, int]
) -> tuple[int, int] | None:
    """``(a, b)`` when *condition* equates coordinates of two different
    leaves (usable as a hash-join key), else ``None``."""
    if condition.kind != "eq":
        return None
    first, second = condition.operands
    if not (isinstance(first, int) and isinstance(second, int)):
        return None
    if first not in coord_leaf or second not in coord_leaf:
        return None  # pragma: no cover - all subtree coords are mapped
    if coord_leaf[first] == coord_leaf[second]:
        return None
    return (first, second)


def _equivalence_classes(pairs: list[tuple[int, int]]) -> list[tuple[int, ...]]:
    """Union-find over global coordinates linked by equality key pairs."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent.setdefault(root, root) != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for a, b in pairs:
        parent[find(a)] = find(b)
    groups: dict[int, list[int]] = {}
    for coordinate in parent:
        groups.setdefault(find(coordinate), []).append(coordinate)
    return [tuple(sorted(members)) for members in sorted(groups.values())]


def _find_subgraph_roots(plan: PhysicalPlan) -> list[PlanNode]:
    """Interior join nodes not absorbed into an enclosing join subtree."""
    sole_parent: dict[int, PlanNode] = {}
    for node in plan.nodes:
        for child in node.children():
            if child.consumers == 1:
                sole_parent[child.node_id] = node
    roots = []
    for node in plan.nodes:
        if not isinstance(node, _INTERIOR):
            continue
        parent = sole_parent.get(node.node_id)
        if parent is not None and isinstance(parent, _INTERIOR):
            continue  # absorbed into the parent's subgraph
        roots.append(node)
    return roots


# ---------------------------------------------------------------------------
# Order search


def _class_pairs(
    subgraph: _Subgraph, left_mask: int, right_mask: int
) -> list[tuple[int, int]]:
    """One representative equality per class spanning the two leaf sets."""
    pairs = []
    coord_leaf = subgraph.coord_leaf
    for members in subgraph.classes:
        left = right = None
        for coordinate in members:
            bit = 1 << coord_leaf[coordinate]
            if left is None and bit & left_mask:
                left = coordinate
            elif right is None and bit & right_mask:
                right = coordinate
            if left is not None and right is not None:
                break
        if left is not None and right is not None:
            pairs.append((left, right))
    return pairs


def _class_masks(subgraph: _Subgraph) -> list[int]:
    masks = []
    for members in subgraph.classes:
        mask = 0
        for coordinate in members:
            mask |= 1 << subgraph.coord_leaf[coordinate]
        masks.append(mask)
    return masks


def search_join_order(
    subgraph: _Subgraph,
    items: list[Estimate],
    statistics: PlanStatistics,
    bushy: bool = False,
) -> tuple[tuple, float, Estimate]:
    """The cheapest join tree over the subgraph's leaves.

    Exact dynamic programming (Selinger-style, over connected subsets;
    left-deep unless *bushy*) up to :data:`DP_LIMIT` leaves, greedy
    cheapest-pair-first merging above.  Returns ``(tree, cost, estimate)``
    where *tree* is nested ``("leaf", i)`` / ``("join", left, right)``
    with the probe side on the left.
    """
    if len(items) <= DP_LIMIT:
        _JOINORDER.stats["dp_searches"] += 1
        return _dp_search(subgraph, items, statistics, bushy)
    _JOINORDER.stats["greedy_searches"] += 1
    return _greedy_search(subgraph, items, statistics)


def _join_candidate(
    subgraph: _Subgraph,
    left: tuple[float, Estimate, tuple],
    left_mask: int,
    right: tuple[float, Estimate, tuple],
    right_mask: int,
    statistics: PlanStatistics,
) -> tuple[float, Estimate, tuple]:
    pairs = _class_pairs(subgraph, left_mask, right_mask)
    estimate = join_estimate(left[1], right[1], pairs, statistics)
    cost = (
        left[0]
        + right[0]
        + join_step_cost(left[1].rows, right[1].rows, estimate.rows)
    )
    return (cost, estimate, ("join", left[2], right[2]))


def _dp_search(
    subgraph: _Subgraph,
    items: list[Estimate],
    statistics: PlanStatistics,
    bushy: bool,
) -> tuple[tuple, float, Estimate]:
    n = len(items)
    class_masks = _class_masks(subgraph)
    best: dict[int, tuple[float, Estimate, tuple]] = {
        1 << i: (0.0, items[i], ("leaf", i)) for i in range(n)
    }

    def connected(a: int, b: int) -> bool:
        return any((mask & a) and (mask & b) for mask in class_masks)

    def splits(mask: int):
        if bushy:
            sub = (mask - 1) & mask
            while sub:
                rest = mask ^ sub
                if sub in best and rest in best:
                    yield rest, sub
                sub = (sub - 1) & mask
        else:
            for i in range(n):
                bit = 1 << i
                rest = mask ^ bit
                if bit & mask and rest in best:
                    yield rest, bit

    for mask in sorted(range(1, 1 << n), key=int.bit_count):
        if mask.bit_count() < 2:
            continue
        champion = None
        # Connected splits first; cross products only when forced.
        for require_connection in (True, False):
            for left_mask, right_mask in splits(mask):
                if require_connection != connected(left_mask, right_mask):
                    continue
                candidate = _join_candidate(
                    subgraph,
                    best[left_mask],
                    left_mask,
                    best[right_mask],
                    right_mask,
                    statistics,
                )
                if champion is None or candidate[0] < champion[0]:
                    champion = candidate
            if champion is not None:
                break
        if champion is not None:
            best[mask] = champion
    cost, estimate, tree = best[(1 << n) - 1]
    return tree, cost, estimate


def _greedy_search(
    subgraph: _Subgraph, items: list[Estimate], statistics: PlanStatistics
) -> tuple[tuple, float, Estimate]:
    """Cheapest-pair-first merging (GOO): beyond the DP limit, repeatedly
    join the pair of partial results with the lowest step cost, preferring
    connected pairs and putting the larger side on the probe."""
    components: list[tuple[int, tuple[float, Estimate, tuple]]] = [
        (1 << i, (0.0, items[i], ("leaf", i))) for i in range(len(items))
    ]
    class_masks = _class_masks(subgraph)

    def connected(a: int, b: int) -> bool:
        return any((mask & a) and (mask & b) for mask in class_masks)

    while len(components) > 1:
        champion = None
        for require_connection in (True, False):
            for i in range(len(components)):
                for j in range(i + 1, len(components)):
                    mask_i, state_i = components[i]
                    mask_j, state_j = components[j]
                    if require_connection != connected(mask_i, mask_j):
                        continue
                    # Probe the larger side, build the smaller.
                    if state_i[1].rows >= state_j[1].rows:
                        left, left_mask = state_i, mask_i
                        right, right_mask = state_j, mask_j
                    else:
                        left, left_mask = state_j, mask_j
                        right, right_mask = state_i, mask_i
                    candidate = _join_candidate(
                        subgraph, left, left_mask, right, right_mask, statistics
                    )
                    if champion is None or candidate[0] < champion[1][0]:
                        champion = ((i, j, left_mask | right_mask), candidate)
            if champion is not None:
                break
        (i, j, merged_mask), state = champion
        components = [
            component
            for index, component in enumerate(components)
            if index not in (i, j)
        ]
        components.append((merged_mask, state))
    _mask, (cost, estimate, tree) = components[0]
    return tree, cost, estimate


def _price_tree(
    subgraph: _Subgraph,
    tree: tuple,
    items: list[Estimate],
    statistics: PlanStatistics,
) -> tuple[float, Estimate, int]:
    """Price an explicit tree (used for the original syntactic order)."""
    if tree[0] == "leaf":
        index = tree[1]
        return 0.0, items[index], 1 << index
    left_cost, left_estimate, left_mask = _price_tree(
        subgraph, tree[1], items, statistics
    )
    right_cost, right_estimate, right_mask = _price_tree(
        subgraph, tree[2], items, statistics
    )
    pairs = _class_pairs(subgraph, left_mask, right_mask)
    estimate = join_estimate(left_estimate, right_estimate, pairs, statistics)
    cost = (
        left_cost
        + right_cost
        + join_step_cost(left_estimate.rows, right_estimate.rows, estimate.rows)
    )
    return cost, estimate, left_mask | right_mask


# ---------------------------------------------------------------------------
# Lowering


def _tuple_type(components: tuple) -> TupleType:
    strict = not any(isinstance(c, TupleType) for c in components)
    return TupleType(components, strict=strict)


class _Lowering:
    """Builds the physical subtree for one chosen join tree."""

    def __init__(self, subgraph: _Subgraph) -> None:
        self.subgraph = subgraph
        self.leaf_types = [
            flatten_for_product(leaf.output_type) for leaf in subgraph.leaves
        ]
        self.emitted_pairs: list[tuple[int, int]] = []
        self.multiway_nodes: list[MultiwayHashJoin] = []

    def _layout_mask(self, layout: list[int]) -> int:
        mask = 0
        for index in layout:
            mask |= 1 << index
        return mask

    def _local(self, layout: list[int], coordinate: int) -> int:
        """Position of global *coordinate* in the concatenated *layout*."""
        subgraph = self.subgraph
        leaf = subgraph.coord_leaf[coordinate]
        position = 0
        for index in layout:
            if index == leaf:
                return position + (coordinate - subgraph.offsets[leaf])
            position += subgraph.widths[index]
        raise AssertionError("coordinate outside layout")  # pragma: no cover

    def _layout_type(self, layout: list[int]) -> TupleType:
        components: list = []
        for index in layout:
            components.extend(self.leaf_types[index])
        return _tuple_type(tuple(components))

    def lower(self, tree: tuple) -> tuple[PlanNode, list[int]]:
        """Build the operator subtree for *tree*; returns (node, layout).

        Walks the left spine: consecutive keyed single-leaf additions are
        batched and flushed as one MultiwayHashJoin (or a HashJoin when
        the run has a single build); bushy right subtrees and keyless
        additions flush the pending run and join as binary operators.
        """
        if tree[0] == "leaf":
            index = tree[1]
            return self.subgraph.leaves[index], [index]
        spine = []
        node = tree
        while node[0] == "join":
            spine.append(node[2])
            node = node[1]
        spine.append(node)
        spine.reverse()

        accumulated, layout = self.lower(spine[0])
        pending: list[tuple[int, tuple[tuple[int, ...], tuple[int, ...]]]] = []
        pending_layout: list[int] = []

        def flush() -> None:
            nonlocal accumulated, layout
            if not pending:
                return
            if len(pending) >= MIN_MULTIWAY_BUILDS:
                builds = tuple(self.subgraph.leaves[i] for i, _ in pending)
                probe_keys = tuple(keys[0] for _, keys in pending)
                build_keys = tuple(keys[1] for _, keys in pending)
                new_layout = layout + pending_layout
                node = MultiwayHashJoin(
                    0,
                    self._layout_type(new_layout),
                    accumulated,
                    builds,
                    probe_keys,
                    build_keys,
                )
                self.multiway_nodes.append(node)
            else:
                index, (probe_keys, build_keys) = pending[0]
                new_layout = layout + pending_layout
                node = HashJoin(
                    0,
                    self._layout_type(new_layout),
                    accumulated,
                    self.subgraph.leaves[index],
                    probe_keys,
                    build_keys,
                    None,
                )
            accumulated, layout = node, new_layout
            pending.clear()
            pending_layout.clear()

        for addition in spine[1:]:
            staged_layout = layout + pending_layout
            if addition[0] == "leaf":
                index = addition[1]
                pairs = _class_pairs(
                    self.subgraph,
                    self._layout_mask(staged_layout),
                    1 << index,
                )
                if pairs:
                    self.emitted_pairs.extend(pairs)
                    probe_keys = tuple(
                        self._local(staged_layout, left) for left, _ in pairs
                    )
                    build_keys = tuple(
                        self._local([index], right) for _, right in pairs
                    )
                    pending.append((index, (probe_keys, build_keys)))
                    pending_layout.append(index)
                    continue
            flush()
            right_node, right_layout = self.lower(addition)
            pairs = _class_pairs(
                self.subgraph,
                self._layout_mask(layout),
                self._layout_mask(right_layout),
            )
            new_layout = layout + right_layout
            if pairs:
                self.emitted_pairs.extend(pairs)
                left_keys = tuple(self._local(layout, left) for left, _ in pairs)
                right_keys = tuple(
                    self._local(right_layout, right) for _, right in pairs
                )
                accumulated = HashJoin(
                    0,
                    self._layout_type(new_layout),
                    accumulated,
                    right_node,
                    left_keys,
                    right_keys,
                    None,
                )
            else:
                accumulated = NestedLoopProduct(
                    0, self._layout_type(new_layout), accumulated, right_node
                )
            layout = new_layout
        flush()
        return accumulated, layout


def _completeness_residuals(
    subgraph: _Subgraph, emitted_pairs: list[tuple[int, int]]
) -> list[SelectionCondition]:
    """Original equalities not implied by the emitted join keys.

    The lowering enforces one representative equality per class at each
    join; transitivity covers most of the original pairs, and whatever
    remains (e.g. two coordinates of the same relation tied into one
    class) is re-checked here as a root filter, so the rewritten subtree
    enforces exactly the original condition closure.
    """
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent.setdefault(root, root) != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for a, b in emitted_pairs:
        parent[find(a)] = find(b)
    residuals = []
    for a, b in subgraph.pairs:
        if find(a) != find(b):
            parent[find(a)] = find(b)
            residuals.append(SelectionCondition("eq", (a, b)))
    return residuals


def _permutation(subgraph: _Subgraph, layout: list[int]) -> tuple[int, ...]:
    """Project coordinates mapping the new layout back to the original."""
    position: dict[int, int] = {}
    offset = 0
    for index in layout:
        start = subgraph.offsets[index]
        for local in range(1, subgraph.widths[index] + 1):
            position[start + local] = offset + local
        offset += subgraph.widths[index]
    total = sum(subgraph.widths)
    return tuple(position[g] for g in range(1, total + 1))


def _rewrite_subgraph(
    subgraph: _Subgraph, statistics: PlanStatistics, bushy: bool
) -> PlanNode | None:
    """The replacement subtree for one subgraph, or ``None`` to keep it."""
    stats = _JOINORDER.stats
    stats["subgraphs_considered"] += 1
    items: list[Estimate] = []
    for leaf, offset in zip(subgraph.leaves, subgraph.offsets):
        estimate = subtree_estimate(leaf, statistics)
        if estimate is None:
            stats["skipped_no_stats"] += 1
            return None
        items.append(estimate.shifted(offset))

    tree, cost, estimate = search_join_order(subgraph, items, statistics, bushy)
    original_cost, _estimate, _mask = _price_tree(
        subgraph, subgraph.original_tree, items, statistics
    )
    reordered = tree != subgraph.original_tree
    if reordered:
        # Changing the layout adds a permutation projection over every
        # output row; only reorder when the win covers that price.
        if cost + estimate.rows < original_cost:
            stats["subgraphs_reordered"] += 1
        else:
            tree = subgraph.original_tree
            reordered = False
    if not reordered:
        stats["orders_unchanged"] += 1

    lowering = _Lowering(subgraph)
    root, layout = lowering.lower(tree)
    if not reordered and not lowering.multiway_nodes:
        return None  # nothing to gain; keep the original nodes
    stats["multiway_joins"] += len(lowering.multiway_nodes)

    original_order = list(range(len(subgraph.leaves)))
    if layout != original_order:
        root = Project(
            0, subgraph.root.output_type, root, _permutation(subgraph, layout)
        )
    else:
        root.output_type = subgraph.root.output_type
    residuals = list(subgraph.residuals)
    residuals.extend(_completeness_residuals(subgraph, lowering.emitted_pairs))
    if residuals:
        root = Filter(0, subgraph.root.output_type, root, conjoin(residuals))
    return root


# ---------------------------------------------------------------------------
# The pass


def reorder_plan(
    plan: PhysicalPlan, statistics: PlanStatistics, bushy: bool = False
) -> PhysicalPlan:
    """Reorder the equality-join subgraphs of *plan* in place.

    The public entry point of the pass (called by
    :func:`repro.engine.compile.compile_expression` when statistics are
    available and the :func:`set_join_ordering` switch is on).  Subgraphs
    whose searched order does not beat the syntactic one — and that offer
    no multiway fusion — are left byte-for-byte untouched; plans without
    joins are returned unchanged.  Sub-2-relation plans therefore never
    fire the rewrite: a join subgraph only exists where at least one
    binary join node does.
    """
    roots = _find_subgraph_roots(plan)
    if not roots:
        return plan
    _JOINORDER.stats["plans_considered"] += 1
    replacements: dict[int, tuple[PlanNode, PlanNode]] = {}
    notes = []
    for root in roots:
        subgraph = _collect_subgraph(root)
        if len(subgraph.leaves) < 2:
            continue  # pragma: no cover - interior joins always have >= 2
        replacement = _rewrite_subgraph(subgraph, statistics, bushy)
        if replacement is not None:
            replacements[id(root)] = (root, replacement)
            method = "dp" if len(subgraph.leaves) <= DP_LIMIT else "greedy"
            notes.append(f"join_order({len(subgraph.leaves)} relations, {method})")
    if not replacements:
        return plan
    _rebuild_plan(plan, replacements)
    plan.physical_rewrites.extend(notes)
    return plan


_CHILD_SLOTS = ("child", "left", "right", "probe")


def _rebuild_plan(
    plan: PhysicalPlan, replacements: dict[int, tuple[PlanNode, PlanNode]]
) -> None:
    """Splice the replacement subtrees in and renumber the DAG."""

    def replaced(node: PlanNode) -> PlanNode:
        entry = replacements.get(id(node))
        return entry[1] if entry is not None else node

    root = replaced(plan.root)
    nodes: list[PlanNode] = []
    visited: set[int] = set()

    def visit(node: PlanNode) -> None:
        if id(node) in visited:
            return
        visited.add(id(node))
        for slot in _CHILD_SLOTS:
            child = getattr(node, slot, None)
            if child is not None:
                setattr(node, slot, replaced(child))
        if isinstance(node, MultiwayHashJoin):
            node.builds = tuple(replaced(build) for build in node.builds)
        for child in node.children():
            visit(child)
        nodes.append(node)

    visit(root)
    for index, node in enumerate(nodes):
        node.node_id = index
        node.consumers = 0
    for node in nodes:
        for child in node.children():
            child.consumers += 1
    plan.root = root
    plan.nodes = nodes
