"""Ranked trees, paths and prefixes.

This package is the foundational substrate of the reproduction: ordered
ranked trees exactly as in Section 2 of the paper, the labeled-path
machinery (``F``-paths and npaths), and the largest-common-prefix
operator ``⊔`` with the special symbol ``⊥``.

Trees are globally **hash-consed** (see :mod:`repro.trees.tree`):
structurally equal trees are the same object, so every tree is its own
minimal DAG (the paper's representation for exponential outputs).
Equality is O(1), every node has a stable never-reused ``uid``, and the
binary ``⊔`` is memoized on uid pairs.  The one obligation this places on callers: never mutate a
node or a label object stored in one.
"""

from repro.trees.alphabet import RankedAlphabet
from repro.trees.tree import (
    Tree,
    tree,
    leaf,
    parse_term,
    format_term,
    intern_stats,
    interned_count,
    reset_intern_stats,
)
from repro.trees.paths import (
    Step,
    path_to_nodes,
    node_to_path,
    belongs,
    npath_belongs,
    subtree_at_path,
    subtree_at_node,
    paths_of,
    npaths_of,
    path_order_key,
    pair_order_key,
    parent_npath,
)
from repro.trees.lcp import (
    BOTTOM,
    is_bottom,
    lcp,
    lcp_many,
    bottom_positions,
    is_prefix_of,
)
from repro.trees.substitution import (
    substitute_leaves,
    replace_at_node,
    replace_at_path,
)
from repro.trees.generate import all_trees_up_to, random_tree

__all__ = [
    "RankedAlphabet",
    "Tree",
    "tree",
    "leaf",
    "parse_term",
    "format_term",
    "intern_stats",
    "interned_count",
    "reset_intern_stats",
    "Step",
    "path_to_nodes",
    "node_to_path",
    "belongs",
    "npath_belongs",
    "subtree_at_path",
    "subtree_at_node",
    "paths_of",
    "npaths_of",
    "path_order_key",
    "pair_order_key",
    "parent_npath",
    "BOTTOM",
    "is_bottom",
    "lcp",
    "lcp_many",
    "bottom_positions",
    "is_prefix_of",
    "substitute_leaves",
    "replace_at_node",
    "replace_at_path",
    "all_trees_up_to",
    "random_tree",
]
