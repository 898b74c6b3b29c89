"""Foster B-tree with symmetric fence keys.

This package implements the index structure the paper uses to make
*continuous* failure detection a side effect of normal query
processing (Section 4.2, Figures 2 and 3):

* every node carries a **low and a high fence key** — copies of the
  separator keys posted in the parent when the node was split;
* branch records hold the *low* boundary of each child, so that the two
  key values adjacent to a child pointer are exactly the child's fence
  keys, verified on every root-to-leaf pass;
* node splits are local: the split-off right half becomes a **foster
  child** of the original node (the temporary *foster parent*), later
  *adopted* by the permanent parent; each foster parent carries the
  high fence of the entire chain;
* every node has exactly **one incoming pointer** at all times
  (write-optimized-B-tree style), so each hop checks a node against
  the one parent or foster parent that points to it;
* structural changes (split, adoption, ghost removal) run as system
  transactions.
"""

from repro.btree.keys import common_prefix, shortest_separator
from repro.btree.node import BTreeNode, DATA_START
from repro.btree.tree import FosterBTree, TreeContext
from repro.btree.verify import VerificationReport, verify_node, verify_tree

__all__ = [
    "FosterBTree",
    "TreeContext",
    "BTreeNode",
    "DATA_START",
    "common_prefix",
    "shortest_separator",
    "verify_tree",
    "verify_node",
    "VerificationReport",
]
