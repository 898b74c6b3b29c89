"""Key arithmetic: prefix and suffix truncation.

The paper (Figure 2) notes that "due to suffix truncation (suffix
compression) of separator keys in B-trees [Bayer & Unterauer 1977], the
fence keys may be very small" and that "it might be convenient to
include in one fence key the prefix truncated from all other key values
in the page".  Both optimizations are implemented here:

* :func:`shortest_separator` picks the shortest key that separates a
  left from a right record during a split (suffix truncation);
* :func:`common_prefix` of the two fence keys is the prefix stripped
  from every data key stored in a node (prefix truncation).
"""

from __future__ import annotations


def common_prefix(a: bytes, b: bytes) -> bytes:
    """Longest common prefix of two byte strings."""
    limit = min(len(a), len(b))
    i = 0
    while i < limit and a[i] == b[i]:
        i += 1
    return a[:i]


def shortest_separator(left: bytes, right: bytes) -> bytes:
    """Shortest key ``s`` with ``left < s <= right``.

    ``left`` is the largest key remaining in the left node and
    ``right`` the smallest key moving to the right node.  The returned
    separator becomes the right node's low fence and the left node's
    (post-adoption) high fence.

    Requires ``left < right``.
    """
    if not left < right:
        raise ValueError(f"separator needs left < right, got {left!r} >= {right!r}")
    prefix = common_prefix(left, right)
    # The shortest separator is the prefix plus the first byte where
    # right exceeds left... but any prefix of right longer than the
    # common prefix already exceeds left.
    candidate = right[:len(prefix) + 1]
    if left < candidate <= right:
        return candidate
    # candidate == left can only happen if right == left + suffix and
    # the extra byte made candidate equal to a prefix... in the byte
    # domain candidate > left always holds when len(prefix) < len(left)
    # is false; fall back to right itself, which always separates.
    return right


def strip_prefix(key: bytes, prefix: bytes) -> bytes:
    """Remove a known prefix (prefix truncation of stored keys)."""
    if not key.startswith(prefix):
        raise ValueError(f"key {key!r} lacks prefix {prefix!r}")
    return key[len(prefix):]
