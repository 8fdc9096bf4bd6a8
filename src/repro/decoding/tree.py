"""Tree-structured speculation: candidate trees and single-pass verification.

Linear speculative decoding drafts a γ-token *chain* and discards the whole
tail on the first rejection.  Tree speculation (Spec-LLaVA, arXiv
2509.11961; DREAM, arXiv 2505.19201) instead drafts a candidate *tree* —
top-k branching per step, width adapted by draft-head entropy — and lets
the target verify **every** branch in one forward pass under a
tree-attention mask, so a rejection on one branch can still accept tokens
on a sibling.

This module holds the engine-agnostic pieces:

* :class:`DraftWalk` — one block's draft, grown depth-first one expansion
  at a time, and the tree-shape policy (:func:`branch_width`, the node
  budget, the depth-γ leaf rule).  A chain is the width-1 walk; the
  engine advances every session's walk in lockstep, one packed draft
  forward per expansion index.
* :class:`TreeDraft` — the serialized tree: a DFS-preorder token list plus
  a parent-pointer array (``-1`` = child of the anchor token).  The
  serialization invariant ``parents[i] < i`` is what makes the mask
  builder (:func:`repro.nn.ragged.tree_blocked`) a single forward scan
  and keeps a branch-factor-1 tree byte-for-byte equal to the linear
  draft chain.
* :func:`accept_tree` — the greedy acceptance walk: starting at the
  anchor, repeatedly take the target's argmax and descend into the child
  drafted with that exact token; the walk ends at the first position
  where no child matches, and that argmax becomes the correction (or
  bonus) token.  For a chain this reproduces
  :func:`repro.decoding.sampling.speculative_verify` under greedy configs
  exactly.
* :func:`tree_extra_blocked` — the full-width extra attention mask the
  target forward needs: committed-context columns stay open (plain
  causality already admits them) and the trailing feed columns carry the
  ancestor-closure mask, so sibling branches — which may share absolute
  positions — can never attend to each other.

The engine glue (the lockstep draft lane over the walks, the
single-forward verify + pointer-only commit/rollback) lives in
``repro.core``; pricing lives in :meth:`CostModel.tree_verify
<repro.decoding.cost_model.CostModel.tree_verify>`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import DecodingError
from ..nn.ragged import tree_blocked
from .sampling import SamplerConfig, logits_to_probs

__all__ = [
    "DraftWalk",
    "branch_width",
    "TreeDraft",
    "TreeAcceptOutcome",
    "accept_tree",
    "tree_extra_blocked",
]


def branch_width(logits: np.ndarray, max_branch: int, entropy_scale: float) -> int:
    """Entropy-adapted branch width for one tree expansion (DREAM-style).

    High draft-head entropy means the argmax continuation is unsure, so
    hedging across more children is worth the verify rows; a confident
    head keeps the tree narrow.  The width is ``1 + floor(H /
    entropy_scale)`` (H in nats, from the raw softmax over the float64
    logits), clamped to ``[1, max_branch]`` — always at least the argmax
    child, so a ``max_branch`` of 1 degenerates to the linear chain
    exactly.
    """
    if max_branch <= 1:
        return 1
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max()
    p = np.exp(z)
    p /= p.sum()
    entropy = float(-(p * np.log(np.maximum(p, 1e-300))).sum())
    return 1 + min(max_branch - 1, int(entropy / entropy_scale))


class DraftWalk:
    """One block's draft, grown depth-first one expansion at a time.

    A resumable DFS with an explicit stack.  :attr:`pending` is the next
    node to expand — ``(token, depth, ancestor_rows)``: the token fed, its
    depth below the anchor and the draft rows of its root path
    (expansion ``e`` writes draft row ``e``) — or ``None`` once the block
    is complete, when :attr:`draft` holds the :class:`TreeDraft`.
    :meth:`expand` takes the pending node's logits; the child rule ranks
    its children, each created and then immediately descended into — DFS
    preorder, so node order, draft-row order and (at width 1) the chain's
    order coincide.  Nodes at depth ``gamma`` are leaves, never expanded
    (the last drafted token's KV is never computed), and no node is
    created past ``budget``.  The caller runs each expansion, so many
    walks can share one packed forward per expansion index while each
    keeps its own order.
    """

    def __init__(self, anchor: int, gamma: int, budget: int,
                 child_rule: Callable[[np.ndarray], Sequence[int]]) -> None:
        self.gamma, self.budget, self._child_rule = gamma, budget, child_rule
        self.pending: Optional[Tuple[int, int, Tuple[int, ...]]] = (int(anchor), 0, ())
        self.draft: Optional[TreeDraft] = None
        self._nodes: List[Tuple[int, int, int]] = []   # (token, parent, depth), preorder
        self._node = -1   # node index of ``pending`` (-1: the anchor)
        self._rows = 0    # expansions so far: the next one's draft row
        #: expanded nodes with children left to create: (those children,
        #: node index, depth, root-path draft rows including its own)
        self._stack: List[Tuple[Iterator[int], int, int, Tuple[int, ...]]] = []

    @classmethod
    def tree(cls, anchor: int, gamma: int, max_branch: int, max_nodes: int,
             entropy_scale: float) -> "DraftWalk":
        """A candidate tree: the top-``w`` children (:func:`branch_width`),
        argmax first, and at least as many nodes as the ``gamma``-chain."""
        def top_children(logits: np.ndarray) -> np.ndarray:
            width = branch_width(logits, max_branch, entropy_scale)
            return np.argsort(-np.asarray(logits, dtype=np.float64), kind="stable")[:width]
        return cls(anchor, gamma, max(int(max_nodes), int(gamma)), top_children)

    @classmethod
    def chain(cls, anchor: int, gamma: int,
              sample: Callable[[np.ndarray], int]) -> "DraftWalk":
        """The ``gamma``-chain: the width-1 tree whose child is ``sample(logits)``."""
        return cls(anchor, gamma, gamma, lambda logits: (sample(logits),))

    def expand(self, logits: np.ndarray) -> None:
        """Give the pending node its logits; advance to the next node to expand."""
        _, depth, ancestors = self.pending
        self._stack.append((iter(self._child_rule(logits)), self._node, depth,
                            ancestors + (self._rows,)))
        self._rows += 1
        self.pending = None
        nodes = self._nodes
        while self._stack and self.pending is None:
            children, parent, depth, ancestors = self._stack[-1]
            child = next(children, None)
            if child is None or len(nodes) >= self.budget:
                self._stack.pop()
                continue
            self._node = len(nodes)
            nodes.append((int(child), parent, depth + 1))
            if depth + 1 < self.gamma and len(nodes) < self.budget:
                self.pending = (int(child), depth + 1, ancestors)
        if self.pending is None:
            self.draft = TreeDraft(*(tuple(column) for column in zip(*nodes)))


@dataclass(frozen=True)
class TreeDraft:
    """A serialized candidate tree produced by the draft head.

    ``tokens[i]`` is node ``i``'s drafted token id; ``parents[i]`` is the
    index of its parent node, with ``-1`` meaning a child of the *anchor*
    (the last committed token, which is fed as row 0 of the verification
    feed so the feed row of node ``i`` is ``i + 1``).  Nodes are listed in
    DFS preorder — ``parents[i] < i`` always — and siblings appear in
    draft-head rank order, so the first child of any parent carries that
    parent's argmax continuation.  ``depths[i]`` is the 1-based root-path
    depth: node ``i`` sits at absolute position ``anchor_position +
    depths[i]``.
    """

    tokens: Tuple[int, ...]
    parents: Tuple[int, ...]
    depths: Tuple[int, ...]

    def __post_init__(self) -> None:
        """Validate the DFS serialization invariants."""
        if not (len(self.tokens) == len(self.parents) == len(self.depths)):
            raise DecodingError(
                f"tree arrays disagree: {len(self.tokens)} tokens, "
                f"{len(self.parents)} parents, {len(self.depths)} depths"
            )
        for i, (p, d) in enumerate(zip(self.parents, self.depths)):
            if not -1 <= p < i:
                raise DecodingError(
                    f"node {i} has parent {p}; DFS preorder requires -1 <= parent < node"
                )
            expected = 1 if p == -1 else self.depths[p] + 1
            if d != expected:
                raise DecodingError(
                    f"node {i} at depth {d}, but its parent implies depth {expected}"
                )

    @property
    def n_nodes(self) -> int:
        """Number of drafted nodes (the anchor is not a node)."""
        return len(self.tokens)

    @property
    def max_depth(self) -> int:
        """Deepest root path in the tree; 0 for an empty tree."""
        return max(self.depths) if self.depths else 0

    @property
    def is_chain(self) -> bool:
        """True when the tree is a linear chain (branch factor 1 throughout)."""
        return all(p == i - 1 for i, p in enumerate(self.parents))

    def children(self) -> Dict[int, List[int]]:
        """Children of each node (and of the anchor, keyed ``-1``), rank-ordered.

        Scanning nodes in index order preserves sibling rank order because
        the DFS construction creates each child before descending into it.
        """
        out: Dict[int, List[int]] = {}
        for i, p in enumerate(self.parents):
            out.setdefault(int(p), []).append(i)
        return out

    def feed_positions(self, anchor_position: int) -> np.ndarray:
        """Absolute positions of the verification feed ``[anchor] + nodes``."""
        return np.asarray(
            [anchor_position] + [anchor_position + d for d in self.depths],
            dtype=np.int64,
        )


@dataclass(frozen=True)
class TreeAcceptOutcome:
    """Result of the greedy acceptance walk over one verified tree."""

    path: Tuple[int, ...]       # node indices of the accepted root path, in order
    accepted: Tuple[int, ...]   # their token ids
    next_token: int             # correction token (or bonus when the walk
                                # ran off the deepest matching node)

    @property
    def n_accepted(self) -> int:
        """Number of drafted tokens that survived verification."""
        return len(self.accepted)

    @property
    def tokens_emitted(self) -> int:
        """Tokens committed by this block: accepted drafts + the next token."""
        return len(self.accepted) + 1


def accept_tree(
    tree: TreeDraft,
    target_logits: np.ndarray,
    config: SamplerConfig,
) -> TreeAcceptOutcome:
    """Walk the longest root path whose tokens match the target's argmax.

    ``target_logits`` is the ``(1 + n_nodes, vocab)`` output of the single
    tree-verification forward, row-aligned with the feed ``[anchor] +
    nodes``: row 0 is the target's continuation of the anchor, row
    ``i + 1`` its continuation of node ``i``.  Starting at the anchor, the
    walk repeatedly computes the greedy target token for the current row
    (via :func:`logits_to_probs`, so non-finite hardening matches the
    linear verify path) and descends into the child drafted with exactly
    that token; when no child matches, that target token is emitted as the
    correction — or, past a leaf, the bonus — token.  Every step of the
    walk is exactly one accepted token, so for a chain tree the outcome
    coincides with greedy :func:`~repro.decoding.sampling.speculative_verify`.

    Only greedy configs are supported: stochastic tree acceptance needs a
    multi-branch residual scheme that is out of scope here, and the engine
    gates tree speculation on ``sampler.config.greedy`` accordingly.
    """
    if not config.greedy:
        raise DecodingError("tree acceptance is defined for greedy configs only")
    target_logits = np.asarray(target_logits)
    if target_logits.ndim != 2 or target_logits.shape[0] != tree.n_nodes + 1:
        raise DecodingError(
            f"need {tree.n_nodes + 1} target logit rows for {tree.n_nodes} "
            f"tree nodes, got {target_logits.shape}"
        )
    children = tree.children()
    path: List[int] = []
    current = -1
    while True:
        row = 0 if current == -1 else current + 1
        probs = logits_to_probs(target_logits[row], config)
        target_token = int(np.argmax(probs))
        next_node: Optional[int] = None
        for child in children.get(current, ()):  # rank order: argmax child first
            if tree.tokens[child] == target_token:
                next_node = child
                break
        if next_node is None:
            return TreeAcceptOutcome(
                path=tuple(path),
                accepted=tuple(tree.tokens[i] for i in path),
                next_token=target_token,
            )
        path.append(next_node)
        current = next_node


def tree_extra_blocked(parents: Sequence[int], n_cache: int) -> np.ndarray:
    """Full-width extra mask for a tree-verification forward.

    Returns a ``(1 + n, n_cache + 1 + n)`` boolean array (``n`` nodes,
    ``n_cache`` committed-context keys) suitable for the model's
    ``extra_blocked`` hook, which ORs it with the causal mask: the
    committed-context columns are all ``False`` (causality already admits
    them — every cached position precedes the anchor) and the trailing
    feed columns carry :func:`repro.nn.ragged.tree_blocked`, so each node
    attends to the committed context, the anchor, and its root-path
    ancestors only.  For a chain the feed part equals the causal rule and
    the OR is a no-op, preserving bitwise identity with linear verify.
    """
    n_feed = len(parents) + 1
    extra = np.zeros((n_feed, n_cache + n_feed), dtype=bool)
    extra[:, n_cache:] = tree_blocked(parents)
    return extra
