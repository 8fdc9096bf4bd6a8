"""Tree-structured speculation: one draft walk and one acceptance rule.

Linear speculative decoding drafts a γ-token *chain* and discards the whole
tail on the first rejection.  Tree speculation (Spec-LLaVA, arXiv
2509.11961; DREAM, arXiv 2505.19201) instead drafts a candidate *tree* and
lets the target verify **every** branch in one forward pass under a
tree-attention mask, so a rejection on one branch can still accept tokens
on a sibling.  A chain is the width-1 tree and greedy decoding is the
one-hot case of sampling, so one child rule and one walk decide every
block — chain or tree, greedy or sampled.

**The child rule** (:class:`DraftWalk`).  An expanded node gets ``w``
children, ``w`` = :func:`branch_width` of its draft logits (always 1 for a
chain).  Under greedy they are the top-``w`` tokens by logits, and no draft
distribution is built.  Under sampling they are ``w`` draws *without
replacement* from ``q = logits_to_probs(logits, config)``, and ``q`` is
recorded per expansion (:attr:`DraftWalk.probs`); at ``w = 1`` that is one
``rng.choice`` from ``q``.

**The walk** (:func:`speculative_verify`).  Start at the anchor with ``p``
the target's distribution there.  Try the children in draft order: accept
child ``c`` with probability ``min(1, p(c) / q(c))`` and descend into it.
On a rejection set ``p ← norm(max(p − q, 0))``, and drop ``c`` from ``q``
and renormalise — the next sibling was drawn from ``q`` without ``c``.
When every child is rejected the correction token is drawn from ``p``;
past a leaf the bonus token is.  Each try is one exact speculative-sampling
step (Leviathan et al., 2023) against the current residual, so the
committed tokens are distributed exactly as the target's: this is the
multi-candidate rejection sampling of SpecInfer (arXiv 2305.09781) and
Sequoia (arXiv 2402.12374).

**Greedy is the one-hot case.**  Under greedy ``p`` is one-hot at the
target's argmax, so every ratio is 0 or ≥ 1 and a rejected child leaves
``p`` as it was: the walk descends into the child drafted with the argmax,
and otherwise emits the argmax.  It draws nothing from the random stream
and needs no ``q``.

**Why sampled siblings, not top-k.**  The accept test is exact only for a
child that was *drawn* from the ``q`` it divides by.  A top-k child is
fixed: the argmax child with ``p(c) = 0.5 ≤ q(c) = 0.6`` would be tried
every time and kept with probability 0.83, not 0.5.  Greedy trees keep
top-k because a one-hot ``p`` accepts exactly the argmax token, whichever
rule proposed it.

Also here: :class:`TreeDraft`, the serialized tree (DFS preorder plus
parent pointers), and :func:`tree_extra_blocked`, the ancestor-closure
mask of the verify forward.  The engine glue — the lockstep draft lane
over the walks, the single verify forward and the commit — lives in
``repro.core``; a tree is priced per fed row like any verify feed
(:meth:`CostModel.target_verify
<repro.decoding.cost_model.CostModel.target_verify>`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import DecodingError
from ..nn.ragged import tree_blocked
from .sampling import SamplerConfig, logits_to_probs

__all__ = [
    "DraftWalk",
    "branch_width",
    "TreeDraft",
    "VerifyOutcome",
    "speculative_verify",
    "tree_extra_blocked",
]

_GREEDY = SamplerConfig()


def branch_width(logits: np.ndarray, max_branch: int, entropy_scale: float) -> int:
    """Entropy-adapted branch width for one tree expansion (DREAM-style).

    High draft-head entropy means the argmax continuation is unsure, so
    hedging across more children is worth the verify rows; a confident
    head keeps the tree narrow.  The width is ``1 + floor(H /
    entropy_scale)`` (H in nats, from the raw softmax over the float64
    logits), clamped to ``[1, max_branch]`` — always at least one child,
    so a ``max_branch`` of 1 degenerates to the linear chain exactly.
    """
    if max_branch <= 1:
        return 1
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max()
    p = np.exp(z)
    p /= p.sum()
    entropy = float(-(p * np.log(np.maximum(p, 1e-300))).sum())
    return 1 + min(max_branch - 1, int(entropy / entropy_scale))


def _without(q: np.ndarray, token: int) -> Optional[np.ndarray]:
    """``q`` given that ``token`` was not drawn; ``None`` when no mass is left."""
    rest = np.where(np.arange(q.size) == token, 0.0, q)
    total = rest.sum()
    return rest / total if total > 0.0 else None


class DraftWalk:
    """One block's draft, grown depth-first one expansion at a time.

    A resumable DFS with an explicit stack.  :attr:`pending` is the next
    node to expand — ``(token, depth, ancestor_rows)``: the token fed, its
    depth below the anchor and the draft rows of its root path
    (expansion ``e`` writes draft row ``e``) — or ``None`` once the block
    is complete, when :attr:`draft` holds the :class:`TreeDraft`.
    :meth:`expand` takes the pending node's logits; the child rule (module
    docstring) picks its children, each created and then immediately
    descended into — DFS preorder, so node order, draft-row order,
    expansion order and (at width 1) the chain's order coincide.  Nodes
    at depth ``gamma`` are leaves, never expanded (the last drafted
    token's KV is never computed), and no node is created past
    ``max(max_nodes, gamma)``.  The defaults draft the greedy
    ``gamma``-chain.  The caller runs each expansion, so many walks can
    share one packed forward per expansion index while each keeps its own
    order.
    """

    def __init__(self, anchor: int, gamma: int, *, max_branch: int = 1,
                 max_nodes: int = 0, entropy_scale: float = 1.0,
                 config: SamplerConfig = _GREEDY,
                 rng: Optional[np.random.Generator] = None) -> None:
        self.gamma, self.budget = gamma, max(int(max_nodes), int(gamma))
        self.max_branch, self.entropy_scale = max_branch, entropy_scale
        self.config, self.rng = config, rng
        #: under sampling, the draft distribution of each expansion, in order
        self.probs: List[np.ndarray] = []
        self.pending: Optional[Tuple[int, int, Tuple[int, ...]]] = (int(anchor), 0, ())
        self.draft: Optional[TreeDraft] = None
        self._nodes: List[Tuple[int, int, int]] = []   # (token, parent, depth), preorder
        self._node = -1   # node index of ``pending`` (-1: the anchor)
        self._rows = 0    # expansions so far: the next one's draft row
        #: expanded nodes with children left to create: (those children,
        #: node index, depth, root-path draft rows including its own)
        self._stack: List[Tuple[Iterator[int], int, int, Tuple[int, ...]]] = []

    def _children(self, logits: np.ndarray) -> Sequence[int]:
        """The child rule: top-``w`` under greedy, ``w`` draws without replacement otherwise."""
        width = branch_width(logits, self.max_branch, self.entropy_scale)
        if self.config.greedy:
            return np.argsort(-np.asarray(logits, dtype=np.float64), kind="stable")[:width]
        q = logits_to_probs(logits, self.config)
        self.probs.append(q)
        drawn = [int(self.rng.choice(q.size, p=q))]
        while len(drawn) < width and (q := _without(q, drawn[-1])) is not None:
            drawn.append(int(self.rng.choice(q.size, p=q)))
        return drawn

    def expand(self, logits: np.ndarray) -> None:
        """Give the pending node its logits; advance to the next node to expand."""
        _, depth, ancestors = self.pending
        self._stack.append((iter(self._children(logits)), self._node, depth,
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
    draft order: rank order under greedy, so the first child of any
    parent carries that parent's argmax continuation, and draw order
    under sampling.  ``depths[i]`` is the 1-based root-path depth: node
    ``i`` sits at absolute position ``anchor_position + depths[i]``.
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

    @classmethod
    def chain(cls, tokens: Sequence[int]) -> "TreeDraft":
        """The width-1 tree of a linear draft ``tokens``."""
        n = len(tokens)
        return cls(tuple(int(t) for t in tokens), tuple(range(-1, n - 1)),
                   tuple(range(1, n + 1)))

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
        """Children of each node (and of the anchor, keyed ``-1``), in draft order.

        Scanning nodes in index order preserves sibling order because the
        DFS construction creates each child before descending into it.
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
class VerifyOutcome:
    """Result of verifying one drafted block, chain or tree."""

    accepted: Tuple[int, ...]   # token ids of the accepted root path, in order
    next_token: int             # correction token (or bonus if all accepted)
    all_accepted: bool          # the walk ran past a leaf
    path: Tuple[int, ...]       # node indices of the accepted root path

    @property
    def n_accepted(self) -> int:
        """Number of drafted tokens that survived verification."""
        return len(self.accepted)

    @property
    def tokens_emitted(self) -> int:
        """Tokens produced by this block: accepted drafts + the next token."""
        return len(self.accepted) + 1


def _draw(p: np.ndarray, config: SamplerConfig, rng: Optional[np.random.Generator]) -> int:
    """One token from the target distribution ``p``: its argmax under greedy."""
    return int(np.argmax(p)) if config.greedy else int(rng.choice(p.size, p=p))


def speculative_verify(
    tree: TreeDraft,
    draft_probs: Sequence[np.ndarray],
    target_logits: np.ndarray,
    config: SamplerConfig,
    rng: Optional[np.random.Generator],
) -> VerifyOutcome:
    """Accept/reject a drafted block against the target: the one acceptance rule.

    Runs the walk of the module docstring.  ``target_logits`` is the
    ``(1 + n_nodes, vocab)`` output of the verify forward, row-aligned
    with the feed ``[anchor] + nodes``: row 0 is the target's continuation
    of the anchor, row ``i + 1`` its continuation of node ``i``.
    ``draft_probs`` holds the draft distribution of each expanded node (the
    anchor, then every node with children, in index order:
    :attr:`DraftWalk.probs`); for a chain that is the ``(gamma, vocab)``
    stack whose row ``i`` node ``i`` was drawn from.  It is not read under
    greedy configs, where ``rng`` may be ``None`` too.

    Two guards keep a sampled walk lossless whatever the drafter produced:
    a corrupt ``q`` (NaN/Inf, or no mass) ends the node's tries and draws
    from ``p``; a child with ``q(c) <= 0`` takes no accept draw and is
    kept exactly when ``p(c) > 0``.  A rejection that leaves no residual
    mass (``p`` equal to ``q``) keeps ``p``: any target sample is valid.
    """
    target_logits = np.asarray(target_logits)
    if target_logits.ndim != 2 or target_logits.shape[0] != tree.n_nodes + 1:
        raise DecodingError(
            f"need {tree.n_nodes + 1} target logit rows for {tree.n_nodes} "
            f"draft nodes, got {target_logits.shape}"
        )
    children = tree.children()
    if not config.greedy and len(draft_probs) != len(children):
        raise DecodingError(
            f"need {len(children)} draft prob rows (one per expanded node), "
            f"got {len(draft_probs)}"
        )
    expansion = {node: row for row, node in enumerate(sorted(children))}   # draft_probs rows
    path: List[int] = []
    node = -1
    while True:
        p = logits_to_probs(target_logits[node + 1], config)
        kids = children.get(node)
        if not kids:   # past a leaf: the bonus token
            return VerifyOutcome(tuple(tree.tokens[i] for i in path),
                                 _draw(p, config, rng), True, tuple(path))
        q = None if config.greedy else np.asarray(draft_probs[expansion[node]], np.float64)
        child, p = _try_children(kids, tree.tokens, p, q, config, rng)
        if child is None:   # every child rejected: the correction token
            return VerifyOutcome(tuple(tree.tokens[i] for i in path),
                                 _draw(p, config, rng), False, tuple(path))
        path.append(child)
        node = child


def _try_children(kids: Sequence[int], tokens: Sequence[int], p: np.ndarray,
                  q: Optional[np.ndarray], config: SamplerConfig,
                  rng: Optional[np.random.Generator]) -> Tuple[Optional[int], np.ndarray]:
    """Try one node's children in draft order: the accepted child (or ``None``), and ``p``."""
    for k, child in enumerate(kids):
        token = tokens[child]
        if config.greedy:
            if p[token] > 0.0:   # one-hot p: every ratio is 0 or >= 1
                return child, p
            continue             # and a rejection leaves p as it was
        if q is None or not (np.isfinite(q).all() and 0.0 < float(q.sum()) < np.inf):
            return None, p       # corrupt draft distribution: draw from p
        if q[token] <= 0.0:
            keep = p[token] > 0.0
        else:
            keep = rng.random() < min(1.0, p[token] / q[token])
        if keep:
            return child, p
        residual = np.maximum(p - q, 0.0)
        total = residual.sum()
        if total > 0.0:
            p = residual / total
        if k + 1 < len(kids):
            q = _without(q, token)
    return None, p


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
