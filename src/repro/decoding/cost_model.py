"""Calibrated latency model for simulated wall-clock metrics.

Why a cost model
----------------
The paper measures walltime speedup of LLaVA-7B/13B on GPU hardware, where
(1) a single decode step of a 7B target costs ~31 ms, (2) a small draft step
costs a ~4x smaller but far-from-proportional amount (kernel-launch and
memory-bandwidth floors), and (3) verifying gamma tokens in one forward
costs much less than gamma sequential steps (parallel utilisation).  None
of these ratios hold for 1M-parameter numpy models on a CPU, so charging
real wall time would distort every headline number.  Instead, decoders
charge a :class:`SimulatedClock` through this cost model, and raw Python
wall time is reported alongside as a secondary column.

Calibration
-----------
Constants are solved from the paper's own Table 1/2 aggregates.  With the
target's one-token decode step as the unit cost:

* ``omega = tau / block_cost`` and ``block_cost = gamma * c_draft + c_verify``
  across Table 1 rows gives ``c_draft ~= 0.24-0.28`` and
  ``c_verify(gamma) ~= 0.40 + 0.05 * gamma``;
* autoregressive decode speed is ``delta / omega ~= 31.5 tok/s`` (7B) and
  ``31.7 tok/s`` (13B), fixing the absolute step time.

The AASD draft head is cheaper per step than a 112M two-tower draft but pays
per attended KV token, which is what the Vision KV Projector ablation
(Table 2) measures: without compression its per-step cost grows with the
uncompressed vision KV length.

Batched serving
---------------
A GPU decode step is memory-bound: the weights are streamed once per
forward regardless of how many sequences ride in the batch, so a batched
forward over ``B`` sequences costs far less than ``B`` solo forwards.  The
``batched_*`` methods price one such forward: the solo base cost is paid
once, each *additional* sequence adds a small ``batch_per_seq_frac``
increment (compute growing with batch size), and per-token / per-KV terms
are summed over the whole batch because that work genuinely scales.  With
one sequence they reduce exactly to the solo prices, so a batch-of-one
server round costs the same as sequential decoding.  The continuous-
batching scheduler (:mod:`repro.serving`) charges these to the *server*
clock, while each request's own :class:`~repro.decoding.metrics.DecodeRecord`
keeps solo-priced attribution.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Sequence

from ..errors import ConfigError

__all__ = ["CostProfile", "CostModel", "get_profile", "PROFILES"]


@dataclass(frozen=True)
class CostProfile:
    """All latency constants, expressed relative to one target decode step."""

    name: str
    target_step_ms: float            # one autoregressive target step
    prefill_ms: float                # target prefill (image + prompt)
    verify_base_frac: float          # parallel-verify fixed cost
    verify_per_token_frac: float     # parallel-verify per-token cost
    draft_step_frac: float           # independent 112M draft, one step
    draft_prefill_frac: float        # independent draft, own context prefill
    aasd_step_frac: float            # AASD head step at reference KV length
    aasd_per_kv_token_frac: float    # AASD extra cost per attended KV token
    aasd_reference_kv: int           # KV length included in aasd_step_frac
    projector_ms: float              # one-off KV projector application
    # Batched-serving constants (see "Batched serving" in the module
    # docstring): marginal cost of each additional sequence sharing one
    # forward, as a fraction of the respective solo base cost.
    batch_per_seq_frac: float = 0.05        # target forward, per extra sequence
    draft_batch_per_seq_frac: float = 0.02  # AASD head step, per extra sequence
    prefill_batch_frac: float = 0.60        # target prefill, per extra request

    def validate(self) -> None:
        """Raise :class:`~repro.errors.ConfigError` on nonsensical constants."""
        numeric = (
            self.target_step_ms,
            self.prefill_ms,
            self.verify_base_frac,
            self.verify_per_token_frac,
            self.draft_step_frac,
            self.draft_prefill_frac,
            self.aasd_step_frac,
            self.aasd_per_kv_token_frac,
            self.projector_ms,
            self.batch_per_seq_frac,
            self.draft_batch_per_seq_frac,
            self.prefill_batch_frac,
        )
        if any(v < 0 for v in numeric):
            raise ConfigError(f"cost profile {self.name!r} has negative constants")
        if self.target_step_ms <= 0:
            raise ConfigError("target_step_ms must be positive")


#: 7B calibration: 31.5 tok/s autoregressive; see module docstring.
_SIM_7B = CostProfile(
    name="sim-7b",
    target_step_ms=1000.0 / 31.5,
    prefill_ms=2.0 * (1000.0 / 31.5),
    verify_base_frac=0.40,
    verify_per_token_frac=0.05,
    draft_step_frac=0.25,
    draft_prefill_frac=0.50,
    aasd_step_frac=0.225,
    aasd_per_kv_token_frac=0.0009,
    aasd_reference_kv=48,
    projector_ms=0.20 * (1000.0 / 31.5),
)

#: 13B calibration: 31.7 tok/s autoregressive; the same relative draft cost
#: against a pricier target step is what lifts omega slightly, as in Table 1.
_SIM_13B = replace(
    _SIM_7B,
    name="sim-13b",
    target_step_ms=1000.0 / 31.7,
    prefill_ms=2.0 * (1000.0 / 31.7),
    draft_step_frac=0.235,
    aasd_step_frac=0.21,
    projector_ms=0.20 * (1000.0 / 31.7),
)

PROFILES: Dict[str, CostProfile] = {p.name: p for p in (_SIM_7B, _SIM_13B)}


def get_profile(name: str) -> CostProfile:
    if name not in PROFILES:
        raise ConfigError(f"unknown cost profile {name!r}; choose from {sorted(PROFILES)}")
    return PROFILES[name]


class CostModel:
    """Charges simulated milliseconds for each decoding operation."""

    def __init__(self, profile: CostProfile) -> None:
        profile.validate()
        self.profile = profile

    # -- target ---------------------------------------------------------
    def target_prefill(self) -> float:
        return self.profile.prefill_ms

    def target_step(self) -> float:
        return self.profile.target_step_ms

    def target_verify(self, n_tokens: int) -> float:
        """One parallel forward over ``n_tokens`` new tokens."""
        if n_tokens <= 0:
            raise ConfigError(f"verify needs at least one token, got {n_tokens}")
        frac = self.profile.verify_base_frac + self.profile.verify_per_token_frac * n_tokens
        return frac * self.profile.target_step_ms

    def tree_verify(self, n_rows: int) -> float:
        """One tree-verification forward feeding ``n_rows`` rows.

        ``n_rows`` is the anchor plus every tree node (``1 + n_nodes``) —
        the billed quantity is the *tree-node count*, not ``gamma * B``:
        every fed row is billed exactly once whether its branch is later
        accepted or rolled back, and rollback itself is free (rejected
        rows were never written to the cache, so there is nothing to
        undo).  A chain tree of depth γ feeds ``gamma + 1`` rows and costs
        exactly :meth:`target_verify` of ``gamma + 1`` — the same float —
        which keeps branch-factor-1 tree decoding cost-identical to
        linear speculation.
        """
        if n_rows <= 0:
            raise ConfigError(f"tree verify needs at least one row, got {n_rows}")
        return self.target_verify(n_rows)

    # -- independent draft (FT/DT-LLaMA, FT/DT-LLaVA) --------------------
    def draft_prefill(self) -> float:
        return self.profile.draft_prefill_frac * self.profile.target_step_ms

    def draft_step(self) -> float:
        return self.profile.draft_step_frac * self.profile.target_step_ms

    def draft_sync(self, n_tokens: int) -> float:
        """Draft-side parallel forward over accepted tokens (cache sync)."""
        if n_tokens <= 0:
            return 0.0
        frac = self.profile.draft_step_frac * (0.5 + 0.1 * n_tokens)
        return frac * self.profile.target_step_ms

    # -- AASD speculating module -----------------------------------------
    def projector(self) -> float:
        return self.profile.projector_ms

    def aasd_step(self, kv_len: int) -> float:
        """One draft-head step attending over ``kv_len`` hybrid KV tokens."""
        return self.batched_aasd_step((kv_len,))

    # -- batched serving (one forward shared by several requests) ---------
    def batched_prefill(self, n_requests: int) -> float:
        """One batched target prefill over ``n_requests`` admitted requests.

        The first request pays the full solo prefill; each additional one
        adds ``prefill_batch_frac`` of it (prefill is compute-bound, so
        batching amortises less than decode steps do).
        """
        if n_requests <= 0:
            raise ConfigError(f"need at least one request, got {n_requests}")
        scale = 1.0 + self.profile.prefill_batch_frac * (n_requests - 1)
        return scale * self.profile.prefill_ms

    def batched_verify(self, feed_sizes: Sequence[int]) -> float:
        """One batched parallel target forward verifying several sequences.

        ``feed_sizes`` holds the number of tokens each sequence feeds
        (``gamma + 1`` for a verify, ``1`` for a fallback step riding the
        same forward).  The solo verify base is paid once, per-token cost
        is summed over the batch, and each extra sequence adds
        ``batch_per_seq_frac``.  ``batched_verify([n])`` equals
        :meth:`target_verify` of ``n``.
        """
        sizes = list(feed_sizes)
        if not sizes:
            raise ConfigError("batched verify needs at least one sequence")
        if any(n <= 0 for n in sizes):
            raise ConfigError(f"verify feeds must be positive, got {sizes}")
        frac = (
            self.profile.verify_base_frac
            + self.profile.verify_per_token_frac * sum(sizes)
            + self.profile.batch_per_seq_frac * (len(sizes) - 1)
        )
        return frac * self.profile.target_step_ms

    def batched_tree_verify(self, feed_sizes: Sequence[int]) -> float:
        """One batched tree-verification forward over several requests.

        ``feed_sizes`` holds each request's fed row count (``1 + n_nodes``
        for a tree, ``1`` for a fallback step riding the same forward).
        As with :meth:`tree_verify`, billing is per fed row — every tree
        node is charged exactly once regardless of acceptance, rollback is
        free — so the price is exactly :meth:`batched_verify` of the same
        sizes and a batch of chain trees costs the same float as the
        packed linear round it replaces.
        """
        return self.batched_verify(feed_sizes)

    def batched_aasd_step(self, kv_lens: Sequence[int]) -> float:
        """One batched draft-head step across several sessions' hybrid caches.

        ``kv_lens`` holds each session's attended hybrid-KV length.  The
        solo step base is paid once, per-KV-token excess is summed, and
        each extra session adds ``draft_batch_per_seq_frac``.
        ``batched_aasd_step([kv])`` equals :meth:`aasd_step` of ``kv``.
        """
        lens = list(kv_lens)
        if not lens:
            raise ConfigError("batched draft step needs at least one session")
        if any(kv < 0 for kv in lens):
            raise ConfigError(f"kv lengths must be >= 0, got {lens}")
        ref = self.profile.aasd_reference_kv
        extra = sum(max(0, kv - ref) for kv in lens)
        frac = (
            self.profile.aasd_step_frac
            + self.profile.aasd_per_kv_token_frac * extra
            + self.profile.draft_batch_per_seq_frac * (len(lens) - 1)
        )
        return frac * self.profile.target_step_ms
