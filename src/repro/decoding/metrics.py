"""Speculative-decoding metrics: the four numbers the paper reports.

* walltime speedup  (omega) — AR time / SD time for the same generations,
* acceptance rate   (alpha) — mean fraction of draft tokens accepted,
* block efficiency  (tau)   — mean tokens emitted per target forward,
* decoding speed    (delta) — tokens per (simulated) second.

Every number lives on the per-sample :class:`DecodeRecord`;
:func:`aggregate_metrics` sums records into a :class:`SpeedupReport`, and
fault events are logged structurally via ``logging``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..errors import DecodingError
from ..obs.logsetup import get_logger
from ..utils.timing import SimulatedClock

__all__ = ["BlockRecord", "DecodeRecord", "SpeedupReport", "aggregate_metrics"]

logger = get_logger(__name__)


@dataclass(frozen=True)
class BlockRecord:
    """One draft-then-verify round."""

    n_draft: int       # nodes drafted (a chain: to its depth, or to a drafted eos)
    n_accepted: int    # of those, how many the target accepted
    n_emitted: int     # accepted + 1, before the commit's eos / budget cut

    def __post_init__(self) -> None:
        if not 0 <= self.n_accepted <= self.n_draft:
            raise DecodingError(
                f"invalid block: {self.n_accepted} accepted of {self.n_draft} drafted"
            )


@dataclass
class DecodeRecord:
    """Everything measured while decoding one sample.

    The fault fields track graceful degradation: ``fallback_mode`` is
    ``"none"`` for a clean decode, ``"degraded"`` once any draft block was
    skipped due to a fault, and ``"target-only"`` after the engine gave up
    on speculation entirely for the rest of the sample.

    Simulated charges go through :meth:`charge_sim`, which books them in
    ``sim_clock`` per category (prefill/draft/verify/...);
    :attr:`sim_time_ms` reads the clock's total.
    """

    token_ids: List[int] = field(default_factory=list)
    request_id: Optional[str] = None   # serving-layer attribution (None when decoded directly)
    wall_time_s: float = 0.0
    ttft_wall_s: float = 0.0           # wall time to first committed token (prefill)
    blocks: List[BlockRecord] = field(default_factory=list)
    n_target_forwards: int = 0
    text: str = ""
    n_draft_faults: int = 0
    n_fallback_steps: int = 0
    fallback_mode: str = "none"
    fault_log: List[str] = field(default_factory=list)
    sim_clock: SimulatedClock = field(default_factory=SimulatedClock)

    @property
    def n_tokens(self) -> int:
        return len(self.token_ids)

    @property
    def degraded(self) -> bool:
        """True when any fault forced a fallback during this decode."""
        return self.fallback_mode != "none"

    @property
    def sim_time_ms(self) -> float:
        """Simulated ms charged so far: ``sim_clock``'s running total."""
        return self.sim_clock.total

    @property
    def sim_by_category(self) -> Dict[str, float]:
        """Simulated ms per phase category (prefill, draft, verify, ...)."""
        return self.sim_clock.by_category

    def charge_sim(self, ms: float, category: str = "other") -> float:
        """Charge simulated milliseconds under ``category``; returns ms."""
        self.sim_clock.charge(ms, category)
        return ms

    def note_fault(self, message: str) -> None:
        """Record one draft fault and mark the decode as degraded."""
        self.n_draft_faults += 1
        self.fault_log.append(message)
        if self.fallback_mode == "none":
            self.fallback_mode = "degraded"
        logger.warning(
            "draft fault: %s",
            message,
            extra={
                "event": "draft_fault",
                "n_draft_faults": self.n_draft_faults,
                "fallback_mode": self.fallback_mode,
            },
        )


def _merge_sim_categories(records: Sequence[DecodeRecord]) -> Dict[str, float]:
    merged: Dict[str, float] = {}
    for record in records:
        for category, ms in record.sim_by_category.items():
            merged[category] = merged.get(category, 0.0) + ms
    return merged


@dataclass(frozen=True)
class SpeedupReport:
    """Aggregate of paired AR/SD runs over a dataset (paper metric names)."""

    walltime_speedup: float    # omega
    acceptance_rate: float     # alpha
    block_efficiency: float    # tau
    decoding_speed: float      # delta, tokens / simulated second
    ar_decoding_speed: float   # baseline tokens / simulated second
    n_samples: int
    n_tokens_sd: int
    n_tokens_ar: int
    wall_speedup_raw: float    # real Python wall-time ratio (secondary)
    n_draft_faults: int = 0        # total draft faults across SD records
    n_fallback_steps: int = 0      # target-only steps taken on fault
    degraded_fraction: float = 0.0  # fraction of SD records that degraded
    #: committed tokens per target forward across the SD run (prefill and
    #: fallback forwards included) — the tree-speculation headline number.
    accepted_per_target_forward: float = 0.0
    sim_time_by_category: Dict[str, float] = field(default_factory=dict)
    # ^ SD simulated ms per phase, summed over records.

    def row(self) -> dict:
        """Flat dict used by the table renderers (the four paper metrics).

        Per-phase simulated time lives in :attr:`sim_time_by_category`;
        :meth:`repro.eval.runner.MeanReport.row` merges it in as
        ``sim_ms:<category>`` keys for the experiment tables.
        """
        return {
            "omega": self.walltime_speedup,
            "alpha": self.acceptance_rate,
            "tau": self.block_efficiency,
            "delta": self.decoding_speed,
        }


def aggregate_metrics(
    sd_records: Sequence[DecodeRecord],
    ar_records: Sequence[DecodeRecord],
) -> SpeedupReport:
    """Combine per-sample records into the paper's four metrics.

    ``sd_records`` and ``ar_records`` must cover the same samples in the
    same order (under greedy decoding their token streams are identical, as
    speculative decoding is lossless).
    """
    if len(sd_records) != len(ar_records):
        raise DecodingError(
            f"paired runs required: {len(sd_records)} SD vs {len(ar_records)} AR records"
        )
    if not sd_records:
        raise DecodingError("cannot aggregate zero records")

    sd_time = sum(r.sim_time_ms for r in sd_records)
    ar_time = sum(r.sim_time_ms for r in ar_records)
    sd_wall = sum(r.wall_time_s for r in sd_records)
    ar_wall = sum(r.wall_time_s for r in ar_records)
    sd_tokens = sum(r.n_tokens for r in sd_records)
    ar_tokens = sum(r.n_tokens for r in ar_records)
    sd_forwards = sum(r.n_target_forwards for r in sd_records)

    blocks = [b for r in sd_records for b in r.blocks]
    # Fully-degraded runs (speculation disabled on every sample) have no
    # blocks; report zero acceptance instead of refusing to aggregate.
    drafted = [b for b in blocks if b.n_draft > 0]
    if drafted:
        acceptance = sum(b.n_accepted / b.n_draft for b in drafted) / len(drafted)
    elif any(r.degraded for r in sd_records):
        acceptance = 0.0
    else:
        raise DecodingError("SD records contain no blocks")
    block_eff = (
        sum(b.n_emitted for b in blocks) / len(blocks) if blocks else 1.0
    )

    if sd_time <= 0 or ar_time <= 0:
        raise DecodingError("simulated times must be positive")

    return SpeedupReport(
        walltime_speedup=ar_time / sd_time,
        acceptance_rate=acceptance,
        block_efficiency=block_eff,
        decoding_speed=sd_tokens / (sd_time / 1000.0),
        ar_decoding_speed=ar_tokens / (ar_time / 1000.0),
        n_samples=len(sd_records),
        n_tokens_sd=sd_tokens,
        n_tokens_ar=ar_tokens,
        wall_speedup_raw=(ar_wall / sd_wall) if sd_wall > 0 else float("nan"),
        n_draft_faults=sum(r.n_draft_faults for r in sd_records),
        n_fallback_steps=sum(r.n_fallback_steps for r in sd_records),
        degraded_fraction=sum(r.degraded for r in sd_records) / len(sd_records),
        accepted_per_target_forward=(
            sd_tokens / sd_forwards if sd_forwards > 0 else 0.0
        ),
        sim_time_by_category=_merge_sim_categories(sd_records),
    )
