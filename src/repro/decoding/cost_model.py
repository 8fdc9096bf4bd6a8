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

One pricing law
---------------
Every model call — a target prefill, step or verify forward, a draft
step, a projector application, a draft-state sync — is priced by
:meth:`CostModel.price` from one coefficient row of its *phase*::

    unit × (base + per_row·Σrows + per_kv·Σmax(0, kv − ref_kv) + per_extra·(B − 1))

over the call's ``B`` rows (``rows[i]`` tokens fed, ``kv_lens[i]`` keys
attended).  A GPU decode forward is memory-bound: the weights are
streamed once per call however many sequences ride in it, so the base is
paid once, per-token and per-key work is summed, and each *extra* row
adds a small ``per_extra`` increment.  A solo price is the one-row call.
The engine charges each request's
:class:`~repro.decoding.metrics.DecodeRecord` the one-row price of every
call made for it and, under a server, the server clock the price of the
call itself; with one request in the system the two are the same
additions.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Optional, Sequence

from ..errors import ConfigError

__all__ = ["PhasePrice", "CostProfile", "CostModel", "get_profile", "PROFILES"]


@dataclass(frozen=True)
class PhasePrice:
    """One phase's coefficient row of the pricing law (:meth:`CostModel.price`)."""

    unit_ms: float           #: milliseconds of one unit of the bracket
    base: float = 1.0        #: paid once per call
    per_row: float = 0.0     #: per token fed, summed over the rows
    per_kv: float = 0.0      #: per attended key beyond ``ref_kv``, summed over the rows
    ref_kv: int = 0          #: keys a row attends within ``base``
    per_extra: float = 0.0   #: per row beyond the first


@dataclass(frozen=True)
class CostProfile:
    """One coefficient row per phase; the field names are the phase names."""

    name: str
    prefill: PhasePrice        #: target prefill (image + prompt), per admitted request
    step: PhasePrice           #: one autoregressive target step
    verify: PhasePrice         #: one parallel target forward over the fed rows
    head: PhasePrice           #: AASD head step over its hybrid KV
    projector: PhasePrice      #: KV projector application, per opened request
    draft: PhasePrice          #: independent 112M draft step, run row by row
    draft_prefill: PhasePrice  #: a draft encoding its own context, per request
    sync: PhasePrice           #: self-encoding head re-encoding a verified block

    def phases(self) -> Dict[str, PhasePrice]:
        """Phase name -> coefficient row."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "name"}

    def validate(self) -> None:
        """Raise :class:`~repro.errors.ConfigError` on nonsensical constants."""
        for phase, price in self.phases().items():
            if any(getattr(price, f.name) < 0 for f in fields(price)):
                raise ConfigError(
                    f"cost profile {self.name!r} has negative constants in {phase!r}"
                )
        if self.step.unit_ms <= 0:
            raise ConfigError("the target step's unit_ms must be positive")


def _calibrated(name: str, ar_tok_per_s: float, draft_frac: float,
                head_frac: float) -> CostProfile:
    """A profile from the target's AR speed and the two drafts' step fractions.

    Every other constant is shared by both targets; see the module
    docstring and ``docs/cost_model.md`` for where each comes from.
    """
    step_ms = 1000.0 / ar_tok_per_s
    return CostProfile(
        name=name,
        prefill=PhasePrice(2.0 * step_ms, per_extra=0.60),
        step=PhasePrice(step_ms),
        verify=PhasePrice(step_ms, base=0.40, per_row=0.05, per_extra=0.05),
        head=PhasePrice(step_ms, base=head_frac, per_kv=0.0009, ref_kv=48, per_extra=0.02),
        projector=PhasePrice(0.20 * step_ms, per_extra=1.0),
        draft=PhasePrice(draft_frac * step_ms, per_extra=1.0),
        draft_prefill=PhasePrice(0.50 * step_ms, per_extra=1.0),
        sync=PhasePrice(draft_frac * step_ms, base=0.5, per_row=0.1),
    )


#: 7B calibration: 31.5 tok/s autoregressive; see module docstring.  13B:
#: 31.7 tok/s; the same relative draft cost against a pricier target step
#: is what lifts omega slightly, as in Table 1.
PROFILES: Dict[str, CostProfile] = {
    p.name: p for p in (
        _calibrated("sim-7b", 31.5, draft_frac=0.25, head_frac=0.225),
        _calibrated("sim-13b", 31.7, draft_frac=0.235, head_frac=0.21),
    )
}


def get_profile(name: str) -> CostProfile:
    if name not in PROFILES:
        raise ConfigError(f"unknown cost profile {name!r}; choose from {sorted(PROFILES)}")
    return PROFILES[name]


class CostModel:
    """Prices every model call by one law over its phase's coefficients."""

    def __init__(self, profile: CostProfile) -> None:
        profile.validate()
        self.profile = profile
        self._phases = profile.phases()

    def price(self, phase: str, rows: Sequence[int],
              kv_lens: Optional[Sequence[int]] = None) -> float:
        """Simulated ms of one call of ``phase`` over ``B = len(rows)`` rows.

        ``rows[i]`` is the number of tokens row ``i`` feeds and
        ``kv_lens[i]`` (default: none beyond the reference) the keys it
        attends.  A tree verify feeds its anchor plus every node, so it
        is billed per fed row whether a branch is later accepted or not;
        rejected rows are written and dropped by ``keep_rows``, at no
        simulated cost.
        """
        coef = self._phases.get(phase)
        if coef is None:
            raise ConfigError(f"unknown phase {phase!r}; choose from {sorted(self._phases)}")
        if not rows or any(n <= 0 for n in rows):
            raise ConfigError(f"a {phase} call needs rows feeding >= 1 token, got {list(rows)}")
        extra_kv = 0
        if kv_lens is not None:
            if len(kv_lens) != len(rows) or any(kv < 0 for kv in kv_lens):
                raise ConfigError(f"kv lengths must be >= 0, one per row, got {list(kv_lens)}")
            extra_kv = sum(max(0, kv - coef.ref_kv) for kv in kv_lens)
        return coef.unit_ms * (
            coef.base
            + coef.per_row * sum(rows)
            + coef.per_kv * extra_kv
            + coef.per_extra * (len(rows) - 1)
        )

    def target_prefill(self) -> float:
        """One request's target prefill, solo."""
        return self.price("prefill", (1,))

    def target_step(self) -> float:
        """One autoregressive target step."""
        return self.price("step", (1,))
