"""The memory table: owners sampled around every engine call of a served batch."""

from __future__ import annotations

import json

import pytest

from repro.decoding import CostModel, get_profile
from repro.eval import build_aasd_engine
from repro.nn.kernels import operand
from repro.serving import ServingConfig, serve_requests
from repro.serving.memory import (
    OWNERS, CallSample, MemoryProbe, MemoryTable, render_memory,
)


def test_probe_samples_every_call_and_changes_no_token(world, make_engine):
    samples = world["samples"][:4]
    plain = serve_requests(make_engine(), samples, ServingConfig(max_batch_size=4))
    engine = make_engine()
    probe = MemoryProbe(engine)
    probed = serve_requests(engine, samples, ServingConfig(max_batch_size=4))
    probe.detach()
    assert "begin_batch" not in vars(engine) and "step_batch" not in vars(engine)
    assert [r.record.token_ids for r in probed.results] == \
        [r.record.token_ids for r in plain.results]

    table = probe.table()
    first = table.calls[0]
    assert (first.kind, first.batch) == ("admission", 4)
    assert {c.kind for c in table.calls[1:]} == {"round"}
    # each weight counts once: its one stored array, read without a rebuild
    # (a pinned weight read only through its operand keeps the operand alone)
    last = table.calls[-1]
    stored = {id(p.stored): p.stored for p in [*engine.target.parameters(),
                                               *engine.head.parameters()]}
    assert last.owners_mb["parameters"] == pytest.approx(
        sum(a.nbytes for a in stored.values()) / 2**20)
    # the true duplicates: each tied embedding's transposed float64 operand
    # beside the float32 table its lookups read
    tied = [engine.target.llama.embed.weight, engine.head.embed.weight]
    assert last.owners_mb["pinned operands"] == pytest.approx(
        sum(operand(w, transpose=True).nbytes for w in tied) / 2**20)
    assert first.owners_mb["target KV reserved"] >= first.owners_mb["target KV live"] > 0
    assert first.owners_mb["draft state"] > 0 and first.transient_mb > 0
    assert [row[0] for row in table.rows()] == [*OWNERS, "forward transient",
                                                "rest of process"]
    json.dumps(table.to_dict())
    assert "forward transient" in render_memory(table)


def test_a_sixteen_request_admission_keeps_its_transient_small(smoke_zoo):
    # the row-budgeted prefill bounds an admission's activations however
    # many requests it holds; one unbudgeted forward over all 16 (~800
    # rows) peaks about 7.6 MB above what the admission keeps
    engine = build_aasd_engine(smoke_zoo, "sim-7b", 3, CostModel(get_profile("sim-7b")))
    samples = smoke_zoo.eval_dataset("coco-sim", 16).samples
    engine.begin_batch(samples)        # warm: operands built, RoPE tables grown
    probe = MemoryProbe(engine)
    sessions = engine.begin_batch(samples)
    probe.detach()
    (call,) = probe.calls
    assert all(not isinstance(s, Exception) for s in sessions)
    assert call.batch == 16 and call.transient_mb < 3.0


def test_the_peak_is_split_at_the_call_that_set_it():
    owners = dict.fromkeys(OWNERS, 1.0)
    calls = (CallSample(0, "admission", 2, 10.0, 20.0, 5.0, 1.0, owners),
             CallSample(1, "round", 2, 20.0, 20.0, 1.0, 0.0, owners))
    table = MemoryTable(20.0, calls)
    assert table.peak_call is calls[0]
    at_peak = {owner: mb for owner, mb, _ in table.rows()}
    # four owners add up (live KV is part of the reserved), plus the transient
    assert at_peak["rest of process"] == 20.0 - 4.0 - 5.0
    assert "the admission of 2" in render_memory(table)
    # raised again after the last call: no call set the peak
    assert MemoryTable(25.0, calls).peak_call is None
