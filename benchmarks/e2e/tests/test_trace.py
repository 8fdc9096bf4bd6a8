"""Span arithmetic on a synthetic tree, and wrappers that leave no trace."""

import numpy as np

from benchmarks.e2e.trace import SPANS, Recorder, SpanSpec, summarize, tracing


def _span(rec, label, start, end, parent):
    rec.label.append(label)
    rec.start.append(start)
    rec.end.append(end)
    rec.parent.append(parent)
    return len(rec) - 1


def test_self_time_is_duration_minus_children():
    rec = Recorder()
    submit = _span(rec, "queue.submit", 0.000, 0.001, -1)
    round_ = _span(rec, "scheduler.run_round", 0.002, 0.012, -1)
    batch = _span(rec, "engine.step_batch", 0.003, 0.011, round_)
    solo = _span(rec, "engine.step", 0.004, 0.006, batch)          # nested, same layer
    _span(rec, "target.decode", 0.0045, 0.0055, solo)
    _span(rec, "target.decode_batch", 0.007, 0.010, batch)
    s = summarize(rec)

    assert s.self_ms[submit] == 1.0
    assert abs(s.self_ms[round_] - 2.0) < 1e-9      # 10 ms minus the 8 ms batch
    assert abs(s.self_ms[batch] - 3.0) < 1e-9       # 8 - 2 (step) - 3 (decode_batch)
    assert abs(s.self_ms[solo] - 1.0) < 1e-9        # 2 - 1 (decode)
    assert abs(sum(s.self_ms) - s.covered_ms) < 1e-9
    assert abs(s.covered_ms - 11.0) < 1e-9          # the two root spans

    # step inside step_batch is engine time once, not twice
    assert abs(s.layer_busy_ms["engine"] - 8.0) < 1e-9
    assert abs(s.layer_self_ms["engine"] - 4.0) < 1e-9
    assert abs(s.layer_busy_ms["target.verify"] - 4.0) < 1e-9
    assert len(s.durations_ms["engine.step"]) == 1
    assert [round(d, 9) for d in s.durations_ms["target.decode"]] == [1.0]


class _Base:
    def ping(self):
        return "pong"


class _Derived(_Base):
    pass


def _snapshot():
    return {(spec.module, spec.owner, spec.attr): vars(spec.holder()).get(spec.attr)
            for spec in SPANS}


def test_wrappers_are_fully_removed():
    before = _snapshot()
    assert all(value is not None for value in before.values())
    rec = Recorder()
    with tracing(rec):
        during = _snapshot()
        assert all(during[key] is not before[key] for key in before)
        assert all(during[key].__wrapped__ is before[key] for key in before)
    assert _snapshot() == before
    assert all(a is b for a, b in zip(_snapshot().values(), before.values()))


def test_removal_survives_an_exception_and_uncovers_inherited_methods():
    spec = SpanSpec(__name__, "_Derived", "ping", "engine")
    rec = Recorder()
    try:
        with tracing(rec, specs=(spec,)):
            assert "ping" in vars(_Derived)
            assert _Derived().ping() == "pong"
            raise RuntimeError("pass aborted")
    except RuntimeError:
        pass
    assert "ping" not in vars(_Derived)
    assert _Derived.ping is _Base.ping
    assert len(rec) == 1 and rec.end[0] >= rec.start[0]


def test_traced_call_records_a_nested_span():
    from repro.decoding import Sampler, SamplerConfig

    rec = Recorder()
    logits = np.array([0.1, 2.0, -1.0])
    plain = Sampler(SamplerConfig()).sample(logits)
    with tracing(rec):
        traced = Sampler(SamplerConfig()).sample(logits)
    assert traced == plain == 1
    assert rec.label == ["verify.sample"] and rec.parent == [-1] and not rec.stack
