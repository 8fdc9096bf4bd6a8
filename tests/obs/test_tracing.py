"""Tracer semantics: nesting, buffering, disabled fast path."""

from __future__ import annotations

import pytest

from repro.obs.tracing import (
    NULL_SPAN,
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
    set_tracer,
)


class TestNesting:
    def test_parent_child_linkage(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("mid") as mid:
                with tracer.span("inner") as inner:
                    pass
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["outer"].parent_id is None
        assert by_name["mid"].parent_id == by_name["outer"].span_id
        assert by_name["inner"].parent_id == by_name["mid"].span_id

    def test_siblings_share_parent(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["a"].parent_id == by_name["root"].span_id
        assert by_name["b"].parent_id == by_name["root"].span_id
        # Children finish before the root is recorded.
        assert [s.name for s in tracer.spans] == ["a", "b", "root"]

    def test_durations_nest(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        by_name = {s.name: s for s in tracer.spans}
        assert 0 <= by_name["inner"].duration_s <= by_name["outer"].duration_s
        assert by_name["outer"].start_s <= by_name["inner"].start_s
        assert by_name["inner"].end_s <= by_name["outer"].end_s

    def test_attrs_and_sim_ms(self):
        tracer = Tracer()
        with tracer.span("phase", gamma=3) as sp:
            sp.set_attr("n_accepted", 2)
            sp.add_sim_ms(10.0)
            sp.add_sim_ms(2.5)
        (span,) = tracer.spans
        assert span.attrs["gamma"] == 3
        assert span.attrs["n_accepted"] == 2
        assert span.sim_ms == pytest.approx(12.5)

    def test_current_span(self):
        tracer = Tracer()
        assert tracer.current_span() is NULL_SPAN
        with tracer.span("s") as sp:
            assert tracer.current_span() is sp
        assert tracer.current_span() is NULL_SPAN

    def test_exception_still_records_span(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("broken"):
                raise ValueError("boom")
        assert [s.name for s in tracer.spans] == ["broken"]
        assert tracer.current_span() is NULL_SPAN


class TestDisabled:
    def test_disabled_returns_shared_null_span(self):
        tracer = Tracer(enabled=False)
        sp = tracer.span("x", attr=1)
        assert sp is NULL_SPAN
        with sp as inner:
            inner.set_attr("k", "v")
            inner.add_sim_ms(1.0)
        assert tracer.spans == []

    def test_global_toggle(self):
        try:
            tracer = enable_tracing()
            assert get_tracer() is tracer
            assert tracer.enabled
            disable_tracing()
            assert not get_tracer().enabled
            assert get_tracer().span("x") is NULL_SPAN
        finally:
            disable_tracing()

    def test_set_tracer_swaps_global(self):
        mine = Tracer(enabled=False)
        previous = set_tracer(mine)
        try:
            assert get_tracer() is mine
        finally:
            set_tracer(previous)


class TestBuffer:
    def test_drain_clears_buffer(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        assert len(tracer.drain()) == 1
        assert tracer.spans == []
