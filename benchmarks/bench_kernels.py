"""Kernel microbenchmarks supporting the paper's efficiency claims.

Not a table or figure in the paper, but quantifies Sec. 3.3's argument:
the fused Target-Draft Attention computes the same result as the literal
per-position construction at a fraction of the cost, and the KV projector
shrinks the per-step attention span.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.kv_projector import KVProjector
from repro.core.td_attention import naive_target_draft_attention, target_draft_attention
from repro.nn.tensor import Tensor, no_grad

B, H, N, DH, STATIC = 2, 6, 64, 16, 8


@pytest.fixture(scope="module")
def td_inputs():
    gen = np.random.default_rng(0)
    mk = lambda *s: gen.standard_normal(s).astype(np.float32)
    return dict(
        q=mk(B, H, N, DH), kt=mk(B, H, N, DH), vt=mk(B, H, N, DH),
        kd=mk(B, H, N, DH), vd=mk(B, H, N, DH),
        ks=mk(B, H, STATIC, DH), vs=mk(B, H, STATIC, DH),
    )


def test_td_attention_fused(benchmark, td_inputs):
    i = td_inputs

    def run():
        with no_grad():
            return target_draft_attention(
                Tensor(i["q"]), Tensor(i["kt"]), Tensor(i["vt"]),
                Tensor(i["kd"]), Tensor(i["vd"]), s=2,
                k_static=Tensor(i["ks"]), v_static=Tensor(i["vs"]),
            ).data

    out = benchmark(run)
    assert out.shape == (B, H, N, DH)


def test_td_attention_naive_reference(benchmark, td_inputs):
    i = td_inputs

    def run():
        return naive_target_draft_attention(
            i["q"], i["kt"], i["vt"], i["kd"], i["vd"], s=2,
            k_static=i["ks"], v_static=i["vs"],
        )

    out = benchmark(run)
    assert out.shape == (B, H, N, DH)


def test_kv_projector(benchmark):
    gen = np.random.default_rng(0)
    proj = KVProjector(36, 8, rng=gen)
    k = gen.standard_normal((1, 6, 36, 16)).astype(np.float32)
    v = gen.standard_normal((1, 6, 36, 16)).astype(np.float32)

    def run():
        with no_grad():
            kc, vc = proj(k, v)
        return kc.data

    out = benchmark(run)
    assert out.shape == (1, 6, 8, 16)


def test_draft_head_step(benchmark, zoo):
    """One speculating-module step against a realistic hybrid context."""
    head = zoo.aasd_head("sim-7b")
    target = zoo.target("sim-7b")
    tok = zoo.tokenizer()
    sample = zoo.eval_dataset("coco-sim", 1)[0]
    prompt = np.asarray([tok.vocab.bos_id] + tok.encode(sample.prompt))
    with no_grad():
        cache, _ = target.prefill(sample.image[None], prompt[None])

    def run():
        with no_grad():
            hybrid = head.build_context(cache)   # reads the target's text rows in place
            return head.step(5, cache.seq_len, hybrid)

    out = benchmark(run)
    assert out.shape == (tok.vocab_size,)


def test_target_decode_step(benchmark, zoo):
    """One target AR step (the latency unit of the cost model)."""
    target = zoo.target("sim-7b")
    tok = zoo.tokenizer()
    sample = zoo.eval_dataset("coco-sim", 1)[0]
    prompt = np.asarray([tok.vocab.bos_id] + tok.encode(sample.prompt))
    with no_grad():
        cache, _ = target.prefill(sample.image[None], prompt[None])
    base_len = cache.seq_len

    def run():
        cache.truncate(base_len)
        with no_grad():
            out = target.decode(np.asarray([[5]]), cache)
        return out.logits.data

    out = benchmark(run)
    assert out.shape[-1] == tok.vocab_size
