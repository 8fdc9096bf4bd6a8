"""The inference operands: one cast per weight, bitwise the per-call cast.

While an engine serves a model, every no-grad forward reads its weights
and scales through :func:`repro.nn.kernels.operand` — float64 arrays built
once instead of numpy casting the float32 weight on every product
(``docs/kernels.md`` §2, §5).  Four things make that safe, and each has
a case here:

* the prepared operand *is* the buffer the mixed-dtype product builds, so
  every product keeps its bits — checked for every GEMM weight shape of
  the four model configs at every row count a forward uses;
* an operand can never be stale: replacing a parameter's array (an
  optimizer step, ``load_state_dict``, ``init_from_target``) rebuilds it,
  and an in-place write to a weight with a live operand raises;
* the operand is a served weight's one stored copy, and that is invisible:
  every raw read sees the float32 array an unpinned twin holds, and a
  release hands back a writeable one, bit-identical;
* operands die with the last engine that pinned them.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.core import (
    AASDDraftHead, AASDEngine, AASDEngineConfig, DraftHeadConfig,
)
from repro.core.kv_projector import KVProjector
from repro.data.tasks import make_dataset
from repro.decoding import CostModel, get_profile
from repro.eval import build_aasd_engine
from repro.models.config import LlavaConfig, get_config
from repro.models.llama import MiniLlama
from repro.models.llava import MiniLlava
from repro.nn.kernels import operand, pin_operands
from repro.nn.layers import Linear
from repro.nn.optim import SGD
from repro.nn.tensor import no_grad
from repro.serving import STATUS_COMPLETED, ServingConfig, serve_requests
from repro.zoo import PROFILE_SMOKE, ModelZoo

ROWS = range(1, 18)          # M: solo steps, verify / tree feeds, prefills
LOCKSTEP = (1, 3, 8)         # B: the batch axis numpy loops over


def _models(name, vocab_size):
    """The modules whose forwards an engine over config ``name`` runs."""
    config = get_config(name, vocab_size)
    if isinstance(config, LlavaConfig):
        target = MiniLlava(config, rng=np.random.default_rng(0))
        head = AASDDraftHead(DraftHeadConfig.for_target(
            config.llama, n_vision_tokens=target.n_vision_tokens))
        return [target.vision, target.connector, target.llama, head]
    return [MiniLlama(config, rng=np.random.default_rng(0))]


def _gemm_weights(modules):
    """``(weight, transpose)`` of every product a forward runs against a weight."""
    for module in modules:
        for sub in module.modules():
            if isinstance(sub, Linear):
                yield sub.weight, True
            elif isinstance(sub, KVProjector):
                yield sub.w_k, False
                yield sub.w_v, False
        if isinstance(module, (MiniLlama, AASDDraftHead)):
            yield module.embed.weight, True     # the tied LM head


@pytest.mark.parametrize("name", ["sim-7b", "sim-13b", "sim-112m", "sim-112m-llava"])
def test_prepared_product_is_the_mixed_dtype_product(name, tokenizer):
    rng = np.random.default_rng(1)
    seen = set()
    weights = list(_gemm_weights(_models(name, tokenizer.vocab_size)))
    release = pin_operands(w for w, _ in weights)
    try:
        for weight, transpose in weights:
            w32 = weight.data
            key = (w32.shape, transpose)
            if key in seen:
                continue
            seen.add(key)
            prepared = operand(weight, transpose)
            assert prepared.dtype == np.float64 and prepared.flags.c_contiguous
            for b in LOCKSTEP:
                for m in ROWS:
                    if transpose:      # x @ W^T: rows of activations
                        x = rng.standard_normal((b, m, w32.shape[-1]))
                        mixed, fast = x @ w32.swapaxes(-1, -2), x @ prepared
                    else:              # W @ kv: the projector's sequence mix
                        kv = rng.standard_normal((b, 2, w32.shape[-1], m))
                        mixed, fast = w32 @ kv, prepared @ kv
                    assert np.array_equal(mixed, fast), (name, w32.shape, b, m)
    finally:
        release()
    assert len(seen) >= 4


def _tiny(seed, vocab_size=60):
    """A random sim-112m-llava target (9 vision tokens) and a head over it."""
    target = MiniLlava(get_config("sim-112m-llava", vocab_size),
                       rng=np.random.default_rng(seed))
    head = AASDDraftHead(DraftHeadConfig.for_target(
        target.config.llama, n_vision_tokens=target.n_vision_tokens, k_compressed=4,
    ), rng=np.random.default_rng(seed + 1))
    head.init_from_target(target.llama)
    return target, head


def _forwards(target, head, image, prompt):
    """Prefill logits, then one draft step over the projected context."""
    cache, logits = target.prefill(image[None], prompt[None])
    hybrid = head.build_context(cache)
    return logits, head.step(int(np.argmax(logits[0])), cache.next_position(), hybrid)


class TestInvalidation:
    @pytest.fixture
    def world(self):
        target, head = _tiny(0)
        sample = make_dataset("coco-sim", 1, seed=3).samples[0]
        release = pin_operands([*target.parameters(), *head.parameters()])
        yield target, head, sample.image, np.array([1, 5, 7, 9])
        release()

    @staticmethod
    def agree(spec, target, head, image, prompt):
        """The inference forward (operands) equals the test-side spec; returns it."""
        made, fast = spec.both(lambda: _forwards(target, head, image, prompt))
        for s, f in zip(made, fast):
            assert np.array_equal(s, f)
        return fast

    def test_an_optimizer_step_rebuilds_the_operands(self, world, spec):
        before = self.agree(spec, *world)
        target, head = world[:2]
        params = [*target.parameters(), *head.parameters()]
        rng = np.random.default_rng(2)
        for p in params:
            p.grad = rng.standard_normal(p.data.shape).astype(p.data.dtype)
        SGD(params, lr=0.05).step()
        after = self.agree(spec, *world)
        assert not np.array_equal(before[0], after[0])

    def test_load_state_dict_and_init_from_target_rebuild_them(self, world, spec):
        before = self.agree(spec, *world)
        target, head = world[:2]
        other, other_head = _tiny(5)
        target.load_state_dict(other.state_dict())
        head.load_state_dict(other_head.state_dict())
        loaded = self.agree(spec, *world)
        assert not np.array_equal(before[1], loaded[1])
        head.init_from_target(_tiny(9)[0].llama)
        retied = self.agree(spec, *world)
        assert not np.array_equal(loaded[1], retied[1])

    def test_an_in_place_write_to_a_live_operand_raises(self, world, spec):
        self.agree(spec, *world)
        weight = world[0].llama.blocks[0].attn.wq.weight
        with pytest.raises(ValueError):
            weight.data[0, 0] = 0.0
        with pytest.raises(ValueError):
            world[1].attn_norm.weight.data *= 2.0

    def test_release_makes_the_weights_writable_again(self):
        target, _ = _tiny(0)
        release = pin_operands(target.parameters())
        norm = target.llama.norm.weight
        assert operand(norm).dtype == np.float64
        release()
        norm.data[0] = 2.0
        assert operand(norm) is norm.data        # unpinned: the stored array

    def test_a_release_while_building_leaves_the_weight_writable(self, monkeypatch):
        # a collected engine's finalizer can run inside the operand's allocation
        weight = Linear(4, 3, rng=np.random.default_rng(0)).weight
        release = pin_operands([weight])
        build = np.ascontiguousarray

        def build_then_release(*args, **kwargs):
            out = build(*args, **kwargs)
            release()
            return out

        monkeypatch.setattr(np, "ascontiguousarray", build_then_release)
        assert operand(weight, transpose=True).dtype == np.float64
        assert weight.pin is None and weight.data.flags.writeable

    def test_pins_count(self):
        weight = Linear(4, 3, rng=np.random.default_rng(0)).weight
        first, second = pin_operands([weight]), pin_operands([weight])
        prepared = operand(weight, transpose=True)
        first()
        assert operand(weight, transpose=True) is prepared
        second()
        assert operand(weight, transpose=True).base is weight.data


def _params(models):
    target, head = models
    return [*target.parameters(), *head.parameters()]


class TestPinningIsInvisible:
    """A served model's weights read exactly as an unpinned twin's.

    Once an engine's forwards have built a float32 weight's operand, the
    float64 operand is the weight's one stored copy; every raw read —
    ``param.data``, ``state_dict``, the ``Module`` forward, an optimizer —
    must still see the float32 array the twin holds.
    """

    @pytest.fixture
    def served(self, tokenizer):
        models = _tiny(0, tokenizer.vocab_size)
        twin = _tiny(0, tokenizer.vocab_size)
        engine = AASDEngine(*models, tokenizer, CostModel(get_profile("sim-7b")),
                            AASDEngineConfig(gamma=3, max_new_tokens=8))
        # packed_batch16's shape: one admission of 16, then packed rounds
        samples = make_dataset("coco-sim", 16, seed=3).samples
        report = serve_requests(engine, samples, ServingConfig(max_batch_size=16))
        assert report.count(STATUS_COMPLETED) == 16
        alive = [engine]
        del engine, report
        yield models, twin, alive

    def test_a_serve_rebuilds_no_weight_read_only_through_its_operand(self, served):
        models, twin, _ = served
        target, head = models
        # the tied embeddings' lookups read the float32 table: the one rebuild
        tied = {id(target.llama.embed.weight), id(head.embed.weight)}
        built = [p for p in _params(models) if p.pin.array is not None]
        assert len(built) > len(tied) and all(p.pin.array.dtype == np.float64 for p in built)
        for p, q in zip(_params(models), _params(twin)):
            assert (p.shape, p.dtype, p.size) == (q.shape, q.dtype, q.size)
        # answering shape / dtype / size rebuilt nothing either
        for p in built:
            assert (p.stored is p.pin.array) == (id(p) not in tied)

    def test_raw_reads_see_the_twins_arrays(self, served):
        models, twin, _ = served
        for p, q in zip(_params(models), _params(twin)):
            assert p.data.dtype == q.data.dtype == np.float32
            assert p.data.shape == q.data.shape
            assert p.data.tobytes() == q.data.tobytes()
        for mine, theirs in zip(models, twin):
            state, expected = mine.state_dict(), theirs.state_dict()
            assert list(state) == list(expected)
            for name in state:
                assert state[name].dtype == expected[name].dtype
                assert state[name].tobytes() == expected[name].tobytes()

    def test_the_module_forward_and_an_sgd_step_match_the_twins(self, served, spec):
        models, twin, _ = served
        sample = make_dataset("coco-sim", 1, seed=3).samples[0]
        prompt = np.array([1, 5, 7, 9])
        with spec.recording() as graphs:
            pairs = list(zip(_forwards(*models, sample.image, prompt),
                             _forwards(*twin, sample.image, prompt)))
        assert len(graphs) == 4 and all(logits.requires_grad for logits in graphs)
        for served_out, twin_out in pairs:
            assert np.array_equal(served_out, twin_out)
        rng = np.random.default_rng(2)
        for p, q in zip(_params(models), _params(twin)):
            p.grad = q.grad = rng.standard_normal(q.shape).astype(q.dtype)
        SGD(_params(models), lr=0.05).step()
        SGD(_params(twin), lr=0.05).step()
        for p, q in zip(_params(models), _params(twin)):
            assert p.data.dtype == q.data.dtype
            assert p.data.tobytes() == q.data.tobytes()

    def test_release_restores_the_pinned_arrays(self, served):
        models, twin, alive = served
        alive.clear()
        gc.collect()
        for p, q in zip(_params(models), _params(twin)):
            assert p.pin is None
            assert p.data.flags.c_contiguous and p.data.flags.writeable
            assert p.data.dtype == q.data.dtype and p.data.tobytes() == q.data.tobytes()


def test_operands_die_with_the_last_engine(smoke_zoo):
    zoo = ModelZoo(PROFILE_SMOKE, cache_dir=smoke_zoo.cache_dir, verbose=False)
    cost = CostModel(get_profile("sim-7b"))
    first, second = (build_aasd_engine(zoo, "sim-7b", 3, cost, max_new_tokens=4)
                     for _ in range(2))
    first.decode(zoo.eval_dataset("coco-sim", 1).samples[0])
    weight = zoo.target("sim-7b").llama.blocks[0].attn.wq.weight
    prepared = weakref.ref(operand(weight, transpose=True))
    assert prepared() is not None and prepared().dtype == np.float64
    del first
    gc.collect()
    assert prepared() is not None            # the second engine still serves
    del second
    gc.collect()
    assert prepared() is None
    weight.data[0, 0] = weight.data[0, 0]    # and the weight is writable again
