"""MiniLlama tests: forward paths, cache equivalence, tied head."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.models.config import LlamaConfig
from repro.models.llama import MiniLlama


@pytest.fixture()
def model(rng):
    return MiniLlama(LlamaConfig(vocab_size=30, dim=24, n_layers=2, n_heads=2, mlp_hidden=48), rng=rng)


class TestForward:
    def test_logits_shape(self, model, rng):
        ids = rng.integers(0, 30, size=(2, 7))
        out = model.forward(ids)
        assert out.logits.shape == (2, 7, 30)
        assert out.hidden.shape == (2, 7, 24)

    def test_1d_input_promoted(self, model):
        out = model.forward(np.array([1, 2, 3]))
        assert out.logits.shape == (1, 3, 30)

    def test_tied_lm_head(self, model):
        """Logits are hidden @ embedding^T (no separate head weights)."""
        names = [n for n, _ in model.named_parameters()]
        assert not any("lm_head" in n for n in names)

    def test_positions_length_mismatch(self, model, rng):
        x = model.embed_tokens(np.array([[1, 2, 3]]))
        with pytest.raises(ShapeError):
            model.forward_embeds(x, np.arange(5))


class TestCacheDecoding:
    def test_incremental_matches_full(self, model, rng):
        ids = rng.integers(0, 30, size=(1, 9))
        full = model.forward(ids)
        cache = model.new_cache()
        model.forward(ids[:, :5], cache=cache)
        out = model.forward(ids[:, 5:], cache=cache)
        assert np.abs(full.logits.data[:, 5:, :] - out.logits.data).max() < 1e-3
        assert cache.seq_len == 9

    def test_token_by_token_matches_full(self, model, rng):
        ids = rng.integers(0, 30, size=(1, 6))
        full = model.forward(ids)
        cache = model.new_cache()
        for t in range(6):
            out = model.forward(ids[:, t : t + 1], cache=cache)
            assert np.abs(full.logits.data[:, t, :] - out.logits.data[:, 0, :]).max() < 1e-3

    def test_positions_default_continue_from_cache(self, model, rng):
        cache = model.new_cache()
        model.forward(np.array([[1, 2, 3]]), cache=cache)
        model.forward(np.array([[4]]), cache=cache)
        assert np.array_equal(cache.positions, np.arange(4))


class TestTraining:
    def test_can_overfit_sequence(self, rng):
        model = MiniLlama(LlamaConfig(vocab_size=12, dim=16, n_layers=1, n_heads=2, mlp_hidden=32), rng=rng)
        from repro.nn import functional as F
        from repro.nn.optim import Adam
        ids = np.array([[1, 2, 3, 4, 5, 6]])
        opt = Adam(model.parameters(), lr=5e-3)
        for _ in range(150):
            opt.zero_grad()
            out = model.forward(ids[:, :-1])
            loss = F.cross_entropy(out.logits, ids[:, 1:])
            loss.backward()
            opt.step()
        assert loss.item() < 0.05
