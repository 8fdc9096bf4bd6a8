"""Public API surface: documented entry points exist and are importable."""

import importlib

import pytest


def test_version():
    import repro

    assert repro.__version__ == "1.0.0"


@pytest.mark.parametrize(
    "module,names",
    [
        ("repro.nn", ["Tensor", "Module", "Linear", "RMSNorm", "MultiHeadAttention", "Adam"]),
        ("repro.tokenizer", ["WordTokenizer", "Vocab"]),
        ("repro.models", ["MiniLlama", "MiniLlava", "KVCache", "get_config"]),
        ("repro.data", ["make_dataset", "sample_scene", "ImageRenderer", "collate_multimodal"]),
        (
            "repro.core",
            [
                "KVProjector",
                "target_draft_attention",
                "naive_target_draft_attention",
                "AASDDraftHead",
                "AASDEngine",
                "HybridKVCache",
            ],
        ),
        (
            "repro.decoding",
            [
                "AutoregressiveDecoder",
                "Drafter",
                "LlamaTextDraft",
                "speculative_verify",
                "CostModel",
                "aggregate_metrics",
            ],
        ),
        ("repro.training", ["pretrain_lm", "finetune_target", "train_draft_head"]),
        ("repro.eval", ["run_table1", "run_figure4", "render_table1", "ExperimentRunner"]),
        ("repro.zoo", ["ModelZoo", "PROFILE_FULL", "PROFILE_SMOKE"]),
        (
            "repro.robustness",
            [
                "FaultyDraftHead",
                "corrupt_checkpoint",
                "inject_nan_weights",
                "ensure_finite",
                "check_hybrid_cache",
            ],
        ),
        (
            "repro.serving",
            [
                "ServeRequest",
                "ServeResult",
                "AdmissionQueue",
                "ContinuousBatchingScheduler",
                "ServingConfig",
                "serve_requests",
            ],
        ),
        ("repro.errors", ["CheckpointError", "GuardViolation", "ServingError", "AdmissionError"]),
    ],
)
def test_module_exports(module, names):
    mod = importlib.import_module(module)
    for name in names:
        assert hasattr(mod, name), f"{module} missing {name}"


def test_all_lists_are_accurate():
    for module in (
        "repro.nn",
        "repro.tokenizer",
        "repro.models",
        "repro.data",
        "repro.core",
        "repro.decoding",
        "repro.training",
        "repro.eval",
        "repro.robustness",
        "repro.serving",
    ):
        mod = importlib.import_module(module)
        for name in mod.__all__:
            assert hasattr(mod, name), f"{module}.__all__ lists missing {name}"
