"""Phase 0: the smoke zoo artifacts and the autoregressive reference.

``python -m benchmarks.e2e.provision`` trains the ``sim-7b`` target and its
AASD head if the zoo cache lacks them and decodes the request pool once with
``AutoregressiveDecoder``; both outcomes are kept under ``.cache/`` of the
checkout, keyed by the artifact checksums.  It runs as a process of its own
so that training never inflates the ``peak_rss_mb`` of a measuring run, and
its cost is reported as ``zoo.build_s`` / ``reference.ar_*``, never as part
of ``setup_s``.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, Optional

from repro.decoding import AutoregressiveDecoder, CostModel, get_profile
from repro.zoo import PROFILE_SMOKE, ModelZoo

from .workloads import MAX_NEW_TOKENS, TARGET, canonical_pool

__all__ = ["ROOT", "ZOO_DIR", "open_zoo", "write_json", "provisioned"]

ROOT = Path(__file__).resolve().parents[2]
ZOO_DIR = ROOT / ".cache" / "zoo" / "smoke-seed0"
STATE_DIR = ROOT / ".cache" / "e2e"
ARTIFACTS = ("target-sim-7b.npz", "aasd-sim-7b.npz")


def open_zoo() -> ModelZoo:
    """A fresh smoke zoo over this checkout's cache (nothing loaded yet)."""
    return ModelZoo(PROFILE_SMOKE, cache_dir=ZOO_DIR, verbose=False)


def write_json(path: Path, payload: object) -> None:
    """Write ``payload`` to ``path`` through a rename, so readers never see half."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload), encoding="utf-8")
    os.replace(tmp, path)


def _read_json(path: Path) -> Optional[dict]:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None


def _checksums() -> Optional[Dict[str, str]]:
    """SHA-256 of each zoo artifact, or ``None`` while one is missing."""
    if not all((ZOO_DIR / name).exists() for name in ARTIFACTS):
        return None
    return {name: hashlib.sha256((ZOO_DIR / name).read_bytes()).hexdigest()
            for name in ARTIFACTS}


def _load() -> Optional[Dict[str, object]]:
    """The recorded provisioning if it still describes the cached artifacts."""
    state = _read_json(STATE_DIR / "provision.json")
    reference = _read_json(STATE_DIR / "reference.json")
    checksums = _checksums()
    if state is None or reference is None or checksums is None:
        return None
    if state.get("checksums") != checksums or reference.get("checksums") != checksums:
        return None
    return {"zoo_build_s": state["zoo_build_s"], "checksums": checksums,
            "reference": reference}


def build() -> None:
    """Train what is missing, decode the reference, record both."""
    build_s = 0.0   # artifacts already in the cache cost nothing to build here
    if _checksums() is None:
        t0 = perf_counter()
        open_zoo().aasd_head(TARGET)
        build_s = perf_counter() - t0
    checksums = _checksums()
    zoo = open_zoo()
    decoder = AutoregressiveDecoder(
        zoo.target(TARGET), zoo.tokenizer(), CostModel(get_profile(TARGET)),
        max_new_tokens=MAX_NEW_TOKENS,
    )
    t0 = perf_counter()
    records = [decoder.decode(sample) for sample in canonical_pool(zoo)]
    wall_s = perf_counter() - t0
    n_tokens = sum(r.n_tokens for r in records)
    write_json(STATE_DIR / "reference.json", {
        "checksums": checksums,
        "tokens": [list(r.token_ids) for r in records],
        "ar_wall_tok_per_s": n_tokens / wall_s,
        "ar_sim_tok_per_s": n_tokens / (sum(r.sim_time_ms for r in records) / 1e3),
    })
    write_json(STATE_DIR / "provision.json", {"zoo_build_s": build_s, "checksums": checksums})


def provisioned() -> Dict[str, object]:
    """Artifact checksums, ``zoo_build_s`` and the reference; builds them if needed."""
    found = _load()
    if found is None:
        subprocess.run(
            [sys.executable, "-m", "benchmarks.e2e.provision"], cwd=ROOT, check=True,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        found = _load()
        if found is None:
            raise RuntimeError("provisioning left no usable zoo artifacts or reference")
    return found


if __name__ == "__main__":
    build()
