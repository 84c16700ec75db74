"""Behaviour lock: every ``fast`` payload matches its committed golden digest.

``tests/golden/payload_digests.json`` pins the SHA-256 of the canonical JSON
of each experiment payload (``docs/gen_golden.py`` writes it).  The ``fast``
profile is checked here; CI checks ``default`` with
``python docs/gen_golden.py --check --profile default``.
"""

import importlib.util
from pathlib import Path

from repro.experiments.registry import list_experiments

DOCS_DIR = Path(__file__).resolve().parents[2] / "docs"


def _load_gen_golden():
    spec = importlib.util.spec_from_file_location("gen_golden", DOCS_DIR / "gen_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_golden_file_covers_every_experiment_and_profile():
    gen = _load_gen_golden()
    expected = {
        f"{experiment_id}/{profile}"
        for experiment_id in list_experiments()
        for profile in gen.PROFILES
    }
    assert set(gen.load_golden()) == expected


def test_fast_payload_digests_match_golden():
    gen = _load_gen_golden()
    assert gen.drift("fast") == {}, (
        "fast payloads drifted from tests/golden/payload_digests.json"
    )
