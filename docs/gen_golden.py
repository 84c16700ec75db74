#!/usr/bin/env python
"""Generate ``tests/golden/payload_digests.json``: the behaviour lock.

Every experiment payload is pinned byte for byte.  The golden file maps
``EXPERIMENT/profile`` to the SHA-256 of ``canonical_json(payload)`` (the
same canonicalisation as the artifact key) for every registered experiment
at the ``fast`` and ``default`` profiles.  A digest may change only in a
change whose CHANGES.md entry names the experiments and the reason.

The tier-1 suite checks the ``fast`` digests; CI checks ``default``.

Usage::

    PYTHONPATH=src python docs/gen_golden.py                    # (re)write the file
    PYTHONPATH=src python docs/gen_golden.py --check            # exit 1 on drift
    PYTHONPATH=src python docs/gen_golden.py --check --profile default
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN = REPO_ROOT / "tests" / "golden" / "payload_digests.json"
PROFILES = ("fast", "default")


def _ensure_importable() -> None:
    """Put the repo's ``src/`` on ``sys.path`` when PYTHONPATH was not set."""
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.path.insert(0, str(REPO_ROOT / "src"))


def payload_digests(profile: str) -> Dict[str, str]:
    """``{"EXPERIMENT/profile": sha256}`` for every experiment at *profile*."""
    _ensure_importable()
    from repro.experiments.artifacts import canonical_json
    from repro.experiments.runner import plan_shards, run_shards

    report = run_shards(plan_shards(None, profile))
    report.raise_failures()
    return {
        f"{payload['experiment_id']}/{profile}": hashlib.sha256(
            canonical_json(payload).encode("utf-8")
        ).hexdigest()
        for payload in report.payloads()
    }


def load_golden() -> Dict[str, str]:
    """The committed digests (empty when the file does not exist yet)."""
    return json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}


def drift(profile: str) -> Dict[str, tuple]:
    """``{key: (committed, computed)}`` for every digest of *profile* that differs."""
    committed = {k: v for k, v in load_golden().items() if k.endswith(f"/{profile}")}
    computed = payload_digests(profile)
    return {
        key: (committed.get(key), computed.get(key))
        for key in sorted(set(committed) | set(computed))
        if committed.get(key) != computed.get(key)
    }


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero when a payload digest differs from the committed file",
    )
    parser.add_argument(
        "--profile",
        action="append",
        choices=PROFILES,
        help="profile(s) to compute (repeatable; default: all of them)",
    )
    args = parser.parse_args(argv)
    profiles = tuple(args.profile or PROFILES)

    if args.check:
        status = 0
        for profile in profiles:
            for key, (committed, computed) in drift(profile).items():
                print(f"{key}: committed {committed}, computed {computed}", file=sys.stderr)
                status = 1
        if status:
            print(
                "payload digests drifted; if the change is deliberate, run "
                "`python docs/gen_golden.py` and name the experiments in CHANGES.md",
                file=sys.stderr,
            )
            return status
        print(f"payload digests match for profile(s): {', '.join(profiles)}")
        return 0

    digests = load_golden()
    for profile in profiles:
        digests = {k: v for k, v in digests.items() if not k.endswith(f"/{profile}")}
        digests.update(payload_digests(profile))
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
