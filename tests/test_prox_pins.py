"""Pinned results of a small corpus of proximal solves.

`tests/data/prox_pins.json` holds, per functional, the sha256 of the
sorted-key JSON lines of `prox_corpus.run(n_prox=20, n_mms=2)`: 572 `prox`
and `minimizing_movement` solves with their outputs, objectives, counters
and error messages.  Regenerate with `tests/prox_corpus.py --pins`; a change
that moves a pin names it and says why.
"""

import json
from pathlib import Path

import prox_corpus

PINS = Path(__file__).parent / "data" / "prox_pins.json"


def test_small_corpus_matches_pins():
    got = prox_corpus.digests(prox_corpus.run(n_prox=20, n_mms=2))
    assert got == json.loads(PINS.read_text())  # 26 functionals
