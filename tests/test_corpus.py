"""The committed output corpus replays byte for byte; see ``corpus.py``."""

import corpus


def test_every_case_replays_unchanged():
    moved = corpus.moved(corpus.committed(), corpus.run_corpus())
    assert not moved, f"{len(moved)} corpus cases moved:\n" + "\n".join(moved)
