"""The committed paper table rebuilds byte for byte; see ``paper_table.py``."""

import paper_table


def test_paper_table_rebuilds_unchanged():
    lines = paper_table.build_table()
    moved = paper_table.moved(paper_table.committed(), lines)
    assert not moved, f"{len(moved)} paper table rows moved:\n" + "\n".join(moved)
    assert paper_table.TABLE.read_bytes() == "".join(line + "\n" for line in lines).encode()
