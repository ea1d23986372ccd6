"""Cell views of ``Tower.grid_counts`` blocks, for tests that compare or
patch the kernel's answers one (pair, shift) at a time."""


def expand(blocks, height, width):
    """The blocks of a ``height`` x ``width`` grid as one row per pair of one
    ``(count, overflow, K)`` per shift.  Every cell must lie in exactly one
    block, each block must hold one count per row for each column, and its
    spans must partition its rows into nonempty ranges."""
    rows = [[None] * width for _ in range(height)]
    for members, cols, counts, spans in blocks:
        assert len(cols) == len(counts)
        assert all(len(column) == len(members) for column in counts)
        ends = [end for end, _, _ in spans]
        assert 0 < ends[0] and ends == sorted(set(ends)) and ends[-1] == len(members)
        start = 0
        for end, overflows, stages in spans:
            assert len(overflows) == len(stages) == len(cols)
            for col, column, overflow, K in zip(cols, counts, overflows, stages):
                for i, count in zip(members[start:end], column[start:end]):
                    assert rows[i][col] is None, f"cell ({i}, {col}) is in two blocks"
                    rows[i][col] = (count, overflow, K)
            start = end
    for i, row in enumerate(rows):
        assert None not in row, f"row {i} has a cell in no block"
    return rows


def triples(tower, pairs, shifts, max_stage):
    """``tower.grid_counts`` expanded into rows of ``(count, overflow, K)``."""
    pairs, shifts = list(pairs), list(shifts)
    return expand(tower.grid_counts(pairs, shifts, max_stage), len(pairs), len(shifts))


def packed(rows):
    """Rows of ``(count, overflow, K)`` as blocks of one pair each: the
    inverse of ``expand``."""
    return [([i], list(range(len(row))), [[count] for count, _, _ in row],
             [(1, [overflow for _, overflow, _ in row], [K for _, _, K in row])])
            for i, row in enumerate(rows)]
