"""Closed forms that give exact values with no lattice, to pin the library
where its own oracles are too slow.  Nothing here imports from `bgroups`:
each form takes plain integers and subgroup bit masks, so it shares no
code with what it checks."""


def abelian_mark(order: int, x_mask: int, y_mask: int) -> int:
    """The mark of X on G/Y, G abelian of the given order: for x in X,
    x·gY = g·xY, which is gY exactly when x lies in Y.  So X fixes every
    coset when X <= Y, |G:Y| of them, and none otherwise."""
    return order // y_mask.bit_count() if x_mask & y_mask == x_mask else 0


def abelian_mark_column(order: int, masks: list[int], y: int) -> dict[int, int]:
    """{x: marks[x][y]} over the nonzero marks of an abelian group of the
    given order, whose subgroups, each its own class, are `masks`."""
    marks = {x: abelian_mark(order, m, masks[y]) for x, m in enumerate(masks)}
    return {x: m for x, m in marks.items() if m}
