"""Closed forms that give exact values with no lattice, to pin the library
where its own oracles are too slow.  Nothing here imports from `bgroups`:
each form takes plain integers and subgroup bit masks, so it shares no
code with what it checks."""

from fractions import Fraction


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


def gaussian_binomial(n: int, k: int, p: int) -> int:
    """[n k]_p, the number of k-dimensional subspaces of GF(p)^n."""
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def elementary_abelian_subgroup_count(p: int, n: int) -> int:
    """The number of subgroups of C_p^n, the subspaces of GF(p)^n of every
    dimension: sum_k [n k]_p."""
    return sum(gaussian_binomial(n, k, p) for k in range(n + 1))


def elementary_abelian_m_constant(p: int, n: int, d: int) -> Fraction:
    """m_{E,N} for N of rank d in E = C_p^n: prod_{i<d} (1 - p^(n-d-1+i)).
    The exponent is negative only at d = n, i = 0, where the factor is
    1 - 1/p; for d = n >= 2 the i = 1 factor is 0."""
    m = Fraction(1)
    for i in range(d):
        m *= 1 - Fraction(p) ** (n - d - 1 + i)
    return m


def p_group_is_b_group(p: int, order: int, cyclic: bool) -> bool:
    """Over K = 1, the p-groups that are B-groups are exactly 1 and
    C_p x C_p (Bouc, *Biset Functors for Finite Groups*, LNM 1990, ch. 5)."""
    return order == 1 or (order == p * p and not cyclic)


def p_group_beta_order(p: int, cyclic: bool) -> int:
    """|beta(P)| for a p-group P over K = 1.  Each quotient of a cyclic P is
    cyclic, and of those only 1 is a B-group.  A noncyclic P maps onto
    P/Phi(P) = C_p^r with r >= 2, hence onto C_p x C_p, and no quotient of
    order p^3 or more is a B-group.  So 1 when P is cyclic, p^2 otherwise."""
    return 1 if cyclic else p * p
