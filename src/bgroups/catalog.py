"""Catalog of all groups of order <= 16 up to isomorphism.

Used by the exhaustive searches (truncated posets, classification
completeness).  Every entry is an explicit construction; a test asserts
the entries of each order are pairwise non-isomorphic and that the counts
match the classical census (1,1,1,2,1,2,1,5,2,2,1,5,1,2,1,14).
"""

from __future__ import annotations

from .groups import (
    Group,
    GroupError,
    cyclic_extension,
    dicyclic_3,
    dihedral_group,
    direct_product,
    make_cyclic,
    quaternion_group,
    quotient,
    semidirect_product,
    subgroup_generated,
    alternating_4,
)

CENSUS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5, 9: 2, 10: 2,
          11: 1, 12: 5, 13: 1, 14: 2, 15: 1, 16: 14}


def _prod(*groups: Group) -> Group:
    out = groups[0]
    for g in groups[1:]:
        out = direct_product(out, g).group
    return out


def _v4_rtimes_c4() -> Group:
    # C4 swaps the two C2 factors of V4
    V = _prod(make_cyclic(2), make_cyclic(2))
    swap = (0, 2, 1, 3)
    ident = (0, 1, 2, 3)
    return semidirect_product(V, make_cyclic(4), (ident, swap, ident, swap))


def _c4_rtimes_c4() -> Group:
    C4 = make_cyclic(4)
    inv = (0, 3, 2, 1)
    ident = (0, 1, 2, 3)
    return semidirect_product(C4, C4, (ident, inv, ident, inv))


def _pauli_group() -> Group:
    # central product D8 * C4 = (D8 x C4) / <(r^2, c^2)>
    D8 = dihedral_group(4)
    P = direct_product(D8, make_cyclic(4))
    # r = element (1,0) of D8 -> id 2 in the extension encoding; r^2 id 4
    r2 = 4
    z = P.pair(r2, 2)
    return quotient(P.group, subgroup_generated(P.group, [z]))[0]


def groups_of_order(n: int) -> tuple[Group, ...]:
    if n < 1 or n > 16:
        raise GroupError("catalog covers orders 1..16 only")
    C = make_cyclic
    if n in (1, 2, 3, 5, 7, 11, 13):
        return (C(n),)
    if n == 4:
        return (C(4), _prod(C(2), C(2)))
    if n == 6:
        return (C(6), dihedral_group(3))
    if n == 8:
        return (C(8), _prod(C(4), C(2)), _prod(C(2), C(2), C(2)),
                dihedral_group(4), quaternion_group())
    if n == 9:
        return (C(9), _prod(C(3), C(3)))
    if n == 10:
        return (C(10), dihedral_group(5))
    if n == 12:
        return (C(12), _prod(C(2), C(2), C(3)), dihedral_group(6),
                alternating_4(), dicyclic_3())
    if n == 14:
        return (C(14), dihedral_group(7))
    if n == 15:
        return (C(15),)
    # n == 16
    return (
        C(16),
        _prod(C(8), C(2)),
        _prod(C(4), C(4)),
        _prod(C(4), C(2), C(2)),
        _prod(C(2), C(2), C(2), C(2)),
        dihedral_group(8),                      # D16
        cyclic_extension(8, 0, 3, "SD16"),      # semidihedral
        cyclic_extension(8, 4, 7, "Q16"),       # generalized quaternion
        cyclic_extension(8, 0, 5, "M16"),       # modular
        _prod(dihedral_group(4), C(2)),
        _prod(quaternion_group(), C(2)),
        _c4_rtimes_c4(),
        _v4_rtimes_c4(),
        _pauli_group(),
    )


def groups_up_to_order(n: int) -> list[Group]:
    out: list[Group] = []
    for k in range(1, n + 1):
        out.extend(groups_of_order(k))
    return out
