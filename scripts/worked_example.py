#!/usr/bin/env python3
"""End-to-end analysis of the order-24 worked example.

Builds L = C2 x (C3 : C4) with its projection phi onto K = L/<a,b> (cyclic
of order 4), verifies that (L, phi) is a B_K-group, lists the m-constants
for every normal subgroup of the kernel, computes the minimal groups of the
associated simple module, and evaluates its dimension there.

Run:  python3 scripts/worked_example.py [--verbose]
"""

from __future__ import annotations

import argparse
import time

from bgroups.groups import (
    dicyclic_3,
    direct_product,
    make_cyclic,
    quotient,
    subgroup_generated,
    symmetric_group,
)
from bgroups.ideals import ideal_eval, minimal_groups, simple_dim
from bgroups.overk import GroupOverK, beta_k, is_bk_group, is_isomorphic
from bgroups.subgroups import enumerate_subgroups, m_constant, normal_subgroups


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--verbose", action="store_true",
                        help="also print ideal evaluations at the minimal groups")
    args = parser.parse_args()

    t0 = time.monotonic()
    L = direct_product(make_cyclic(2), dicyclic_3()).group
    a, b, c = 12, 4, 1
    assert L.element_order(a) == 2 and L.element_order(b) == 3
    assert L.element_order(c) == 4 and L.conj(b, c) == L.inv(b)
    P = subgroup_generated(L, [a, b])
    K, phi = quotient(L, P)
    x = GroupOverK(L, phi)
    print(f"L: order {L.order};  K = L/<a,b>: order {K.order} "
          f"({'cyclic' if K.is_cyclic() else 'noncyclic'})")

    lat = enumerate_subgroups(L)
    full = lat.subgroups[-1]
    print("m-constants over normal subgroups of the kernel:")
    for N in normal_subgroups(L):
        if N.mask & P.mask != N.mask:
            continue
        m = m_constant(lat, full, N)
        print(f"  |N| = {N.order}: m = {m.numerator}/{m.denominator}")

    verdict = is_bk_group(x)
    print(f"B_K-group: {verdict};  beta has order {beta_k(x).L.order}")

    mins = minimal_groups(x)
    G1 = dicyclic_3()
    G2 = direct_product(make_cyclic(2), symmetric_group(3)).group
    names = {id(G1): "C3:C4", id(G2): "C2xS3"}
    print(f"minimal groups ({len(mins)}):")
    for g in mins:
        tag = next(
            (names[id(ref)] for ref in (G1, G2) if is_isomorphic(g, ref)), "?"
        )
        print(f"  order {g.order}  ~ {tag};  simple dimension "
              f"{simple_dim(x, g)}")

    if args.verbose:
        for ref, tag in ((G1, "C3:C4"), (G2, "C2xS3")):
            ev = ideal_eval(x, ref)
            print(f"ideal evaluation at {tag}: {ev.dimension} basis class(es) "
                  f"out of {ev.dimension + len(ev.complement_classes)}")
    print(f"done in {time.monotonic() - t0:.2f}s")


if __name__ == "__main__":
    main()
