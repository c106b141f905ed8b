#!/usr/bin/env python3
"""Census of p-restricted ideal lattices over a family of shift groups K.

For each K and each prime p, prints the classification of p-persistent
B_K-groups by structural case, the component shape per subgroup class of K
(3-chain for cyclic H^[p], isolated point otherwise), and the total ideal
count 3^c * 2^nc, cross-checked, unless --no-verify, by closed-set counting.

Run:  python3 scripts/lattice_census.py [--primes 2,3] [--no-verify]
"""

from __future__ import annotations

import argparse
import time
from collections import Counter

from bgroups.groups import (
    Group,
    dihedral_group,
    direct_product,
    make_cyclic,
    quaternion_group,
    symmetric_group,
    trivial_group,
)
from bgroups.ideals import count_p_ideals, p_ideal_lattice
from bgroups.overk import CASE_EMBEDDING


def default_family() -> list[Group]:
    return [
        trivial_group(),
        make_cyclic(2),
        make_cyclic(3),
        make_cyclic(4),
        make_cyclic(6),
        direct_product(make_cyclic(2), make_cyclic(2)).group,
        symmetric_group(3),
        dihedral_group(4),
        quaternion_group(),
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--primes", default="2,3",
                        help="comma-separated primes (default 2,3)")
    parser.add_argument("--no-verify", action="store_true",
                        help="skip the brute-force closed-set cross-check")
    args = parser.parse_args()
    primes = [int(p) for p in args.primes.split(",")]

    for K in default_family():
        for p in primes:
            t0 = time.monotonic()
            desc = p_ideal_lattice(K, p)
            cases = Counter(filter(None, desc.cases))  # a C_p or C_p^2 node per cyclic H^[p]
            cases[CASE_EMBEDDING] = len(desc.cases)  # and (H, j_H) for every class H
            check = (
                "unchecked" if args.no_verify
                else "verified" if count_p_ideals(desc) == desc.total_ideals
                else "MISMATCH"
            )
            case_txt = ", ".join(f"{k}={v}" for k, v in sorted(cases.items()))
            print(
                f"K={K.label:<8} p={p}:  c={desc.c_count} nc={desc.nc_count} "
                f"total={desc.total_ideals:<6} [{check}] "
                f"({case_txt})  {time.monotonic() - t0:.2f}s"
            )


if __name__ == "__main__":
    main()
