"""Acceptance suite: one test per criterion, exact-equality tolerances.

Each test prints a single PASS line on success (visible with `pytest -s`);
the per-test verdict in `pytest -v` output serves as the pass/fail line per
criterion otherwise.
"""

import os
import time
from fractions import Fraction

import pytest

from bgroups.burnside import gluck_idempotent, identity_element, m_const, marks_of, multiply, zero
from bgroups.catalog import groups_up_to_order
from bgroups.groups import (
    Subgroup,
    dicyclic_3,
    direct_product,
    kernel,
    make_cyclic,
    mask_of,
    quotient,
    subgroup_generated,
    symmetric_group,
    trivial_group,
    trivial_subgroup,
)
from bgroups.ideals import build_bk_poset, closed_subsets, minimal_groups, p_ideal_lattice, simple_dim, P_RESTRICTED
from bgroups.overk import (
    GroupOverK,
    beta_k,
    classify_p_persistent_bk,
    groups_over_k,
    is_bk_group,
    is_isomorphic,
    is_isomorphic_over_k,
    is_quotient_over_k,
    quotient_over_k,
)
from bgroups.subgroups import count_complements, enumerate_subgroups, m_constant, normal_subgroups

from util import (
    deflation_closed_form_holds,
    evaluation_stable_under_ops,
    idempotent_corpus,
    klein_four,
    order24_example,
    p_persistent_bk_search,
)


def _announce(n: int, started: float) -> None:
    print(f"CRITERION {n}: PASS ({time.monotonic() - started:.1f}s)")


def _worked_example():
    """(L, phi): L = C2 x (C3:C4) of order 24, phi: L ->> K of order 4 with
    kernel P = <a, b> isomorphic to C6."""
    L = order24_example()
    a, b = 12, 4
    P = subgroup_generated(L, [a, b])
    K, phi = quotient(L, P)
    return GroupOverK(L, phi), P


def test_criterion_1_worked_example():
    t0 = time.monotonic()
    x, P = _worked_example()
    L = x.L
    assert P.order == 6 and x.K.order == 4 and x.K.is_cyclic()
    # (a) m_{L,Q} = 0 exactly for the three nontrivial subgroups of P
    lat = enumerate_subgroups(L)
    full = lat.subgroups[-1]
    inside = [
        N for N in normal_subgroups(L)
        if N.mask & P.mask == N.mask and N.order > 1
    ]
    assert sorted(N.order for N in inside) == [2, 3, 6]
    for N in inside:
        assert m_constant(lat, full, N) == Fraction(0)
    # (b) B_K-group verdict
    assert is_bk_group(x)
    # (c) exactly two non-isomorphic minimal groups
    mins = minimal_groups(x)
    assert len(mins) == 2
    assert not is_isomorphic(mins[0], mins[1])
    G1 = dicyclic_3()
    G2 = direct_product(make_cyclic(2), symmetric_group(3)).group
    assert sorted(
        ("G1" if is_isomorphic(g, G1) else "G2" if is_isomorphic(g, G2) else "?")
        for g in mins
    ) == ["G1", "G2"]
    # (d) one-dimensional simple evaluations at each minimal group
    assert simple_dim(x, G1) == 1
    assert simple_dim(x, G2) == 1
    elapsed = time.monotonic() - t0
    assert elapsed < 10, f"criterion 1 exceeded 10s: {elapsed:.1f}s"
    _announce(1, t0)


def test_criterion_2_idempotent_suite():
    t0 = time.monotonic()
    for G in idempotent_corpus():
        lat = enumerate_subgroups(G)
        nc = lat.n_classes()
        es = [gluck_idempotent(G, lat.class_rep(c)) for c in range(nc)]
        total = zero(G)
        for i, ei in enumerate(es):
            # indicator marks
            assert marks_of(ei) == tuple(
                Fraction(1 if c == i else 0) for c in range(nc)
            )
            total = total + ei
            for j in range(i + 1):
                prod = multiply(ei, es[j])
                assert prod.coeffs == (ei.coeffs if i == j else zero(G).coeffs)
        assert total.coeffs == identity_element(G).coeffs
    elapsed = time.monotonic() - t0
    assert elapsed < 60, f"criterion 2 exceeded 60s: {elapsed:.1f}s"
    _announce(2, t0)


def test_criterion_3_deflation_lemma():
    t0 = time.monotonic()
    groups = groups_up_to_order(16) + [
        g for g in idempotent_corpus() if g.order > 16
    ]
    checked = 0
    for K in (trivial_group(), make_cyclic(2), make_cyclic(4)):
        for G in groups:
            if G.order * K.order > 48:
                continue
            assert deflation_closed_form_holds(G, K), (G.label, K.label)
            checked += 1
    assert checked > 50
    elapsed = time.monotonic() - t0
    assert elapsed < 120, f"criterion 3 exceeded 120s: {elapsed:.1f}s"
    _announce(3, t0)


def test_criterion_4_m_constant_properties():
    t0 = time.monotonic()
    groups = groups_up_to_order(16) + [
        g for g in idempotent_corpus() if 16 < g.order <= 24
    ]
    for G in groups:
        lat = enumerate_subgroups(G)
        full = lat.subgroups[-1]
        assert m_constant(lat, full, trivial_subgroup(G)) == 1
        norms = normal_subgroups(G)
        for Q in norms:
            GQ, pi = quotient(G, Q)
            latq = enumerate_subgroups(GQ)
            fullq = latq.subgroups[-1]
            for P in norms:
                if Q.mask & P.mask != Q.mask:
                    continue
                PQ = Subgroup(GQ, mask_of(pi.image[x] for x in P.elements()))
                assert m_constant(lat, full, P) == m_constant(
                    lat, full, Q
                ) * m_constant(latq, fullq, PQ)
        for Z in norms:
            p = Z.order
            if p not in (2, 3, 5, 7, 11, 13):
                continue
            if not all(
                G.mul(z, g) == G.mul(g, z)
                for z in Z.elements() for g in range(G.order)
            ):
                continue
            assert m_constant(lat, full, Z) == 1 - Fraction(
                count_complements(G, Z), p
            )
    _announce(4, t0)


def test_criterion_5_beta_suite():
    t0 = time.monotonic()
    for K in (trivial_group(), make_cyclic(2), make_cyclic(4)):
        for M in groups_up_to_order(16):
            lat = enumerate_subgroups(M)
            full = lat.subgroups[-1]
            for x in groups_over_k(M, K):
                b = beta_k(x)
                assert is_bk_group(b)
                assert is_quotient_over_k(x, b)
                # idempotence
                assert is_isomorphic_over_k(beta_k(b), b)
                ker = kernel(x.phi)
                admissible = [
                    N for N in normal_subgroups(M)
                    if N.mask & ker.mask == N.mask
                ]
                nonzero = [
                    N for N in admissible if m_constant(lat, full, N) != 0
                ]
                best = max(N.order for N in nonzero)
                # well-definedness over every maximal choice of Q
                for N in nonzero:
                    if N.order == best:
                        assert is_isomorphic_over_k(quotient_over_k(x, N), b)
                # beta is preserved under a quotient s exactly when
                # m_{M, Ker s} is nonzero
                for N in admissible:
                    y = quotient_over_k(x, N)
                    same = is_isomorphic_over_k(beta_k(y), b)
                    assert same == (m_constant(lat, full, N) != 0)
    _announce(5, t0)


def test_criterion_6_evaluation_stability():
    t0 = time.monotonic()
    K = make_cyclic(4)
    lat = enumerate_subgroups(K)
    from bgroups.overk import embedding_over

    bks = [embedding_over(K, lat.class_rep(c)) for c in range(lat.n_classes())]
    wx, _ = _worked_example()
    # relabel the worked example over the canonical C4: its K is the
    # quotient group, isomorphic to C4 but a distinct object
    from bgroups.overk import isomorphisms

    iso = next(isomorphisms(wx.K, K))
    bks.append(GroupOverK(wx.L, iso.compose(wx.phi)))
    targets = [
        make_cyclic(2),
        make_cyclic(4),
        klein_four(),
        symmetric_group(3),
    ]
    for bk in bks:
        assert is_bk_group(bk)
        for G in targets:
            if G.order * K.order > 48:
                continue
            assert evaluation_stable_under_ops(bk, G, K), (bk, G.label)
    _announce(6, t0)


def test_criterion_7_lattice_counts():
    t0 = time.monotonic()
    ks = [
        trivial_group(),
        make_cyclic(2),
        make_cyclic(3),
        make_cyclic(4),
        klein_four(),
        symmetric_group(3),
    ]
    results = {}
    for K in ks:
        for p in (2, 3):
            desc = p_ideal_lattice(K, p, verify=False)
            poset = build_bk_poset(K, P_RESTRICTED, p=p)
            brute = len(closed_subsets(poset))
            assert desc.total_ideals == brute, (K.label, p)
            assert desc.total_ideals == 3 ** desc.c_count * 2 ** desc.nc_count
            results[(K.label, p)] = desc.total_ideals
    assert results[("C4", 2)] == 27
    assert results[("C2xC2", 2)] == 162
    elapsed = time.monotonic() - t0
    assert elapsed < 30, f"criterion 7 exceeded 30s: {elapsed:.1f}s"
    _announce(7, t0)


def test_criterion_8_classification_completeness():
    t0 = time.monotonic()
    p = 2
    for K in (make_cyclic(2), make_cyclic(4), klein_four()):
        emitted = [x for x, _ in classify_p_persistent_bk(K, p)]
        found = p_persistent_bk_search(K, p)
        # no extras, none missing
        assert len(found) == len(emitted), K.label
        for f in found:
            assert any(is_isomorphic_over_k(f, e) for e in emitted), K.label
        for e in emitted:
            assert any(is_isomorphic_over_k(e, f) for f in found), K.label
    _announce(8, t0)


def test_criterion_9_cli_golden_files(capsys):
    t0 = time.monotonic()
    from bgroups.cli import main

    golden = os.path.join(os.path.dirname(__file__), "golden")
    spec = os.path.join(golden, "worked_example.bspec")
    cases = [
        ("idempotent.txt",
         ["idempotent", spec, "--group", "S3", "--subgroup", "1,2"]),
        ("beta_k.txt", ["beta-k", spec, "--k", "K", "--l", "L", "--phi", "phi"]),
        ("simple.txt", ["simple", spec, "--k", "K", "--l", "L", "--phi", "phi",
                        "--targets", "G1,G2"]),
        ("p_lattice.txt", ["p-lattice", spec, "--k", "C4", "--p", "2"]),
    ]
    for fname, args in cases:
        assert main(args) == 0
        out = capsys.readouterr().out
        with open(os.path.join(golden, fname), "r", encoding="utf-8") as fh:
            assert out == fh.read(), fname
    with capsys.disabled():
        _announce(9, t0)
