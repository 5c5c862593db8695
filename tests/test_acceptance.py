"""Acceptance suite: nine exact criteria, one test each.

Every check is exact (integer/rational equality; no tolerances).  Each test
prints one PASS line on success; run with ``pytest tests/test_acceptance.py -v``
(add ``-s`` to see the lines on passing runs).
"""

import random
import time
from math import comb
from pathlib import Path

from logmc import (build_lattice, characteristic_polynomial,
                   chern_class_free_exponents, clear_denominator,
                   csm_at_minus_one, difference_class_arrangement,
                   difference_class_curve, euler_characteristic,
                   exponents_via_terao, grr_transform, kclass_O, KPoly,
                   load_arrangement, log_class_free, mc_complement_charpoly,
                   mc_complement_lattice_sum, mc_free_exponents, normalize,
                   singularity_from_json)
from test_arrangement import random_arrangement, subset_flats, whitney_chi

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

ARRANGEMENT_FILES = ("empty", "boolean3", "braid", "generic4", "concurrent3")
FREE_CORPUS = {"boolean3": (1, 1, 1), "braid": (1, 2, 3), "concurrent3": (1, 1, 2)}
SINGULARITY_FILES = ("node", "cusp", "tacnode", "triple_point")


def corpus_arrangement(stem):
    return load_arrangement(str(CORPUS / f"{stem}.arr"))


def _passed(k, text):
    print(f"[acceptance] criterion {k}: PASS: {text}")


def test_criterion_1_snc_vanishing():
    lat = build_lattice(corpus_arrangement("boolean3"))
    chi = characteristic_polynomial(lat)
    ones = (1, 1, 1)
    assert difference_class_arrangement(ones, lat, 2).is_zero()
    assert difference_class_arrangement(ones, chi, 2).is_zero()
    assert difference_class_arrangement(ones, None, 2).is_zero()
    for n in range(1, 5):
        assert difference_class_arrangement([1] * (n + 1), None, n).is_zero()
    _passed(1, "difference class vanishes exactly in the SNC cases (n <= 4)")


def test_criterion_2_nonvanishing():
    diff = difference_class_arrangement((1, 2, 3), None, 2)
    assert not diff.is_zero()
    _passed(2, "difference class for exponents {1,2,3} on P^2 is nonzero")


def test_criterion_3_csm_identity():
    for stem, exps in FREE_CORPUS.items():
        start = time.perf_counter()
        lat = build_lattice(corpus_arrangement(stem))
        n = lat.ambient_dim - 1
        csm_mc = csm_at_minus_one(mc_complement_lattice_sum(lat))
        csm_log = csm_at_minus_one(log_class_free(exps, n))
        product = chern_class_free_exponents(exps, n)
        assert csm_mc == csm_log == product, stem
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"{stem} took {elapsed:.3f}s"
    _passed(3, "CSM of both classes equals prod(1+(1-e_i)h) on the free corpus, <1s each")


def test_criterion_4_route_agreement():
    rng = random.Random(20260810)
    checked = 0
    while checked < 200:
        arr = random_arrangement(rng, max_forms=8, max_dim=4)
        lat = build_lattice(arr)
        chi = characteristic_polynomial(lat)
        n = arr.ambient_dim - 1
        assert mc_complement_lattice_sum(lat) == mc_complement_charpoly(chi, n)
        checked += 1
    for stem, exps in FREE_CORPUS.items():
        lat = build_lattice(corpus_arrangement(stem))
        n = lat.ambient_dim - 1
        assert mc_complement_lattice_sum(lat) == mc_free_exponents(exps, n)
    _passed(4, f"lattice and charpoly routes agree on {checked} random arrangements; "
               "exponent route agrees on the free corpus")


def test_criterion_5_terao_corpus():
    expected_chi = {
        "braid": [-6, 11, -6, 1],      # (t-1)(t-2)(t-3)
        "boolean3": [-1, 3, -3, 1],    # (t-1)^3
        "generic4": [-3, 6, -4, 1],    # (t-1)(t^2-3t+3)
    }
    for stem, coeffs in expected_chi.items():
        arr = corpus_arrangement(stem)
        chi = characteristic_polynomial(build_lattice(arr))
        assert list(chi.coeffs) == coeffs, stem
        padded = list(chi.coeffs) + [0] * (arr.ambient_dim + 1 - len(chi.coeffs))
        assert padded == whitney_chi(arr.forms, arr.ambient_dim), stem
    assert exponents_via_terao(characteristic_polynomial(
        build_lattice(corpus_arrangement("braid")))).exponents == (1, 2, 3)
    assert exponents_via_terao(characteristic_polynomial(
        build_lattice(corpus_arrangement("boolean3")))).exponents == (1, 1, 1)
    result = exponents_via_terao(characteristic_polynomial(
        build_lattice(corpus_arrangement("generic4"))))
    assert not result.splits
    assert list(result.remaining.coeffs) == [3, -3, 1]
    _passed(5, "corpus characteristic polynomials, exponents and the non-split "
               "verdict match the independent subset-sum oracle")


def test_criterion_6_grr_sanity():
    for n in range(0, 6):
        for k in range(0, n + 3):
            p = KPoly(n, (kclass_O(k, n),))
            top = grr_transform(p).coefficient(0).coeffs[n]
            assert top == comb(n + k, n), (n, k)
    _passed(6, "h^n coefficient of grr(O(k)) equals C(n+k, n) for n <= 5, k <= n+2")


def test_criterion_7_hirzebruch_polynomiality():
    count = 0
    for stem in ARRANGEMENT_FILES:
        lat = build_lattice(corpus_arrangement(stem))
        n = lat.ambient_dim - 1
        chi = characteristic_polynomial(lat)
        classes = [mc_complement_lattice_sum(lat), mc_complement_charpoly(chi, n)]
        if stem in FREE_CORPUS:
            exps = FREE_CORPUS[stem]
            classes += [mc_free_exponents(exps, n), log_class_free(exps, n)]
        for cls in classes:
            cleared = clear_denominator(normalize(grr_transform(cls)))
            assert cleared.delta == 0
            count += 1
    _passed(7, f"clear_denominator left zero remainder on all {count} corpus classes")


def test_criterion_8_curve_theorem():
    expected_pairs = {
        "node": (0, 0),
        "cusp": (-1, -1),
        "tacnode": (-1, -1),
        "triple_point": (-1, -1),
    }
    import json
    for stem, pair in expected_pairs.items():
        obj = json.loads((CORPUS / f"{stem}.json").read_text())
        sing = singularity_from_json(obj)  # local_invariants + branch_count + Milnor
        assert sing.mu == 2 * sing.delta - sing.r + 1, stem
        dc = difference_class_curve([sing])
        assert dc.pairs == (pair,), stem
        a, b = dc.pairs[0]
        assert a - b == sing.tau - sing.mu  # tau - 2 delta + r - 1 = tau - mu
    _passed(8, "per-point pairs and the y=-1 identity hold for node, cusp, "
               "tacnode and ordinary triple point")


def test_criterion_9_euler_characteristics():
    expected = {"braid": 2, "generic4": 1, "boolean3": 0, "concurrent3": 0, "empty": 3}
    for stem in ARRANGEMENT_FILES:
        arr = corpus_arrangement(stem)
        lat = build_lattice(arr)
        mobius_sum = sum(mu * dim for dim, mu in
                         subset_flats(list(arr.forms), arr.ambient_dim).values())
        assert sum(mu * dim for dim, mu in lat.dims_and_mobius()) == mobius_sum, stem
        csm = csm_at_minus_one(mc_complement_lattice_sum(lat))
        assert euler_characteristic(csm) == mobius_sum, stem
        assert mobius_sum == expected[stem], stem
    _passed(9, "degree-0 CSM coefficient equals the Moebius-dimension sum "
               "on the whole corpus (braid 2, generic4 1, boolean3 0)")
