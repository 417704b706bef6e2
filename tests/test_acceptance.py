"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the PASS/FAIL lines.
All tolerances are exact; the timed criteria assert their stated budgets.
"""

import functools
import itertools
import json
import subprocess
import sys
import time

import pytest

from oracles import (
    CalibrationUnresolved,
    crossingless_generators,
    diff_sum,
    dividing_curve_components,
    local_case,
)
from strandcontact.arcdiag import (
    ArcDiagram,
    interior_steps,
    label_subsets,
    to_quad_surface,
)
from strandcontact.algebra import (
    diff_generator,
    end,
    enumerate_basis,
    generator_maslov2,
    hom_grading,
    mul_generators,
    mul_sums,
    start,
)
from strandcontact.contact import CubeData, ca_table, cube_tight
from strandcontact.homology import (
    INTERIOR,
    BOTH,
    algebra_triples,
    build_summand,
    homology_dims,
    is_boundary,
    summand_nonzero,
    total_dim,
)
from strandcontact.isoverify import corpus, sfh_table, verify

SQUARE = ArcDiagram((1, 1), (1, 1))
TORUS = ArcDiagram((4,), (1, 2, 1, 2))

CORPUS = corpus(3, 3)


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {number}: FAIL - {description}", flush=True)
                raise
            print(f"ACCEPTANCE {number}: PASS - {description}", flush=True)

        return run

    return wrap


@criterion(1, "single square: dim CA = dim H = 2 by independent paths, < 1 s")
def test_criterion_1_single_square():
    t0 = time.perf_counter()
    report = verify(SQUARE)
    elapsed = time.perf_counter() - t0
    assert report.success
    assert report.ca_dim == 2
    assert report.homology_dim == 2
    assert len(ca_table(SQUARE).basis) == 2
    chain_total = sum(
        total_dim(build_summand(SQUARE, *trip))
        for trip in algebra_triples(SQUARE)
    )
    assert chain_total == 2
    assert elapsed < 1.0


@criterion(2, "punctured torus: three-way table identical, surface invariants, < 5 s")
def test_criterion_2_punctured_torus():
    t0 = time.perf_counter()
    report = verify(TORUS)
    elapsed = time.perf_counter() - t0
    assert report.success
    for row in report.summands:
        assert row["contact"] == row["local"] == row["chain"]
    surf = to_quad_surface(TORUS)
    assert surf.euler_char == -1
    assert surf.genus == 1
    assert surf.boundary_components == 1
    assert len(surf.squares) == 2
    assert elapsed < 5.0


@criterion(3, "exhaustive corpus k<=3, l<=3 verifies, exit 0, < 10 min")
def test_criterion_3_corpus_verifies():
    t0 = time.perf_counter()
    assert CORPUS, "corpus must not be empty"
    for d in CORPUS:
        report = verify(d)
        assert report.success, (d, report.mismatches)
        assert report.unit_ok
        assert report.ca_dim == report.homology_dim
    proc = subprocess.run(
        [sys.executable, "-m", "strandcontact", "corpus", "--max-k", "3", "--max-l", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["all_ok"] is True
    assert time.perf_counter() - t0 < 600.0


@criterion(4, "DGA axioms over the corpus: d^2 = 0, Leibniz, Maslov drop of 2")
def test_criterion_4_dga_axioms():
    for d in CORPUS:
        gens = [g for i in range(d.k + 1) for g in enumerate_basis(d, i)]
        by_start = {}
        for g in gens:
            by_start.setdefault(start(d, g), []).append(g)
        for g in gens:
            dg = diff_generator(d, g)
            assert diff_sum(d, dg) == frozenset()
            m2 = generator_maslov2(d, g)
            for term in dg:
                assert generator_maslov2(d, term) == m2 - 2
        for g1 in gens:
            partners = by_start.get(end(d, g1), [])
            for g2 in partners:
                lhs = diff_sum(d, mul_generators(d, g1, g2))
                rhs = mul_sums(d, diff_generator(d, g1), frozenset({g2}))
                rhs ^= mul_sums(d, frozenset({g1}), diff_generator(d, g2))
                assert lhs == rhs, (d, g1, g2)


@criterion(5, "every summand is 0- or 1-dimensional in a single Maslov degree")
def test_criterion_5_summand_structure():
    for d in CORPUS:
        for trip in algebra_triples(d):
            summand = build_summand(d, *trip)
            dims = homology_dims(summand)
            assert sum(dims.values()) in (0, 1)
            assert len(dims) <= 1
            assert summand_nonzero(d, *trip) == (sum(dims.values()) == 1)


@criterion(6, "both crossingless realisations of interior pairs are homologous")
def test_criterion_6_homologous_realisations():
    configurations = 0
    for d in CORPUS:
        for trip in algebra_triples(d):
            if not summand_nonzero(d, *trip):
                continue
            s, t, h = trip
            interior_both = [
                lab
                for lab in range(1, d.k + 1)
                if local_case(d, h, s, t, lab) == (INTERIOR, INTERIOR, BOTH)
            ]
            if not interior_both:
                continue
            gens = crossingless_generators(d, s, t, h)
            assert len(gens) == 2 ** len(interior_both)
            summand = build_summand(d, s, t, h)
            for g1, g2 in itertools.combinations(gens, 2):
                assert is_boundary(summand, frozenset({g1, g2}))
            configurations += len(interior_both)
    assert configurations > 0, "corpus must exercise the interior-pair case"


@criterion(7, "counting identities hold on every corpus diagram")
def test_criterion_7_counting_identities():
    for d in CORPUS:
        surf = to_quad_surface(d)
        n_interior = len(interior_steps(d))
        assert n_interior == 2 * d.k - d.l
        assert surf.euler_char == d.l - d.k
        assert surf.index == d.k == len(surf.squares)
        assert len(label_subsets(d)) == 2**d.k
        for xi in ca_table(d).basis:
            assert len(xi.bottom) == len(xi.top)


@criterion(8, "curve-count oracle agrees with the tight-cube table on all 64 cubes")
def test_criterion_8_cube_oracle():
    try:
        verdicts = {
            c: dividing_curve_components(c)
            for c in (
                CubeData(*bits)
                for bits in itertools.product((False, True), repeat=6)
            )
        }
    except CalibrationUnresolved as exc:
        pytest.skip(f"calibration unresolved: {exc}")
    assert len(verdicts) == 64
    for c, components in verdicts.items():
        assert (components == 1) == cube_tight(c), c


@criterion(9, "sfh-table equals tight counts and homology dimensions on the corpus")
def test_criterion_9_sfh_table():
    for d in CORPUS:
        table = sfh_table(d)  # raises internally if sides disagree
        sets = table.dividing_sets
        total = 0
        for i, row in enumerate(table.matrix):
            assert row[i] >= 0
            total += sum(row)
        # diagonal entries carry at least the identity morphism
        for i in range(len(sets)):
            assert table.matrix[i][i] >= 1
        assert total == verify(d).ca_dim
