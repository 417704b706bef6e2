import itertools

import pytest
from hypothesis import given, settings, strategies as st

from oracles import StrandDiagram, all_diagrams, used_steps
from strandcontact.strands import differential, inversions, multiply

ONE_SEG = (4,)


def sd(strands, sizes=ONE_SEG):
    return StrandDiagram(sizes, tuple(strands))


def idem(places, sizes=ONE_SEG):
    return sd([(p, p) for p in places], sizes)


def diff_sum(x):
    """Differential of a GF(2) sum of strand tuples (a frozenset)."""
    acc = frozenset()
    for m in x:
        acc ^= differential(m)
    return acc


def mul_sums(x, y):
    """Bilinear product of two GF(2) sums of strand tuples."""
    acc = set()
    for m in x:
        for n in y:
            prod = multiply(m, n)
            if prod is not None:
                acc ^= {prod}
    return frozenset(acc)


def test_inversions_idempotent_empty():
    assert inversions(idem([1, 3]).strands) == frozenset()


def test_inversions_single_crossing():
    assert inversions(sd([(1, 3), (2, 2)]).strands) == frozenset({(1, 2)})


def test_inversions_parallel_strands():
    assert inversions(sd([(1, 2), (3, 4)]).strands) == frozenset()


def test_invalid_diagrams_rejected():
    with pytest.raises(ValueError):
        sd([(3, 2)])
    with pytest.raises(ValueError):
        sd([(1, 3)], sizes=(2, 2))
    with pytest.raises(ValueError):
        sd([(1, 3), (2, 3)])
    with pytest.raises(ValueError):
        sd([(1, 5)])


def test_multiply_idempotents():
    i_s = idem([1, 2]).strands
    i_t = idem([1, 3]).strands
    assert multiply(i_s, i_s) == i_s
    assert multiply(i_s, i_t) is None
    assert multiply(i_t, i_s) is None


def test_multiply_excess_inversion_is_zero():
    m = sd([(1, 3), (2, 2)]).strands
    n = sd([(2, 4), (3, 3)]).strands
    # composite would have 0 inversions against 1 + 1
    assert multiply(m, n) is None


def test_multiply_concatenates():
    assert multiply(sd([(1, 3)]).strands, sd([(3, 4)]).strands) == sd([(1, 4)]).strands


def test_differential_crossingless_is_zero():
    assert differential(idem([1, 2, 4]).strands) == frozenset()
    assert differential(sd([(1, 2), (3, 4)]).strands) == frozenset()


def test_differential_single_resolution():
    assert differential(sd([(1, 3), (2, 2)]).strands) == frozenset({sd([(1, 2), (2, 3)]).strands})


def test_used_steps():
    assert used_steps(idem([1, 3])) == frozenset()
    one = used_steps(sd([(1, 3)]))
    assert one == {(1, 2), (2, 3)}
    two = used_steps(sd([(1, 3), (2, 2)]))
    assert two == one


def small_corpora():
    corpora = []
    for sizes in [(4,), (2, 2), (3, 1)]:
        diagrams = []
        for count in range(sum(sizes) + 1):
            diagrams.extend(all_diagrams(sizes, count))
        corpora.append((sizes, diagrams))
    return corpora


def test_d_squared_zero_exhaustive():
    for sizes in [(6,), (4,), (3, 1), (2, 2), (1, 1), (2, 2, 2), (3, 3)]:
        for count in range(sum(sizes) + 1):
            for m in all_diagrams(sizes, count):
                assert diff_sum(differential(m.strands)) == frozenset()


def test_leibniz_exhaustive_small():
    for sizes, diagrams in small_corpora():
        by_source = {}
        for n in diagrams:
            by_source.setdefault((n.strand_count, n.source), []).append(n)
        for m in diagrams:
            for n in by_source.get((m.strand_count, m.target), []):
                prod = multiply(m.strands, n.strands)
                lhs = differential(prod) if prod is not None else frozenset()
                rhs = mul_sums(differential(m.strands), {n.strands})
                rhs ^= mul_sums({m.strands}, differential(n.strands))
                assert lhs == rhs


def test_used_steps_of_product_is_union():
    for sizes, diagrams in small_corpora():
        for m in diagrams:
            for n in diagrams:
                prod = multiply(m.strands, n.strands)
                if prod is not None:
                    composite = StrandDiagram(sizes, prod)
                    assert used_steps(composite) == used_steps(m) | used_steps(n)


DIAGRAMS_44 = [
    m.strands for count in range(5) for m in all_diagrams((4,), count)
]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.tuples(st.sampled_from(DIAGRAMS_44), st.sampled_from(DIAGRAMS_44), st.sampled_from(DIAGRAMS_44)))
def test_multiply_associative(triple):
    m, n, p = triple

    def mul(a, b):
        if a is None or b is None:
            return None
        return multiply(a, b)

    assert mul(mul(m, n), p) == mul(m, mul(n, p))


def test_element_addition_cancels():
    m = sd([(1, 3)])
    assert frozenset({m}) ^ frozenset({m}) == frozenset()
    assert str(m) == "{1->3}"
