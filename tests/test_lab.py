import math
import random
from fractions import Fraction

import pytest

from limprof.errors import (
    DegenerateError,
    EmptyInputError,
    RangeError,
    ShapeError,
)
from limprof.lab import (
    PrefixSequence,
    cantor_unpair,
    combo_values,
    estimate_clusters,
    gen_combo,
    gen_fq,
    gen_rich,
    gen_spaceable,
    h_sequence,
    realize_atoms,
)
from limprof.rationals import calkin_wilf, first_unit_rationals, unit_rationals


def test_calkin_wilf_prefix():
    gen = calkin_wilf()
    first = [next(gen) for _ in range(8)]
    assert first == [
        Fraction(1),
        Fraction(1, 2),
        Fraction(2),
        Fraction(1, 3),
        Fraction(3, 2),
        Fraction(2, 3),
        Fraction(3),
        Fraction(1, 4),
    ]


def test_unit_rationals_prefix():
    assert first_unit_rationals(5) == (
        Fraction(1, 2),
        Fraction(1, 3),
        Fraction(2, 3),
        Fraction(1, 4),
        Fraction(3, 5),
    )


def test_unit_rationals_all_in_open_interval():
    gen = unit_rationals()
    for _ in range(200):
        q = next(gen)
        assert 0 < q < 1


def test_unit_rationals_no_repeats():
    seen = first_unit_rationals(300)
    assert len(set(seen)) == 300


def test_dyadic_realization_examples():
    r = realize_atoms("dyadic-valuation")
    assert [r.label(m) for m in (0, 2, 4)] == [0, 0, 0]
    assert r.label(1) == 1
    assert r.label(3) == 2
    # atom j hit infinitely often: members are 2^j*(2i+1)-1
    assert list(r.members(2, 4)) == [3, 11, 19, 27]
    assert [r.rank(m) for m in (0, 2, 4)] == [0, 1, 2]


def test_pairing_realization_examples():
    r = realize_atoms("pairing")
    assert r.label(0) == (0, 0)
    seen = {r.label(m) for m in range(200)}
    assert (0, 0) in seen and (1, 0) in seen and (0, 1) in seen


def test_cantor_unpair_roundtrip():
    assert cantor_unpair(0) == (0, 0)
    seen = set()
    for z in range(100):
        pair = cantor_unpair(z)
        assert pair not in seen
        seen.add(pair)


def test_realize_atoms_unknown_scheme():
    with pytest.raises(ShapeError):
        realize_atoms("mystery")


def test_gen_fq_examples():
    f = gen_fq(Fraction(1, 2))
    vals = f.evaluate(5)
    assert vals[0] == Fraction(1)
    assert vals[1] == Fraction(1, 2)
    assert vals[3] == Fraction(1, 4)
    assert all(0 < v <= 1 for v in f.evaluate(100))
    powers = {Fraction(1, 2 ** j) for j in range(20)}
    assert set(f.evaluate(1000)) <= powers


def test_gen_fq_range():
    with pytest.raises(RangeError):
        gen_fq(Fraction(3, 2))
    with pytest.raises(RangeError):
        gen_fq(Fraction(0))


def test_gen_combo_h_values():
    c = gen_combo([1, 1], [Fraction(1, 2), Fraction(1, 3)])
    vals = c.evaluate(4)
    assert vals[0] == Fraction(2)  # atom 0
    assert vals[1] == Fraction(5, 6)  # atom 1
    assert vals[3] == Fraction(13, 36)  # atom 2


def test_gen_combo_single_term_reduces_to_fq():
    c = gen_combo([1], [Fraction(1, 2)])
    f = gen_fq(Fraction(1, 2))
    assert c.evaluate(64) == f.evaluate(64)


def test_gen_combo_validation():
    with pytest.raises(DegenerateError):
        gen_combo([1, -1], [Fraction(1, 2), Fraction(1, 2)])
    with pytest.raises(ShapeError):
        gen_combo([1], [Fraction(1, 2), Fraction(1, 3)])
    with pytest.raises(RangeError):
        gen_combo([1], [Fraction(2)])


def test_prefix_extension_consistency():
    c = gen_combo([1, -2], [Fraction(1, 3), Fraction(2, 5)])
    assert c.evaluate(128)[:64] == c.evaluate(64)


def test_atom_values_constant_within_prefix():
    r = realize_atoms("dyadic-valuation")
    c = gen_combo([2, 1], [Fraction(1, 2), Fraction(1, 5)])
    h = combo_values([2, 1], [Fraction(1, 2), Fraction(1, 5)])
    for m, v in enumerate(c.evaluate(512)):
        assert v == h(r.label(m))


def test_h_sequence_distinct():
    rep = h_sequence([1, 1], [Fraction(1, 2), Fraction(1, 3)], 30)
    assert rep.distinct_count == 30
    assert not rep.repeats


def test_h_sequence_monotone_single_term():
    rep = h_sequence([1], [Fraction(1, 2)], 10)
    assert list(rep.values) == sorted(rep.values, reverse=True)
    assert rep.distinct_count == 10


def test_h_sequence_reports_collisions():
    # d = (1, -1), q = (1/2, 1/4): h_0 = 0 = limit; h_j != h_i for i != j > 0
    rep = h_sequence([1, -1], [Fraction(1, 2), Fraction(1, 4)], 20)
    collided = {v for v, idx in rep.repeats}
    assert rep.distinct_count + sum(len(idx) - 1 for _, idx in rep.repeats) == 20
    assert rep.distinct_count >= 19
    assert all(len(idx) >= 2 for _, idx in rep.repeats)
    assert collided <= set(rep.values)


def test_gen_rich_atom_zero_enumerates_unit_rationals():
    r = realize_atoms("dyadic-valuation")
    g = gen_rich(Fraction(1, 2))
    vals = g.evaluate(64)
    atom0 = [vals[m] for m in range(64) if r.label(m) == 0]
    assert atom0 == list(first_unit_rationals(len(atom0)))
    assert all(0 < v < 1 for v in vals)


def test_gen_rich_epsilon_fills_unit_interval():
    r = realize_atoms("dyadic-valuation")
    g = gen_rich(Fraction(1, 2))
    vals = g.evaluate(10_000)
    atom0 = [float(vals[m]) for m in range(10_000) if r.label(m) == 0]
    buckets = {int(v / 0.1) for v in atom0}
    assert buckets >= set(range(10))


def test_gen_spaceable_block_values():
    r = realize_atoms("pairing")
    g13 = gen_spaceable([1, 3], 2, 4)
    vals = g13.evaluate(4096)
    for m, v in enumerate(vals):
        n, k = r.label(m)
        if n <= 1 and k <= 4:
            assert v == (1 if n == 0 else 3) * Fraction(1, 2 ** k)
        else:
            assert v == 0
    nonzero = {v for v in vals if v != 0}
    # the early blocks are all visible within this prefix
    assert {Fraction(1), Fraction(1, 2), Fraction(3), Fraction(3, 2)} <= nonzero
    dyadics = {Fraction(1, 2 ** k) for k in range(5)}
    assert nonzero <= dyadics | {3 * v for v in dyadics}


def test_gen_spaceable_validation():
    with pytest.raises(ShapeError):
        gen_spaceable([1, 1, 1], 2, 4)


def test_estimate_clusters_constant():
    const = PrefixSequence("const", lambda m: Fraction(5))
    est = estimate_clusters(const, 100)
    assert len(est.centers) == 1
    center, count = est.centers[0]
    assert center == 5.0 and count == 50


def test_estimate_clusters_validation():
    const = PrefixSequence("const", lambda m: Fraction(5))
    with pytest.raises(EmptyInputError):
        estimate_clusters(const, 0)
    with pytest.raises(RangeError):
        estimate_clusters(const, 10, tail_fraction=0.0)


def test_estimate_clusters_fq_powers():
    f = gen_fq(Fraction(1, 2))
    est = estimate_clusters(f, 2 ** 16, tail_fraction=0.5, epsilon=1e-3)
    assert len(est.centers) >= 10
    # centers sit near powers of 1/2 (or the 0 pile-up)
    for center, _ in est.centers:
        nearest = min(
            abs(center - t) for t in [0.0] + [0.5 ** j for j in range(20)]
        )
        assert nearest < 1e-3


def test_estimate_clusters_evaluates_only_the_tail():
    """value_at is a pure function of the index, so the head of the prefix
    is never needed: exactly tail_len calls, all of them inside the tail."""
    base = gen_combo([1, 1], [Fraction(1, 2), Fraction(1, 3)])
    for n, tail in ((1000, 0.5), (1001, 0.25), (7, 1.0)):
        seen = []

        def value_at(m):
            seen.append(m)
            return base.value_at(m)

        counted = PrefixSequence(base.descriptor, value_at)
        est = estimate_clusters(counted, n, tail_fraction=tail, epsilon=1e-4)
        tail_len = math.ceil(n * tail)
        assert sorted(seen) == list(range(n - tail_len, n))
        assert sum(k for _, k in est.centers) == tail_len
        assert est == estimate_clusters(base, n, tail_fraction=tail, epsilon=1e-4)


def test_cluster_count_monotone_in_length():
    c = gen_combo([1, 1], [Fraction(1, 2), Fraction(1, 3)])
    for n in (1 << 10, 1 << 12):
        small = estimate_clusters(c, n, epsilon=1e-4)
        big = estimate_clusters(c, 2 * n, epsilon=1e-4)
        assert len(big.centers) >= len(small.centers) - 1


def test_cluster_json_shape():
    f = gen_fq(Fraction(1, 2))
    est = estimate_clusters(f, 1024, epsilon=1e-3)
    data = est.to_json()
    assert set(data) == {"centers", "epsilon", "tail"}
    assert data["tail"] == 0.5
    assert all(len(pair) == 2 for pair in data["centers"])


def test_h_distinct_count_grows_for_random_params():
    rng = random.Random(24)
    for _ in range(10):
        terms = rng.randint(1, 4)
        qs = rng.sample(
            sorted({Fraction(a, b) for b in range(2, 9) for a in range(1, b)}),
            terms,
        )
        ds = [Fraction(rng.choice([-3, -2, -1, 1, 2, 3])) for _ in range(terms)]
        r30 = h_sequence(ds, qs, 30).distinct_count
        r60 = h_sequence(ds, qs, 60).distinct_count
        assert r60 > r30
