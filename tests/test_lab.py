import dataclasses
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import chain, islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
)
from limprof.rationals import UnitRationalTable, first_unit_rationals

from lab_oracle import (
    calkin_wilf_pairs,
    combo_levels_oracle,
    estimate_by_triples,
    evaluate,
    realize_atoms,
    triple_clusters,
)


def table_pairs(count):
    """The first ``count`` unit rationals of the level table as pairs."""
    table = UnitRationalTable()
    table.extend_to(count)
    assert len(table.nums) == len(table.dens) == count
    return list(zip(table.nums, table.dens))


def tree_terms(count):
    """The first ``count`` Calkin-Wilf terms a/b read off the level table,
    whose left children are a/(a + b)."""
    return [(a, s - a) for a, s in table_pairs(count)]


def test_calkin_wilf_prefix():
    assert tree_terms(8) == [(1, 1), (1, 2), (2, 1), (1, 3), (3, 2), (2, 3), (3, 1), (1, 4)]


def fraction_calkin_wilf():
    """The recurrence q -> 1 / (2 floor(q) - q + 1) on Fractions."""
    q = Fraction(1)
    while True:
        yield q
        q = 1 / (2 * Fraction(math.floor(q)) - q + 1)


def test_calkin_wilf_matches_fraction_recurrence():
    """The level table holds the first 2^16 tree terms and unit rationals
    of the per-step recurrence, in order."""
    count = 1 << 16
    terms = list(islice(fraction_calkin_wilf(), count))
    assert [Fraction(a, b) for a, b in tree_terms(count)] == terms
    assert list(islice(calkin_wilf_pairs(), count)) == [(q.numerator, q.denominator)
                                                        for q in terms]
    oracle = (q for q in fraction_calkin_wilf() if q < 1)
    assert [Fraction(a, b) for a, b in table_pairs(count)] == list(islice(oracle, count))
    assert list(first_unit_rationals(1 << 15)) == [Fraction(a, b)
                                                   for a, b in table_pairs(1 << 15)]


def test_unit_rational_pairs_are_the_filtered_walk():
    """The table's unit rationals are the per-step walk's terms below 1, in
    order and in lowest terms, however the table is grown: to any count
    (a level's end, its first term, the middle of a level), in any order."""
    filtered = list(islice(((a, b) for a, b in calkin_wilf_pairs() if a < b), 200_000))
    assert table_pairs(200_000) == filtered
    assert all(math.gcd(a, b) == 1 for a, b in filtered)
    rng = random.Random("table-growth")
    table = UnitRationalTable()
    for count in [0, 1, 1, 2, 3, 7, 8, 6, 1000, 1023, 1024, 1025, 4096]:
        count += rng.randrange(2)
        table.extend_to(count)
        assert list(zip(table.nums, table.dens)) == filtered[:max(count, len(table.nums))]
    assert list(islice(unit_rationals(), 5000)) == list(first_unit_rationals(5000))
    assert first_unit_rationals(0) == () and len(first_unit_rationals(1023)) == 1023


def unit_rationals():
    """The unit rationals one at a time, from a table grown one term a step."""
    table = UnitRationalTable()
    while True:
        i = len(table.nums)
        table.extend_to(i + 1)
        yield Fraction(table.nums[i], table.dens[i])


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
    vals = evaluate(f, 5)
    assert vals[0] == Fraction(1)
    assert vals[1] == Fraction(1, 2)
    assert vals[3] == Fraction(1, 4)
    assert all(0 < v <= 1 for v in evaluate(f, 100))
    powers = {Fraction(1, 2 ** j) for j in range(20)}
    assert set(evaluate(f, 1000)) <= powers


def test_gen_fq_range():
    with pytest.raises(RangeError):
        gen_fq(Fraction(3, 2))
    with pytest.raises(RangeError):
        gen_fq(Fraction(0))


def test_gen_combo_h_values():
    c = gen_combo([1, 1], [Fraction(1, 2), Fraction(1, 3)])
    vals = evaluate(c, 4)
    assert vals[0] == Fraction(2)  # atom 0
    assert vals[1] == Fraction(5, 6)  # atom 1
    assert vals[3] == Fraction(13, 36)  # atom 2


def test_gen_combo_single_term_reduces_to_fq():
    c = gen_combo([1], [Fraction(1, 2)])
    f = gen_fq(Fraction(1, 2))
    assert evaluate(c, 64) == evaluate(f, 64)


def test_gen_combo_validation():
    with pytest.raises(DegenerateError):
        gen_combo([1, -1], [Fraction(1, 2), Fraction(1, 2)])
    with pytest.raises(ShapeError):
        gen_combo([1], [Fraction(1, 2), Fraction(1, 3)])
    with pytest.raises(RangeError):
        gen_combo([1], [Fraction(2)])


def test_prefix_extension_consistency():
    c = gen_combo([1, -2], [Fraction(1, 3), Fraction(2, 5)])
    assert evaluate(c, 128)[:64] == evaluate(c, 64)


def test_atom_values_constant_within_prefix():
    r = realize_atoms("dyadic-valuation")
    c = gen_combo([2, 1], [Fraction(1, 2), Fraction(1, 5)])
    h = combo_values([2, 1], [Fraction(1, 2), Fraction(1, 5)])
    for m, v in enumerate(evaluate(c, 512)):
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
    vals = evaluate(g, 64)
    atom0 = [vals[m] for m in range(64) if r.label(m) == 0]
    assert atom0 == list(first_unit_rationals(len(atom0)))
    assert all(0 < v < 1 for v in vals)


def test_gen_rich_epsilon_fills_unit_interval():
    r = realize_atoms("dyadic-valuation")
    g = gen_rich(Fraction(1, 2))
    vals = evaluate(g, 10_000)
    atom0 = [float(vals[m]) for m in range(10_000) if r.label(m) == 0]
    buckets = {int(v / 0.1) for v in atom0}
    assert buckets >= set(range(10))


def test_gen_spaceable_block_values():
    r = realize_atoms("pairing")
    g13 = gen_spaceable([1, 3], 2, 4)
    vals = evaluate(g13, 4096)
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


GENERATORS = {
    "fq": lambda: gen_fq(Fraction(2, 3)),
    "combo": lambda: gen_combo([1, 1], [Fraction(1, 2), Fraction(1, 3)]),
    "combo-signed": lambda: gen_combo([Fraction(7, 3), Fraction(-9, 4)],
                                      [Fraction(3, 4), Fraction(1, 5)]),
    "rich": lambda: gen_rich(Fraction(1, 2)),
    "spaceable": lambda: gen_spaceable([Fraction(-5, 2), Fraction(4, 3), -1], 3, 8,
                                       "rational-dense"),
}


def test_estimate_clusters_evaluates_only_the_tail():
    """value_at is a pure function of the index, so the head of the prefix
    is never needed. A sequence built from value_at alone has one level per
    index: exactly tail_len calls, all inside the tail, and the estimate is
    bit for bit the one the generator's own levels give."""
    for name, make in GENERATORS.items():
        base = make()
        for n, tail in ((1000, 0.5), (1001, 0.25), (7, 1.0), (4099, 0.5)):
            seen = []

            def value_at(m):
                seen.append(m)
                return base.value_at(m)

            counted = PrefixSequence(base.descriptor, value_at)
            est = estimate_clusters(counted, n, tail_fraction=tail, epsilon=1e-4)
            tail_len = math.ceil(n * tail)
            assert sorted(seen) == list(range(n - tail_len, n)), name
            assert sum(k for _, k in est.centers) == tail_len
            assert est == estimate_clusters(base, n, tail_fraction=tail, epsilon=1e-4), name


def expand(blocks):
    """The values of a block walk, in its order, each repeated by its
    block's multiplicity."""
    out = []
    for nums, dens, k in blocks:
        assert k > 0
        pairs = list(zip(nums, dens))
        assert all(den > 0 for _, den in pairs)
        out += chain.from_iterable([Fraction(num, den)] * k for num, den in pairs)
    return out


def atom_order(a, b):
    """The indices of [a, b) as the generators' block walks list them:
    atom by atom in ascending order, each atom's indices by rank."""
    r = realize_atoms("dyadic-valuation")
    return sorted(range(a, b), key=lambda m: (r.label(m), r.rank(m)))


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_levels_match_value_at(name):
    """The block walk of each generator, flattened, lists value_at of the
    indices in [a, b) index by index, atom by atom."""
    seq = GENERATORS[name]()
    rng = random.Random(f"levels/{name}")
    ranges = [(0, 0), (0, 1), (0, 2), (1, 2), (0, 5), (3, 3), (37, 1001), (1 << 12, 1 << 13)]
    for _ in range(20):
        a = rng.randrange(0, 5000) if rng.random() < 0.8 else 0
        ranges.append((a, a + rng.randrange(0, 3000)))
    # criterion 11's largest prefix: its whole tail for the valuation
    # generators, whose value_at is cheap, and the last 5000 indices for rich
    ranges.append(((1 << 20) - 5000 if name == "rich" else 1 << 19, 1 << 20))
    for a, b in ranges:
        assert expand(seq.blocks(a, b)) == [seq.value_at(m) for m in atom_order(a, b)], (a, b)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_block_walk_matches_value_at_on_random_ranges(data):
    """Any [a, b), empty or from 0 included, on every generator and on a
    hand-built sequence, whose one block lists value_at in index order."""
    name = data.draw(st.sampled_from(sorted(GENERATORS) + ["hand-built"]))
    a = data.draw(st.one_of(st.just(0), st.integers(0, 1 << 14)))
    b = a + data.draw(st.integers(0, 3000))
    if name == "hand-built":
        seq = PrefixSequence("hand", lambda m: Fraction(m % 7 - 3, m % 5 + 1))
        blocks = list(seq.blocks(a, b))
        assert [k for _, _, k in blocks] == [1]
        assert expand(blocks) == [seq.value_at(m) for m in range(a, b)]
    else:
        seq = GENERATORS[name]()
        assert expand(seq.blocks(a, b)) == [seq.value_at(m) for m in atom_order(a, b)]


def test_valuation_generators_skip_value_at():
    """fq, combo and spaceable list a tail atom by atom: a 2^40 prefix
    takes about 40 one-value blocks and no value_at call."""

    def refuse(m):
        raise AssertionError("value_at called")

    for name in ("fq", "combo", "spaceable"):
        seq = dataclasses.replace(GENERATORS[name](), value_at=refuse)
        assert len(list(seq.blocks(0, 1 << 40))) <= 41
        est = estimate_clusters(seq, 1 << 40, epsilon=1e-9)
        assert sum(k for _, k in est.centers) == 1 << 39


def float_sum_clusters(seq, n, tail_fraction, epsilon):
    """The per-index estimator this module used to run: evaluate every tail
    index, split the sorted floats at gaps > epsilon, and take running float
    sums over group sizes as centers."""
    tail_len = max(1, math.ceil(n * tail_fraction))
    tail = sorted(float(seq.value_at(m)) for m in range(n - tail_len, n))
    if epsilon is None:
        sup = max(abs(v) for v in tail)
        epsilon = 1e-6 * sup if sup > 0 else 1e-6
    centers, start = [], 0
    for i in range(1, len(tail) + 1):
        if i == len(tail) or tail[i] - tail[i - 1] > epsilon:
            group = tail[start:i]
            centers.append((sum(group) / len(group), len(group)))
            start = i
    return centers


def test_estimate_clusters_matches_float_sum_estimator():
    """Level counts leave every support unchanged; exact means move centers
    only in the last bits."""
    for name, make in GENERATORS.items():
        seq = make()
        for n in (1000, 4099, 1 << 14):
            for eps in (None, 1e-2, 1e-4, 1e-7):
                got = estimate_clusters(seq, n, epsilon=eps).centers
                want = float_sum_clusters(seq, n, 0.5, eps)
                assert [k for _, k in got] == [k for _, k in want], (name, n, eps)
                for (c, _), (w, _) in zip(got, want):
                    assert abs(c - w) <= 1e-12 * abs(w), (name, n, eps, c, w)


def test_cluster_centers_are_exact_weighted_means():
    """Each center is the correctly rounded mean of its group's floats, and
    a group of one distinct value has exactly that value as its center."""
    values = [Fraction(1, 10), Fraction(2, 10), Fraction(3, 10), Fraction(7),
              Fraction(1, 3), Fraction(7)]
    seq = PrefixSequence("mixed", lambda m: values[m % len(values)])
    est = estimate_clusters(seq, 600, tail_fraction=1.0, epsilon=0.5)
    tenths = [float(v) for v in values[:3]] + [float(Fraction(1, 3))]
    assert est.centers == (
        (float(sum(Fraction(v) for v in tenths) / 4), 400),
        (7.0, 200),
    )
    # a running float sum over the 400 indices drifts in the last digits
    assert float_sum_clusters(seq, 600, 1.0, 0.5)[0] == (0.2333333333333315, 400)


def test_weighted_mean_of_one_value_is_that_value():
    """The one-value rule agrees with the exact mean it skips: a run of
    equal floats, from unreduced pairs and heavy blocks, has that float as
    its center."""
    def exact_mean(v, count):
        n, d = v.as_integer_ratio()
        return n * count / (d * count), count

    rng = random.Random("one-value-mean")
    values = [0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
              -1.7976931348623157e308, 0.1, -1 / 3, 7.0]
    values += [rng.uniform(-1, 1) * 2.0 ** rng.randint(-1070, 1020) for _ in range(500)]
    for v in values:
        count = rng.randint(1, 1 << 20)
        n, d = v.as_integer_ratio()
        blocks = [([n, 3 * n], [d, 3 * d], count), ([2 * n], [2 * d], 1)]
        est = estimate_clusters(block_sequence(blocks), 1, 1.0, 0.0)
        assert est.centers == (exact_mean(v, 2 * count + 1),) == ((v, 2 * count + 1),)
    # the clusters of one float value that estimate_clusters emits in bulk
    seq = PrefixSequence("spread", lambda m: Fraction(values[m % len(values)]))
    est = estimate_clusters(seq, 3 * len(values), tail_fraction=1.0, epsilon=0.0)
    want = sorted(exact_mean(v, 3) for v in set(values))
    assert list(est.centers) == want


def test_estimate_clusters_rejects_bad_epsilon():
    f = gen_fq(Fraction(1, 2))
    for eps in (-1.0, -1e-300, math.nan, math.inf, -math.inf):
        with pytest.raises(RangeError):
            estimate_clusters(f, 64, epsilon=eps)
    assert estimate_clusters(f, 64, epsilon=0.0).centers == estimate_clusters(
        f, 64, epsilon=1e-9).centers


def test_negative_indices_raise():
    r = realize_atoms("dyadic-valuation")
    pairing = realize_atoms("pairing")
    for call in (r.label, r.rank, pairing.label, pairing.rank,
                 *(make().value_at for make in GENERATORS.values())):
        with pytest.raises(RangeError):
            call(-1)
    with pytest.raises(RangeError):
        gen_fq(Fraction(1, 2)).blocks(-1, 4)
    with pytest.raises(RangeError):
        gen_fq(Fraction(1, 2)).blocks(5, 4)
    with pytest.raises(RangeError):
        PrefixSequence("hand", lambda m: Fraction(m)).blocks(5, 4)


def test_valuation_of_large_indices():
    r = realize_atoms("dyadic-valuation")
    assert r.label((1 << 200) - 1) == 200
    assert r.rank((1 << 200) - 1) == 0
    assert r.label(3 * (1 << 90) - 1) == 90 and r.rank(3 * (1 << 90) - 1) == 1


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


def test_combo_values_match_fraction_powers():
    """Running integer powers give sum(d * q**j) in Fraction arithmetic for
    1-3 terms up to j = 300, in any access order."""
    rng = random.Random("combo-oracle")
    ratios = sorted({Fraction(a, b) for b in range(2, 13) for a in range(1, b)})
    for trial in range(12):
        terms = 1 + trial % 3
        qs = rng.sample(ratios, terms)
        ds = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(terms)]
        want = [sum((d * q**j for d, q in zip(ds, qs)), Fraction(0)) for j in range(301)]
        h = combo_values(ds, qs)
        assert h(300) == want[300] and h(7) == want[7]
        assert [h(j) for j in range(301)] == want
        assert list(h_sequence(ds, qs, 301).values) == want
        assert h_sequence(ds, qs, 0).values == ()


PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23]


@st.composite
def combo_params(draw):
    """1-4 terms: ratios over one shared denominator, over pairwise coprime
    denominators, or over any; coefficients of either sign (or zero), over
    one shared denominator or each over its own."""
    terms = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["shared", "coprime", "any"]))
    if kind == "shared":
        s = draw(st.integers(terms + 1, 40))
        nums = draw(st.lists(st.integers(1, s - 1), min_size=terms, max_size=terms, unique=True))
        q = [Fraction(a, s) for a in nums]
    elif kind == "coprime":
        dens = draw(st.lists(st.sampled_from(PRIMES), min_size=terms, max_size=terms,
                             unique=True))
        q = [Fraction(draw(st.integers(1, s - 1)), s) for s in dens]
    else:
        ratio = st.fractions(0, 1, max_denominator=60).filter(lambda x: 0 < x < 1)
        q = draw(st.lists(ratio, min_size=terms, max_size=terms, unique=True))
    shared = draw(st.one_of(st.none(), st.integers(1, 30)))
    d = [Fraction(draw(st.integers(-60, 60)), shared or draw(st.integers(1, 30)))
         for _ in range(terms)]
    return d, q


@given(combo_params(), st.integers(0, 300))
@settings(max_examples=80, deadline=None)
def test_combo_values_match_per_term_oracle(params, first):
    """The levels over one common denominator are the exact Fractions of
    the per-term recurrence, up to j = 300, whichever level is read first."""
    d, q = params
    want = combo_levels_oracle(d, q, 301)
    h = combo_values(d, q)
    assert h(first) == want[first]
    assert [h(j) for j in range(301)] == want


def test_combo_values_reject_negative_levels():
    """h(-1) raises before any level is built and after, never wrapping
    round to the last level built."""
    h = combo_values([1], [Fraction(1, 2)])
    with pytest.raises(RangeError):
        h(-1)
    assert h(5) == Fraction(1, 32)
    for j in (-1, -6, -(1 << 70)):
        with pytest.raises(RangeError):
            h(j)
    assert [h(j) for j in range(6)] == [Fraction(1, 2**j) for j in range(6)]


RICH_RATIOS = [Fraction(1, 2), Fraction(3, 4), Fraction(5, 6), Fraction(1, 10),
               Fraction(2, 3), Fraction(5, 7)]


@pytest.mark.parametrize("q", RICH_RATIOS, ids=str)
def test_rich_levels_match_per_index_values(q):
    """Rich blocks are integer pairs (p^j a, s^j b) taken without a gcd, so
    a pair is unreduced when s shares a factor with a or p with b: for
    q = 1/2 and r = 2/3 the pair at j = 1 is (2, 6). The pairs still give
    the exact values, and every pair divides to float(value_at(m))."""
    seq = gen_rich(q)
    for a, b in ((0, 1), (0, 64), (1000, 3000), (5000, 9001)):
        blocks = [(list(nums), list(dens), k) for nums, dens, k in seq.blocks(a, b)]
        assert all(k == 1 and len(nums) == len(dens) for nums, dens, k in blocks)
        pairs = [pair for nums, dens, _ in blocks for pair in zip(nums, dens)]
        assert len(pairs) == b - a and all(den > 0 for _, den in pairs)
        order = atom_order(a, b)
        assert [Fraction(num, den) for num, den in pairs] == [seq.value_at(m) for m in order]
        assert [num / den for num, den in pairs] == [float(seq.value_at(m)) for m in order]
    if q.denominator % 2 == 0:
        assert any(math.gcd(num, den) > 1 for nums, dens, _ in seq.blocks(0, 64)
                   for num, den in zip(nums, dens))


def test_rich_atom_zero_block_is_a_copy():
    """Atom 0's block is two table slices, so a caller that mutates them
    leaves the table, and every later block and value, unchanged."""
    seq = gen_rich(Fraction(2, 3))
    want = [seq.value_at(m) for m in atom_order(0, 200)]
    nums, dens, k = next(iter(seq.blocks(0, 200)))
    assert k == 1 and isinstance(nums, list) and isinstance(dens, list)
    nums[:] = [0] * len(nums)
    dens.reverse()
    dens.append(5)
    assert expand(seq.blocks(0, 200)) == want
    assert [seq.value_at(m) for m in atom_order(0, 200)] == want
    assert expand(gen_rich(Fraction(2, 3)).blocks(0, 200)) == want


def per_index_clusters(seq, n, epsilon):
    """estimate_clusters from float(value_at(m)) per tail index, with each
    center the float of the exact Fraction mean of its group's floats."""
    tail_len = max(1, math.ceil(n * 0.5))
    counts = Counter(float(seq.value_at(m)) for m in range(n - tail_len, n))
    tail = sorted(counts)
    if epsilon is None:
        sup = max(abs(tail[0]), abs(tail[-1]))
        epsilon = 1e-6 * sup if sup > 0 else 1e-6
    groups = [[tail[0]]]
    for prev, v in zip(tail, tail[1:]):
        if v - prev > epsilon:
            groups.append([])
        groups[-1].append(v)
    centers = []
    for g in groups:
        total = sum(counts[v] for v in g)
        centers.append((float(sum(Fraction(v) * counts[v] for v in g) / total), total))
    return tuple(centers), epsilon


@pytest.mark.parametrize("q", RICH_RATIOS, ids=str)
def test_rich_clusters_match_per_index_oracle(q):
    seq = gen_rich(q)
    for n in (1, 999, 4099, 1 << 13):
        for eps in (None, 1e-3, 1e-7):
            est = estimate_clusters(seq, n, epsilon=eps)
            assert (est.centers, est.epsilon) == per_index_clusters(seq, n, eps), (n, eps)


def block_sequence(blocks):
    """A sequence whose every range has the given blocks (value_at is never
    read by estimate_clusters when a block walk is given)."""
    def refuse(m):
        raise AssertionError("value_at called")

    return PrefixSequence("blocks", refuse, lambda a, b: iter(blocks))


@st.composite
def level_multisets(draw):
    """Blocks of random levels: multiplicities 1 and > 1, unreduced pairs
    whose float equals another pair's (1/3 and 2/6), negative values, huge
    and tiny magnitudes; and an epsilon of None, 0, a random radius, or a
    gap of the sorted floats, so that merged runs reach either end."""
    base = st.tuples(st.integers(-60, 60), st.integers(1, 40))
    scaled = st.tuples(base, st.integers(1, 6)).map(lambda t: (t[0][0] * t[1], t[0][1] * t[1]))
    wide = st.tuples(st.integers(-(1 << 70), 1 << 70), st.integers(1, 1 << 80))
    pair = st.one_of(base, scaled, wide)
    block = st.tuples(st.lists(pair, min_size=1, max_size=12),
                      st.one_of(st.just(1), st.integers(1, 1 << 40)))
    blocks = draw(st.lists(block, min_size=1, max_size=8))
    if draw(st.booleans()):  # a copy of a block, so values repeat across blocks
        blocks.append(draw(st.sampled_from(blocks)))
    floats = sorted({num / den for pairs, _ in blocks for num, den in pairs})
    kind = draw(st.sampled_from(["none", "zero", "radius", "gap"]))
    if kind == "none":
        epsilon = None
    elif kind == "zero":
        epsilon = 0.0
    elif kind == "radius":
        epsilon = draw(st.floats(0, 10, allow_nan=False))
    elif len(floats) > 1:
        i = draw(st.sampled_from([0, len(floats) - 2, draw(st.integers(0, len(floats) - 2))]))
        epsilon = floats[i + 1] - floats[i]
    else:
        epsilon = 0.0
    return [([n for n, _ in pairs], [d for _, d in pairs], k) for pairs, k in blocks], epsilon


@given(level_multisets())
@settings(max_examples=300, deadline=None)
# a run of distinct floats with no heavy value, between two single floats
@example(([([1, 2, 3, -9, 9], [10, 10, 10, 1, 1], 1)], 0.15))
# a one-value run of equal floats from distinct unreduced pairs, one heavy
@example(([([1, 2, 3], [3, 6, 9], 1), ([4], [12], 5), ([5], [1], 1)], 0.0))
# a heavy value inside a run of several values
@example(([([1, 2], [10, 10], 1), ([3], [20], 1 << 20), ([7], [1], 2)], 0.06))
# runs at both ends of the tail, a single between them
@example(([([0, 1, 5, 10, 11], [1, 1, 1, 1, 1], 1), ([11], [1], 3)], 1.0))
def test_estimate_clusters_matches_triple_oracle(case):
    """Bit for bit the estimate the per-triple tally gave."""
    blocks, epsilon = case
    want = triple_clusters(((num, den, k) for nums, dens, k in blocks
                            for num, den in zip(nums, dens)), 1.0, epsilon)
    assert estimate_clusters(block_sequence(blocks), 1, 1.0, epsilon) == want


def test_estimate_clusters_triple_oracle_examples():
    """Equal floats of distinct pairs, merged runs at both ends, negative
    values and a one-value block with a large multiplicity."""
    blocks = [([1, 2, -7, 5], [3, 6, 2, 1], 1), ([-7], [2], 1 << 30), ([5, 50], [1, 10], 3),
              ([-69999999, 1], [20000000, 3], 1)]
    for epsilon in (None, 0.0, 1e-7, 0.5, 4.0, 100.0):
        want = triple_clusters(((num, den, k) for nums, dens, k in blocks
                                for num, den in zip(nums, dens)), 1.0, epsilon)
        assert estimate_clusters(block_sequence(blocks), 1, 1.0, epsilon) == want
    assert estimate_clusters(block_sequence(blocks), 1, 1.0, 0.0).centers == (
        (-3.5, (1 << 30) + 1), (-3.49999995, 1), (1 / 3, 3), (5.0, 1 + 3 + 3))


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generator_clusters_match_triple_oracle(name):
    seq = GENERATORS[name]()
    for n in (1, 2, 999, 4099, 1 << 14):
        for tail in (0.5, 1.0, 0.1):
            for eps in (None, 0.0, 1e-3, 1e-7):
                assert estimate_clusters(seq, n, tail, eps) == estimate_by_triples(
                    seq, n, tail, eps), (n, tail, eps)
