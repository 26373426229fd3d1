import dataclasses
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import islice

import pytest

from limprof.errors import (
    DegenerateError,
    EmptyInputError,
    RangeError,
    ShapeError,
)
from limprof.lab import (
    PrefixSequence,
    _weighted_mean,
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
from limprof.rationals import (
    calkin_wilf,
    calkin_wilf_pairs,
    first_unit_rationals,
    unit_rational_pairs,
    unit_rationals,
)


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


def fraction_calkin_wilf():
    """The recurrence q -> 1 / (2 floor(q) - q + 1) on Fractions."""
    q = Fraction(1)
    while True:
        yield q
        q = 1 / (2 * Fraction(math.floor(q)) - q + 1)


def test_calkin_wilf_matches_fraction_recurrence():
    assert list(islice(calkin_wilf(), 70_000)) == list(islice(fraction_calkin_wilf(), 70_000))
    oracle = (q for q in fraction_calkin_wilf() if q < 1)
    assert list(first_unit_rationals(1 << 15)) == list(islice(oracle, 1 << 15))


def test_unit_rational_pairs_are_the_filtered_walk():
    """Left children of the walk's terms are its terms below 1, in order."""
    filtered = ((a, b) for a, b in calkin_wilf_pairs() if a < b)
    assert list(islice(unit_rational_pairs(), 200_000)) == list(islice(filtered, 200_000))


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


def level_counter(levels):
    out = Counter()
    for v, k in levels:
        assert k > 0
        out[v] += k
    return out


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_levels_match_value_at(name):
    """The level walk of each generator lists exactly the values value_at
    gives over [a, b), with their multiplicities."""
    seq = GENERATORS[name]()
    rng = random.Random(f"levels/{name}")
    ranges = [(0, 1), (0, 2), (1, 2), (0, 5), (3, 3), (37, 1001), (1 << 12, 1 << 13)]
    for _ in range(20):
        a = rng.randrange(0, 5000)
        ranges.append((a, a + rng.randrange(0, 3000)))
    # criterion 11's largest prefix: its whole tail for the valuation
    # generators, whose value_at is cheap, and the last 5000 indices for rich
    ranges.append(((1 << 20) - 5000 if name == "rich" else 1 << 19, 1 << 20))
    for a, b in ranges:
        levels = list(seq.levels(a, b))
        assert level_counter(levels) == Counter(seq.value_at(m) for m in range(a, b)), (a, b)
        assert sum(k for _, k in levels) == b - a


def test_valuation_generators_skip_value_at():
    """fq, combo and spaceable list a tail atom by atom: a 2^40 prefix
    takes about 40 levels and no value_at call."""

    def refuse(m):
        raise AssertionError("value_at called")

    for name in ("fq", "combo", "spaceable"):
        seq = dataclasses.replace(GENERATORS[name](), value_at=refuse)
        assert len(list(seq.levels(0, 1 << 40))) <= 41
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
    """The one-value shortcut agrees with the exact mean it skips."""
    def exact_mean(v, count):
        n, d = v.as_integer_ratio()
        return n * count / (d * count), count

    rng = random.Random("one-value-mean")
    values = [0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
              -1.7976931348623157e308, 0.1, -1 / 3, 7.0]
    values += [rng.uniform(-1, 1) * 2.0 ** rng.randint(-1070, 1020) for _ in range(500)]
    for v in values:
        count = rng.randint(1, 1 << 20)
        assert _weighted_mean([v], {v: count}) == exact_mean(v, count)


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
        gen_fq(Fraction(1, 2)).levels(-1, 4)
    with pytest.raises(RangeError):
        gen_fq(Fraction(1, 2)).levels(5, 4)


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


RICH_RATIOS = [Fraction(1, 2), Fraction(3, 4), Fraction(5, 6), Fraction(1, 10),
               Fraction(2, 3), Fraction(5, 7)]


@pytest.mark.parametrize("q", RICH_RATIOS, ids=str)
def test_rich_levels_match_per_index_values(q):
    """Rich levels are integer pairs (p^j a, s^j b) taken without a gcd, so a
    pair is unreduced when s shares a factor with a or p with b: for
    q = 1/2 and r = 2/3 the level at j = 1 is (2, 6). levels() still gives
    the exact values, and every integer level divides to float(value_at(m))."""
    seq = gen_rich(q)
    for a, b in ((0, 1), (0, 64), (1000, 3000), (5000, 9001)):
        triples = list(seq.integer_levels(a, b))
        assert all(den > 0 and k == 1 for _, den, k in triples)
        assert len(triples) == b - a
        assert level_counter(seq.levels(a, b)) == Counter(seq.value_at(m) for m in range(a, b))
        assert Counter(num / den for num, den, _ in triples) == Counter(
            float(seq.value_at(m)) for m in range(a, b))
    if q.denominator % 2 == 0:
        assert any(math.gcd(num, den) > 1 for num, den, _ in seq.integer_levels(0, 64))


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
