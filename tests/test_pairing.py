"""The pairing engine against brute-force sums over enumerated matchings."""
import cmath
import gc
import itertools
import json
import math
import random
import time
from fractions import Fraction

from freeboson import pairing, scalars
from freeboson.algebra import Insertion, LinearCombination, WickGroup, WickWord
from freeboson.amplitude import Disc, DiscConfiguration, amplitude_entry
from freeboson.cli import main, run
from freeboson.correlator import KernelTable, _pair_series_eval, _word_pair, expect_combo
from freeboson.fock import FockIndex
from freeboson.hilbert import inner
from freeboson.pairing import MAX_STATES, hafnian, matching_count
from freeboson.sampling import (
    random_plain_word,
    random_state_group,
    random_wick_word,
    rational_point,
)
from freeboson.scalars import ONE, ZERO, I, rational, root
from matching_reference import matchings


def _brute_force(insertions, labels):
    """Sum over matchings(n) of kernel products, equal-label pairs excluded;
    returns (value, number of matchings summed)."""
    total = ZERO
    count = 0
    for matching in matchings(len(insertions)):
        if any(labels[i] == labels[j] for i, j in matching):
            continue
        term = ONE
        for i, j in matching:
            a, b = insertions[i], insertions[j]
            term = term * KernelTable()(a.order, a.point, b.order, b.point)
        total = total + term
        count += 1
    return total, count


def _word_json(word):
    return [
        [{"m": ins.order, "re": str(ins.point.re), "im": str(ins.point.im)}
         for ins in group.insertions]
        for group in word.groups
    ]


def _sizes(W):
    return [len(g) for g in W.groups]


def test_plain_word_matches_enumeration():
    rng = random.Random(41)
    for n in range(0, 9):
        W = random_plain_word(rng, n)
        value, count = _brute_force([g.insertions[0] for g in W.groups], range(n))
        assert expect_combo(W) == value
        assert matching_count(_sizes(W)) == count


def test_expect_wick_matches_enumeration():
    rng = random.Random(43)
    words, total = [], 0
    for _ in range(12):
        W = random_wick_word(rng, rng.randint(1, 8))
        flat = [(gid, ins) for gid, g in enumerate(W.groups) for ins in g.insertions]
        value, count = _brute_force([ins for _, ins in flat], [gid for gid, _ in flat])
        assert expect_combo(W) == value
        assert matching_count(_sizes(W)) == count
        doc = run("correlator", {"words": [_word_json(W)]})
        assert doc["pairings"] == count
        words.append(_word_json(W))
        total += count
    assert run("correlator", {"words": words})["pairings"] == total


def test_single_group_inner_matches_permutation_permanent():
    rng = random.Random(47)
    for n in range(1, 5):
        left = random_state_group(rng, n)
        right = random_state_group(rng, n)
        total = ZERO
        for perm in itertools.permutations(range(n)):
            term = ONE
            for i, j in enumerate(perm):
                a, b = left.insertions[i], right.insertions[j]
                term = term * _pair_series_eval(a.order, b.order, a.point.conjugate(), b.point)
            total = total + term
        assert inner(left, right) == total


def _expanded_entry(config, indices):
    """The entry from its definition: prefactor times the brute-force sum
    over the expanded insertions, same-disc pairs excluded."""
    insertions, labels = [], []
    prefactor = ONE
    for j, (disc, idx) in enumerate(zip(config.discs, indices)):
        for m, n in idx.occupations:
            base = I * root(2 * m) * Fraction(1, math.factorial(m))
            prefactor = prefactor * root(Fraction(1, math.factorial(n))) * base ** n
            prefactor = prefactor * disc.q ** (m * n)
            insertions += [Insertion(m, disc.center)] * n
            labels += [j] * n
    value, _ = _brute_force(insertions, labels)
    return prefactor * value


def test_amplitude_entry_matches_expanded_insertions():
    rng = random.Random(53)
    config = DiscConfiguration((
        Disc(rational(0), rational(Fraction(1, 2))),
        Disc(rational(10), rational(1, 1)),
        Disc(rational(0, 10), rational(Fraction(2, 3))),
    ))
    for _ in range(10):
        occs = [{} for _ in range(config.r)]
        for _ in range(rng.choice((2, 4, 6, 8))):
            occ = occs[rng.randrange(config.r)]
            m = rng.randint(1, 3)
            occ[m] = occ.get(m, 0) + 1
        indices = [FockIndex.of(occ) for occ in occs]
        assert amplitude_entry(config, indices) == _expanded_entry(config, indices)
    # one disc holding more than half of an even total: no cross-disc matching
    two_discs = DiscConfiguration(config.discs[:2])
    imbalanced = [
        (two_discs, [{1: 2}, {}]),
        (two_discs, [{1: 1, 2: 2}, {3: 1}]),
        (two_discs, [{2: 1}, {1: 3}]),
        (two_discs, [{1: 4, 3: 2}, {2: 2}]),
        (config, [{1: 3, 2: 2}, {1: 1}, {2: 2}]),
        (config, [{}, {1: 3}, {3: 1}]),
    ]
    for disc_config, occs in imbalanced:
        indices = [FockIndex.of(occ) for occ in occs]
        assert amplitude_entry(disc_config, indices) == _expanded_entry(disc_config, indices)


def test_float_amplitude_entry_matches_expanded_insertions():
    rng = random.Random(73)
    config = DiscConfiguration((
        Disc(complex(0.0), complex(0.5, 0.25)),
        Disc(complex(10.0, -1.0), complex(1.0)),
        Disc(complex(0.0, 10.0), complex(-0.5, 0.5)),
    ))
    for _ in range(10):
        occs = [{} for _ in range(config.r)]
        for _ in range(rng.choice((2, 4, 6, 8))):
            occ = occs[rng.randrange(config.r)]
            m = rng.randint(1, 3)
            occ[m] = occ.get(m, 0) + 1
        indices = [FockIndex.of(occ) for occ in occs]
        value = amplitude_entry(config, indices)
        expected = complex(_expanded_entry(config, indices))
        assert isinstance(value, complex)
        assert abs(value - expected) <= 1e-12 * abs(expected), occs


def _no_weight(i, j):
    raise AssertionError(f"weight({i}, {j}) asked for with no perfect matching")


def test_matchable_agrees_with_hafnian_count():
    rng = random.Random(67)
    for _ in range(200):
        sizes = [rng.randint(0, 5) for _ in range(rng.randint(0, 4))]
        total = sum(sizes)
        # the closed rule: an even total, no group over half of it
        closed_rule = total % 2 == 0 and 2 * max(sizes, default=0) <= total
        assert (matching_count(sizes) > 0) == closed_rule, sizes
        if not closed_rule:
            # zero before any weight is asked for
            assert hafnian(_no_weight, range(len(sizes)), sizes, 0) == 0
    # an unmatchable count far over the state guard is zero, not refused
    assert hafnian(_no_weight, ["a", "b"], [MAX_STATES, 2], 0) == 0


def test_hafnian_leaves_no_cyclic_garbage():
    # the DP's tables are freed on return, not left in a cycle for the collector
    word = WickWord.plain(*[(1 + k % 3, Fraction(k - 4, 9)) for k in range(8)])
    expected = expect_combo(word)
    gc.collect()
    gc.disable()
    try:
        assert expect_combo(word) == expected
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_shared_labels_match_one_slot_per_copy():
    # several slots under one label (the modes of one disc): the count
    # hafnian equals the hafnian of one slot per copy with the same labels
    rng = random.Random(71)
    nonzero = 0
    for _ in range(40):
        size = rng.randint(2, 5)
        labels = [rng.randrange(3) for _ in range(size)]
        counts = [rng.randint(1, 3) for _ in range(size)]
        counts[-1] += sum(counts) % 2
        table = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(size)]
                 for _ in range(size)]

        def weight(i, j):
            assert i < j and labels[i] != labels[j]
            return table[i][j]

        # copies run in slot order, so a < b gives copies[a] < copies[b]
        copies = [i for i, c in enumerate(counts) for _ in range(c)]
        expanded = hafnian(
            lambda a, b: weight(copies[a], copies[b]),
            [labels[i] for i in copies], [1] * len(copies), Fraction(0),
        )
        assert hafnian(weight, labels, counts, Fraction(0)) == expanded
        nonzero += expanded != 0
    assert nonzero >= 10


def test_nothing_to_pair_is_the_empty_product_of_the_zero_type():
    for zero in (ZERO, 0j, 0, Fraction(0)):
        for labels, counts in (([], []), (["a", "b"], [0, 0])):
            one = hafnian(_no_weight, labels, counts, zero)
            assert one == 1 and type(one) is type(zero), zero
    assert hafnian(_no_weight, [], [], ZERO) == ONE
    # the same bits as the float one, 1+0j
    assert repr(hafnian(_no_weight, [], [], 0j)) == repr(complex(1, 0))


def test_a_dead_end_state_adds_nothing():
    # A pairs first: A-B leaves C, C, which cannot pair; A-C (twice) leaves B, C
    labels, counts = ["A", "B", "C"], [1, 1, 2]
    table = {(0, 1): Fraction(2), (0, 2): Fraction(3, 7), (1, 2): Fraction(-5, 4)}

    def weight(i, j):
        assert i < j and labels[i] != labels[j]
        return table[i, j]

    value = hafnian(weight, labels, counts, Fraction(0))
    assert value == 2 * table[0, 2] * table[1, 2]
    copies = [0, 1, 2, 2]
    expanded = hafnian(
        lambda a, b: weight(copies[a], copies[b]), [labels[i] for i in copies], [1] * 4, Fraction(0)
    )
    assert value == expanded


def test_correlator_cost_guard(tmp_path, capsys):
    word = [[{"m": 1, "re": k}] for k in range(24)]
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"words": [word]}))
    started = time.perf_counter()
    assert main(["correlator", "--config", str(config)]) == 1
    assert time.perf_counter() - started < 1.0
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "ResourceError"
    assert error["module"] == "pairing"


def test_amplitude_huge_counts_stop_early(tmp_path, capsys):
    discs = [{"a_re": 0, "q_re": 1}, {"a_re": 10, "q_re": 1}]
    # one disc holds every insertion: zero before any pairing state or n!
    config = tmp_path / "a.json"
    config.write_text(json.dumps({"discs": discs, "states": [[{"1": 1000000}, {}]]}))
    started = time.perf_counter()
    assert main(["amplitude", "--config", str(config)]) == 0
    assert time.perf_counter() - started < 1.0
    assert json.loads(capsys.readouterr().out)["entries"] == ["0"]
    # matchable, but 2001^2 count-vector states: the pairing guard refuses it
    config.write_text(json.dumps({"discs": discs, "states": [[{"1": 2000}, {"1": 2000}]]}))
    started = time.perf_counter()
    assert main(["amplitude", "--config", str(config)]) == 1
    assert time.perf_counter() - started < 1.0
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "ResourceError"
    assert error["module"] == "pairing"


def test_amplitude_deep_dp_answers(tmp_path, capsys):
    # one pair per DP level: 1000 levels, 1001 states, under the state guard
    discs = [{"a_re": 0, "q_re": "1/8"}, {"a_re": 10, "q_re": "1/8"}]
    config = tmp_path / "a.json"
    config.write_text(json.dumps({"discs": discs, "states": [[{"1": 1000}, {"1": 1000}]]}))
    code = main(["amplitude", "--config", str(config)])
    out = json.loads(capsys.readouterr().out)
    if code:
        assert code == 1 and out["error"]["type"] == "ResourceError"
    else:
        # K' = 1/6400 across the discs, and the n! matchings cancel the
        # prefactor root(1/(n!)^2): the entry is 6400^-n
        assert out["entries"] == [f"1/{6400 ** 1000}"]


def _one_slot_per_insertion(wF, wG, kernels):
    """(wF, wG) as one hafnian with one slot per insertion, repeated
    insertions included: the word-pair route before equal insertions became
    copies of one slot.  The reference for ``_word_pair``."""
    slots = [
        (side, gid, ins)
        for side, word in enumerate((wF, wG))
        for gid, group in enumerate(word.groups)
        for ins in group.insertions
    ]
    exact = wF.is_exact() and wG.is_exact()

    def weight(i, j):
        side_i, _, a = slots[i]
        side_j, _, b = slots[j]
        if side_i != side_j:
            return _pair_series_eval(a.order, b.order, a.point.conjugate(), b.point)
        c = kernels(a.order, a.point, b.order, b.point)
        return c.conjugate() if side_i == 0 else c

    labels = [(side, gid) for side, gid, _ in slots]
    return hafnian(weight, labels, (1,) * len(slots), scalars.zero_scalar(exact))


def _partitions(n, largest=None):
    """The partitions of n into parts of at most ``largest``, largest part first."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def _repeating_word(rng, groups, size, exact=True):
    """A word of ``groups`` groups, each of 1 to ``size`` insertions drawn
    from two [m, z] of its own at nonzero points, so most groups repeat one."""
    avoid: set = set()
    out = []
    for _ in range(groups):
        pool = [(rng.choice((1, 1, 2, 3)), rational_point(rng, avoid=avoid)) for _ in range(2)]
        drawn = [rng.choice(pool) for _ in range(rng.randint(1, size))]
        out.append(WickGroup.of(*((m, z if exact else complex(z)) for m, z in drawn)))
    return WickWord(tuple(out))


def test_word_pairs_with_repeated_insertions_match_one_slot_per_insertion():
    # origin states :[m1, 0]...[mk, 0]: of every total order up to 8, each
    # paired with every state of the same or the next total order
    origin = [
        WickWord.single_group(WickGroup.of(*((m, 0) for m in parts)))
        for n in range(1, 9)
        for parts in _partitions(n)
    ]
    kernels = KernelTable()
    repeated = 0
    for wF in origin:
        for wG in origin:
            if wG.total_order() in (wF.total_order(), wF.total_order() + 1):
                got = _word_pair(wF, wG, kernels)
                assert got == _one_slot_per_insertion(wF, wG, kernels), (wF, wG)
                assert type(got) is scalars.Exact
                repeated += len(set(wG.groups[0].insertions)) < len(wG)
    assert repeated > 1000
    # seeded words whose groups repeat [m, z] at a nonzero z, as states
    # (both sides) and as expectations (the unit word on the left)
    rng = random.Random(73)
    nonzero = 0
    for _ in range(100):
        seed = rng.randrange(1 << 30)
        wF, wG = (_repeating_word(random.Random(seed + k), rng.randint(1, 2), 3) for k in (0, 1))
        word = _repeating_word(random.Random(seed + 2), rng.randint(2, 3), 4)
        for pair in ((wF, wG), (WickWord.unit(), word)):
            got = _word_pair(*pair, KernelTable())
            assert got == _one_slot_per_insertion(*pair, KernelTable()), pair
            nonzero += got != 0 and any(len(set(g.insertions)) < len(g) for w in pair for g in w.groups)
        # the same words at float points keep the reference's bits
        fF, fG = (_repeating_word(random.Random(seed + k), len(w.groups), 3, exact=False)
                  for k, w in ((0, wF), (1, wG)))
        fword = _repeating_word(random.Random(seed + 2), len(word.groups), 4, exact=False)
        for pair in ((fF, fG), (WickWord.unit(), fword)):
            got = _word_pair(*pair, KernelTable())
            assert type(got) is complex
            assert repr(got) == repr(_one_slot_per_insertion(*pair, KernelTable())), pair
    assert nonzero >= 50


def test_repeated_origin_insertions_pair_as_copies():
    # the norm of :[1, 0]^n: is n!/2^n; one slot per insertion would need
    # 2^(2n) count-vector states, over the guard from n = 11
    assert 2 ** 22 > MAX_STATES
    for n in (11, 12):
        state = WickGroup.of(*[(1, 0)] * n)
        assert inner(state, state) == rational(Fraction(math.factorial(n), 2 ** n))
    state = WickGroup.of(*[(1, 0)] * 1000)
    started = time.perf_counter()
    value = inner(state, state)
    assert time.perf_counter() - started < 2.0
    assert value == rational(Fraction(math.factorial(1000), 2 ** 1000))


def _det(matrix):
    """Exact determinant by Gaussian elimination over the scalar ring."""
    a = [list(row) for row in matrix]
    n = len(a)
    det = ONE
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return ZERO
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det = det * a[col][col]
        inv = a[col][col].inverse()
        for r in range(col + 1, n):
            factor = a[r][col] * inv
            if factor:
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return det


def _fermion_det(points):
    """(-1/2)^(n/2) det[(1 - delta_ij)/(z_i - z_j)]: the free-fermion value
    of the order-1 current correlator (boson-fermion correspondence)."""
    n = len(points)
    matrix = [
        [ZERO if i == j else (points[i] - points[j]).inverse() for j in range(n)]
        for i in range(n)
    ]
    det = _det(matrix)
    if n % 2:
        return det  # an odd antisymmetric determinant is 0, like the hafnian
    return det * rational(Fraction(-1, 2)) ** (n // 2)


def test_order_one_correlator_is_a_determinant():
    rng = random.Random(59)
    for n in list(range(2, 13)) + [20]:
        avoid: set = set()
        points = [rational_point(rng, avoid=avoid) for _ in range(n)]
        expected = _fermion_det(points)
        assert expect_combo(WickWord.plain(*((1, z) for z in points))) == expected, n
        if n % 2 == 0:
            assert expected != ZERO


def test_combination_of_order_one_words_is_a_sum_of_determinants():
    # words on subsets of one point set share their point pairs: the
    # combination's one kernel table serves them all
    rng = random.Random(61)
    avoid: set = set()
    points = [rational_point(rng, avoid=avoid) for _ in range(10)]
    combo = LinearCombination.zero()
    expected = ZERO
    for _ in range(8):
        subset = sorted(rng.sample(range(10), rng.choice((4, 6, 8))))
        coeff = rational(rng.randint(-5, 5) or 1, rng.randint(-3, 3))
        chosen = [points[i] for i in subset]
        combo = combo + LinearCombination.of(WickWord.plain(*((1, z) for z in chosen)), coeff)
        expected = expected + coeff * _fermion_det(chosen)
    assert len(combo) > 1
    assert expect_combo(combo) == expected


def _overflowing_weights(rng):
    """Six slots whose true hafnian is near 1e100: slots 0 and 1 weigh about
    1e-300 to every other slot, and 2-5 about 1e200 to each other, so the
    DP's state {2, 3, 4, 5} holds a value near 1e400."""
    size = 6
    table = [[None] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            scale = 1e-300 if i < 2 else 1e200
            w = complex(rng.uniform(1, 2), rng.uniform(-1, 1)) * scale
            table[i][j] = table[j][i] = w
    return table


def test_float_hafnian_beyond_range_inside_the_dp_is_rescaled():
    # 1e-300 * 1e400 is a float, though its second factor is not: the DP is
    # valued once more on weights scaled by powers of two, and agrees with
    # the exact hafnian of the same weights
    rng = random.Random(16)
    for _ in range(20):
        table = _overflowing_weights(rng)
        assert not cmath.isfinite(table[2][3] * table[4][5])
        value = hafnian(lambda i, j: table[i][j], range(6), [1] * 6, 0j)
        exact = hafnian(
            lambda i, j: scalars.rational(Fraction(table[i][j].real), Fraction(table[i][j].imag)),
            range(6), [1] * 6, ZERO,
        )
        want = complex(exact)
        assert math.isfinite(abs(want)) and 1e98 < abs(want) < 1e102
        assert abs(value - want) <= 1e-15 * abs(want), (value, want)


def test_float_correlator_beyond_range_inside_the_dp_answers():
    # the six order-60 points of 0, 1000, 500 +- 400i and 501 +- 400i: each
    # pair (500 + 400i, 501 + 400i) weighs about 1e196, the exact value is
    # 2.1654482855391786e229 and the float DP's plain valuation gives NaN
    points = [(0, 0), (1000, 0), (500, 400), (500, -400), (501, 400), (501, -400)]
    exact = complex(expect_combo(WickWord.plain(*[(60, rational(a, b)) for a, b in points])))
    assert repr(exact.real) == "2.1654482855391786e+229" and exact.imag == 0
    word = [[{"m": 60, "re": a, "im": b}] for a, b in points]
    (value,) = run("correlator", {"mode": "float", "words": [word]})["expectations"]
    assert abs(value[0] - exact.real) <= 1e-15 * exact.real


def test_float_hafnian_still_beyond_range_stays_not_finite(monkeypatch):
    # four slots pairing to about 3e400: the one rescaled valuation cannot
    # bring the result into range, so the non-finite value comes back
    calls = []
    rescaled = pairing._rescaled

    def counted(*args):
        calls.append(1)
        return rescaled(*args)

    monkeypatch.setattr(pairing, "_rescaled", counted)
    value = hafnian(lambda i, j: complex(1e200), range(4), [1] * 4, 0j)
    assert not cmath.isfinite(value) and calls == [1]


def test_finite_float_hafnians_are_valued_once(monkeypatch):
    # a finite float result never takes the rescaled valuation, so its bits
    # are those of the one plain valuation
    def refused(*args):
        raise AssertionError("a finite float result was valued twice")

    monkeypatch.setattr(pairing, "_rescaled", refused)
    rng = random.Random(34)
    for _ in range(10):
        word = random_plain_word(rng, rng.choice((2, 4, 6)))
        points = [ins for group in word.groups for ins in group.insertions]
        floats = WickWord.plain(*((ins.order, complex(ins.point)) for ins in points))
        assert cmath.isfinite(expect_combo(floats))
    assert hafnian(lambda i, j: complex(1e-200), range(4), [1] * 4, 0j) == 0j
