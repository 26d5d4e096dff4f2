"""Seeded config generators for the four benchmark workloads.

Every config is built here from ``random.Random`` alone; nothing is taken
from ``freeboson.sampling``, so a change to the package cannot change what a
workload sends it.  Op ``i`` of a workload under seed ``s`` depends only on
``(workload, s, i)``, and within one seed no two ops share an input.

Each workload cycles through a fixed schedule of input *shapes* (insertion
counts, orders, state counts, disc counts, truncations) and draws only the
*values* (points, disc centres and scales) from the seed.  The cost of an op
is set mostly by its shape, so a run of whole cycles covers the same mix of
work under every seed and the figures of different seeds agree.
"""
from __future__ import annotations

import json
import random
from fractions import Fraction

WORKLOADS = ("pairing-heavy", "gram-reflection", "hs-sweep", "verify-suites")

# Suite names of ``freeboson verify``, in the order the workload visits them.
# "dictionary" comes first: it opens each cycle, so it is the op the cold
# probes run, and it draws nothing from its seed, so its cost does not vary
# between seeds.
SUITES = (
    "dictionary",
    "d-identity",
    "theta-involution",
    "conjugation",
    "scaling",
    "wick-plain",
    "commutators",
    "oracle-agreement",
)


def _rng(workload: str, seed: int, index: int) -> random.Random:
    # A string seed is hashed with SHA-512, independent of PYTHONHASHSEED.
    return random.Random(f"{workload}:{seed}:{index}")


def _frac(x: Fraction):
    """Exact-mode JSON number: an int or a "p/q" string."""
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _insertion(m: int, re: Fraction, im: Fraction) -> dict:
    return {"m": m, "re": _frac(re), "im": _frac(im)}


def _distinct_points(rng: random.Random, n: int, den: int, span: int, inside_unit: bool) -> list:
    """n distinct Gaussian rationals (a + b i)/den with |a|, |b| <= span * den.

    One denominator for every point keeps the size of the exact numbers, and
    so the cost of an op, nearly the same from seed to seed.  With
    ``inside_unit`` the points lie in the open unit disc and are nonzero.
    """
    seen: set = set()
    out = []
    lim = span * den
    while len(out) < n:
        a, b = rng.randint(-lim, lim), rng.randint(-lim, lim)
        if inside_unit and (a * a + b * b >= den * den or (a == 0 and b == 0)):
            continue
        if (a, b) in seen:
            continue
        seen.add((a, b))
        out.append((Fraction(a, den), Fraction(b, den)))
    return out


# ---------------------------------------------------------------- pairing-heavy

# Twelve correlator words and four amplitude configs per cycle of 16 ops:
# every fourth op is an amplitude, three words in four have 8 insertions and
# one in four has 10.  Each word entry is (orders, Wick group sizes); a plain
# word is a list of singleton groups.
_WORDS = (
    ((1, 1, 1, 2, 2, 2, 3, 3), None),
    ((1, 1, 2, 2, 2, 3, 3, 3), (3, 3, 2)),
    ((1, 1, 1, 1, 2, 2, 2, 3), None),
    ((1, 1, 1, 2, 2, 2, 2, 3, 3, 3), (3, 3, 2, 2)),
    ((1, 1, 2, 2, 2, 3, 3, 3), None),
    ((1, 1, 1, 1, 2, 2, 3, 3), (2, 2, 2, 2)),
    ((1, 1, 1, 2, 2, 3, 3, 3), (3, 2, 3)),
    ((1, 1, 1, 1, 2, 2, 2, 3, 3, 3), None),
    ((1, 1, 2, 2, 2, 2, 3, 3), (2, 3, 3)),
    ((1, 1, 1, 2, 2, 2, 3, 3), None),
    ((1, 1, 1, 2, 2, 3, 3, 3), (2, 2, 2, 2)),
    ((1, 1, 1, 2, 2, 2, 3, 3, 3, 3), (3, 3, 2, 2)),
)

# Insertions per disc for the 3-disc amplitude entries: 12..20 in total.
_AMPLITUDE_ENTRIES = (
    ((4, 4, 4), (6, 4, 4), (4, 6, 6)),
    ((6, 6, 4), (8, 6, 6), (4, 4, 6)),
    ((6, 6, 6), (4, 4, 8), (6, 4, 6)),
    ((8, 6, 6), (4, 6, 4), (6, 6, 6)),
)


def _word(rng: random.Random, orders, groups) -> list:
    orders = list(orders)
    rng.shuffle(orders)
    points = _distinct_points(rng, len(orders), den=4, span=2, inside_unit=False)
    flat = [_insertion(m, re, im) for m, (re, im) in zip(orders, points)]
    if groups is None:
        return [[ins] for ins in flat]
    out, at = [], 0
    for size in groups:
        out.append(flat[at : at + size])
        at += size
    return out


def _occupations(rng: random.Random, particles: int) -> dict:
    """Occupation map with modes 1..3 and the given particle count."""
    counts = {1: 0, 2: 0, 3: 0}
    for _ in range(particles):
        counts[rng.choice((1, 1, 2, 2, 3))] += 1
    return {str(m): n for m, n in counts.items() if n}


def _discs(rng: random.Random, r: int, spacing: int, max_q: int) -> list:
    """r discs with centres on a jittered square grid of step ``spacing``.

    Centres are at least spacing - 1/2 apart and every radius is at most
    max_q * sqrt(2) / 8, so with spacing >= 3 and max_q <= 4 two radii sum to
    at most 1.42 < 2.5: the closures are disjoint by construction.
    """
    cells = [(0, 0), (1, 0), (0, 1), (1, 1)]
    rng.shuffle(cells)
    out = []
    for cx, cy in cells[:r]:
        a_re = Fraction(cx * spacing) + Fraction(rng.randint(-1, 1), 4)
        a_im = Fraction(cy * spacing) + Fraction(rng.randint(-1, 1), 4)
        q_re = Fraction(rng.choice((-1, 1)) * rng.randint(1, max_q), 8)
        q_im = Fraction(rng.choice((-1, 1)) * rng.randint(1, max_q), 8)
        out.append(
            {"a_re": _frac(a_re), "a_im": _frac(a_im), "q_re": _frac(q_re), "q_im": _frac(q_im)}
        )
    return out


def _pairing_heavy(rng: random.Random, index: int) -> tuple[str, dict]:
    slot = index % 16
    if slot % 4 == 3:
        entries = _AMPLITUDE_ENTRIES[slot // 4]
        return "amplitude", {
            "discs": _discs(rng, 3, spacing=3, max_q=4),
            "states": [[_occupations(rng, n) for n in entry] for entry in entries],
        }
    orders, groups = _WORDS[slot - slot // 4]
    return "correlator", {"words": [_word(rng, orders, groups)]}


# ---------------------------------------------------------------- gram-reflection

_GRAM_SIZES = (8, 12, 16, 10, 14, 9, 13, 11, 15)

# Insertion orders of state j, by j mod 6; state 5 of every six sits at the
# origin, where the left argument takes the series route.
_GRAM_ORDERS = ((1,), (2, 1), (3,), (1, 3), (2,), (3, 2))


def _gram_reflection(rng: random.Random, index: int) -> tuple[str, dict]:
    size = _GRAM_SIZES[index % len(_GRAM_SIZES)]
    states = []
    for j in range(size):
        orders = _GRAM_ORDERS[j % 6]
        if j % 6 == 5:
            group = [{"m": m, "re": 0, "im": 0} for m in orders]
        else:
            points = _distinct_points(rng, len(orders), den=8, span=1, inside_unit=True)
            group = [_insertion(m, re, im) for m, (re, im) in zip(orders, points)]
        states.append([group])
    return "gram", {"states": states}


# ---------------------------------------------------------------- hs-sweep

# (discs, M, N, wide layout) per op, chosen so that the ops cost about the
# same (0.3-0.7 s here) and the latency quantiles fall inside a shape rather
# than between two.  Wide layouts (spacing 8, |q| <= 0.53) satisfy
# d^2 > 16 r R^2 for r <= 3; close layouts (spacing 3, |q| <= 0.71) fall
# outside the summability regime for most scales.
_HS_SHAPES = (
    (2, 4, 5, True),
    (3, 3, 4, True),
    (2, 4, 5, False),
    (3, 3, 5, True),
    (3, 3, 4, False),
)


def _hs_sweep(rng: random.Random, index: int) -> tuple[str, dict]:
    r, M, N, wide = _HS_SHAPES[index % len(_HS_SHAPES)]
    spacing, max_q = (8, 3) if wide else (3, 4)
    return "hsnorm", {
        "discs": _discs(rng, r, spacing=spacing, max_q=max_q),
        "truncation": {"M": M, "N": N},
    }


# ---------------------------------------------------------------- verify-suites

def _verify_suites(rng: random.Random, index: int) -> tuple[str, dict]:
    # The suite seed comes from the op index alone, not from the run seed:
    # theta-involution and conjugation draw their cases from it, and their
    # cost varies up to 8x between suite seeds (0.17-1.4 s measured), more
    # than a run of a few cycles averages out.  Suite seeds still never
    # repeat within a run.
    del rng
    return "verify", {
        "suites": [SUITES[index % len(SUITES)]],
        "seed": random.Random(f"verify-suites:{index}").randrange(1, 2**31),
    }


_GENERATORS = {
    "pairing-heavy": _pairing_heavy,
    "gram-reflection": _gram_reflection,
    "hs-sweep": _hs_sweep,
    "verify-suites": _verify_suites,
}


# Ops per schedule cycle.  Timed runs cover whole cycles, so every run holds
# the same mix of shapes.
CYCLE = {
    "pairing-heavy": 16,
    "gram-reflection": len(_GRAM_SIZES),
    "hs-sweep": len(_HS_SHAPES),
    "verify-suites": len(SUITES),
}


def op(workload: str, seed: int, index: int) -> tuple[str, dict]:
    """(CLI command, config document) of op ``index`` of a workload."""
    return _GENERATORS[workload](_rng(workload, seed, index), index)


def config_bytes(config: dict) -> bytes:
    """The config file exactly as written for the CLI."""
    return json.dumps(config, sort_keys=True).encode("utf-8")
