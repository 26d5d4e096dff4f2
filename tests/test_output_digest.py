"""The CLI output, pinned by one sha256 per mode.

Nineteen seeded configs cover every command: plain and grouped
correlator words, Gram matrices with origin states, 3-disc amplitude entries
whose normalisation leaves a radical, HS sweeps in and out of the
summability regime, and verify at one seed.  Their documents, serialised
with sorted keys, hash to ``DIGEST``.  A change to how exact values are
stored, multiplied or encoded that moves a single output byte fails here.

The same correlator, gram, amplitude and hsnorm configs run again in float
mode, each "p/q" value read as the nearest float, and hash to
``FLOAT_DIGEST``: a change to the order of float arithmetic fails there.

Those hsnorm configs stop at N = 4, whose traces need no power of A' beyond
the first; exact hsnorm documents at N = 8 on 2 and 3 discs, whose traces
reach A'^2, hash to ``HS_POWERS_DIGEST``.

The amplitude configs above have 3 discs and modes up to 3, as do the
bench's; exact amplitude documents on 2 and 4 discs with modes up to 120,
repeated within an entry, hash to ``AMPLITUDE_DIGEST``.

The float values of ``expect_combo``, ``inner`` and ``gram`` on seeded
words and states at points of the real and imaginary axes and the origin,
where many kernels and pair factors have a zero part, hash with the sign of
each zero part to ``ZERO_SIGN_DIGEST``: a change to where a float sum
starts, which can turn -0.0 into +0.0, fails there.

``python tests/roadmap_digest.py`` hashes the 139 documents that ROADMAP
names (every bench workload's cycle at two seeds, exact and float, and
verify) to ``ROADMAP_DIGEST``; it runs in a subprocess, since the script
prepends to ``sys.path`` and turns off bytecode writing.

The float fields of a Gram report (``min_eigenvalue``,
``hermiticity_defect``, ``psd``, ``witness``) come from a floating-point
eigensolver and may differ between platforms, so they are left out, as is
any ``timing`` entry.
"""
import hashlib
import json
import math
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

from freeboson import scalars
from freeboson.algebra import Insertion, LinearCombination, WickGroup, WickWord
from freeboson.cli import run
from freeboson.correlator import expect_combo
from freeboson.hilbert import gram, inner

DIGEST = "d440e1965c41d314e5db96ab3728f9b2707e0f780c7ea86c85710ecad19e4dcf"
FLOAT_DIGEST = "f2be3956c51c3aa51b48efd4a669ebc3f4f9aa28df130cc502e8040076653541"
HS_POWERS_DIGEST = "cf7c8cda9340e5f4099b1af3281ac164472b37b6797cef04a8b4e6d91b7fc3f5"
AMPLITUDE_DIGEST = "c556977bfdc95a195f98c35d9402c3d2ecdad2c2935ae7f283f17934daaa69b1"
ZERO_SIGN_DIGEST = "9c86e16b0feac9a6ab6de4bac5ed976a8d7b91127bd4c3c94b1e2274994db2a1"
ROADMAP_DIGEST = "eae72b180395b067726898cad8ef39d6deead2f153f24c6760fa52b22ad84b1a"

_FLOAT_FIELDS = ("min_eigenvalue", "hermiticity_defect", "psd", "witness", "timing")


def _frac(x: Fraction):
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _points(rng: random.Random, n: int, den: int, span: int) -> list:
    """n distinct nonzero Gaussian rationals (a + b i)/den, |a|, |b| <= span."""
    out: list = []
    while len(out) < n:
        p = (Fraction(rng.randint(-span, span), den), Fraction(rng.randint(-span, span), den))
        if (p[0] or p[1]) and p not in out:
            out.append(p)
    return out


def _word(rng: random.Random, orders, groups=None) -> list:
    flat = [
        {"m": m, "re": _frac(re), "im": _frac(im)}
        for m, (re, im) in zip(orders, _points(rng, len(orders), 4, 8))
    ]
    if groups is None:
        return [[ins] for ins in flat]
    out, at = [], 0
    for size in groups:
        out.append(flat[at : at + size])
        at += size
    return out


def _gram_states(rng: random.Random, size: int) -> list:
    states = []
    for j in range(size):
        orders = ((1,), (2, 1), (3,), (1, 2))[j % 4]
        if j % 4 == 3:
            group = [{"m": m, "re": 0, "im": 0} for m in orders]
        else:
            pts = _points(rng, len(orders), 8, 5)
            group = [{"m": m, "re": _frac(re), "im": _frac(im)} for m, (re, im) in zip(orders, pts)]
        states.append([group])
    return states


def _discs(rng: random.Random, r: int, spacing: int, max_q: int) -> list:
    out = []
    for cx, cy in ((0, 0), (1, 0), (0, 1), (1, 1))[:r]:
        a_re = Fraction(cx * spacing) + Fraction(rng.randint(-1, 1), 4)
        a_im = Fraction(cy * spacing) + Fraction(rng.randint(-1, 1), 4)
        q_re = Fraction(rng.choice((-1, 1)) * rng.randint(1, max_q), 8)
        q_im = Fraction(rng.choice((-1, 1)) * rng.randint(1, max_q), 8)
        out.append({"a_re": _frac(a_re), "a_im": _frac(a_im), "q_re": _frac(q_re), "q_im": _frac(q_im)})
    return out


# occupation maps per disc; {"2": 1} and {"1": 2} carry the roots sqrt(2)
# and sqrt(1/2) into an entry's normalisation
_AMPLITUDE_STATES = (
    [[{"2": 1}, {"1": 1}, {}], [{"1": 2}, {"3": 1}, {"1": 1}]],
    [[{"1": 1, "2": 1}, {"2": 1}, {"1": 1}], [{}, {"3": 1}, {"3": 1}]],
    [[{"2": 2}, {"1": 1}, {"1": 1}], [{"1": 3}, {"1": 1}, {}]],
)


def _configs() -> list:
    rng = random.Random("freeboson-output-digest")
    out = []
    for orders, groups in (
        ((1, 1, 1, 1), None),
        ((2, 1, 1, 2, 1, 1), None),
        ((3, 1, 2, 1, 1, 2), None),
        ((1, 1, 1, 1, 1, 1), (2, 2, 2)),
        ((2, 1, 2, 1), (2, 2)),
        ((1, 2, 1, 1, 3, 2), (3, 1, 2)),
    ):
        out.append(("correlator", {"words": [_word(rng, orders, groups)]}))
    out.append(("correlator", {"words": [_word(rng, (1, 2)), _word(rng, (1, 1, 2, 2), (2, 2))]}))
    for size in (8, 6, 9):
        out.append(("gram", {"states": _gram_states(rng, size)}))
    for states in _AMPLITUDE_STATES:
        out.append(("amplitude", {"discs": _discs(rng, 3, 3, 4), "states": states}))
    for r, M, N, wide in (
        (2, 3, 3, True),
        (3, 2, 3, True),
        (2, 3, 3, False),
        (3, 2, 2, False),
        (2, 2, 4, False),
    ):
        spacing, max_q = (8, 3) if wide else (3, 4)
        discs = _discs(rng, r, spacing, max_q)
        out.append(("hsnorm", {"discs": discs, "truncation": {"M": M, "N": N}}))
    out.append(("verify", {"seed": 11}))
    return out


def _hs_powers_configs() -> list:
    """hsnorm at N = 8: tr(A'^3) and tr(A'^4) come from A'^2."""
    rng = random.Random("freeboson-hs-powers")
    out = []
    for r, M, wide in ((2, 4, True), (2, 5, False), (3, 3, True), (3, 2, False)):
        spacing, max_q = (8, 3) if wide else (3, 4)
        discs = _discs(rng, r, spacing, max_q)
        out.append(("hsnorm", {"discs": discs, "truncation": {"M": M, "N": 8}}))
    return out


def _amplitude_configs() -> list:
    """amplitude on 2 and 4 discs at modes up to 120, beyond every bench op:
    each entry draws its modes from a pool of three, 120 and two below it,
    so modes repeat; one shape per disc count has an odd total."""
    rng = random.Random("freeboson-amplitude-modes")
    out = []
    for r, shapes in (
        (2, ((3, 3), (4, 2), (5, 5), (2, 3))),
        (4, ((1, 1, 1, 1), (2, 1, 2, 1), (2, 2, 2, 2), (1, 2, 1, 1))),
        (2, ((1, 1), (6, 4), (3, 3))),
        (4, ((3, 1, 1, 1), (1, 2, 2, 1))),
    ):
        discs = _discs(rng, r, 3, 4)
        states = []
        for shape in shapes:
            pool = [rng.randint(1, 119), rng.randint(1, 119), 120]
            states.append([
                {str(m): n for m, n in Counter(rng.choice(pool) for _ in range(k)).items()}
                for k in shape
            ])
        out.append(("amplitude", {"discs": discs, "states": states}))
    return out


def _as_floats(value):
    """The config with every "p/q" string read as a float."""
    if isinstance(value, str):
        return float(Fraction(value))
    if isinstance(value, list):
        return [_as_floats(v) for v in value]
    if isinstance(value, dict):
        return {k: _as_floats(v) for k, v in value.items()}
    return value


def _float_configs() -> list:
    return [
        (command, {**_as_floats(config), "mode": "float"})
        for command, config in _configs()
        if command != "verify"
    ]


def _document_bytes(command: str, config: dict) -> bytes:
    doc = run(command, config)
    for key in _FLOAT_FIELDS:
        doc.pop(key, None)
    return json.dumps(doc, sort_keys=True).encode("utf-8")


def test_configs_cover_every_output_form():
    docs = [json.loads(_document_bytes(c, cfg)) for c, cfg in _configs()]
    text = json.dumps(docs)
    assert '"radicals"' in text
    regimes = {doc["regime"] for doc in docs if doc["command"] == "hsnorm"}
    assert regimes == {True, False}
    assert all(doc["passed"] for doc in docs if doc["command"] == "verify")


def _digest(configs) -> str:
    h = hashlib.sha256()
    for command, config in configs:
        h.update(_document_bytes(command, config))
    return h.hexdigest()


def test_exact_output_digest_is_pinned():
    started = time.perf_counter()
    assert _digest(_configs()) == DIGEST
    assert time.perf_counter() - started < 5.0


def test_float_output_digest_is_pinned():
    started = time.perf_counter()
    assert _digest(_float_configs()) == FLOAT_DIGEST
    assert time.perf_counter() - started < 5.0


def test_hs_powers_digest_is_pinned():
    configs = _hs_powers_configs()
    assert {run(c, cfg)["regime"] for c, cfg in configs} == {True, False}
    started = time.perf_counter()
    assert _digest(configs) == HS_POWERS_DIGEST
    assert time.perf_counter() - started < 2.0


def test_amplitude_digest_is_pinned():
    configs = _amplitude_configs()
    modes = [int(m) for _, cfg in configs for state in cfg["states"] for occ in state for m in occ]
    assert max(modes) == 120 and {len(cfg["discs"]) for _, cfg in configs} == {2, 4}
    started = time.perf_counter()
    assert _digest(configs) == AMPLITUDE_DIGEST
    assert time.perf_counter() - started < 2.0


def test_roadmap_digest_is_pinned():
    script = Path(__file__).with_name("roadmap_digest.py")
    done = subprocess.run(
        [sys.executable, str(script)],
        cwd=script.parent.parent, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"139 {ROADMAP_DIGEST}\n"


def _axis_point(rng: random.Random, taken: set) -> complex:
    """A float point of the open unit disc not in ``taken``: the origin one
    time in six, else k/8 on the real or the imaginary axis."""
    while True:
        if rng.random() < 1 / 6:
            z = 0j
        else:
            t = rng.choice((-1, 1)) * rng.randint(1, 7) / 8
            z = complex(t, 0.0) if rng.random() < 0.5 else complex(0.0, t)
        if z not in taken:
            taken.add(z)
            return z


def _axis_word(rng: random.Random) -> WickWord:
    """A float word of one to three groups of one to three insertions, its
    points distinct axis points."""
    taken: set = set()
    return WickWord(
        tuple(
            WickGroup(
                tuple(
                    Insertion(rng.randint(1, 3), _axis_point(rng, taken))
                    for _ in range(rng.choice((1, 1, 2, 3)))
                )
            )
            for _ in range(rng.randint(1, 3))
        )
    )


def _axis_coefficient(rng: random.Random):
    """Exact one (every CLI word carries it), a Gaussian rational, or a float
    with no -0.0 part.  ``expect_combo`` multiplies a coefficient c by the
    vacuum's exact one, (1+0j) c for a float c, which can turn a -0.0 part
    of c into +0.0; that is not pinned here."""
    kind = rng.randrange(4)
    if kind == 0:
        return scalars.ONE
    re, im = (rng.choice((-2, -1, 0, 1, 3)) / 2 for _ in range(2))
    if kind == 1:
        return scalars.rational(Fraction(re), Fraction(im)) if re or im else scalars.ONE
    if kind == 2:
        return complex(re or 1.0, 0.0)
    return complex(re or 1.0, im or 0.5)


def _axis_state(rng: random.Random) -> LinearCombination:
    combo = LinearCombination.zero()
    for _ in range(rng.randint(1, 3)):
        combo = combo + LinearCombination.of(_axis_word(rng), _axis_coefficient(rng))
    return combo


def _zero_sign_values() -> list:
    rng = random.Random("freeboson-zero-signs")
    out = []
    for _ in range(600):
        out.append(expect_combo(_axis_state(rng)))
    for _ in range(150):
        out.append(inner(_axis_state(rng), _axis_state(rng)))
    for _ in range(10):
        out.extend(v for row in gram([_axis_state(rng) for _ in range(4)]).matrix for v in row)
    return out


def test_float_zero_signs_are_pinned():
    started = time.perf_counter()
    h = hashlib.sha256()
    for value in _zero_sign_values():
        z = complex(value)
        h.update(repr((z.real, z.imag, math.copysign(1, z.real), math.copysign(1, z.imag))).encode())
    assert h.hexdigest() == ZERO_SIGN_DIGEST
    assert time.perf_counter() - started < 2.0
