"""An amplitude entry as the hafnian of K' itself: every weight
K'_ab = -2 s_a s_b C(m_a, a_a, m_b, a_b) from ``_PairMatrix.__call__``,
scales and all, on the (disc, mode) slots with their counts, times the
normalisation root(prod m^c / c!).  The reference that the tests check
``amplitude_entry`` against, whose exact route takes every scale out of the
pairing DP and runs it on integer kernels."""
import math
from fractions import Fraction
from typing import Sequence

from freeboson import scalars
from freeboson.amplitude import DiscConfiguration, _PairMatrix
from freeboson.fock import FockIndex
from freeboson.pairing import hafnian
from freeboson.scalars import Scalar, root


def entry(config: DiscConfiguration, indices: Sequence[FockIndex]) -> Scalar:
    """root(prod m^c / c!) times the hafnian of K' over the occupied slots,
    labelled by disc; the hafnian's zero itself when it vanishes."""
    pair_matrix = _PairMatrix(config)
    slots = [(j, m) for j, idx in enumerate(indices) for m, _ in idx.occupations]
    counts = [n for idx in indices for _, n in idx.occupations]
    pairing = hafnian(
        lambda a, b: pair_matrix(*slots[a], *slots[b]),
        [j for j, _ in slots],
        counts,
        scalars.zero_scalar(pair_matrix.exact),
    )
    if not pairing:
        return pairing
    norm = math.prod(Fraction(m ** n, math.factorial(n)) for (_, m), n in zip(slots, counts))
    return root(norm) * pairing
