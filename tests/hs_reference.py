"""The traces tr(A'^k) of the HS sweep by full matrix products of K': every
entry of every power summed, and each trace summed over all n^2 index pairs.
The reference that the tests check ``amplitude._hs_traces`` against, whose
exact sweep takes tr(A') from a convolution over order sums and the higher
traces from the bare kernels, mirroring half of each power and of each
trace, and builds one block at two discs.  Float mode sums the same K'
products as this reference, in its order, less the terms with a zero
factor in ``amplitude._matmul``: a float sum starts at +0, so those leave
its bits as they are."""
from freeboson import scalars
from freeboson.amplitude import DiscConfiguration, _PairMatrix
from freeboson.scalars import Scalar


def hs_traces(config: DiscConfiguration, M: int, kmax: int) -> list[Scalar]:
    """tr(A'^k) for k = 1..kmax over the r*M (disc, mode) slots, with
    A' = diag(m) conj(K') diag(m) K' and K' from ``_PairMatrix``."""
    exact = config.is_exact()
    zero = scalars.zero_scalar(exact)
    slots = [(j, m) for j in range(config.r) for m in range(1, M + 1)]
    n = len(slots)
    pair_matrix = _PairMatrix(config)
    kp = [[zero] * n for _ in range(n)]
    half_trace = zero
    for a, (disc_a, m_a) in enumerate(slots):
        for b in range(a + 1, n):
            disc_b, m_b = slots[b]
            if disc_a != disc_b:
                x = kp[a][b] = kp[b][a] = pair_matrix(disc_a, m_a, disc_b, m_b)
                half_trace = half_trace + m_a * m_b * scalars.abs_sq(x)
    traces = [2 * half_trace]
    if kmax < 2:
        return traces
    modes = [m for _, m in slots]
    left = [[m * x.conjugate() for x in row] for m, row in zip(modes, kp)]
    right = [[m * x for x in row] for m, row in zip(modes, kp)]
    powers = [None, matmul(left, right, zero)]
    while 2 * (len(powers) - 1) < kmax:
        powers.append(matmul(powers[-1], powers[1], zero))
    for k in range(2, kmax + 1):
        hi, lo = powers[(k + 1) // 2], powers[k // 2]
        traces.append(sum((hi[i][j] * lo[j][i] for i in range(n) for j in range(n)), zero))
    return traces


def matmul(x: list[list[Scalar]], y: list[list[Scalar]], zero: Scalar) -> list[list[Scalar]]:
    """The matrix product x y, every entry summed, skipping the zero entries of x."""
    out = []
    for row in x:
        terms = [(v, y[l]) for l, v in enumerate(row) if v]
        out.append([sum((v * yl[j] for v, yl in terms), zero) for j in range(len(y[0]))])
    return out


def left_and_right(config: DiscConfiguration, M: int) -> tuple[list, list, list]:
    """(modes, diag(m) conj(K'), diag(m) K') over the r*M slots, the two
    factors of A' as ``hs_traces`` builds them."""
    zero = scalars.zero_scalar(config.is_exact())
    slots = [(j, m) for j in range(config.r) for m in range(1, M + 1)]
    pair_matrix = _PairMatrix(config)
    kp = [
        [pair_matrix(ja, ma, jb, mb) if ja != jb else zero for jb, mb in slots]
        for ja, ma in slots
    ]
    modes = [m for _, m in slots]
    left = [[m * x.conjugate() for x in row] for m, row in zip(modes, kp)]
    right = [[m * x for x in row] for m, row in zip(modes, kp)]
    return modes, left, right
