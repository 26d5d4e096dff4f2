"""Perfect matchings enumerated one by one: the reference that the tests
compare the pairing engine's hafnians and matching counts against."""
from typing import Iterator

# A matching is a tuple of index pairs covering 0..n-1 once each.
Matching = tuple[tuple[int, int], ...]


def matchings(n: int) -> Iterator[Matching]:
    """All perfect matchings of {0..n-1}: (n-1)!! of them for even n, none odd.

    Deterministic order: the first unmatched index pairs with each later
    index in turn, recursively.
    """
    yield from _perfect(tuple(range(n)))


def _perfect(seq: tuple[int, ...]) -> Iterator[Matching]:
    if not seq:
        yield ()
        return
    if len(seq) % 2:
        return
    head, rest = seq[0], seq[1:]
    for i in range(len(rest)):
        remaining = rest[:i] + rest[i + 1 :]
        for sub in _perfect(remaining):
            yield ((head, rest[i]),) + sub
