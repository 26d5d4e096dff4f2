"""Validation errors of the engine layers: each refusal carries its type,
the module that raised it and its message."""
from fractions import Fraction

import pytest

from freeboson.algebra import WickGroup, WickWord, d_table, wick_expand
from freeboson.correlator import mobius_check
from freeboson.errors import DomainError
from freeboson.fock import FockVector, ladder, wick_origin_to_fock
from freeboson.hilbert import StateExpression

HALF = Fraction(1, 2)


@pytest.mark.parametrize(
    "call,module,message",
    [
        (lambda: d_table(0), "algebra", "d_table needs max_m >= 1, got 0"),
        (lambda: wick_expand(WickWord.unit()), "algebra",
         "wick_expand expects a WickGroup, got WickWord"),
        (lambda: mobius_check(WickGroup.of((1, HALF)), (0, 1, 1, 0)), "correlator",
         "mobius_check expects a WickWord, got WickGroup"),
        (lambda: mobius_check(WickWord.plain((1, HALF)), (1, 0, 2, -1)), "correlator",
         "map pole: c z + d = 0 at z = Exact((1/2))"),
        (lambda: ladder(WickWord.unit(), 1), "fock", "ladder expects a FockVector, got WickWord"),
        (lambda: ladder(FockVector.vacuum(), 1.5), "fock", "ladder mode must be an integer, got 1.5"),
        (lambda: wick_origin_to_fock([0]), "fock", "order must be >= 1, got 0"),
        (lambda: StateExpression(WickWord.unit()), "hilbert", "states are combinations of Wick words"),
    ],
    ids=[
        "d-table-order", "wick-expand-word", "mobius-group", "mobius-pole",
        "ladder-word", "ladder-mode", "origin-order", "state-word",
    ],
)
def test_validation_errors_name_their_module(call, module, message):
    with pytest.raises(DomainError) as info:
        call()
    assert type(info.value) is DomainError
    assert info.value.module == module
    assert str(info.value) == message
