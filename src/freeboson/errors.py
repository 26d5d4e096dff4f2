"""Structured errors for the engine.

Every error carries the name of the module that raised it so the CLI can
report provenance in its error documents.
"""
from __future__ import annotations


class EngineError(Exception):
    """Base class; ``module`` records which layer raised the error."""

    def __init__(self, module: str, message: str):
        self.module = module
        super().__init__(message)


class DomainError(EngineError):
    """An operation was called outside its mathematical domain."""


class PoleError(DomainError):
    """Two insertions collided: the pairing kernel has a pole there.

    ``pair`` holds the offending ((m1, z1), (m2, z2)) data.
    """

    def __init__(self, module: str, pair):
        self.pair = pair
        (m1, z1), (m2, z2) = pair
        super().__init__(module, f"coinciding points: [{m1}, {z1!r}] and [{m2}, {z2!r}]")


class ConfigurationError(DomainError):
    """Invalid disc configuration (overlap, too few discs, zero scale)."""


class RegimeError(DomainError):
    """Disc separation violates the Hilbert-Schmidt regime d/R > 4*sqrt(r)."""

    def __init__(self, module: str, d_over_r: float, threshold: float):
        self.d_over_r = d_over_r
        self.threshold = threshold
        super().__init__(
            module,
            f"separation ratio d/R = {d_over_r:.6g} is not above the required "
            f"threshold 4*sqrt(r) = {threshold:.6g}",
        )


class StructuralError(EngineError):
    """Input data violates a structural requirement (e.g. non-Hermitian Gram)."""


class ResourceError(EngineError):
    """Work would exceed one of the engine's fixed resource guards."""


def integer_text(k: int) -> str:
    """``k`` in decimal when the interpreter will print it, else its size as
    ``<n-bit integer>`` with the sign kept (an integer of more than
    ``sys.get_int_max_str_digits()`` digits cannot become a string)."""
    try:
        return str(k)
    except ValueError:
        return f"{'-' if k < 0 else ''}<{abs(k).bit_length()}-bit integer>"


class SchemaError(EngineError):
    """A configuration document failed validation."""

    def __init__(self, message: str):
        super().__init__("cli", message)
