"""Exception types shared across the package."""

from __future__ import annotations


class ValidationError(ValueError):
    """Invalid input: malformed graphs, files, parameters or options."""


class IsolatedNodeError(ValidationError):
    """A graph construction left one or more nodes with zero degree."""

    def __init__(self, message: str, nodes: list[int]):
        super().__init__(message)
        self.nodes = nodes


class NumericalError(RuntimeError):
    """A numerical procedure failed. Raised by ``closed_form_temperatures``
    (a nonpositive mean-temperature denominator) and by the block-model
    generator's ``_repair_isolated`` (a node still isolated after its row
    resamples). The iterative solver does not raise it: it records
    ``max_iterations`` as its stop reason instead."""
