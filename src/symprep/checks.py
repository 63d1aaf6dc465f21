"""Certification checks that survive `python -O`.

A bare `assert` is stripped under optimisation, so a check that carries a
certified result goes through `require` instead.  `CheckFailed` subclasses
AssertionError, so callers that catch AssertionError keep working.
"""

from __future__ import annotations


class CheckFailed(AssertionError):
    """A computed object failed a certification check."""


def require(cond, msg: str) -> None:
    """Raise CheckFailed(msg) unless cond holds; never stripped by -O."""
    if not cond:
        raise CheckFailed(msg)
