"""Strict reading of configuration dicts.

Every reader of a scenario file or of ``protocol_options`` accepts a fixed
set of keys and refuses any other, so a misspelt or retired key stops the
run instead of silently leaving its default in place.
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["refuse_unknown_keys"]


def refuse_unknown_keys(what: str, data: dict, accepted: Iterable[str]) -> None:
    """Raise ``ValueError`` naming every key of ``data`` not in ``accepted``."""
    accepted = set(accepted)
    unknown = sorted(set(data) - accepted)
    if unknown:
        names = ", ".join(repr(k) for k in unknown)
        allowed = ", ".join(sorted(accepted)) or "none"
        raise ValueError(f"{what}: unknown key {names} (accepted: {allowed})")
