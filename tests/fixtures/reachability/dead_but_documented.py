"""Reachability fixture: prose that looks like a caller.

Use :func:`orphan` to do the thing -- says this docstring, and nothing else
in the tree does.  ``tests/test_reachability.py`` must report ``orphan`` and
must not report ``reached``, which module-level code below calls.
"""


def orphan():
    """``orphan()`` is named here, in the module docstring, in ``__all__``
    and in a string constant; none of them is a call."""
    return "orphan"


def reached():
    return 1


__all__ = ["orphan", "reached"]

_LOOKS_LIKE_A_USE = {"orphan": reached()}
