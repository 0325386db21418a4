"""Direct Dependencies Vector (DDV).

From the paper (§3.2): all sequence numbers last received from each other
cluster are stored in a DDV.  For a cluster *j*:

* ``DDV_j[i] = SN_j``            if ``i == j``
* ``DDV_j[i] = last received SN_i`` (0 if none)   if ``i != j``

"Note that the size of the DDV is the number of clusters in the federation,
not the number of nodes."

DDV values are immutable; the protocol state keeps the *current* DDV and
stamps an immutable copy into every committed CLC.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

__all__ = ["DDV"]


class DDV:
    """Immutable dependency vector indexed by cluster."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Iterable[int]):
        self._entries = tuple(int(v) for v in entries)
        if any(v < 0 for v in self._entries):
            raise ValueError(f"DDV entries must be >= 0: {self._entries}")

    @classmethod
    def zero(cls, n_clusters: int) -> "DDV":
        """The DDV of a cluster that has neither checkpointed nor received."""
        if n_clusters < 1:
            raise ValueError("federation needs at least one cluster")
        return cls((0,) * n_clusters)

    # ------------------------------------------------------------------
    def __getitem__(self, cluster: int) -> int:
        return self._entries[cluster]

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[int]:
        return iter(self._entries)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DDV):
            return self._entries == other._entries
        if isinstance(other, tuple):
            return self._entries == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._entries)

    def as_tuple(self) -> tuple:
        return self._entries

    # ------------------------------------------------------------------
    def with_entry(self, cluster: int, value: int) -> "DDV":
        """Copy with one entry replaced."""
        entries = list(self._entries)
        entries[cluster] = value
        return DDV(entries)

    def merged(self, updates: Mapping[int, int]) -> "DDV":
        """Copy with ``updates`` applied as entrywise maxima."""
        entries = list(self._entries)
        for cluster, value in updates.items():
            if value > entries[cluster]:
                entries[cluster] = value
        return DDV(entries)

    def dominates(self, other: "DDV") -> bool:
        """True if every entry is >= the corresponding entry of ``other``."""
        if len(other) != len(self):
            raise ValueError("DDV size mismatch")
        return all(a >= b for a, b in zip(self._entries, other._entries))

    def __repr__(self) -> str:
        return f"DDV{self._entries}"
