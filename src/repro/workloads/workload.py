"""Workload container: an ordered bag of weighted SQL statements."""

from repro.util import DesignError


class Workload:
    """A list of ``(sql, weight)`` pairs.

    Iterating yields the pairs, which is the protocol every cost/benefit
    API in the library accepts.  Weights model statement frequencies.
    """

    def __init__(self, entries=()):
        self._entries = []
        for entry in entries:
            if isinstance(entry, tuple):
                sql, weight = entry
            else:
                sql, weight = entry, 1.0
            self.add(sql, weight)

    def add(self, sql, weight=1.0):
        if not isinstance(sql, str) or not sql.strip():
            raise DesignError("workload statements must be non-empty SQL text")
        if weight <= 0:
            raise DesignError("workload weights must be positive")
        self._entries.append((sql, float(weight)))
        return self

    def __iter__(self):
        return iter(self._entries)

    def __len__(self):
        return len(self._entries)

    def __getitem__(self, idx):
        return self._entries[idx]

    @property
    def statements(self):
        return [sql for sql, __ in self._entries]

    def subset(self, indices):
        picked = Workload()
        for i in indices:
            sql, weight = self._entries[i]
            picked.add(sql, weight)
        return picked

    def merged(self, other):
        out = Workload(self._entries)
        for sql, weight in other:
            out.add(sql, weight)
        return out

    def describe(self, limit=10):
        lines = ["Workload with %d statements:" % len(self)]
        for sql, weight in self._entries[:limit]:
            lines.append("  [w=%.1f] %s" % (weight, sql))
        if len(self) > limit:
            lines.append("  ... (%d more)" % (len(self) - limit))
        return "\n".join(lines)
