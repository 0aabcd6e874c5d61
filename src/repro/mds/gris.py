"""The Grid Resource Information Service (GRIS).

A GRIS "runs on a resource and acts as a modular content gateway for a
resource" (paper §2.1): it owns a set of information providers, caches
their output for ``cachettl`` seconds, and answers LDAP searches over
the merged data.

The functional core is simulation-free; :class:`GrisResult` reports
what work a query caused (providers executed, cache hits, result size)
so the simulation layer can charge time for it.  Search results are
memoized per cache generation: with a warm cache, repeated identical
queries — the workload of Experiment 1 — cost O(1), mirroring slapd's
in-memory serving while keeping the host-Python experiments fast.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass, field

import numpy as np

from repro.ldap.dit import DIT, SCOPE_SUB
from repro.ldap.entry import Entry
from repro.ldap.filter import Filter
from repro.ldap.ldif import ldif_size
from repro.ldap.schema import MDS_VO_DN, host_dn
from repro.mds.cache import TtlCache
from repro.mds.providers import InformationProvider

__all__ = ["GRIS", "GrisResult"]


@dataclass
class GrisResult:
    """A GRIS search answer plus the work it caused."""

    entries: list[Entry]
    providers_run: list[str] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    exec_cost: float = 0.0  # provider CPU-seconds charged by this query
    _size: int | None = None  # filled by the GRIS from its memo

    @property
    def fetched(self) -> bool:
        """True when at least one provider had to execute (cache miss)."""
        return bool(self.providers_run)

    def estimated_size(self) -> int:
        """Serialized (LDIF) size of the result in bytes."""
        if self._size is not None:
            return self._size
        if not self.entries:
            return 64
        return ldif_size(self.entries)


class GRIS:
    """Per-resource information server with a TTL cache over providers."""

    def __init__(
        self,
        hostname: str,
        providers: _t.Sequence[InformationProvider],
        *,
        cachettl: float = 30.0,
        seed: int = 0,
    ) -> None:
        self.hostname = hostname
        self.providers = list(providers)
        self.cache: TtlCache[list[Entry]] = TtlCache(cachettl)
        self._rng = np.random.default_rng(seed)
        self.queries = 0
        self._generation = 0
        self._memo: dict[tuple, tuple[list[Entry], int]] = {}
        self._dit = DIT()
        self._dit.add(Entry(MDS_VO_DN.parent), create_parents=True)
        self._dit.add(Entry(MDS_VO_DN, {"objectclass": "MdsVoName"}), create_parents=True)
        self._dit.add(
            Entry(
                host_dn(hostname),
                {"objectclass": ["MdsHost", "MdsComputer"], "Mds-Host-hn": hostname},
            )
        )

    @property
    def base_dn(self) -> str:
        """Default search base for this resource."""
        return str(host_dn(self.hostname))

    @property
    def cachettl(self) -> float:
        return self.cache.ttl

    def add_provider(self, provider: InformationProvider) -> None:
        self.providers.append(provider)
        self.cache.invalidate(provider.name)
        self._generation += 1

    # -- the core operation -------------------------------------------------
    def search(
        self,
        filter: Filter | str = "(objectclass=*)",
        *,
        now: float = 0.0,
        scope: str = SCOPE_SUB,
        attributes: _t.Sequence[str] | None = None,
    ) -> GrisResult:
        """Answer one LDAP search, running stale providers as needed."""
        self.queries += 1
        result = GrisResult(entries=[])
        for provider in self.providers:
            entries = self.cache.get(provider.name, now)
            if entries is None:
                entries = provider.produce(self.hostname, self._rng, now)
                self.cache.put(provider.name, entries, now)
                result.providers_run.append(provider.name)
                result.exec_cost += provider.exec_cost
                result.cache_misses += 1
                for entry in entries:
                    self._dit.upsert(entry)
                self._generation += 1
            else:
                result.cache_hits += 1
        key = (
            self._generation,
            str(filter),
            scope,
            tuple(attributes) if attributes is not None else None,
        )
        memoized = self._memo.get(key)
        if memoized is None:
            if len(self._memo) > 64:  # bound memo growth across generations
                self._memo.clear()
            entries = self._dit.search(
                MDS_VO_DN, scope=scope, filter=filter, attributes=attributes
            )
            size = ldif_size(entries) if entries else 64
            memoized = (entries, size)
            self._memo[key] = memoized
        result.entries, result._size = memoized
        return result

    def entry_count(self, now: float = 0.0) -> int:
        """Number of entries a full search would return."""
        return len(self.search(now=now).entries)
