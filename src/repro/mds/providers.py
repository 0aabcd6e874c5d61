"""MDS information providers — the lowest level of the MDS hierarchy.

An information provider is a small program the GRIS executes to obtain a
batch of LDAP entries about one aspect of a resource (paper §2.1).  A
default MDS 2.1 install runs 10 of them (§3.5); Experiment 3 scales the
count to 90 by cloning the memory provider, which
:func:`replicated_providers` reproduces.

Providers here generate real entries (with plausible MDS attribute
vocabularies) from a seeded RNG, and carry an ``exec_cost`` — the CPU
seconds the provider script takes — which the uncached GRIS pays on
every query.
"""

from __future__ import annotations

import typing as _t

import numpy as np

from repro.ldap.entry import Entry
from repro.ldap.schema import device_dn

__all__ = [
    "InformationProvider",
    "make_default_providers",
    "replicated_providers",
    "DEFAULT_PROVIDER_NAMES",
]

# The 10 providers of a default MDS 2.1 install (paper §3.5).
DEFAULT_PROVIDER_NAMES = (
    "cpu",
    "memory",
    "filesystem",
    "network",
    "os",
    "cpu-free",
    "memory-vm",
    "storage",
    "queue",
    "software",
)

# Cost of forking + running one provider script, in CPU seconds.  The
# paper's uncached GRIS sustains <2 queries/s with 10 providers (Fig. 5),
# which this value (x10 providers, serialized) reproduces.
DEFAULT_EXEC_COST = 0.05


class InformationProvider:
    """One data source feeding a GRIS."""

    def __init__(
        self,
        name: str,
        objectclass: str,
        *,
        exec_cost: float = DEFAULT_EXEC_COST,
        nattrs: int = 14,
    ) -> None:
        self.name = name
        self.objectclass = objectclass
        self.exec_cost = exec_cost
        self.nattrs = nattrs
        self.invocations = 0

    def produce(self, hostname: str, rng: np.random.Generator, now: float = 0.0) -> list[Entry]:
        """Run the provider: returns fresh entries for ``hostname``."""
        self.invocations += 1
        entry = Entry(
            device_dn(hostname, self.name),
            {
                "objectclass": ["MdsDevice", self.objectclass],
                "Mds-validfrom": f"{now:.0f}",
                "Mds-validto": f"{now + 30.0:.0f}",
                "Mds-keepto": f"{now + 60.0:.0f}",
            },
        )
        self._fill(entry, hostname, rng)
        # Pad to the configured attribute count with generic metrics.
        i = 0
        while entry.nattrs < self.nattrs:
            entry.put(f"Mds-{self.name}-metric{i}", f"{rng.integers(0, 10_000)}")
            i += 1
        return [entry]

    def _fill(self, entry: Entry, hostname: str, rng: np.random.Generator) -> None:
        """Provider-specific attributes; subclass hook."""
        base_kind = self.name.split("#")[0]  # replicas are "memory#17"
        _FILLERS.get(base_kind, _fill_generic)(entry, hostname, rng)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<InformationProvider {self.name}>"


def _fill_cpu(entry: Entry, hostname: str, rng: np.random.Generator) -> None:
    entry.put("Mds-Cpu-model", "Pentium III (Coppermine)")
    entry.put("Mds-Cpu-speedMHz", "1133")
    entry.put("Mds-Cpu-Total-count", "2")
    entry.put("Mds-Cpu-cache-l2kB", "512")


def _fill_memory(entry: Entry, hostname: str, rng: np.random.Generator) -> None:
    entry.put("Mds-Memory-Ram-Total-sizeMB", "512")
    entry.put("Mds-Memory-Ram-sizeMB", str(int(rng.integers(100, 480))))


def _fill_filesystem(entry: Entry, hostname: str, rng: np.random.Generator) -> None:
    entry.put("Mds-Fs-Total-sizeMB", "17000")
    entry.put("Mds-Fs-freeMB", str(int(rng.integers(2_000, 15_000))))
    entry.put("Mds-Fs-mount", "/home")


def _fill_network(entry: Entry, hostname: str, rng: np.random.Generator) -> None:
    entry.put("Mds-Net-name", "eth0")
    entry.put("Mds-Net-AdminStatus", "UP")
    entry.put("Mds-Net-speedMbps", "100")
    entry.put("Mds-Net-addr", f"140.221.9.{rng.integers(1, 254)}")


def _fill_os(entry: Entry, hostname: str, rng: np.random.Generator) -> None:
    entry.put("Mds-Os-name", "Linux")
    entry.put("Mds-Os-release", "2.4.10")
    entry.put("Mds-Host-hn", hostname)


def _fill_cpu_free(entry: Entry, hostname: str, rng: np.random.Generator) -> None:
    entry.put("Mds-Cpu-Free-1minX100", str(int(rng.integers(0, 200))))
    entry.put("Mds-Cpu-Free-5minX100", str(int(rng.integers(0, 200))))
    entry.put("Mds-Cpu-Free-15minX100", str(int(rng.integers(0, 200))))


def _fill_memory_vm(entry: Entry, hostname: str, rng: np.random.Generator) -> None:
    entry.put("Mds-Memory-Vm-Total-sizeMB", "1024")
    entry.put("Mds-Memory-Vm-sizeMB", str(int(rng.integers(200, 1000))))


def _fill_storage(entry: Entry, hostname: str, rng: np.random.Generator) -> None:
    entry.put("Mds-Storage-dev", "/dev/sda")
    entry.put("Mds-Storage-sizeGB", "18")


def _fill_queue(entry: Entry, hostname: str, rng: np.random.Generator) -> None:
    entry.put("Mds-Queue-name", "default")
    entry.put("Mds-Queue-length", str(int(rng.integers(0, 30))))


def _fill_software(entry: Entry, hostname: str, rng: np.random.Generator) -> None:
    entry.put("Mds-Software-deployment", "globus-2.0")
    entry.put("Mds-Software-release", "2.1")


def _fill_generic(entry: Entry, hostname: str, rng: np.random.Generator) -> None:
    entry.put("Mds-Generic-value", str(int(rng.integers(0, 10_000))))


_FILLERS: dict[str, _t.Callable[[Entry, str, np.random.Generator], None]] = {
    "cpu": _fill_cpu,
    "memory": _fill_memory,
    "filesystem": _fill_filesystem,
    "network": _fill_network,
    "os": _fill_os,
    "cpu-free": _fill_cpu_free,
    "memory-vm": _fill_memory_vm,
    "storage": _fill_storage,
    "queue": _fill_queue,
    "software": _fill_software,
}


def make_default_providers(exec_cost: float = DEFAULT_EXEC_COST) -> list[InformationProvider]:
    """The 10 providers of a stock MDS 2.1 install."""
    from repro.ldap.schema import DEVICE_OBJECTCLASSES

    return [
        InformationProvider(name, DEVICE_OBJECTCLASSES[name], exec_cost=exec_cost)
        for name in DEFAULT_PROVIDER_NAMES
    ]


def replicated_providers(
    count: int, exec_cost: float = DEFAULT_EXEC_COST
) -> list[InformationProvider]:
    """``count`` providers, cloning the memory provider beyond the 10 defaults.

    Mirrors the paper's Experiment 3 methodology: "we modified the
    default memory information provider and added copies of the new
    version to simulate the expanded information providers" (§3.5).
    """
    providers = make_default_providers(exec_cost=exec_cost)
    if count <= len(providers):
        return providers[:count]
    for i in range(count - len(providers)):
        providers.append(
            InformationProvider(f"memory#{i}", "MdsMemory", exec_cost=exec_cost)
        )
    return providers
