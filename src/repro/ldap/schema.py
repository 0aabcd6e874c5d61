"""The MDS 2.1 GLUE-less schema used by the default information providers.

MDS 2.1 shipped a set of ``Mds-*`` object classes describing hosts,
CPUs, memory, filesystems, network interfaces and the OS.  We model the
attribute vocabulary that the paper's "10 default information
providers" expose so GRIS entries look like real ``grid-info-search``
output and carry realistic attribute counts/sizes.
"""

from __future__ import annotations

from repro.ldap.dn import DN, parse_dn

__all__ = [
    "MDS_VO_SUFFIX",
    "MDS_VO_DN",
    "DEVICE_OBJECTCLASSES",
    "host_dn",
    "device_dn",
]

# Every MDS deployment in the study published under the local VO suffix.
MDS_VO_SUFFIX = "Mds-Vo-name=local, o=grid"
MDS_VO_DN = parse_dn(MDS_VO_SUFFIX)

# Object class advertised by each default device-level provider.
DEVICE_OBJECTCLASSES: dict[str, str] = {
    "cpu": "MdsCpu",
    "memory": "MdsMemory",
    "filesystem": "MdsFilesystem",
    "network": "MdsNet",
    "os": "MdsOs",
    "cpu-free": "MdsCpuFree",
    "memory-vm": "MdsMemoryVm",
    "storage": "MdsStorage",
    "queue": "MdsQueue",
    "software": "MdsSoftwareDeployment",
}


def host_dn(hostname: str) -> DN:
    """DN of a host entry under the local VO."""
    return MDS_VO_DN.child("Mds-Host-hn", hostname)


def device_dn(hostname: str, device: str) -> DN:
    """DN of a device entry beneath its host entry."""
    return host_dn(hostname).child("Mds-Device-name", device)
