"""Lightweight LDAP substrate: DNs, entries, filters, DIT and LDIF.

This package stands in for the OpenLDAP stack beneath MDS 2.1 (see
DESIGN.md §2): the query semantics are real — RFC 1960 filters over a
directory tree — while timing is charged by the simulation layer.
"""

from repro.ldap.dit import DIT, SCOPE_BASE, SCOPE_ONE, SCOPE_SUB
from repro.ldap.dn import DN, RDN, parse_dn
from repro.ldap.entry import Entry
from repro.ldap.filter import (
    And,
    Equality,
    Filter,
    GreaterOrEqual,
    LessOrEqual,
    Not,
    Or,
    Presence,
    Substring,
    parse_filter,
)
from repro.ldap.ldif import entry_to_ldif, from_ldif, ldif_size, to_ldif
from repro.ldap.schema import (
    DEVICE_OBJECTCLASSES,
    MDS_VO_DN,
    MDS_VO_SUFFIX,
    device_dn,
    host_dn,
)

__all__ = [
    "DN",
    "RDN",
    "parse_dn",
    "Entry",
    "DIT",
    "SCOPE_BASE",
    "SCOPE_ONE",
    "SCOPE_SUB",
    "Filter",
    "And",
    "Or",
    "Not",
    "Equality",
    "Presence",
    "Substring",
    "GreaterOrEqual",
    "LessOrEqual",
    "parse_filter",
    "to_ldif",
    "from_ldif",
    "entry_to_ldif",
    "ldif_size",
    "MDS_VO_SUFFIX",
    "MDS_VO_DN",
    "DEVICE_OBJECTCLASSES",
    "host_dn",
    "device_dn",
]
