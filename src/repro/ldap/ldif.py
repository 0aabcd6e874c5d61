"""LDIF (LDAP Data Interchange Format) serialization.

MDS tools exchange entries as LDIF text; the study's cost models charge
network transfers by serialized size, so round-trippable LDIF gives the
simulation realistic payload sizes for free.
"""

from __future__ import annotations

import typing as _t

from repro.errors import LdapError
from repro.ldap.entry import Entry

__all__ = ["to_ldif", "from_ldif", "entry_to_ldif", "ldif_size"]


def entry_to_ldif(entry: Entry) -> str:
    """Serialize one entry as an LDIF record (no trailing blank line)."""
    lines = [f"dn: {entry.dn}"]
    for name, values in entry.items():
        for value in values:
            lines.append(f"{name}: {value}")
    return "\n".join(lines)


def to_ldif(entries: _t.Iterable[Entry]) -> str:
    """Serialize entries as LDIF records separated by blank lines."""
    return "\n\n".join(entry_to_ldif(e) for e in entries) + "\n"


def ldif_size(entries: _t.Iterable[Entry]) -> int:
    """Exactly ``len(to_ldif(entries))``, without building the text.

    Each record's length is memoized on its entry (the entry's mutators
    clear it), so an entry a GRIS serves and a GIIS then aggregates is
    serialized once.
    """
    total = count = 0
    for entry in entries:
        size = entry._ldif_len
        if size is None:
            size = entry._ldif_len = len(entry_to_ldif(entry))
        total += size
        count += 1
    # Records are joined by blank lines ("\n\n") and end with one "\n".
    return total + 2 * count - 1 if count else 1


def from_ldif(text: str) -> list[Entry]:
    """Parse LDIF text produced by :func:`to_ldif` back into entries.

    Supports the subset we emit: ``dn:`` first, ``attr: value`` lines,
    records separated by blank lines, ``#`` comments ignored.
    """
    entries: list[Entry] = []
    record: list[str] = []
    for raw in text.splitlines() + [""]:
        line = raw.rstrip("\n")
        if line.startswith("#"):
            continue
        if line.strip() == "":
            if record:
                entries.append(_parse_record(record))
                record = []
            continue
        record.append(line)
    return entries


def _parse_record(lines: list[str]) -> Entry:
    if not lines[0].lower().startswith("dn:"):
        raise LdapError(f"LDIF record must start with dn:, got {lines[0]!r}")
    dn_text = lines[0][3:].strip()
    entry = Entry(dn_text)
    for line in lines[1:]:
        if ":" not in line:
            raise LdapError(f"malformed LDIF line: {line!r}")
        name, value = line.split(":", 1)
        entry.add_value(name.strip(), value.strip())
    return entry
