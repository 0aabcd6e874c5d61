"""LDAP entries: a DN plus a multi-valued, case-insensitive attribute map."""

from __future__ import annotations

import typing as _t

from repro.ldap.dn import DN

__all__ = ["Entry"]


class Entry:
    """One directory entry.

    Attribute names are case-insensitive (stored with their first-seen
    spelling); values are ordered lists of strings, as in LDAP.  Values
    supplied as ints/floats are stringified on insertion.

    ``_ldif_len`` memoizes the length of the entry's LDIF record for
    :func:`repro.ldap.ldif.ldif_size`; every mutator clears it.
    """

    __slots__ = ("dn", "_attrs", "_display", "_ldif_len")

    def __init__(self, dn: DN | str, attributes: _t.Mapping[str, _t.Any] | None = None) -> None:
        self.dn = dn if isinstance(dn, DN) else DN.parse(dn)
        self._attrs: dict[str, list[str]] = {}
        self._display: dict[str, str] = {}
        self._ldif_len: int | None = None
        if attributes:
            for name, value in attributes.items():
                self.put(name, value)
        # The RDN attribute is implicitly present (LDAP requires it).
        rdns = self.dn.rdns
        if rdns and not self._attrs.get(rdns[0].attr.lower()):
            self.put(rdns[0].attr, rdns[0].value)

    # -- mutation ---------------------------------------------------------------
    def put(self, name: str, value: _t.Any) -> None:
        """Replace attribute ``name`` with ``value`` (scalar or iterable)."""
        values = value if isinstance(value, (list, tuple)) else [value]
        key = name.lower()
        self._display[key] = name
        self._attrs[key] = [str(v) for v in values]
        self._ldif_len = None

    def add_value(self, name: str, value: _t.Any) -> None:
        """Append one value to attribute ``name``.

        LDAP attribute values form a set: an exact duplicate is a no-op.
        """
        key = name.lower()
        self._display.setdefault(key, name)
        values = self._attrs.setdefault(key, [])
        text = str(value)
        if text not in values:
            values.append(text)
        self._ldif_len = None

    def remove(self, name: str) -> None:
        """Delete attribute ``name`` if present."""
        key = name.lower()
        self._attrs.pop(key, None)
        self._display.pop(key, None)
        self._ldif_len = None

    # -- access -----------------------------------------------------------------
    def get(self, name: str) -> list[str]:
        """All values of ``name`` (empty list when absent)."""
        return self._attrs.get(name.lower(), [])

    def first(self, name: str, default: str | None = None) -> str | None:
        """First value of ``name``, or ``default``."""
        values = self._attrs.get(name.lower())
        return values[0] if values else default

    def has(self, name: str) -> bool:
        """Attribute presence test (used by ``(attr=*)`` filters)."""
        return name.lower() in self._attrs

    def attribute_names(self) -> list[str]:
        """Attribute names with their original spelling, insertion order."""
        return [self._display[k] for k in self._attrs]

    def items(self) -> _t.Iterator[tuple[str, list[str]]]:
        """(original spelling, values) per attribute, insertion order."""
        display = self._display
        for key, values in self._attrs.items():
            yield display[key], values

    @property
    def nattrs(self) -> int:
        """Number of attributes (drives serialized-size cost models)."""
        return len(self._attrs)

    def estimated_size(self) -> int:
        """Approximate LDIF wire size in bytes."""
        size = len(str(self.dn)) + 5
        for key, values in self._attrs.items():
            for value in values:
                size += len(key) + len(value) + 3
        return size

    def copy(self) -> "Entry":
        """Deep-enough copy (values are immutable strings)."""
        clone = Entry(self.dn)
        for key, values in self._attrs.items():
            clone.put(self._display[key], list(values))
        return clone

    def to_dict(self) -> dict[str, list[str]]:
        """Plain-dict view for assertions and serialization."""
        return {self._display[k]: list(v) for k, v in self._attrs.items()}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Entry):
            return NotImplemented
        return self.dn == other.dn and self._attrs == other._attrs

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Entry {self.dn} ({self.nattrs} attrs)>"
