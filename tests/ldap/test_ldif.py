"""Tests for the memoized LDIF size against the serialized text."""

from repro.ldap import Entry, ldif_size, to_ldif


def _entries() -> list[Entry]:
    return [
        Entry("o=grid"),
        Entry("Mds-Vo-name=local, o=grid", {"objectclass": "MdsVoName"}),
        Entry(
            "Mds-Host-hn=lucky0, Mds-Vo-name=local, o=grid",
            {"objectclass": ["MdsHost", "MdsComputer"], "Mds-Cpu-speedMHz": 1133},
        ),
    ]


def test_empty_and_single_entry():
    assert ldif_size([]) == len(to_ldif([])) == 1
    one = [Entry("cn=x, o=grid", {"k": "v"})]
    assert ldif_size(one) == len(to_ldif(one))


def test_size_matches_text_and_is_memoized():
    entries = _entries()
    assert ldif_size(entries) == len(to_ldif(entries))
    assert all(e._ldif_len is not None for e in entries)
    assert ldif_size(iter(entries)) == len(to_ldif(entries))  # any iterable


def test_mutators_invalidate_memo():
    entries = _entries()
    host = entries[2]
    steps = (
        lambda: host.put("Mds-Os-name", "Linux"),
        lambda: host.put("objectclass", ["MdsHost"]),  # replace with fewer values
        lambda: host.add_value("objectclass", "MdsComputer"),
        lambda: host.add_value("objectclass", "MdsComputer"),  # duplicate: no-op
        lambda: host.add_value("Mds-New", 7),  # new attribute via add_value
        lambda: host.remove("Mds-Cpu-speedMHz"),
        lambda: host.remove("absent"),
    )
    ldif_size(entries)  # every size computed before the first mutation
    for step in steps:
        step()
        assert ldif_size(entries) == len(to_ldif(entries))


def test_copy_starts_with_its_own_memo():
    original = _entries()[2]
    ldif_size([original])
    clone = original.copy()
    clone.put("extra", "value")
    assert ldif_size([clone]) == len(to_ldif([clone]))
    assert ldif_size([original]) == len(to_ldif([original]))
