"""Tests for DN parsing and hierarchy relations."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import DnSyntaxError
from repro.ldap import DN, RDN, device_dn, host_dn, parse_dn


def test_parse_simple_dn():
    dn = parse_dn("Mds-Host-hn=lucky7.mcs.anl.gov, Mds-Vo-name=local, o=grid")
    assert dn.depth == 3
    assert dn.rdn == RDN("Mds-Host-hn", "lucky7.mcs.anl.gov")
    assert str(dn.parent) == "Mds-Vo-name=local, o=grid"


def test_root_dn():
    dn = parse_dn("")
    assert dn.depth == 0
    assert str(dn) == ""


def test_root_dn_has_no_rdn_or_parent():
    root = parse_dn("")
    with pytest.raises(DnSyntaxError):
        _ = root.rdn
    with pytest.raises(DnSyntaxError):
        _ = root.parent


def test_equality_is_case_insensitive_on_attrs():
    assert parse_dn("CN=Foo, O=Grid") == parse_dn("cn=Foo, o=Grid")
    assert parse_dn("cn=Foo") != parse_dn("cn=foo")  # values case-sensitive


def test_hash_consistency():
    a = parse_dn("CN=x, O=y")
    b = parse_dn("cn=x, o=y")
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_descendant_relations():
    base = parse_dn("Mds-Vo-name=local, o=grid")
    host = parse_dn("Mds-Host-hn=lucky0, Mds-Vo-name=local, o=grid")
    device = host.child("Mds-Device-name", "cpu")
    assert host.is_descendant_of(base)
    assert device.is_descendant_of(base)
    assert device.is_descendant_of(host)
    assert not base.is_descendant_of(host)
    assert not host.is_descendant_of(host)
    assert host.is_equal_or_descendant_of(host)


def test_sibling_is_not_descendant():
    a = parse_dn("cn=a, o=grid")
    b = parse_dn("cn=b, o=grid")
    assert not a.is_descendant_of(b)


def test_escaped_comma_in_value():
    dn = parse_dn(r"cn=Smith\, John, o=grid")
    assert dn.depth == 2
    assert dn.rdn.value == "Smith, John"
    # Round-trips through str().
    assert parse_dn(str(dn)) == dn


def test_malformed_dns_rejected():
    for bad in ["cn", "=value", "cn=a,,o=b", "cn=a,", "a+b=c", "cn=x\\"]:
        with pytest.raises(DnSyntaxError):
            parse_dn(bad)


def test_child_construction():
    base = parse_dn("o=grid")
    child = base.child("cn", "x")
    assert str(child) == "cn=x, o=grid"
    assert child.parent == base


_rdn_values = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), whitelist_characters=".-_ "),
    min_size=1,
    max_size=12,
).filter(lambda s: s.strip() == s and s.strip() != "")


@given(st.lists(st.tuples(_rdn_values, _rdn_values), min_size=1, max_size=5))
def test_property_str_parse_roundtrip(pairs):
    dn = DN([RDN(attr, value) for attr, value in pairs])
    assert parse_dn(str(dn)) == dn


@given(st.lists(st.tuples(_rdn_values, _rdn_values), min_size=2, max_size=5))
def test_property_parent_child_inverse(pairs):
    dn = DN([RDN(a, v) for a, v in pairs])
    rebuilt = dn.parent.child(dn.rdn.attr, dn.rdn.value)
    assert rebuilt == dn
    assert dn.is_descendant_of(dn.parent)


# -- seeded corpus: round trips and every error kind --------------------------

_CORPUS_ATTRS = ("cn", "o", "Mds-Host-hn", " Mds-Vo-name ", "ou", "", "a+b", "cn ")
_CORPUS_VALUES = ("grid", "local", "lucky7.mcs.anl.gov", " spaced ", "x=y", "a+b", "", "7")


def _corpus_dn(rng: random.Random) -> str:
    parts = []
    for _ in range(rng.randint(1, 4)):
        roll = rng.random()
        if roll < 0.06:
            parts.append(rng.choice(("", " ")))  # empty RDN
        elif roll < 0.12:
            parts.append(rng.choice(_CORPUS_VALUES))  # no '=' (or an empty one)
        else:
            parts.append(f"{rng.choice(_CORPUS_ATTRS)}={rng.choice(_CORPUS_VALUES)}")
    return rng.choice((",", ", ", " ,")).join(parts)


def test_seeded_corpus_round_trips_and_covers_every_error():
    rng = random.Random(20030623)
    kinds = set()
    for _ in range(600):
        text = _corpus_dn(rng)
        with pytest.raises(DnSyntaxError, match="dangling escape"):
            parse_dn(text + "\\")
        try:
            dn = parse_dn(text)
        except DnSyntaxError as exc:
            kinds.add(str(exc).split(":")[0].split(" in ")[0])
            continue
        kinds.add("valid")
        rendered = str(dn)
        assert str(dn) is rendered  # rendered once, then cached
        again = parse_dn(rendered)
        assert again == dn and again.rdns == dn.rdns
        assert str(again) == rendered
    assert kinds == {
        "valid",
        "empty RDN component",
        "RDN missing '='",
        "multi-valued RDNs are not supported",
        "RDN missing attribute type",
    }


def test_structural_dns_match_parsed_dns():
    host = parse_dn("Mds-Host-hn=lucky0.mcs.anl.gov, Mds-Vo-name=local, o=grid")
    parsed = parse_dn(
        "Mds-Device-name=memory#3, Mds-Host-hn=lucky0.mcs.anl.gov, Mds-Vo-name=local, o=grid"
    )
    built = (
        host.child("Mds-Device-name", "memory#3"),
        device_dn("lucky0.mcs.anl.gov", "memory#3"),
    )
    for child in built:
        assert child == parsed and child.rdns == parsed.rdns
        assert hash(child) == hash(parsed)
        assert str(child) == str(parsed)
        assert child.parent == host and str(child.parent) == str(host)
    assert host_dn("lucky0.mcs.anl.gov").rdns == host.rdns
