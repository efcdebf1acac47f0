"""Tests for IPv4 helpers and the prefix allocator."""

import ipaddress

import pytest
from hypothesis import given, strategies as st

from repro.net import (
    AddressPoolExhaustedError,
    PrefixPool,
    address_int,
    block_of,
    hosts_in,
    nth_address,
    parse_address,
    parse_network,
)


class TestParsing:
    def test_parse_address_from_string(self):
        assert int(parse_address("10.0.0.1")) == (10 << 24) + 1

    def test_parse_address_from_int(self):
        assert str(parse_address(1)) == "0.0.0.1"

    def test_parse_address_idempotent(self):
        addr = parse_address("1.2.3.4")
        assert parse_address(addr) is addr

    def test_parse_network(self):
        assert parse_network("10.0.0.0/24").num_addresses == 256

    def test_parse_network_strict_rejects_host_bits(self):
        with pytest.raises(ValueError):
            parse_network("10.0.0.1/24")

    def test_parse_network_nonstrict(self):
        assert str(parse_network("10.0.0.1/24", strict=False)) == "10.0.0.0/24"

    @pytest.mark.parametrize(
        "bad",
        [
            "not-an-ip",
            "1.2.3",
            "1.2.3.4.5",
            "256.0.0.1",
            "::1",  # IPv6
            "1.2.3.4/24",  # a network, not an address
            "",
            -1,
            2**32,  # first out-of-range int
            2**80,  # would overflow 32-bit packing
            3.14,
            None,
            b"\x01",
            True,  # an int to Python, not an address
            False,
        ],
    )
    def test_parse_address_rejects_garbage_uniformly(self, bad):
        """Every malformed input raises one clear ValueError — never a raw
        ipaddress/OverflowError traceback (the HTTP layer catches this)."""
        with pytest.raises(ValueError, match="not an IPv4 address"):
            parse_address(bad)

    def test_parse_address_error_names_the_input(self):
        with pytest.raises(ValueError, match="'10\\.0\\.0\\.999'"):
            parse_address("10.0.0.999")


def _reference(text):
    """``ipaddress.IPv4Address(text)``, or ``None`` where it refuses."""
    try:
        return ipaddress.IPv4Address(text)
    except ValueError:
        return None


_DIGITS = "0123456789"
#: Octet spellings around the fast path's edges: leading zeros, Unicode
#: digits (Arabic-Indic, fullwidth, superscript), whitespace, signs, 256+.
_OCTET_TEXT = st.one_of(
    st.integers(0, 255).map(str),
    st.integers(0, 999).map(str),
    st.integers(0, 255).map(lambda n: "0" + str(n)),
    st.sampled_from(["", "00", "000", "0255", "256", "1000", "+1", "-1", " 1",
                     "1 ", "\u0661", "\uff11", "\u00b2", "1\n", "0x1", "01"]),
    st.text(alphabet=_DIGITS + " \t\u0661\uff10", min_size=1, max_size=4),
)


#: Dotted-quad-ish text: three to five such octets, optionally padded.
_QUAD_TEXT = st.builds(
    lambda octets, pad, side: (
        pad + ".".join(octets) if side == "left"
        else ".".join(octets) + pad if side == "right"
        else ".".join(octets)
    ),
    st.lists(_OCTET_TEXT, min_size=3, max_size=5),
    st.sampled_from(["", " ", "\t", "\n"]),
    st.sampled_from(["left", "right", "none"]),
)


class TestParseAddressFastPath:
    """The dotted-quad fast path agrees with ``ipaddress`` everywhere."""

    @given(st.integers(0, 2**32 - 1))
    def test_every_canonical_quad(self, value):
        text = str(ipaddress.IPv4Address(value))
        parsed = parse_address(text)
        assert type(parsed) is ipaddress.IPv4Address
        assert parsed == ipaddress.IPv4Address(text)

    @given(_QUAD_TEXT)
    def test_generated_text_matches_ipaddress(self, text):
        expected = _reference(text)
        if expected is None:
            with pytest.raises(ValueError) as excinfo:
                parse_address(text)
            assert str(excinfo.value) == f"not an IPv4 address: {text!r}"
        else:
            assert parse_address(text) == expected

    @pytest.mark.parametrize(
        "text",
        ["01.2.3.4", "1.2.3.00", "1.2.3.\u0664", "\uff11.2.3.4", " 1.2.3.4",
         "1.2.3.4 ", "1.2.3.256", "1..3.4", "1.2.3.", "1.2.3", "1.2.3.4.5",
         "1.2.3.4\n"],
    )
    def test_near_misses_are_refused_with_the_same_message(self, text):
        assert _reference(text) is None
        with pytest.raises(ValueError) as excinfo:
            parse_address(text)
        assert str(excinfo.value) == f"not an IPv4 address: {text!r}"


class TestAddressInt:
    """``address_int`` is ``int(parse_address(...))``: it accepts and
    refuses the same inputs with the same message.  Every string either
    accepts is its own canonical text, which is what lets the serving
    layer echo a batch entry instead of re-rendering its address."""

    @given(st.one_of(_QUAD_TEXT, st.text(max_size=20)))
    def test_agrees_with_parse_address_on_every_string(self, text):
        try:
            expected = parse_address(text)
        except ValueError as exc:
            with pytest.raises(ValueError) as excinfo:
                address_int(text)
            assert str(excinfo.value) == str(exc)
            assert str(exc) == f"not an IPv4 address: {text!r}"
        else:
            assert address_int(text) == int(expected)
            assert str(expected) == text

    @given(st.integers(0, 2**32 - 1))
    def test_every_canonical_quad_is_its_own_text(self, value):
        text = str(ipaddress.IPv4Address(value))
        assert address_int(text) == value
        assert str(parse_address(text)) == text

    @pytest.mark.parametrize(
        "value", [0, 2**32 - 1, ipaddress.IPv4Address("10.0.0.1")]
    )
    def test_non_strings_take_parse_address(self, value):
        assert address_int(value) == int(parse_address(value))

    @pytest.mark.parametrize(
        "bad", [-1, 2**32, 3.14, None, [], b"\x01", True, False]
    )
    def test_non_strings_are_refused_with_the_same_message(self, bad):
        with pytest.raises(ValueError) as excinfo:
            address_int(bad)
        assert str(excinfo.value) == f"not an IPv4 address: {bad!r}"


class TestBlockOf:
    def test_slash24(self):
        assert str(block_of("192.168.5.77")) == "192.168.5.0/24"

    def test_slash16(self):
        assert str(block_of("192.168.5.77", 16)) == "192.168.0.0/16"

    def test_slash32_is_identity(self):
        assert str(block_of("1.2.3.4", 32)) == "1.2.3.4/32"

    def test_invalid_prefix_len(self):
        with pytest.raises(ValueError):
            block_of("1.2.3.4", 33)

    @given(st.integers(0, 2**32 - 1), st.integers(0, 32))
    def test_block_contains_address(self, addr, plen):
        assert parse_address(addr) in block_of(addr, plen)

    @given(st.integers(0, 2**32 - 1))
    def test_same_block_same_key(self, addr):
        base = (addr >> 8) << 8
        assert block_of(base) == block_of(min(base + 255, 2**32 - 1))


class TestHostsIn:
    def test_slash24_excludes_network_and_broadcast(self):
        hosts = list(hosts_in("10.0.0.0/30"))
        assert [str(h) for h in hosts] == ["10.0.0.1", "10.0.0.2"]

    def test_slash31_yields_both(self):
        assert len(list(hosts_in("10.0.0.0/31"))) == 2

    def test_slash32_yields_one(self):
        assert [str(h) for h in hosts_in("10.0.0.5/32")] == ["10.0.0.5"]


class TestNthAddress:
    def test_first_is_network_address(self):
        assert str(nth_address("10.1.0.0/16", 0)) == "10.1.0.0"

    def test_last(self):
        assert str(nth_address("10.1.0.0/24", 255)) == "10.1.0.255"

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            nth_address("10.1.0.0/24", 256)


class TestPrefixPool:
    def test_sequential_allocation(self):
        pool = PrefixPool([parse_network("10.0.0.0/16")])
        assert str(pool.allocate(24)) == "10.0.0.0/24"
        assert str(pool.allocate(24)) == "10.0.1.0/24"

    def test_alignment_after_smaller_allocation(self):
        pool = PrefixPool([parse_network("10.0.0.0/16")])
        pool.allocate(26)  # 10.0.0.0/26
        # The next /24 must skip the partially-used first /24.
        assert str(pool.allocate(24)) == "10.0.1.0/24"

    def test_exhaustion(self):
        pool = PrefixPool([parse_network("10.0.0.0/24")])
        pool.allocate(24)
        with pytest.raises(AddressPoolExhaustedError):
            pool.allocate(24)

    def test_request_larger_than_parent(self):
        pool = PrefixPool([parse_network("10.0.0.0/24")])
        with pytest.raises(AddressPoolExhaustedError):
            pool.allocate(16)

    def test_spills_into_second_parent(self):
        pool = PrefixPool([parse_network("10.0.0.0/24"), parse_network("10.9.0.0/24")])
        pool.allocate(24)
        assert str(pool.allocate(24)) == "10.9.0.0/24"

    def test_overlapping_parents_rejected(self):
        with pytest.raises(ValueError):
            PrefixPool([parse_network("10.0.0.0/8"), parse_network("10.1.0.0/16")])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PrefixPool([])

    def test_remaining_addresses_decreases(self):
        pool = PrefixPool([parse_network("10.0.0.0/20")])
        before = pool.remaining_addresses()
        pool.allocate(24)
        assert pool.remaining_addresses() == before - 256

    @given(st.lists(st.integers(22, 28), min_size=1, max_size=40))
    def test_allocations_never_overlap(self, lengths):
        pool = PrefixPool([parse_network("10.0.0.0/16")])
        allocated: list[ipaddress.IPv4Network] = []
        for plen in lengths:
            try:
                allocated.append(pool.allocate(plen))
            except AddressPoolExhaustedError:
                break
        for i, a in enumerate(allocated):
            for b in allocated[i + 1 :]:
                assert not a.overlaps(b), (a, b)

    @given(st.lists(st.integers(22, 28), min_size=1, max_size=20))
    def test_deterministic(self, lengths):
        def run():
            pool = PrefixPool([parse_network("10.0.0.0/16")])
            out = []
            for plen in lengths:
                try:
                    out.append(str(pool.allocate(plen)))
                except AddressPoolExhaustedError:
                    break
            return out

        assert run() == run()
