"""Tests for the pure-Python secp256k1 ECDSA implementation."""

from __future__ import annotations

import hashlib
import subprocess
import sys
from collections import OrderedDict
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import keys
from repro.crypto.hashing import sha256
from repro.crypto.keys import (
    GX,
    GY,
    N,
    P,
    KeyPair,
    PrivateKey,
    PublicKey,
    _point_add,
    _point_mul,
    ecdsa_sign,
    ecdsa_verify,
)
from repro.errors import CryptoError

from tests import ref_secp256k1 as ref
from tests.conftest import keypair

G = (GX, GY)

# Published multiples of the secp256k1 generator.
G2 = (
    0xC6047F9441ED7D6D3045406E95C07CD85C778E4B8CEF3CA7ABAC09B95C709EE5,
    0x1AE168FEA63DC339A3C58419466CEAEEF7F632653266D0E1236431A950CFE52A,
)
G3 = (
    0xF9308A019258C31049344F85F89D5229B531C845836F99B08601F113BCE036F9,
    0x388F7B0F632DE8140FE337E62A37F3566500A99934C2231B6CB9FD7584B8E672,
)
G_NEG = (GX, 0xB7C52588D95C3B9AA25B0403F1EEF75702E84BB7597AABE663B82F6F04EF2777)
#: The published (r, s) of private key 1 over sha256(b"Satoshi Nakamoto").
RFC6979_SIGNATURE = (
    0x934B1EA10A4B3C1757E2B0C017D0B6143CE3C9A7E6A4A49860D7A6AB210EE3D8,
    0x2442CE9D2B916064108014783E923EC36B49743E2FFA1C4496F01A512AAFD9E5,
)


def _spread(seed: int) -> int:
    """A full-width scalar from a small seed (hypothesis alone favours small ints)."""
    wide = int.from_bytes(hashlib.sha512(seed.to_bytes(8, "big")).digest(), "big")
    return wide % 2**261 - 2**260


#: Any integer a caller might pass: negative, beyond N, tiny, or full width.
any_scalar = st.one_of(
    st.integers(min_value=-(2**260), max_value=2**260),
    st.integers(min_value=0, max_value=2**64 - 1).map(_spread),
)
#: Valid private scalars in [1, N).
scalars = any_scalar.map(lambda k: k % (N - 1) + 1)
#: What a fixed-base table takes: [0, 2^256), with the edges and zero digits.
table_scalars = st.one_of(
    st.integers(min_value=0, max_value=2**256 - 1),
    st.integers(min_value=0, max_value=2**64 - 1).map(lambda seed: _spread(seed) % 2**256),
    st.sampled_from(
        [0, N, N - 1, 16**63, 16**20 + 1, int("F0" * 32, 16), int("0F" * 32, 16)]
    ),
)


@cache
def _table(q: tuple[int, int]) -> tuple[tuple[int, ...], ...]:
    """``q``'s fixed-base table, built once per test session."""
    return keys._fixed_base_table(*q, keys._KEY_WINDOW)


@pytest.fixture
def key_tables(monkeypatch) -> OrderedDict:
    """An empty key-table cache that only this test verifies against."""
    tables: OrderedDict = OrderedDict()
    monkeypatch.setattr(keys, "_key_tables", tables)
    return tables


class TestCurveArithmetic:
    def test_generator_on_curve(self):
        assert (GY * GY - GX**3 - 7) % P == 0

    def test_generator_order(self):
        assert _point_mul(N, (GX, GY)) is None

    def test_point_addition_identity(self):
        assert _point_add(None, (GX, GY)) == (GX, GY)
        assert _point_add((GX, GY), None) == (GX, GY)

    def test_point_plus_negation_is_infinity(self):
        assert _point_add((GX, GY), (GX, P - GY)) is None

    def test_scalar_mul_distributes(self):
        g = (GX, GY)
        assert _point_mul(5, g) == _point_add(_point_mul(2, g), _point_mul(3, g))

    @pytest.mark.parametrize(("k", "expected"), [(1, G), (2, G2), (3, G3), (N - 1, G_NEG)])
    def test_known_answer_multiples_of_g(self, k, expected):
        assert _point_mul(k, G) == expected
        assert ref.point_mul(k, G) == expected
        assert PrivateKey(k).public_key() == PublicKey(*expected)

    def test_known_answers_through_the_variable_base_path(self):
        # 2·G is not the generator, so these take the wNAF route.
        assert _point_mul(2, G2) == ref.point_mul(4, G)
        assert _point_mul((N + 1) // 2, G2) == G
        assert _point_mul(N - 1, G3) == (G3[0], P - G3[1])

    @pytest.mark.parametrize("k", [0, N, 2 * N, -N])
    def test_scalar_congruent_to_zero_is_infinity(self, k):
        assert _point_mul(k, G) is None
        assert _point_mul(k, G2) is None

    def test_scalars_fold_modulo_the_group_order(self):
        assert _point_mul(-1, G) == G_NEG
        assert _point_mul(N + 2, G) == G2
        assert _point_mul(-2, G3) == ref.point_mul(-2, G3) == _point_mul(N - 2, G3)

    def test_infinity_times_anything_is_infinity(self):
        assert _point_mul(7, None) is None

    @pytest.mark.parametrize(
        "k",
        [
            16**63,  # one non-zero window digit, at the top
            16**20 + 1,  # zero digits between two non-zero ones
            0xF0F0F0F0F0F0F0F0F0F0F0F0F0F0F0F0F0F0F0F0F0F0F0F0F0F0F0F0F0F0F0,
            0x0F0F0F0F0F0F0F0F0F0F0F0F0F0F0F0F0F0F0F0F0F0F0F0F0F0F0F0F0F0F0F0F,
            2**255,  # wNAF of a power of two: one digit, 255 doublings
            2**200 - 1,  # wNAF carries all the way up
            # G's 8-bit digits: every byte 0xFF (2^256 − 1, which _point_mul
            # folds to 2^256 − 1 − N and the kernel below takes whole), …
            int("FF" * 32, 16),
            int("00FF" * 16, 16),  # … alternating 0x00 / 0xFF bytes, …
            int("FF00" * 16, 16),
            256**31,  # … one non-zero digit, in the top window, …
            N - 1,  # … and the largest scalar a key or nonce can be
        ],
    )
    def test_zero_window_digits(self, k):
        assert _point_mul(k, G) == ref.point_mul(k, G)
        assert _point_mul(k, G3) == ref.point_mul(k, G3)
        # The table walk itself, unfolded: every k here is below 2^256.
        assert keys._to_affine(keys._mul_fixed(k, keys._g_table())) == ref.point_mul(k, G)

    def test_point_add_matches_reference(self):
        for p1, p2 in [(G, G), (G, G2), (G2, G), (G3, G_NEG), (None, None), (G2, None)]:
            assert _point_add(p1, p2) == ref.point_add(p1, p2)

    def test_mixed_addition_of_negation_is_infinity(self):
        jac = keys._jac_double((GX, GY, 1))  # 2·G with Z != 1
        assert jac[2] != 1
        assert keys._jac_add_affine(jac, G2[0], P - G2[1]) is None

    def test_mixed_addition_of_equal_points_doubles(self):
        jac = keys._jac_double((GX, GY, 1))
        assert keys._to_affine(keys._jac_add_affine(jac, *G2)) == ref.point_mul(4, G)

    def test_batch_normalisation_matches_single(self):
        jac = [(GX, GY, 1)]
        for _ in range(5):
            jac.append(keys._jac_double(jac[-1]))
        assert keys._batch_to_affine(jac) == [keys._to_affine(p) for p in jac]

    def test_fixed_base_table_shape_and_entries(self):
        # G: 8-bit digits, 32 rows of 255 points; row i holds d · 256^i · G.
        table = keys._g_table()
        assert len(table) == 32 and all(len(row) == 510 for row in table)
        assert [table[0][j : j + 2] for j in range(0, 30, 2)] == [
            ref.point_mul(d, G) for d in range(1, 16)
        ]
        for i in (0, 1, 16, 31):
            for d in (1, 0x80, 0xFF):
                assert table[i][2 * d - 2 : 2 * d] == ref.point_mul(d * 256**i, G)
        # A key: 4-bit digits, 64 rows of 15 points; row i holds d · 16^i · Q.
        key = _table(G3)
        assert len(key) == 64 and all(len(row) == 30 for row in key)
        for i, d in [(0, 1), (1, 1), (32, 15), (63, 15)]:
            assert key[i][2 * d - 2 : 2 * d] == ref.point_mul(d * 16**i, G3)

    def test_table_is_not_built_at_import(self):
        code = (
            "import repro.crypto.keys as k, repro.crypto.signature, repro.chain.block;"
            "assert k._g_table.cache_info().currsize == 0;"
            "k.PrivateKey(5).public_key();"
            "assert k._g_table.cache_info().currsize == 1"
        )
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60)

    @settings(max_examples=25, deadline=None)
    @given(any_scalar)
    def test_fixed_base_matches_reference(self, k):
        assert _point_mul(k, G) == ref.point_mul(k, G)

    @settings(max_examples=25, deadline=None)
    @given(any_scalar, scalars)
    def test_variable_base_matches_reference(self, k, q):
        point = _point_mul(q, G)
        assert _point_mul(k, point) == ref.point_mul(k, point)


class TestAdditionCounts:
    """Mixed additions per operation do not depend on the host, so a multiple
    of ``G`` that walks anything but the 8-bit table fails here."""

    @pytest.mark.parametrize("seed", range(4))
    def test_a_multiple_of_g_takes_at_most_32(self, seed, key_tables, monkeypatch):
        kp = keypair(seed)
        digest = sha256(f"count-{seed}".encode())
        signature = ecdsa_sign(kp.private, digest)
        q = (kp.public.x, kp.public.y)
        key_tables[q] = _table(q)  # tables are built before counting starts
        keys._g_table()
        add = keys._jac_add_affine
        calls = 0

        def counted(p, x2, y2):
            nonlocal calls
            calls += 1
            return add(p, x2, y2)

        def additions(call) -> int:
            nonlocal calls
            calls = 0
            assert call()
            return calls

        monkeypatch.setattr(keys, "_jac_add_affine", counted)
        assert 0 < additions(lambda: ecdsa_sign(kp.private, digest)) <= 32
        assert 0 < additions(kp.private.public_key) <= 32
        # ≤ 64 through the key's 4-bit table, ≤ 32 through G's.
        assert 0 < additions(lambda: ecdsa_verify(kp.public, digest, signature)) <= 96


class TestKeys:
    def test_from_seed_deterministic(self):
        assert PrivateKey.from_seed("alpha") == PrivateKey.from_seed("alpha")
        assert PrivateKey.from_seed("alpha") != PrivateKey.from_seed("beta")

    def test_seed_types(self):
        assert PrivateKey.from_seed(b"x").secret > 0
        assert PrivateKey.from_seed(42).secret > 0

    def test_scalar_range_enforced(self):
        with pytest.raises(CryptoError):
            PrivateKey(0)
        with pytest.raises(CryptoError):
            PrivateKey(N)

    def test_public_key_on_curve_enforced(self):
        with pytest.raises(CryptoError):
            PublicKey(1, 1)

    def test_compressed_roundtrip(self):
        public = keypair(0).public
        recovered = PublicKey.from_bytes(public.to_bytes())
        assert recovered == public

    def test_compressed_length_and_prefix(self):
        data = keypair(1).public.to_bytes()
        assert len(data) == 33
        assert data[0] in (2, 3)

    def test_bad_compressed_rejected(self):
        with pytest.raises(CryptoError):
            PublicKey.from_bytes(b"\x05" + b"\x00" * 32)
        with pytest.raises(CryptoError):
            PublicKey.from_bytes(b"\x02" + b"\x00" * 10)

    def test_off_curve_x_rejected(self):
        # x = 5 has no square-root y on secp256k1.
        with pytest.raises(CryptoError):
            PublicKey.from_bytes(b"\x02" + (5).to_bytes(32, "big"))

    def test_private_bytes_roundtrip(self):
        private = keypair(2).private
        assert PrivateKey.from_bytes(private.to_bytes()) == private

    def test_fingerprint_is_20_bytes_and_stable(self):
        fp = keypair(0).public.fingerprint()
        assert len(fp) == 20
        assert fp == keypair(0).public.fingerprint()


class TestSignatures:
    def test_sign_verify(self):
        kp = keypair(0)
        digest = sha256(b"message")
        sig = ecdsa_sign(kp.private, digest)
        assert ecdsa_verify(kp.public, digest, sig)

    def test_deterministic_rfc6979(self):
        kp = keypair(0)
        digest = sha256(b"message")
        assert ecdsa_sign(kp.private, digest) == ecdsa_sign(kp.private, digest)

    def test_different_messages_different_signatures(self):
        kp = keypair(0)
        assert ecdsa_sign(kp.private, sha256(b"a")) != ecdsa_sign(
            kp.private, sha256(b"b")
        )

    def test_wrong_key_fails(self):
        digest = sha256(b"message")
        sig = ecdsa_sign(keypair(0).private, digest)
        assert not ecdsa_verify(keypair(1).public, digest, sig)

    def test_wrong_message_fails(self):
        kp = keypair(0)
        sig = ecdsa_sign(kp.private, sha256(b"a"))
        assert not ecdsa_verify(kp.public, sha256(b"b"), sig)

    def test_tampered_signature_fails(self):
        kp = keypair(0)
        digest = sha256(b"m")
        r, s = ecdsa_sign(kp.private, digest)
        assert not ecdsa_verify(kp.public, digest, (r, s + 1))
        assert not ecdsa_verify(kp.public, digest, (r + 1, s))

    def test_degenerate_signature_rejected(self):
        kp = keypair(0)
        digest = sha256(b"m")
        assert not ecdsa_verify(kp.public, digest, (0, 1))
        assert not ecdsa_verify(kp.public, digest, (1, 0))
        assert not ecdsa_verify(kp.public, digest, (N, 1))
        assert not ecdsa_verify(kp.public, digest, (1, N))

    def test_out_of_range_components_rejected_even_when_congruent(self):
        kp = keypair(0)
        digest = sha256(b"m")
        r, s = ecdsa_sign(kp.private, digest)
        assert ecdsa_verify(kp.public, digest, (r, s))
        assert not ecdsa_verify(kp.public, digest, (r + N, s))
        assert not ecdsa_verify(kp.public, digest, (r, s + N))
        assert not ecdsa_verify(kp.public, digest, (-r, s))

    def test_rfc6979_known_answer(self):
        # The widely published secp256k1 / SHA-256 deterministic-ECDSA vector
        # (private key 1, low-s form).
        digest = sha256(b"Satoshi Nakamoto")
        assert keys._rfc6979_nonce(1, digest) == (
            0x8F8A276C19F4149656B280621E358CCE24F5F52542772691EE69063B74F15D15
        )
        expected = RFC6979_SIGNATURE
        assert ecdsa_sign(PrivateKey(1), digest) == expected
        assert ref.ecdsa_sign(1, digest) == expected
        assert ecdsa_verify(PublicKey(GX, GY), digest, expected)

    def test_sum_at_infinity_is_rejected(self):
        # Choose r so that u1·G = −u2·Q: z + r·d ≡ 0 (mod N).
        kp = keypair(2)
        digest = sha256(b"cancel")
        z = int.from_bytes(digest, "big")
        r = -z * pow(kp.private.secret, -1, N) % N
        s = 12345
        w = pow(s, -1, N)
        q = (kp.public.x, kp.public.y)
        u1, u2 = z * w % N, r * w % N
        assert keys._mul_fixed(u1, keys._g_table(), keys._mul_wnaf(u2, q)) is None
        assert keys._mul_fixed(u1, keys._g_table(), keys._mul_fixed(u2, _table(q))) is None
        assert not ecdsa_verify(kp.public, digest, (r, s))
        assert not ref.ecdsa_verify(q, digest, (r, s))

    @settings(max_examples=20, deadline=None)
    @given(scalars, st.binary(min_size=32, max_size=32), st.integers(0, 3))
    def test_sign_and_verify_match_reference(self, secret, digest, damage):
        private = PrivateKey(secret)
        public = private.public_key()
        q = ref.point_mul(secret, G)
        assert (public.x, public.y) == q
        r, s = signature = ecdsa_sign(private, digest)
        assert signature == ref.ecdsa_sign(secret, digest)
        # damage: 0 = intact, 1 = high-s twin (still valid), 2 = bad r, 3 = bad s
        candidate = [(r, s), (r, N - s), (r % (N - 1) + 1, s), (r, s % (N - 1) + 1)][damage]
        verdict = ecdsa_verify(public, digest, candidate)
        assert verdict == ref.ecdsa_verify(q, digest, candidate)
        assert verdict == (damage < 2)

    def test_low_s_normalization(self):
        kp = keypair(3)
        for msg in (b"a", b"b", b"c"):
            _, s = ecdsa_sign(kp.private, sha256(msg))
            assert s <= N // 2

    def test_bad_digest_length_rejected(self):
        kp = keypair(0)
        with pytest.raises(CryptoError):
            ecdsa_sign(kp.private, b"short")
        with pytest.raises(CryptoError):
            ecdsa_verify(kp.public, b"short", (1, 1))

    @settings(max_examples=10, deadline=None)
    @given(st.binary(min_size=1, max_size=64))
    def test_sign_verify_property(self, message):
        kp = keypair(4)
        digest = sha256(message)
        assert ecdsa_verify(kp.public, digest, ecdsa_sign(kp.private, digest))


@cache
def _verdict_cases() -> dict[str, tuple[PublicKey, bytes, tuple[int, int]]]:
    """Signatures, good and bad, for comparing the two ``u2·Q`` paths."""
    kp, other = keypair(5), keypair(6)
    digest = sha256(b"fixed-base verify")
    r, s = ecdsa_sign(kp.private, digest)
    z = int.from_bytes(digest, "big")
    cancel = -z * pow(kp.private.secret, -1, N) % N  # u1·G = −u2·Q for any s
    return {
        "valid": (kp.public, digest, (r, s)),
        "high-s twin": (kp.public, digest, (r, N - s)),
        "r+1": (kp.public, digest, (r + 1, s)),
        "r-1": (kp.public, digest, (r - 1, s)),
        "s+1": (kp.public, digest, (r, s + 1)),
        "s-1": (kp.public, digest, (r, s - 1)),
        "wrong digest": (kp.public, sha256(b"another message"), (r, s)),
        "wrong key": (other.public, digest, (r, s)),
        "r=0": (kp.public, digest, (0, s)),
        "s=N": (kp.public, digest, (r, N)),
        "r+N": (kp.public, digest, (r + N, s)),
        "sum at infinity": (kp.public, digest, (cancel, 12345)),
        "rfc6979": (PublicKey(GX, GY), sha256(b"Satoshi Nakamoto"), RFC6979_SIGNATURE),
    }


VALID_CASES = {"valid", "high-s twin", "rfc6979"}


class TestKeyTables:
    """A key that has earned a fixed-base table verifies through it."""

    @settings(max_examples=15, deadline=None)
    @given(scalars, table_scalars)
    def test_any_points_table_matches_reference(self, secret, k):
        q = ref.point_mul(secret, G)
        assert keys._to_affine(keys._mul_fixed(k, _table(q))) == ref.point_mul(k, q)

    @pytest.mark.parametrize("case", list(_verdict_cases()))
    def test_table_and_wnaf_paths_agree_with_reference(self, case, key_tables):
        public, digest, signature = _verdict_cases()[case]
        q = (public.x, public.y)
        expected = ref.ecdsa_verify(q, digest, signature)
        assert expected == (case in VALID_CASES)
        key_tables.clear()
        assert ecdsa_verify(public, digest, signature) == expected  # wNAF
        key_tables.clear()
        key_tables[q] = _table(q)
        assert ecdsa_verify(public, digest, signature) == expected  # table
        assert key_tables[q] == _table(q)

    def test_a_key_earns_its_table_with_its_last_counted_success(self, key_tables):
        kp = keypair(7)
        digest = sha256(b"earn")
        signature = ecdsa_sign(kp.private, digest)
        q = (kp.public.x, kp.public.y)
        for _ in range(keys._TABLE_AFTER - 1):
            assert ecdsa_verify(kp.public, digest, signature)
        assert key_tables[q] == keys._TABLE_AFTER - 1  # a count, no table yet
        assert ecdsa_verify(kp.public, digest, signature)
        assert key_tables[q] == _table(q)
        assert ecdsa_verify(kp.public, digest, signature)  # through the table
        assert not ecdsa_verify(kp.public, sha256(b"other"), signature)
        assert key_tables[q] == _table(q)

    def test_a_failed_verification_does_not_count(self, key_tables):
        kp = keypair(8)
        digest = sha256(b"fail")
        r, s = ecdsa_sign(kp.private, digest)
        q = (kp.public.x, kp.public.y)
        assert not ecdsa_verify(kp.public, digest, (r, s + 1))
        assert q not in key_tables
        assert ecdsa_verify(kp.public, digest, (r, s))
        assert not ecdsa_verify(kp.public, sha256(b"other"), (r, s))
        assert not ecdsa_verify(kp.public, digest, (r, N))
        assert key_tables[q] == 1

    def test_the_least_recently_verified_key_is_evicted_and_earns_again(self, key_tables):
        digest = sha256(b"lru")
        pairs = [KeyPair.from_seed(f"lru-{i}") for i in range(keys._KEY_TABLES + 1)]
        signed = [(pair.public, ecdsa_sign(pair.private, digest)) for pair in pairs]
        points = [(public.x, public.y) for public, _ in signed]

        def verify(i: int) -> None:
            assert ecdsa_verify(signed[i][0], digest, signed[i][1])

        for _ in range(keys._TABLE_AFTER):
            verify(0)
        assert key_tables[points[0]] == _table(points[0])
        for i in range(1, keys._KEY_TABLES):
            verify(i)
        verify(0)  # key 0 is now the most recently verified, key 1 the least
        assert len(key_tables) == keys._KEY_TABLES
        verify(keys._KEY_TABLES)  # the 65th key evicts key 1, not key 0
        assert points[1] not in key_tables
        assert key_tables[points[0]] == _table(points[0])
        assert len(key_tables) == keys._KEY_TABLES
        verify(1)  # an evicted key starts over from one success
        assert key_tables[points[1]] == 1
        for i in range(3, keys._KEY_TABLES):
            verify(i)
        verify(2)  # key 0 is the least recently verified now: its table goes
        assert points[0] not in key_tables
        for _ in range(keys._TABLE_AFTER - 1):
            verify(0)
        assert key_tables[points[0]] == keys._TABLE_AFTER - 1
        verify(0)  # ... and earns it again
        assert key_tables[points[0]] == _table(points[0])
        assert len(key_tables) == keys._KEY_TABLES


class TestKeyPair:
    def test_from_seed_consistent(self):
        kp = KeyPair.from_seed("node")
        assert kp.public == kp.private.public_key()
