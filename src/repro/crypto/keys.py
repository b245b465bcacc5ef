"""Pure-Python elliptic-curve keys over secp256k1.

Themis requires each consensus node to sign the block header it produces with
its private key (§III, §VI-C).  The paper's consortium setting assumes an
identity-authenticated node set, so keys double as node identities.

No third-party crypto dependency is available offline, so this module
implements the secp256k1 group operations from scratch, plus (de)serialization
of points in compressed SEC1 form.  One kernel serves every scalar
multiplication: Jacobian doubling and mixed Jacobian + affine addition, so a
ladder pays no field inversion until its result is read back.  Multiples of
the generator (key derivation, signing, the ``u1·G`` half of verification)
come from a table of ``d · 256^i · G`` with 8-bit digits, built once per
process on first use (≈ 90 ms, ≈ 1.1 MB) — at most 32 additions and no
doubling.  The ``u2·Q`` half of verification walks a width-5 wNAF over
eight odd multiples of ``Q`` until ``Q`` has passed ``_TABLE_AFTER``
verifications; then ``Q`` gets a table of the same kind with 4-bit digits,
at most 64 additions (a consortium verifies the same few member keys over
and over), kept for the ``_KEY_TABLES`` most recently verified keys.  Either
way the ``u1·G`` terms are added onto the same accumulator.  On a 2-vCPU
host under CPython 3.11 a signature costs ≈ 0.25 ms, a verification
≈ 1.7 ms cold and ≈ 0.6 ms through a key's table, and a key's table ≈ 12 ms
and ≈ 0.13 MB.
``tests/ref_secp256k1.py`` keeps the textbook affine double-and-add ladder as
the oracle for differential tests.

The code is not constant-time — it is a reproduction substrate, not a
hardened wallet — but it is mathematically the real curve, so signature sizes
and verification semantics match a production deployment (§VI-C budgets
"about 128 bytes" per block for the signature envelope).
"""

from __future__ import annotations

import hashlib
import hmac
from collections import OrderedDict
from dataclasses import dataclass
from functools import cache
from typing import ClassVar

from repro.errors import CryptoError

# --- secp256k1 domain parameters -------------------------------------------

#: Prime field modulus.
P = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F
#: Group order.
N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
#: Curve coefficient: y^2 = x^3 + 7 over F_P.
B = 7
#: Generator point.
GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8

_Affine = tuple[int, int]  # finite affine point (x, y)
_Point = _Affine | None  # None is the point at infinity
_Jacobian = tuple[int, int, int]  # finite point (X, Y, Z) = affine (X/Z², Y/Z³)
_Table = tuple[tuple[int, ...], ...]  # fixed-base table: 256/w rows of 2^w − 1 flat (x, y) pairs

#: Bits per digit of ``G``'s fixed-base table (32 rows × 255 points, one per process).
_G_WINDOW = 8
#: Bits per digit of a public key's fixed-base table (64 rows × 15 points).
_KEY_WINDOW = 4
#: wNAF width for variable-base multiplication (odd multiples 1·Q … 15·Q).
_WNAF_WIDTH = 5
#: Successful verifications that earn a public key its own fixed-base table.
#: A build costs 5.4–9.9 cold verifications on a 2-vCPU host (CPython 3.11;
#: median of 40 builds ÷ median of 300 cold verifications, six runs, median
#: 6.5), so a table never costs more than the verifications that earned it.
_TABLE_AFTER = 12
#: Most keys counted or tabled at once (≈ 0.13 MB per table, ≤ ≈ 8.5 MB).
_KEY_TABLES = 64
#: Public key ``(x, y)`` → its count of successful verifications, replaced by
#: its fixed-base table once the count reaches ``_TABLE_AFTER``; least recently
#: verified first.  Only the simulator or event-loop thread verifies — the
#: explorer thread never does — so nothing here is locked.
_key_tables: OrderedDict[_Affine, int | _Table] = OrderedDict()


def _inv(a: int, m: int) -> int:
    """Modular inverse via Python's built-in extended-gcd pow."""
    return pow(a, -1, m)


# --- group kernel --------------------------------------------------------------
#
# secp256k1 has prime order, hence no point with y = 0: doubling a finite
# on-curve point never yields infinity, and the formulas below rely on that.


def _jac_double(p: _Jacobian) -> _Jacobian:
    """Double a finite Jacobian point (curve coefficient a = 0)."""
    x, y, z = p
    yy = y * y % P
    s = 4 * x * yy % P
    m = 3 * x * x % P
    x3 = (m * m - 2 * s) % P
    return x3, (m * (s - x3) - 8 * yy * yy) % P, 2 * y * z % P


def _jac_add_affine(p: _Jacobian | None, x2: int, y2: int) -> _Jacobian | None:
    """Mixed addition: Jacobian ``p`` plus the finite affine point ``(x2, y2)``."""
    if p is None:
        return x2, y2, 1
    x1, y1, z1 = p
    zz = z1 * z1 % P
    h = (x2 * zz - x1) % P
    r = (y2 * zz % P * z1 - y1) % P
    if h == 0:
        # Same x: either the same point (double it) or its negation.
        return _jac_double(p) if r == 0 else None
    hh = h * h % P
    hhh = hh * h % P
    v = x1 * hh % P
    x3 = (r * r - hhh - 2 * v) % P
    return x3, (r * (v - x3) - y1 * hhh) % P, z1 * h % P


def _batch_to_affine(points: list[_Jacobian]) -> list[_Affine]:
    """Normalise finite Jacobian points with one inversion (Montgomery's trick)."""
    prefix = []
    acc = 1
    for _, _, z in points:
        prefix.append(acc)
        acc = acc * z % P
    acc_inv = _inv(acc, P)
    out: list[_Affine] = []
    for (x, y, z), before in zip(reversed(points), reversed(prefix), strict=True):
        z_inv = acc_inv * before % P
        acc_inv = acc_inv * z % P
        zz_inv = z_inv * z_inv % P
        out.append((x * zz_inv % P, y * zz_inv % P * z_inv % P))
    out.reverse()
    return out


def _to_affine(p: _Jacobian | None) -> _Point:
    return None if p is None else _batch_to_affine([p])[0]


def _multiples(point: _Affine, step: _Affine, count: int) -> list[_Affine]:
    """Affine ``point, point + step, …`` (``count`` terms), one inversion."""
    jac: list[_Jacobian] = [(point[0], point[1], 1)]
    while len(jac) < count:
        nxt = _jac_add_affine(jac[-1], *step)
        assert nxt is not None
        jac.append(nxt)
    return _batch_to_affine(jac)


def _fixed_base_table(x: int, y: int, window: int) -> _Table:
    """Fixed-base table of ``window``-bit digits: row ``i`` holds ``x, y`` of
    ``d · 2^(window·i) · (x, y)`` for d = 1 … 2^window − 1.

    With it ``k·(x, y)`` is at most ``256 / window`` mixed additions and no
    doubling.  A key's 4-bit table is 960 points, ≈ 0.13 MB, built with 64
    inversions; ``G``'s 8-bit table is 8,160 points, ≈ 1.1 MB, built with 32.
    Rows are flat tuples of coordinates: one container per row for the cyclic
    collector to know about instead of one per point.
    """
    digits = 1 << window
    rows = []
    base = (x, y)
    for _ in range(0, 256, window):
        row = _multiples(base, base, digits)  # 1·base … 2^window·base
        rows.append(tuple(coord for point in row[:-1] for coord in point))
        base = row[-1]
    return tuple(rows)


@cache
def _g_table() -> _Table:
    """The generator's fixed-base table, built on first use, never at import."""
    return _fixed_base_table(GX, GY, _G_WINDOW)


def _mul_fixed(k: int, table: _Table, acc: _Jacobian | None = None) -> _Jacobian | None:
    """``acc + k·base`` for ``0 <= k < 2^256`` from ``base``'s fixed-base table,
    one digit of the table's width per row."""
    window = 256 // len(table)
    mask = (1 << window) - 1
    for row in table:
        if not k:
            break
        digit = k & mask
        if digit:
            acc = _jac_add_affine(acc, row[2 * digit - 2], row[2 * digit - 1])
        k >>= window
    return acc


def _mul_wnaf(k: int, point: _Affine) -> _Jacobian | None:
    """``k·point`` for ``k > 0`` by width-5 wNAF over odd multiples of ``point``."""
    double = _to_affine(_jac_double((point[0], point[1], 1)))
    assert double is not None
    odd = _multiples(point, double, 1 << (_WNAF_WIDTH - 2))  # 1·P, 3·P, … 15·P
    window = 1 << _WNAF_WIDTH
    naf = []
    while k:
        digit = 0
        if k & 1:
            digit = k & (window - 1)
            if digit >= window >> 1:
                digit -= window
            k -= digit
        naf.append(digit)
        k >>= 1
    acc: _Jacobian | None = None
    for digit in reversed(naf):
        if acc is not None:
            acc = _jac_double(acc)
        if digit > 0:
            acc = _jac_add_affine(acc, *odd[digit >> 1])
        elif digit < 0:
            x, y = odd[-digit >> 1]
            acc = _jac_add_affine(acc, x, P - y)
    return acc


def _point_add(p1: _Point, p2: _Point) -> _Point:
    """Add two affine points on secp256k1."""
    if p2 is None:
        return p1
    return _to_affine(_jac_add_affine(None if p1 is None else (p1[0], p1[1], 1), *p2))


def _point_mul(k: int, point: _Point) -> _Point:
    """Scalar multiplication ``k * point`` (any integer ``k``, affine in and out)."""
    k %= N  # every finite point has order N, so this also folds negative k
    if k == 0 or point is None:
        return None
    return _to_affine(_mul_fixed(k, _g_table()) if point == (GX, GY) else _mul_wnaf(k, point))


def _on_curve(point: _Point) -> bool:
    if point is None:
        return True
    x, y = point
    return (y * y - x * x * x - B) % P == 0


# --- key types ---------------------------------------------------------------


@dataclass(frozen=True)
class PublicKey:
    """A secp256k1 public key (affine point)."""

    x: int
    y: int

    def __post_init__(self) -> None:
        if not _on_curve((self.x, self.y)):
            raise CryptoError("public key point is not on secp256k1")

    def to_bytes(self) -> bytes:
        """Serialize in compressed SEC1 form (33 bytes)."""
        prefix = b"\x03" if self.y & 1 else b"\x02"
        return prefix + self.x.to_bytes(32, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "PublicKey":
        """Deserialize a compressed SEC1 public key."""
        if len(data) != 33 or data[0] not in (2, 3):
            raise CryptoError(f"bad compressed public key ({len(data)} bytes)")
        x = int.from_bytes(data[1:], "big")
        if x >= P:
            raise CryptoError("public key x-coordinate out of range")
        y_sq = (pow(x, 3, P) + B) % P
        y = pow(y_sq, (P + 1) // 4, P)
        if pow(y, 2, P) != y_sq:
            raise CryptoError("public key x-coordinate not on curve")
        if (y & 1) != (data[0] & 1):
            y = P - y
        return cls(x, y)

    def fingerprint(self) -> bytes:
        """A 20-byte identity fingerprint (hash160-style) for node addresses."""
        return hashlib.sha256(self.to_bytes()).digest()[:20]


@dataclass(frozen=True)
class PrivateKey:
    """A secp256k1 private key (scalar in [1, N))."""

    secret: int

    def __post_init__(self) -> None:
        if not 1 <= self.secret < N:
            raise CryptoError("private key scalar out of range")

    @classmethod
    def from_seed(cls, seed: bytes | str | int) -> "PrivateKey":
        """Derive a deterministic private key from an arbitrary seed.

        Deterministic derivation keeps simulations reproducible: node ``i`` in
        a run always holds the same key for the same seed.
        """
        if isinstance(seed, int):
            seed = seed.to_bytes(32, "big", signed=False)
        elif isinstance(seed, str):
            seed = seed.encode()
        counter = 0
        while True:
            digest = hashlib.sha256(seed + counter.to_bytes(4, "big")).digest()
            scalar = int.from_bytes(digest, "big")
            if 1 <= scalar < N:
                return cls(scalar)
            counter += 1

    def public_key(self) -> PublicKey:
        """Derive the corresponding public key."""
        point = _to_affine(_mul_fixed(self.secret, _g_table()))
        assert point is not None  # secret is in [1, N)
        return PublicKey(point[0], point[1])

    def to_bytes(self) -> bytes:
        """Serialize as a 32-byte big-endian scalar."""
        return self.secret.to_bytes(32, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "PrivateKey":
        if len(data) != 32:
            raise CryptoError(f"private key must be 32 bytes, got {len(data)}")
        return cls(int.from_bytes(data, "big"))


@dataclass(frozen=True)
class KeyPair:
    """Convenience bundle of a private key and its public key."""

    private: PrivateKey
    public: PublicKey

    #: Seed-derivation memo.  Key derivation is a fixed-base scalar
    #: multiplication (~0.2 ms in pure Python), deterministic in the seed, and
    #: experiment fleets re-derive the same ``node-i`` seeds in every run of a
    #: sweep — caching the frozen pairs makes repeat fleet construction free.
    _seed_cache: ClassVar[dict[bytes | str | int, "KeyPair"]] = {}

    @classmethod
    def from_seed(cls, seed: bytes | str | int) -> "KeyPair":
        cached = cls._seed_cache.get(seed)
        if cached is None:
            private = PrivateKey.from_seed(seed)
            cached = cls(private, private.public_key())
            cls._seed_cache[seed] = cached
        return cached


def _rfc6979_nonce(secret: int, msg_hash: bytes) -> int:
    """Deterministic ECDSA nonce per RFC 6979 (HMAC-SHA256 construction).

    Deterministic nonces remove the RNG from signing, which keeps simulated
    nodes reproducible and eliminates nonce-reuse key leakage.
    """
    holen = 32
    x = secret.to_bytes(32, "big")
    h1 = msg_hash
    v = b"\x01" * holen
    k = b"\x00" * holen
    k = hmac.new(k, v + b"\x00" + x + h1, hashlib.sha256).digest()
    v = hmac.new(k, v, hashlib.sha256).digest()
    k = hmac.new(k, v + b"\x01" + x + h1, hashlib.sha256).digest()
    v = hmac.new(k, v, hashlib.sha256).digest()
    while True:
        v = hmac.new(k, v, hashlib.sha256).digest()
        candidate = int.from_bytes(v, "big")
        if 1 <= candidate < N:
            return candidate
        k = hmac.new(k, v + b"\x00", hashlib.sha256).digest()
        v = hmac.new(k, v, hashlib.sha256).digest()


def ecdsa_sign(private: PrivateKey, msg_hash: bytes) -> tuple[int, int]:
    """Produce an ECDSA signature ``(r, s)`` over a 32-byte message hash."""
    if len(msg_hash) != 32:
        raise CryptoError("message hash must be 32 bytes")
    z = int.from_bytes(msg_hash, "big")
    nonce = _rfc6979_nonce(private.secret, msg_hash)
    while True:
        point = _to_affine(_mul_fixed(nonce, _g_table()))
        assert point is not None  # nonce is in [1, N)
        r = point[0] % N
        if r == 0:
            nonce = (nonce + 1) % N or 1
            continue
        s = _inv(nonce, N) * (z + r * private.secret) % N
        if s == 0:
            nonce = (nonce + 1) % N or 1
            continue
        if s > N // 2:  # low-s normalization, as in Bitcoin
            s = N - s
        return r, s


def ecdsa_verify(public: PublicKey, msg_hash: bytes, signature: tuple[int, int]) -> bool:
    """Verify an ECDSA signature ``(r, s)`` over a 32-byte message hash."""
    if len(msg_hash) != 32:
        raise CryptoError("message hash must be 32 bytes")
    r, s = signature
    if not (1 <= r < N and 1 <= s < N):
        return False
    z = int.from_bytes(msg_hash, "big")
    w = _inv(s, N)
    u1 = z * w % N
    u2 = r * w % N
    q = (public.x, public.y)
    earned = _key_tables.get(q)
    # u2 = r/s is non-zero; u1·G is accumulated onto u2·Q so the sum needs a
    # single inversion, and u1·G = −u2·Q surfaces as infinity ⇒ reject.
    if isinstance(earned, tuple):
        acc = _mul_fixed(u2, earned)
    else:
        acc = _mul_wnaf(u2, q)
    point = _to_affine(_mul_fixed(u1, _g_table(), acc))
    if point is None or point[0] % N != r:
        return False
    _count_success(q, earned)
    return True


def _count_success(q: _Affine, earned: int | _Table | None) -> None:
    """Credit ``q`` with one successful verification; build its table once it
    has earned one, and evict the least recently verified key past the bound."""
    if not isinstance(earned, tuple):
        earned = (earned or 0) + 1
        if earned == _TABLE_AFTER:
            earned = _fixed_base_table(*q, _KEY_WINDOW)
    _key_tables[q] = earned
    _key_tables.move_to_end(q)
    if len(_key_tables) > _KEY_TABLES:
        _key_tables.popitem(last=False)
