"""Reference secp256k1 arithmetic: the affine double-and-add ladder.

This is the scalar-multiplication code ``repro.crypto.keys`` shipped before
the Jacobian / fixed-base-window / wNAF kernel replaced it, kept verbatim as
the oracle the differential tests in ``test_keys.py`` compare against.  It
pays one modular inversion per group operation and is ~20× slower, which is
fine for a few hundred test cases and useless for anything else.
"""

from __future__ import annotations

from repro.crypto.keys import GX, GY, N, P, _rfc6979_nonce

Point = tuple[int, int] | None  # affine point; None is the point at infinity

G: Point = (GX, GY)


def inv(a: int, m: int) -> int:
    return pow(a, -1, m)


def point_add(p1: Point, p2: Point) -> Point:
    """Add two affine points on secp256k1."""
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    x1, y1 = p1
    x2, y2 = p2
    if x1 == x2 and (y1 + y2) % P == 0:
        return None
    if p1 == p2:
        lam = (3 * x1 * x1) * inv(2 * y1, P) % P
    else:
        lam = (y2 - y1) * inv(x2 - x1, P) % P
    x3 = (lam * lam - x1 - x2) % P
    y3 = (lam * (x1 - x3) - y1) % P
    return (x3, y3)


def point_mul(k: int, point: Point) -> Point:
    """Scalar multiplication ``k * point`` by double-and-add."""
    if k % N == 0 or point is None:
        return None
    if k < 0:
        x, y = point
        return point_mul(-k, (x, (-y) % P))
    result: Point = None
    addend = point
    while k:
        if k & 1:
            result = point_add(result, addend)
        addend = point_add(addend, addend)
        k >>= 1
    return result


def ecdsa_sign(secret: int, msg_hash: bytes) -> tuple[int, int]:
    """RFC 6979 deterministic, low-s ECDSA over the reference ladder."""
    z = int.from_bytes(msg_hash, "big")
    nonce = _rfc6979_nonce(secret, msg_hash)
    while True:
        point = point_mul(nonce, G)
        assert point is not None
        r = point[0] % N
        s = inv(nonce, N) * (z + r * secret) % N
        if r == 0 or s == 0:
            nonce = (nonce + 1) % N or 1
            continue
        return r, min(s, N - s)


def ecdsa_verify(public: Point, msg_hash: bytes, signature: tuple[int, int]) -> bool:
    r, s = signature
    if not (1 <= r < N and 1 <= s < N):
        return False
    z = int.from_bytes(msg_hash, "big")
    w = inv(s, N)
    point = point_add(point_mul(z * w % N, G), point_mul(r * w % N, public))
    return point is not None and point[0] % N == r
