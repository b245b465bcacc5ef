"""Cryptographic substrate: hashing, PoW target math, ECDSA keys, Merkle trees."""
