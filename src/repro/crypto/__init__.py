"""Crypto substrate: TEE-like keystore, pairing, signing, replay protection."""

from .keystore import KeystoreError, SecureKeystore, SignedMessage, pair
from .replay import ReplayCache

__all__ = [
    "SecureKeystore",
    "SignedMessage",
    "KeystoreError",
    "pair",
    "ReplayCache",
]
