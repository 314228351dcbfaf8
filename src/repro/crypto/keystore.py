"""TEE-backed keystore, pairing and message signing (paper §5.3-5.4).

FIAT stores a pre-shared key agreed at pairing time inside the phone's
trusted execution environment (Android secure keystore) and the proxy's
SGX enclave; the threat model assumes attackers cannot extract it.  This
module models that contract: :class:`SecureKeystore` never exposes key
bytes through its public API (they live in a private attribute, standing
in for TEE isolation), and exposes only ``sign``/``verify`` operations
(HMAC-SHA256).  :func:`pair` performs the local pairing step — e.g.
scanning a QR code on the proxy — producing two keystores sharing a key.
"""

from __future__ import annotations

import hmac
import secrets
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, Optional, Tuple

from ..obs import NULL_OBS, Observability

__all__ = ["SecureKeystore", "SignedMessage", "pair", "KeystoreError"]


class KeystoreError(Exception):
    """Raised on signing/verification misuse (unknown key, bad alias)."""


#: First byte of every signed wire: the layout version.  A wire that
#: starts with any other byte is malformed.
WIRE_FORMAT = b"\x01"
#: ``WIRE_FORMAT`` + the 32-byte HMAC-SHA256 tag + the 1-byte alias length.
_ALIAS_AT = 34


@dataclass(frozen=True)
class SignedMessage:
    """A serialised payload plus its raw HMAC-SHA256 tag.

    Wire layout: :data:`WIRE_FORMAT`, the 32-byte tag, the key alias as
    1-byte length + UTF-8, then the payload to the end of the wire.
    """

    payload: bytes
    signature: bytes
    key_alias: str

    def to_wire(self) -> bytes:
        """Encode for transmission over the QUIC channel."""
        alias = self.key_alias.encode("utf-8")
        return WIRE_FORMAT + self.signature + bytes((len(alias),)) + alias + self.payload

    @classmethod
    def from_wire(cls, wire: bytes) -> "SignedMessage":
        """Decode a message received from the channel.

        Raises :class:`ValueError` (or :class:`IndexError` on a wire cut
        inside its header) unless ``wire`` has this layout.
        """
        if wire[:1] != WIRE_FORMAT:
            raise ValueError("unsupported wire format")
        payload_at = _ALIAS_AT + wire[_ALIAS_AT - 1]
        if payload_at > len(wire):
            raise ValueError("key alias runs past the end of the wire")
        return cls(
            payload=wire[payload_at:],
            signature=wire[1 : _ALIAS_AT - 1],
            key_alias=wire[_ALIAS_AT:payload_at].decode("utf-8"),
        )


class SecureKeystore:
    """Hardware-keystore stand-in: holds keys, exposes only sign/verify.

    Keys are referenced by alias; raw key material is kept in a private
    mapping and deliberately not reachable via any public method,
    mirroring the TEE guarantee FIAT relies on.
    """

    def __init__(self, owner: str, obs: Optional[Observability] = None) -> None:
        self.owner = owner
        self.obs = obs if obs is not None else NULL_OBS
        self.__keys: Dict[str, bytes] = {}

    def generate_key(self, alias: str) -> None:
        """Create a fresh random 256-bit key under ``alias``."""
        self.__keys[alias] = secrets.token_bytes(32)

    def install_key(self, alias: str, key: bytes) -> None:
        """Install externally agreed key material (pairing only)."""
        if len(key) < 16:
            raise KeystoreError("key material too short (min 16 bytes)")
        self.__keys[alias] = bytes(key)

    def _key(self, alias: str) -> bytes:
        try:
            return self.__keys[alias]
        except KeyError:
            raise KeystoreError(f"no key under alias {alias!r}") from None

    def sign(self, alias: str, payload: bytes) -> SignedMessage:
        """HMAC-SHA256 sign ``payload`` with the key under ``alias``."""
        tag = hmac.digest(self._key(alias), payload, "sha256")
        return SignedMessage(payload=payload, signature=tag, key_alias=alias)

    def verify(self, message: SignedMessage) -> bool:
        """Constant-time verification of a signed message.

        Unknown aliases verify as ``False`` (an unauthorized device), not
        as an error: the proxy must reject, not crash, on foreign input.
        """
        obs = self.obs
        if not obs.enabled:
            return self._verify(message)
        t0 = perf_counter()
        ok = self._verify(message)
        obs.observe("keystore_verify_latency_ms", (perf_counter() - t0) * 1000.0)
        obs.inc("keystore_verifications_total", outcome="ok" if ok else "rejected")
        return ok

    def _verify(self, message: SignedMessage) -> bool:
        key = self.__keys.get(message.key_alias)
        return key is not None and hmac.compare_digest(
            hmac.digest(key, message.payload, "sha256"), message.signature
        )


def pair(
    phone_owner: str,
    proxy_owner: str,
    alias: str = "fiat-pairing",
    obs: Optional[Observability] = None,
) -> Tuple[SecureKeystore, SecureKeystore]:
    """Local pairing: create two keystores sharing a fresh key.

    Models the QR-code / audio pairing of §5.4: the shared secret is
    produced once and installed into both TEEs; it never travels over
    the network afterwards.
    """
    shared = secrets.token_bytes(32)
    phone = SecureKeystore(phone_owner, obs=obs)
    proxy = SecureKeystore(proxy_owner, obs=obs)
    phone.install_key(alias, shared)
    proxy.install_key(alias, shared)
    return phone, proxy
