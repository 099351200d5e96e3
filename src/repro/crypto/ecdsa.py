"""Ethereum-style ECDSA over secp256k1.

Provides deterministic (RFC 6979) signing producing ``(v, r, s)``
tuples with low-s normalisation (EIP-2), signature verification and —
crucially for this paper — public-key *recovery*, the primitive behind
Solidity's ``ecrecover`` that `deployVerifiedInstance()` uses to verify
the signed copy of the off-chain contract.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass

from repro.crypto import secp256k1
from repro.exceptions import ReproError
from repro.crypto.secp256k1 import G, N, P

#: EIP-2 boundary: a signature with ``s > HALF_N`` has a distinct but
#: equally valid "high-s twin", the classic malleability vector.
HALF_N = N // 2
_HALF_N = HALF_N


class SignatureError(ReproError, ValueError):
    """Raised for malformed or unrecoverable signatures."""


@dataclass(frozen=True)
class Signature:
    """An Ethereum recoverable signature.

    ``v`` is the recovery id in Ethereum convention (27 or 28); ``r``
    and ``s`` are the usual ECDSA scalars.
    """

    v: int
    r: int
    s: int

    def __post_init__(self) -> None:
        if self.v not in (27, 28):
            raise SignatureError(f"v must be 27 or 28, got {self.v}")
        if not 0 < self.r < N:
            raise SignatureError("r out of range")
        if not 0 < self.s < N:
            raise SignatureError("s out of range")

    @property
    def recovery_id(self) -> int:
        """The raw recovery id (0 or 1)."""
        return self.v - 27

    @property
    def is_low_s(self) -> bool:
        """True when ``s`` is EIP-2 canonical (``s <= N/2``).

        ``__post_init__`` deliberately accepts the high-s twin so this
        type can model what mainnet's ``ecrecover`` precompile
        tolerates; admission layers that require canonical signatures
        (transaction senders, signed-copy wire decoding) must check
        this flag and reject the malleated form.
        """
        return self.s <= HALF_N

    def to_bytes(self) -> bytes:
        """Serialise as the 65-byte r ‖ s ‖ v layout used by Ethereum."""
        return self.r.to_bytes(32, "big") + self.s.to_bytes(32, "big") + bytes([self.v])

    @classmethod
    def from_bytes(cls, data: bytes) -> "Signature":
        """Parse the 65-byte r ‖ s ‖ v layout."""
        if len(data) != 65:
            raise SignatureError(f"expected 65 bytes, got {len(data)}")
        return cls(
            v=data[64],
            r=int.from_bytes(data[:32], "big"),
            s=int.from_bytes(data[32:64], "big"),
        )

    def to_vrs(self) -> tuple[int, int, int]:
        """Return the ``(v, r, s)`` tuple (the paper's Algorithm 4 output)."""
        return (self.v, self.r, self.s)


def _rfc6979_nonce(message_hash: bytes, private_key: int) -> int:
    """Derive the deterministic ECDSA nonce per RFC 6979 (HMAC-SHA256)."""
    key_bytes = private_key.to_bytes(32, "big")
    v = b"\x01" * 32
    k = b"\x00" * 32
    k = hmac.new(k, v + b"\x00" + key_bytes + message_hash, hashlib.sha256).digest()
    v = hmac.new(k, v, hashlib.sha256).digest()
    k = hmac.new(k, v + b"\x01" + key_bytes + message_hash, hashlib.sha256).digest()
    v = hmac.new(k, v, hashlib.sha256).digest()
    while True:
        v = hmac.new(k, v, hashlib.sha256).digest()
        candidate = int.from_bytes(v, "big")
        if 1 <= candidate < N:
            return candidate
        k = hmac.new(k, v + b"\x00", hashlib.sha256).digest()
        v = hmac.new(k, v, hashlib.sha256).digest()


def sign(message_hash: bytes, private_key: int) -> Signature:
    """Sign a 32-byte hash, returning an Ethereum ``(v, r, s)`` signature.

    This mirrors ``ethereumjs-util.ecsign`` from the paper's Algorithm 4.
    """
    if len(message_hash) != 32:
        raise SignatureError("message hash must be exactly 32 bytes")
    if not 0 < private_key < N:
        raise SignatureError("private key out of range")

    z = int.from_bytes(message_hash, "big")
    attempt_hash = message_hash
    while True:
        k = _rfc6979_nonce(attempt_hash, private_key)
        point = secp256k1.scalar_mult(k, G)
        assert point is not None
        x, y = point
        r = x % N
        if r == 0:
            attempt_hash = hashlib.sha256(attempt_hash).digest()
            continue
        k_inv = pow(k, -1, N)
        s = k_inv * (z + r * private_key) % N
        if s == 0:
            attempt_hash = hashlib.sha256(attempt_hash).digest()
            continue
        recovery_id = (y & 1) ^ (1 if x >= N else 0)
        # Enforce low-s (EIP-2); flipping s flips the parity of the
        # recovered point, hence the recovery id.
        if s > _HALF_N:
            s = N - s
            recovery_id ^= 1
        if x >= N:
            # Astronomically unlikely; keep the encoding unambiguous.
            attempt_hash = hashlib.sha256(attempt_hash).digest()
            continue
        return Signature(v=recovery_id + 27, r=r, s=s)


def verify(message_hash: bytes, signature: Signature, public_key) -> bool:
    """Verify ``signature`` over ``message_hash`` against an affine pubkey."""
    if len(message_hash) != 32:
        raise SignatureError("message hash must be exactly 32 bytes")
    if public_key is None or not secp256k1.is_on_curve(public_key):
        return False
    z = int.from_bytes(message_hash, "big")
    w = pow(signature.s, -1, N)
    u1 = z * w % N
    u2 = signature.r * w % N
    point = secp256k1.double_scalar_mult_base(u1, u2, public_key)
    if point is None:
        return False
    return point[0] % N == signature.r


def recover_public_key(message_hash: bytes, signature: Signature):
    """Recover the affine public key that produced ``signature``.

    Raises SignatureError when no point can be recovered — the same
    situation in which the EVM ``ecrecover`` precompile returns zero.
    """
    if len(message_hash) != 32:
        raise SignatureError("message hash must be exactly 32 bytes")
    r, s = signature.r, signature.s
    recovery_id = signature.recovery_id

    # With low-s signatures r + N >= P always, so x == r.
    x = r
    if x >= P:
        raise SignatureError("signature r does not correspond to a curve point")
    point_r = secp256k1.lift_x(x, recovery_id)
    if point_r is None:
        raise SignatureError("signature r does not correspond to a curve point")

    z = int.from_bytes(message_hash, "big")
    r_inv = pow(r, -1, N)
    # Q = r^-1 (s*R - z*G) = (-z * r^-1)*G + (s * r^-1)*R, which is the
    # u1*G + u2*Q shape Straus/Shamir combination handles in one pass.
    u1 = (-z * r_inv) % N
    u2 = s * r_inv % N
    candidate = secp256k1.double_scalar_mult_base(u1, u2, point_r)
    if candidate is None:
        raise SignatureError("recovered the point at infinity")
    return candidate


def recover_batch(items):
    """Recover public keys for many ``(message_hash, signature)`` pairs.

    Semantically identical to calling :func:`recover_public_key` per
    item, but amortised: the ``r``-scalar inversions mod N are shared
    through one Montgomery batch-inversion pass, and every recovered
    point stays in Jacobian form until a single shared field inversion
    normalises the whole batch to affine.  Items whose signature cannot
    be recovered yield ``None`` in their slot instead of raising (the
    batch keeps positional alignment with its input).
    """
    count = len(items)
    results = [None] * count
    # (index, z, s, point_r) for items that survive the cheap checks.
    live = []
    for index, (message_hash, signature) in enumerate(items):
        if len(message_hash) != 32:
            continue
        r = signature.r
        if r >= P:
            continue
        point_r = secp256k1.lift_x(r, signature.recovery_id)
        if point_r is None:
            continue
        live.append((index, int.from_bytes(message_hash, "big"),
                     signature.s, r, point_r))
    if not live:
        return results

    r_inverses = secp256k1.batch_inverse([entry[3] for entry in live], N)
    jacobians = []
    for (index, z, s, __, point_r), r_inv in zip(live, r_inverses):
        u1 = (-z * r_inv) % N
        u2 = s * r_inv % N
        jacobians.append(secp256k1.double_scalar_mult_base_j(u1, u2, point_r))
    normalized = secp256k1.batch_normalize(jacobians)
    for (index, *__), candidate in zip(live, normalized):
        results[index] = candidate  # None slot == point at infinity
    return results
