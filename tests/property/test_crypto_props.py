"""Property-based tests for the cryptographic substrate."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.crypto import ecdsa, secp256k1
from repro.crypto import rlp
from repro.crypto import abi as abi_codec
from repro.crypto.keccak import (
    _keccak256_raw,
    _keccak256_reference,
    keccak256,
)
from repro.crypto.keys import PrivateKey, recover_address
from repro.crypto.secp256k1 import GLV_LAMBDA, N

# Signing is ~10ms; keep example counts moderate.
_FAST = settings(max_examples=25, deadline=None)
_MEDIUM = settings(max_examples=100, deadline=None)


@_MEDIUM
@given(st.binary(max_size=500))
def test_keccak_deterministic_and_sized(data):
    assert keccak256(data) == keccak256(data)
    assert len(keccak256(data)) == 32


@_MEDIUM
@given(st.binary(max_size=300), st.binary(max_size=300))
def test_keccak_injective_in_practice(a, b):
    if a != b:
        assert keccak256(a) != keccak256(b)


@_FAST
@given(st.integers(min_value=1, max_value=N - 1),
       st.binary(min_size=0, max_size=200))
def test_sign_recover_round_trip(secret, message):
    key = PrivateKey(secret)
    digest = keccak256(message)
    signature = key.sign(digest)
    assert recover_address(digest, signature) == key.address
    assert key.public_key.verify(digest, signature)


@_FAST
@given(st.integers(min_value=1, max_value=N - 1),
       st.binary(min_size=1, max_size=100))
def test_signature_never_low_s_violates(secret, message):
    signature = PrivateKey(secret).sign(keccak256(message))
    assert signature.s <= N // 2


@_FAST
@given(st.integers(min_value=1, max_value=N - 1),
       st.binary(max_size=64), st.binary(max_size=64))
def test_signature_does_not_transfer_between_messages(secret, m1, m2):
    if keccak256(m1) == keccak256(m2):
        return
    key = PrivateKey(secret)
    signature = key.sign(keccak256(m1))
    try:
        recovered = recover_address(keccak256(m2), signature)
    except ValueError:
        return
    assert recovered != key.address


rlp_items = st.recursive(
    st.binary(max_size=40),
    lambda children: st.lists(children, max_size=5),
    max_leaves=20,
)


@_MEDIUM
@given(rlp_items)
def test_rlp_round_trip(item):
    assert rlp.decode(rlp.encode(item)) == item


@_MEDIUM
@given(st.integers(min_value=0, max_value=1 << 256))
def test_rlp_int_round_trip(value):
    assert rlp.decode_int(rlp.encode_int(value)) == value


@_MEDIUM
@given(st.lists(
    st.one_of(
        st.tuples(st.just("uint256"),
                  st.integers(min_value=0, max_value=(1 << 256) - 1)),
        st.tuples(st.just("bool"), st.booleans()),
        st.tuples(st.just("bytes32"), st.binary(min_size=32, max_size=32)),
        st.tuples(st.just("bytes"), st.binary(max_size=100)),
        st.tuples(st.just("address"), st.binary(min_size=20, max_size=20)),
    ),
    max_size=6,
))
def test_abi_round_trip(pairs):
    types = [t for t, __ in pairs]
    values = [v for __, v in pairs]
    decoded = abi_codec.decode_arguments(
        types, abi_codec.encode_arguments(types, values))
    assert decoded == values


@_MEDIUM
@given(st.binary(max_size=200))
def test_abi_bytes_padding_is_canonical(payload):
    encoded = abi_codec.encode_arguments(["bytes"], [payload])
    assert len(encoded) % 32 == 0
    assert abi_codec.decode_arguments(["bytes"], encoded) == [payload]


# -- hot-path kernels vs their reference oracles --------------------------
#
# The optimised kernels (GLV/wNAF scalar multiplication, the
# exec-compiled keccak permutation, batched recovery) are checked
# against plain reference implementations (the double-and-add ladder,
# the loop-based sponge, per-item recovery); these properties pin the
# equivalence on adversarial inputs Hypothesis would not stumble on by
# chance (the explicit @example scalars) as well as on random ones.

# Edge scalars for the GLV split: 0 and 1 (degenerate decompositions),
# N-1 (negation wraparound), and λ itself (k1=0, k2=1 — the split's
# own eigenvalue).
_glv_scalars = st.integers(min_value=0, max_value=N - 1)


@settings(max_examples=30, deadline=None)
@given(_glv_scalars)
@example(0)
@example(1)
@example(N - 1)
@example(GLV_LAMBDA)
@example((GLV_LAMBDA + 1) % N)
def test_glv_scalar_mult_matches_naive(k):
    point = PrivateKey.from_seed("glv-prop-base").public_key.point
    fast = secp256k1.scalar_mult(k, point)
    naive = secp256k1.scalar_mult_naive(k % N, point)
    assert fast == naive


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=N - 1),
       st.integers(min_value=0, max_value=N - 1))
@example(0, GLV_LAMBDA)
@example(GLV_LAMBDA, 0)
@example(N - 1, N - 1)
def test_double_scalar_mult_matches_reference(u1, u2):
    point = PrivateKey.from_seed("glv-prop-double").public_key.point
    fast = secp256k1.double_scalar_mult_base(u1, u2, point)
    ref = secp256k1.point_add(secp256k1.scalar_mult_naive(u1),
                              secp256k1.scalar_mult_naive(u2, point))
    assert fast == ref


@settings(max_examples=15, deadline=None)
@given(st.lists(
    st.tuples(st.integers(min_value=1, max_value=N - 1),
              st.binary(min_size=0, max_size=40),
              st.booleans()),
    min_size=0, max_size=6,
))
def test_recover_batch_matches_per_item(rows):
    # Mixed batches: valid signatures interleaved with corrupted ones
    # (signature transplanted onto a different digest).  The batch
    # path must keep positional alignment and agree with the
    # single-shot recovery slot by slot.
    items = []
    for secret, message, corrupt in rows:
        digest = keccak256(message)
        signature = PrivateKey(secret).sign(digest)
        if corrupt:
            digest = keccak256(digest)  # signature no longer matches
        items.append((digest, signature))

    batch = ecdsa.recover_batch(items)
    assert len(batch) == len(items)
    for (digest, signature), point in zip(items, batch):
        try:
            expected = ecdsa.recover_public_key(digest, signature)
        except ecdsa.SignatureError:
            expected = None
        assert point == expected


@settings(max_examples=150, deadline=None)
@given(st.binary(max_size=400))
@example(b"")
@example(b"\x00" * 135)   # one byte short of the rate
@example(b"\x00" * 136)   # exactly the sponge rate
@example(b"\x00" * 137)   # one byte past the rate
@example(b"\xff" * 272)   # two full absorb blocks
def test_keccak_kernel_matches_reference(data):
    assert _keccak256_raw(data) == _keccak256_reference(data)
