"""Property tests for the scalar-multiplication fast paths.

The fixed-base comb, the GLV ladder and the double-scalar path must
agree with the reference double-and-add ladder on every input: random
scalars, the curve-order edge cases, the point at infinity and
off-curve points.
"""

import random

import pytest

from repro.crypto import ecdsa, secp256k1
from repro.crypto.keys import PrivateKey, recover_address
from repro.crypto.secp256k1 import (
    GX,
    GY,
    G,
    N,
    double_scalar_mult_base,
    point_add,
    scalar_mult,
    scalar_mult_naive,
)
from repro.evm.precompiles import _ecrecover

_RNG = random.Random(0xEC)

# A handful of variable-base points, generated via the *naive* ladder so
# the fast paths are checked against an independent construction.
_POINTS = [scalar_mult_naive(k) for k in (2, 3, 0xDEADBEEF, N - 2)]


@pytest.mark.parametrize("trial", range(10))
def test_fixed_base_matches_naive_random(trial):
    for __ in range(35):
        k = _RNG.randrange(1, N)
        assert scalar_mult(k) == scalar_mult_naive(k)


@pytest.mark.parametrize("point", _POINTS)
def test_variable_base_matches_naive_random(point):
    for __ in range(35):
        k = _RNG.randrange(1, N)
        assert scalar_mult(k, point) == scalar_mult_naive(k, point)


def test_small_and_boundary_scalars():
    for k in (1, 2, 3, 15, 16, 17, 255, 256, N - 2, N - 1):
        assert scalar_mult(k) == scalar_mult_naive(k)
        for point in _POINTS:
            assert scalar_mult(k, point) == scalar_mult_naive(k, point)


def test_edge_cases():
    assert scalar_mult(1) == G
    assert scalar_mult(N - 1) == secp256k1.point_neg(G)
    assert scalar_mult(0) is None  # k == 0 -> infinity
    assert scalar_mult(N) is None  # k == N == 0 (mod N) -> infinity
    assert scalar_mult(5, None) is None  # point at infinity in
    assert scalar_mult_naive(5, None) is None


def test_double_scalar_matches_separate_mults():
    point = _POINTS[2]
    for __ in range(50):
        u1 = _RNG.randrange(0, N)
        u2 = _RNG.randrange(0, N)
        expected = point_add(
            scalar_mult_naive(u1), scalar_mult_naive(u2, point)
        )
        assert double_scalar_mult_base(u1, u2, point) == expected


def test_double_scalar_degenerate_inputs():
    point = _POINTS[0]
    assert double_scalar_mult_base(0, 0, point) is None
    assert double_scalar_mult_base(7, 0, point) == scalar_mult_naive(7)
    assert double_scalar_mult_base(0, 7, point) == scalar_mult_naive(7, point)
    assert double_scalar_mult_base(7, 9, None) == scalar_mult_naive(7)
    # u1*G + u2*Q == infinity when the halves cancel.
    assert double_scalar_mult_base(5, N - 5, G) is None


@pytest.mark.parametrize("point", [(1, 2), (GX, GY + 1)])
def test_off_curve_points_take_the_naive_ladder(point):
    # The GLV endomorphism identity only holds on the curve, so
    # off-curve inputs must come out exactly as the naive ladder has it.
    assert not secp256k1.is_on_curve(point)
    for k in (1, 2, 15, 16, N - 1, _RNG.randrange(1, N)):
        naive = scalar_mult_naive(k, point)
        assert scalar_mult(k, point) == naive
        u1 = _RNG.randrange(0, N)
        assert double_scalar_mult_base(u1, k, point) == point_add(
            scalar_mult_naive(u1), naive)


def test_sign_verify_recover_round_trip():
    key = PrivateKey.from_seed("fastpath-roundtrip")
    for i in range(5):
        digest = secp256k1.scalar_mult_naive(i + 7)[0].to_bytes(32, "big")
        sig = key.sign(digest)
        assert ecdsa.verify(digest, sig, key.public_key.point)
        assert recover_address(digest, sig) == key.address


def test_ecrecover_precompile_equivalence():
    """The precompile output must match direct address recovery."""
    key = PrivateKey.from_seed("fastpath-precompile")
    digest = bytes(range(32))
    sig = key.sign(digest)
    call_data = (
        digest
        + sig.v.to_bytes(32, "big")
        + sig.r.to_bytes(32, "big")
        + sig.s.to_bytes(32, "big")
    )
    output = _ecrecover(call_data)
    assert output == b"\x00" * 12 + key.address.value
    assert output[12:] == recover_address(digest, sig).value


def test_ecrecover_precompile_rejects_garbage():
    assert _ecrecover(b"\x00" * 128) == b""
    assert _ecrecover(b"") == b""


def test_recover_address_memo_consistency():
    """Cached and cold recoveries agree, and the cache is clearable."""
    from repro.crypto import keys

    key = PrivateKey.from_seed("fastpath-memo")
    digest = bytes(reversed(range(32)))
    sig = key.sign(digest)
    cold = recover_address(digest, sig)
    warm = recover_address(digest, sig)
    assert cold == warm == key.address
    keys.clear_recover_cache()
    assert recover_address(digest, sig) == key.address


def test_ecrecover_precompile_accepts_high_s_twin():
    """Mainnet's precompile never enforced EIP-2: the high-s twin must
    still recover the same address (only admission layers reject it)."""
    from repro.crypto.secp256k1 import N

    key = PrivateKey.from_seed("fastpath-high-s")
    digest = bytes(range(32))
    sig = key.sign(digest)
    call_data = (
        digest
        + (55 - sig.v).to_bytes(32, "big")
        + sig.r.to_bytes(32, "big")
        + (N - sig.s).to_bytes(32, "big")
    )
    assert _ecrecover(call_data) == b"\x00" * 12 + key.address.value
