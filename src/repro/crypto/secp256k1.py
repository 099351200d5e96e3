"""secp256k1 elliptic-curve arithmetic.

Implements the curve y^2 = x^3 + 7 over the prime field used by Bitcoin
and Ethereum.  Points are represented as affine ``(x, y)`` tuples with
``None`` denoting the point at infinity; scalar multiplication uses
Jacobian coordinates internally for speed.

Two scalar-multiplication strategies coexist:

* :func:`scalar_mult_naive` — the reference binary double-and-add
  ladder: the oracle for the fast-path property tests, and the path
  for off-curve inputs, where the endomorphism identity does not hold;
* the production path — an 8-bit fixed-base comb for the generator
  and GLV endomorphism decomposition for every other point.
  secp256k1 has an efficiently computable endomorphism
  ``φ(x, y) = (β·x, y)`` with ``φ(Q) = λ·Q``, so any scalar ``k``
  splits into ``k ≡ k1 + k2·λ (mod N)`` with ``|k1|, |k2| ≈ √N``.
  ``k·Q`` then runs a Straus/Shamir ladder over the two ~128-bit
  halves (sharing doublings) with width-4 wNAF digit recoding over a
  shared odd-multiple table — the φ half's table is the base table
  with each x-coordinate scaled by β, eight field multiplications
  total.  The generator half of ``u1*G + u2*Q`` (the ECDSA
  verify/recover shape) rides the comb for additions only, and
  :func:`batch_inverse` / :func:`batch_normalize` expose Montgomery's
  shared-inversion trick so batch callers (``recover_batch``) pay one
  field inversion per *batch* instead of per point.

Field inversions use ``pow(x, -1, P)`` (extended-gcd under the hood),
which is markedly faster than the Fermat ``pow(x, P - 2, P)`` ladder.
"""

from __future__ import annotations

from typing import Optional, Tuple

# Curve parameters (SEC 2, "Recommended Elliptic Curve Domain Parameters").
P = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F
N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
A = 0
B = 7
GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8
G = (GX, GY)

AffinePoint = Optional[Tuple[int, int]]
_JacobianPoint = Tuple[int, int, int]

_INFINITY_J: _JacobianPoint = (0, 1, 0)


def is_on_curve(point: AffinePoint) -> bool:
    """Return True if ``point`` lies on secp256k1 (infinity counts)."""
    if point is None:
        return True
    x, y = point
    return (y * y - x * x * x - B) % P == 0


def _to_jacobian(point: AffinePoint) -> _JacobianPoint:
    if point is None:
        return _INFINITY_J
    return (point[0], point[1], 1)


def _from_jacobian(point: _JacobianPoint) -> AffinePoint:
    x, y, z = point
    if z == 0:
        return None
    z_inv = pow(z, -1, P)
    z_inv2 = z_inv * z_inv % P
    return (x * z_inv2 % P, y * z_inv2 * z_inv % P)


def _jacobian_double(point: _JacobianPoint) -> _JacobianPoint:
    x, y, z = point
    if y == 0 or z == 0:
        return _INFINITY_J
    ysq = y * y % P
    s = 4 * x * ysq % P
    m = 3 * x * x % P  # a == 0 so no a*z^4 term
    nx = (m * m - 2 * s) % P
    ny = (m * (s - nx) - 8 * ysq * ysq) % P
    nz = 2 * y * z % P
    return (nx, ny, nz)


def _jacobian_add(p: _JacobianPoint, q: _JacobianPoint) -> _JacobianPoint:
    if p[2] == 0:
        return q
    if q[2] == 0:
        return p
    x1, y1, z1 = p
    x2, y2, z2 = q
    z1z1 = z1 * z1 % P
    z2z2 = z2 * z2 % P
    u1 = x1 * z2z2 % P
    u2 = x2 * z1z1 % P
    s1 = y1 * z2z2 * z2 % P
    s2 = y2 * z1z1 * z1 % P
    if u1 == u2:
        if s1 != s2:
            return _INFINITY_J
        return _jacobian_double(p)
    h = (u2 - u1) % P
    i = 4 * h * h % P
    j = h * i % P
    r = 2 * (s2 - s1) % P
    v = u1 * i % P
    nx = (r * r - j - 2 * v) % P
    ny = (r * (v - nx) - 2 * s1 * j) % P
    nz = 2 * h * z1 * z2 % P
    return (nx, ny, nz)


def point_add(p: AffinePoint, q: AffinePoint) -> AffinePoint:
    """Add two affine points on the curve."""
    return _from_jacobian(_jacobian_add(_to_jacobian(p), _to_jacobian(q)))


def point_double(p: AffinePoint) -> AffinePoint:
    """Double an affine point on the curve."""
    return _from_jacobian(_jacobian_double(_to_jacobian(p)))


def point_neg(p: AffinePoint) -> AffinePoint:
    """Return the additive inverse of ``p``."""
    if p is None:
        return None
    x, y = p
    return (x, (-y) % P)


def scalar_mult_naive(k: int, point: AffinePoint = G) -> AffinePoint:
    """Return ``k * point`` using binary double-and-add (reference).

    This is the original unoptimised ladder, kept as the oracle the
    property tests cross-check the fast paths against, and the path
    :func:`scalar_mult` takes for off-curve points.
    """
    k %= N
    if k == 0 or point is None:
        return None
    result = _INFINITY_J
    addend = _to_jacobian(point)
    while k:
        if k & 1:
            result = _jacobian_add(result, addend)
        addend = _jacobian_double(addend)
        k >>= 1
    return _from_jacobian(result)


# ---------------------------------------------------------------------------
# Fixed-base comb
# ---------------------------------------------------------------------------


def _jacobian_add_affine(p: _JacobianPoint,
                         q: Tuple[int, int]) -> _JacobianPoint:
    """Mixed addition: Jacobian ``p`` plus affine ``q`` (z2 == 1)."""
    x1, y1, z1 = p
    if z1 == 0:
        return (q[0], q[1], 1)
    x2, y2 = q
    z1z1 = z1 * z1 % P
    u2 = x2 * z1z1 % P
    s2 = y2 * z1z1 * z1 % P
    if x1 == u2:
        if y1 != s2:
            return _INFINITY_J
        return _jacobian_double(p)
    h = (u2 - x1) % P
    i = 4 * h * h % P
    j = h * i % P
    r = 2 * (s2 - y1) % P
    v = x1 * i % P
    nx = (r * r - j - 2 * v) % P
    ny = (r * (v - nx) - 2 * y1 * j) % P
    nz = 2 * h * z1 % P
    return (nx, ny, nz)


def _batch_normalize(points: list) -> list:
    """Jacobian -> affine for many points with ONE field inversion.

    Montgomery's trick: multiply all z-coordinates together, invert the
    product once, then peel per-point inverses off with multiplications.
    Raises ``ValueError`` if any point is at infinity (z == 0).
    """
    count = len(points)
    prefix = [1] * count
    running = 1
    for index in range(count):
        prefix[index] = running
        running = running * points[index][2] % P
    inv_running = pow(running, -1, P)  # ValueError when any z == 0
    affine = [None] * count
    for index in range(count - 1, -1, -1):
        x, y, z = points[index]
        z_inv = inv_running * prefix[index] % P
        inv_running = inv_running * z % P
        z_inv2 = z_inv * z_inv % P
        affine[index] = (x * z_inv2 % P, y * z_inv2 * z_inv % P)
    return affine


# 8-bit fixed-base comb: ``_BASE_TABLE8[i][j-1] == j * 256^i * G``, so
# ``k*G`` costs at most 32 mixed additions and no doublings.
# 32 windows x 255 entries = 8160 affine points, built lazily in ~tens
# of milliseconds with one shared inversion and ~0.6 MB retained.
_BASE8_WINDOWS = 256 // 8
_BASE8_MASK = 255
_BASE_TABLE8: Optional[list] = None


def _build_base_table8() -> list:
    jacobian_rows = []
    window_base: _JacobianPoint = (GX, GY, 1)
    for __ in range(_BASE8_WINDOWS):
        row = []
        current = window_base
        for __ in range(_BASE8_MASK):
            row.append(current)
            current = _jacobian_add(current, window_base)
        jacobian_rows.append(row)
        window_base = current  # == 256 * previous window base
    flat = [entry for row in jacobian_rows for entry in row]
    affine = _batch_normalize(flat)
    return [affine[index * _BASE8_MASK:(index + 1) * _BASE8_MASK]
            for index in range(_BASE8_WINDOWS)]


def _base_table8() -> list:
    global _BASE_TABLE8
    if _BASE_TABLE8 is None:
        _BASE_TABLE8 = _build_base_table8()
    return _BASE_TABLE8


def _base_mult8_j(k: int) -> _JacobianPoint:
    """``k * G`` in Jacobian form via the 8-bit fixed-base comb."""
    table = _base_table8()
    accumulator = _INFINITY_J
    window = 0
    add_affine = _jacobian_add_affine
    while k:
        digit = k & _BASE8_MASK
        if digit:
            accumulator = add_affine(accumulator, table[window][digit - 1])
        k >>= 8
        window += 1
    return accumulator


# ---------------------------------------------------------------------------
# GLV endomorphism decomposition
# ---------------------------------------------------------------------------

#: λ: the eigenvalue of the secp256k1 endomorphism — λ³ ≡ 1 (mod N) and
#: λ·(x, y) == (β·x, y) for every curve point.
GLV_LAMBDA = 0x5363AD4CC05C30E0A5261C028812645A122E22EA20816678DF02967C1B23BD72
#: β: the matching cube root of unity in the base field (β³ ≡ 1 mod P).
GLV_BETA = 0x7AE96A2B657C07106E64479EAC3434E99CF0497512F58995C1396C28719501EE

# Lattice basis for the scalar split (libsecp256k1's constants):
# k ≡ k1 + k2·λ (mod N) with |k1|, |k2| ≈ √N ≈ 2^128.
_GLV_A1 = 0x3086D221A7D46BCDE86C90E49284EB15
_GLV_B1 = 0xE4437ED6010E88286F547FA90ABFE4C3  # == -b1 of the basis
_GLV_A2 = 0x114CA50F7A8E2F3F657C1108D9D44CFD8
_GLV_B2 = _GLV_A1
_N_HALF = N // 2

#: Process-wide count of GLV decompositions, exported by the telemetry
#: layer as ``crypto.glv.splits`` (this module stays obs-free to avoid
#: an import cycle — obs pulls the counter, crypto never pushes).
_GLV_SPLITS = 0


def glv_split_count() -> int:
    """Cumulative GLV scalar decompositions in this process."""
    return _GLV_SPLITS


def glv_decompose(k: int) -> Tuple[int, int]:
    """Split ``k`` (mod N) into ``(k1, k2)`` with ``k ≡ k1 + k2·λ``.

    Both halves are signed and roughly 128 bits, so a double-scalar
    ladder over them shares half the doublings a 256-bit ladder pays.
    """
    global _GLV_SPLITS
    _GLV_SPLITS += 1
    k %= N
    c1 = (_GLV_B2 * k + _N_HALF) // N
    c2 = (_GLV_B1 * k + _N_HALF) // N
    k1 = k - c1 * _GLV_A1 - c2 * _GLV_A2
    k2 = c1 * _GLV_B1 - c2 * _GLV_B2
    return k1, k2


def _wnaf(k: int, width: int = 4) -> list:
    """Width-``w`` non-adjacent form of ``k >= 0``, least significant first.

    Digits are zero or odd in ``(-2^w, 2^w)``; at most one of any
    ``width`` consecutive digits is non-zero, so ~k.bit_length()/(w+1)
    additions are paid during the ladder.
    """
    digits = []
    window = 1 << width
    half = window >> 1
    mask = window - 1
    while k:
        if k & 1:
            digit = k & mask
            if digit >= half:
                digit -= window
            k -= digit
        else:
            digit = 0
        digits.append(digit)
        k >>= 1
    return digits


def _glv_mult_j(k: int, point: Tuple[int, int]) -> _JacobianPoint:
    """``k * point`` in Jacobian form via GLV + interleaved wNAF.

    ``point`` must be an on-curve affine point and ``k`` in [1, N).
    Builds one shared odd-multiple table {1P, 3P, .., 15P} (normalised
    to affine with a single inversion), derives the φ-half's table by
    scaling x-coordinates with β, then runs the two ~128-bit wNAF
    ladders interleaved so doublings are shared.
    """
    k1, k2 = glv_decompose(k)

    base: _JacobianPoint = (point[0], point[1], 1)
    twice = _jacobian_double(base)
    multiples = [base]
    for __ in range(7):
        multiples.append(_jacobian_add(multiples[-1], twice))
    table1 = _batch_normalize(multiples)  # ValueError on degenerate input
    beta = GLV_BETA
    table2 = [(x * beta % P, y) for x, y in table1]
    if k1 < 0:
        k1 = -k1
        table1 = [(x, P - y) for x, y in table1]
    if k2 < 0:
        k2 = -k2
        table2 = [(x, P - y) for x, y in table2]

    naf1 = _wnaf(k1)
    naf2 = _wnaf(k2)
    length = max(len(naf1), len(naf2))
    if len(naf1) < length:
        naf1 += [0] * (length - len(naf1))
    if len(naf2) < length:
        naf2 += [0] * (length - len(naf2))

    # Flat interleaved ladder: accumulator kept in locals, the doubling
    # inlined (no tuple churn on the ~130 shared doublings).
    x = y = 0
    z = 0
    add_affine = _jacobian_add_affine
    modulus = P
    for index in range(length - 1, -1, -1):
        if z:
            if y == 0:
                x, y, z = 0, 1, 0
            else:
                ysq = y * y % modulus
                s = 4 * x * ysq % modulus
                m = 3 * x * x % modulus
                nx = (m * m - 2 * s) % modulus
                nz = 2 * y * z % modulus
                y = (m * (s - nx) - 8 * ysq * ysq) % modulus
                x = nx
                z = nz
        digit = naf1[index]
        if digit:
            if digit > 0:
                x, y, z = add_affine((x, y, z), table1[digit >> 1])
            else:
                px, py = table1[(-digit) >> 1]
                x, y, z = add_affine((x, y, z), (px, modulus - py))
        digit = naf2[index]
        if digit:
            if digit > 0:
                x, y, z = add_affine((x, y, z), table2[digit >> 1])
            else:
                px, py = table2[(-digit) >> 1]
                x, y, z = add_affine((x, y, z), (px, modulus - py))
    return (x, y, z)


def scalar_mult(k: int, point: AffinePoint = G) -> AffinePoint:
    """Return ``k * point``.

    Dispatches to the fixed-base comb when ``point`` is the generator,
    the GLV/wNAF ladder for on-curve points, and
    :func:`scalar_mult_naive` for off-curve inputs (the endomorphism
    identity only holds on the curve); the fast paths agree with the
    naive ladder on every input (property-tested).
    """
    k %= N
    if k == 0 or point is None:
        return None
    if point is G or point == G:
        return _from_jacobian(_base_mult8_j(k))
    if is_on_curve(point):
        return _from_jacobian(_glv_mult_j(k, point))
    return scalar_mult_naive(k, point)


def double_scalar_mult_base_j(u1: int, u2: int,
                              point: AffinePoint) -> _JacobianPoint:
    """``u1*G + u2*point`` in Jacobian form (no affine conversion).

    Batch callers (:func:`repro.crypto.ecdsa.recover_batch`) use this
    to defer the affine conversion into one shared
    :func:`batch_normalize` inversion across the whole batch.
    ``point`` must be on-curve or None.
    """
    u1 %= N
    u2 %= N
    accumulator = _base_mult8_j(u1) if u1 else _INFINITY_J
    if u2 and point is not None:
        variable = _glv_mult_j(u2, point)
        accumulator = _jacobian_add(accumulator, variable)
    return accumulator


def double_scalar_mult_base(u1: int, u2: int,
                            point: AffinePoint) -> AffinePoint:
    """Return ``u1*G + u2*point`` (the ECDSA verify/recover shape).

    The generator half comes from the fixed-base comb (additions only),
    the variable half from the GLV/wNAF ladder; one Jacobian addition
    joins them, and only the final result pays an affine conversion.
    An off-curve ``point`` takes :func:`scalar_mult_naive` for the
    variable half instead.
    """
    if point is not None and not is_on_curve(point):
        return point_add(scalar_mult(u1), scalar_mult_naive(u2, point))
    return _from_jacobian(double_scalar_mult_base_j(u1, u2, point))


def batch_inverse(values: list, modulus: int = P) -> list:
    """Invert every element of ``values`` with ONE modular inversion.

    Montgomery's trick over an arbitrary modulus; raises ``ValueError``
    if any value is zero (mirroring ``pow(0, -1, m)``).
    """
    count = len(values)
    prefix = [1] * count
    running = 1
    for index in range(count):
        prefix[index] = running
        running = running * values[index] % modulus
    inv_running = pow(running, -1, modulus)
    inverses = [0] * count
    for index in range(count - 1, -1, -1):
        inverses[index] = inv_running * prefix[index] % modulus
        inv_running = inv_running * values[index] % modulus
    return inverses


def batch_normalize(points: list) -> list:
    """Jacobian → affine for many points, one shared field inversion.

    Unlike the internal :func:`_batch_normalize`, points at infinity
    are tolerated and map to ``None`` (batch recovery uses this for
    invalid-signature slots).
    """
    finite = [(index, point) for index, point in enumerate(points)
              if point[2] != 0]
    affine: list = [None] * len(points)
    if finite:
        normalized = _batch_normalize([point for __, point in finite])
        for (index, __), result in zip(finite, normalized):
            affine[index] = result
    return affine


def lift_x(x: int, y_parity: int) -> AffinePoint:
    """Recover the affine point with the given x-coordinate and y parity.

    Returns None when ``x`` is not the abscissa of a curve point.
    """
    if not 0 <= x < P:
        return None
    y_sq = (pow(x, 3, P) + B) % P
    # p % 4 == 3 so a square root (if any) is y_sq^((p+1)/4).
    y = pow(y_sq, (P + 1) // 4, P)
    if y * y % P != y_sq:
        return None
    if y % 2 != y_parity % 2:
        y = P - y
    return (x, y)


def serialize_point(point: AffinePoint, compressed: bool = False) -> bytes:
    """Serialise a point in SEC1 format (04 ‖ X ‖ Y, or 02/03 ‖ X)."""
    if point is None:
        raise ValueError("cannot serialise the point at infinity")
    x, y = point
    if compressed:
        prefix = b"\x03" if y & 1 else b"\x02"
        return prefix + x.to_bytes(32, "big")
    return b"\x04" + x.to_bytes(32, "big") + y.to_bytes(32, "big")


def deserialize_point(data: bytes) -> AffinePoint:
    """Parse a SEC1-encoded point (compressed or uncompressed)."""
    if len(data) == 65 and data[0] == 0x04:
        point = (int.from_bytes(data[1:33], "big"), int.from_bytes(data[33:], "big"))
        if not is_on_curve(point):
            raise ValueError("point is not on secp256k1")
        return point
    if len(data) == 33 and data[0] in (0x02, 0x03):
        point = lift_x(int.from_bytes(data[1:], "big"), data[0] & 1)
        if point is None:
            raise ValueError("x-coordinate is not on secp256k1")
        return point
    raise ValueError("malformed SEC1 point encoding")
