"""Exact linear algebra over prime fields F_q.

Every matrix and scalar routine takes integers, an integral float too,
and raises ValueError on any other (`as_integers`). Each matrix routine
is one fraction-free lockstep elimination, `_eliminate`, of a stack of
matrices or systems. Every public routine reduces its input modulo the
prime q (`_residues`) into the narrowest signed integer type that holds
(q - 1)^2: int8 up to q = 11, int16 up to 181, int32 up to 46,337 and int64
up to the field ceiling 2^20. Every elimination step then stays within
[-(q - 1)^2, (q - 1)^2] and is reduced back into [0, q) by exact integer
floor division, so no step rounds; over F_2 a step is an AND and an XOR.
The pivot of a column is always the first unused row that is nonzero
there, which keeps every routine deterministic.
"""

from __future__ import annotations

import threading

import numpy as np


def is_prime(n: int) -> bool:
    """Trial-division primality test of an integer n (as_integers), adequate for field moduli."""
    n = int(as_integers(n, "primality candidates"))
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


# Every accepted field size is below this; see require_prime.
FIELD_SIZE_CEILING = 1 << 20


def require_prime(q: int) -> int:
    """Return q as an int if it is a prime below FIELD_SIZE_CEILING.

    The ceiling keeps every intermediate exact. Residues are below
    q < 2^20, so a product of two is below 2^40 and the elimination step
    v * r - f * p fits int64 (see _eliminate). In int64, a row sum
    Gamma @ v of n such products (witness checks, neighbour multisets)
    stays below n * 2^40 < 2^63 for every order n < 2^23, whose int64
    adjacency matrix alone would take 512 TiB.

    Raises:
        ValueError: for a q that is not an integer (as_integers), is
            composite or lies at or above the ceiling. The ceiling is
            checked first, so an oversized modulus costs no trial division.
    """
    q = int(as_integers(q, "field sizes"))
    if q >= FIELD_SIZE_CEILING:
        raise ValueError(f"field size {q} is not below the ceiling {FIELD_SIZE_CEILING}")
    if not is_prime(q):
        raise ValueError(f"modulus must be a prime, got {q}")
    return q


def inv_mod(a: int, q: int) -> int:
    """Inverse of a modulo q via the extended Euclid built into pow.

    Raises:
        ValueError: if a is not an integer (as_integers).
        ZeroDivisionError: if a is divisible by q.
    """
    a = int(as_integers(a, "values to invert")) % q
    if a == 0:
        raise ZeroDivisionError(f"0 has no inverse in F_{q}")
    return pow(a, -1, q)


def inverses_mod(values: np.ndarray, q: int) -> np.ndarray:
    """inv_mod of each entry of an int array, as int64 of its shape, one pow
    per distinct value (a stack of pivots repeats few); ZeroDivisionError if
    an entry is divisible by q."""
    distinct, where = np.unique(values, return_inverse=True)
    return np.array([inv_mod(v, q) for v in distinct.tolist()], dtype=np.int64)[where]


def as_integers(values, what: str) -> np.ndarray:
    """values as a new int64 array; ValueError naming what if an entry is
    not an integer that int64 holds. Integral floats pass."""
    raw = np.asarray(values)
    if np.can_cast(raw.dtype, np.int64):  # exact as it stands, whatever integer type int64 holds
        return raw.astype(np.int64)
    try:
        with np.errstate(invalid="ignore"):
            arr = raw.astype(np.int64)
        if np.array_equal(arr, raw):
            return arr
    except (OverflowError, TypeError, ValueError):
        pass
    raise ValueError(f"{what} must be integers within int64")


def _int_array(a, ndim: int = 2) -> np.ndarray:
    arr = as_integers(a, "matrix entries")
    if arr.ndim != ndim:
        raise ValueError(f"expected a {ndim}-d array, got shape {arr.shape}")
    return arr


def _kernel_type(q: int) -> np.dtype:
    """The elimination's number type for F_q: the narrowest signed integer
    type that holds -(q - 1)^2, the least value of an elimination step."""
    return np.min_scalar_type(-((q - 1) ** 2))


def _residues(a: np.ndarray, q: int) -> np.ndarray:
    """a mod q as a new C-contiguous array of _kernel_type(q), reduced as
    a - q * (a // q) in a's type if it is an integer type that holds q, else
    widened (a non-integer type by as_integers, so no entry is truncated):
    numpy divides an integer array by a scalar through a multiply, several
    times faster than %, and a product that wraps past the type wraps back."""
    a = a if a.dtype.kind in "iu" else as_integers(a, "matrix entries")
    if np.iinfo(a.dtype).max < q:
        a = a.astype(np.promote_types(a.dtype, _kernel_type(q)))
    reduced = a // q
    reduced *= q
    np.subtract(a, reduced, out=reduced)
    return reduced.astype(_kernel_type(q), order="C", copy=False)


# _eliminate's scratch stack: one byte buffer per thread, viewed as the
# stack's type and grown to the largest stack the thread has eliminated up
# to SCRATCH_CAP bytes, never shrunk (see _eliminate). A search scan's
# stack holds at most search.BLOCK_BYTES = 512 KiB, unless one set for each
# of its live graphs alone takes more.
_scratch = threading.local()
SCRATCH_CAP = 4 << 20


def _scratch_like(a: np.ndarray) -> np.ndarray:
    """An uninitialised array of a's shape and type, a view of this thread's
    scratch buffer; it is only valid until the thread's next call. A stack
    above SCRATCH_CAP gets a buffer of its own, freed with it."""
    if a.nbytes > SCRATCH_CAP:
        return np.empty_like(a)
    buf = getattr(_scratch, "buf", None)
    if buf is None or buf.nbytes < a.nbytes:
        buf = _scratch.buf = np.empty(a.nbytes, dtype=np.uint8)
    return buf[: a.nbytes].view(a.dtype).reshape(a.shape)


def _eliminate(a: np.ndarray, q: int, rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Eliminate an (R, C, N) stack of N matrices over F_q in lockstep, in
    place.

    a must be C-contiguous, of _kernel_type(q) and hold residues in [0, q),
    as _residues makes it. Returns (a, used): a is the eliminated stack and
    used is the (rows, N) mask of pivot rows, so each matrix's leading
    rows x cols block has rank used.sum(0). Keeping the matrix axis last
    makes every array operation run along the long N axis.

    Pivots come only from the leading rows x cols block, but every row is
    reduced, so rows below the block end up reduced against it. Rows are
    never swapped: the pivot of a column is the first unused leading row
    that is nonzero there. Elimination is fraction-free (Bareiss): every
    other row r becomes v * r - r[col] * p for the pivot row p with pivot
    value v, and a matrix with no pivot in the column gets v = 1 and a zero
    p, which subtracts nothing. Scaling a row by a nonzero v keeps every
    span, so no inverse is needed and no table grows with q. The factor
    r[col] of each pivot row is masked to 0 through one buffer (keep) made
    once per call, so the pivot row stays as it is.

    Over F_2 the step is r ^ (r[col] & p), an AND and an XOR (the XOR
    elimination of M4RI; Albrecht, Bard and Hart, ACM TOMS 37(1), 2010).
    It is the same step: the only nonzero residue is 1, so v = 1, and for
    residues f, p and r in {0, 1}, r - f * p mod 2 = r ^ (f & p). Both
    operands stay in {0, 1}, so no scale, subtraction or reduction runs and
    every result equals the general step's, bit for bit.

    Exactness: every entry is a residue in [0, q) before a step, so both
    products lie in [0, (q - 1)^2] and the step's result in
    [-(q - 1)^2, (q - 1)^2], which the type holds by its choice. It is
    reduced back as a - q * (a // q) with numpy's floor division, and
    q * (a // q) lies in [-q(q - 1), (q - 1)^2], which the type also holds
    for every prime q it is chosen for. Integer arithmetic is exact, so no
    step rounds, whatever q below the field ceiling.

    Each column step writes its products into a scratch stack of a's shape,
    a view of a buffer that only grows, up to SCRATCH_CAP, and is reused by
    every call. A fresh stack per call would cost page faults: glibc hands a
    freed block above about 128 KiB back to the OS, and the next call faults
    it in again. A larger stack is a one-off, and keeping its buffer would
    keep the memory. The buffer is per thread, and worker processes have
    their own, so no two eliminations share it; nothing returned aliases it.
    """
    if not a.flags.c_contiguous or a.dtype != _kernel_type(q):
        raise ValueError(f"expected a C-contiguous {_kernel_type(q)} stack, got {a.dtype}")
    unused = np.ones((rows, a.shape[2]), dtype=bool)
    if rows == 0:
        return a, ~unused
    # the first free row of a column scores highest
    score = np.arange(rows, 0, -1, dtype=np.min_scalar_type(rows))[:, None]
    scratch = _scratch_like(a)
    lead, masked = a[:rows], scratch[:rows]
    keep = np.ones(a.shape[::2], dtype=a.dtype)
    factors = np.empty_like(keep)
    for col in range(cols):
        free = np.logical_and(lead[:, col], unused)
        key = free * score
        top = key.max(axis=0)
        if not top.any():
            continue
        pivot = (key == top) & free
        # each matrix's pivot row, or a zero row where it has no pivot
        np.multiply(lead, pivot[:, None, :], out=masked)
        pivot_rows = masked.sum(axis=0, dtype=a.dtype)
        np.logical_not(pivot, out=keep[:rows])
        if q == 2:
            np.bitwise_and(a[:, col], keep, out=factors)
            np.bitwise_and(factors[:, None, :], pivot_rows, out=scratch)
            a ^= scratch
        else:
            np.multiply(a[:, col], keep, out=factors)
            a *= np.maximum(pivot_rows[col], 1)
            np.multiply(factors[:, None, :], pivot_rows, out=scratch)
            a -= scratch
            np.floor_divide(a, q, out=scratch)
            scratch *= q
            a -= scratch
        unused ^= pivot
    return a, ~unused


def _pivot_rows(eliminated: np.ndarray, used: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(matrix, pivot, rows) for the pivot rows of an _eliminate result, in
    row order per matrix: each one's matrix index, its pivot column, and
    the row as int64 scaled by the inverse of its pivot."""
    row, matrix = np.nonzero(used)
    r = eliminated[row, :, matrix].astype(np.int64)
    # a row's first nonzero entry is its pivot; argmax raises on width 0
    pivots = (r != 0).argmax(axis=1) if r.shape[1] else np.zeros(0, dtype=np.intp)
    return matrix, pivots, r * inverses_mod(r[np.arange(len(r)), pivots], q)[:, None] % q


def rank_mod(a, q: int) -> int:
    """Rank of a over F_q: batch_rank_mod on a stack of one. Empty matrices have rank 0."""
    return int(batch_rank_mod(_int_array(a)[None], q)[0])


def kernel_basis_mod(a, q: int) -> np.ndarray:
    """Basis of the right kernel {x : a.x = 0 over F_q}, shape (cols, k):
    one column per free column of the RREF, in column order.

    Read off the RREF rows that _pivot_rows gives for one elimination of
    a: the column of free column f is 1 at f, 0 at the other free columns
    and -R[i][f] at the pivot column of RREF row i.
    """
    q = require_prime(q)
    arr = _int_array(a)
    rows, cols = arr.shape
    _, pivots, r = _pivot_rows(*_eliminate(_residues(arr[:, :, None], q), q, rows, cols), q)
    free = np.ones(cols, dtype=bool)
    free[pivots] = False
    basis = np.eye(cols, dtype=np.int64)[:, free]
    basis[pivots] = -r[:, free] % q
    return basis


def solve_affine_mod(a, b, q: int) -> np.ndarray | None:
    """Solve a.x = b over F_q: _solve_stack on the augmented matrix [a | b].

    Returns:
        The deterministic particular solution (free variables set to 0), or
        None when the system is inconsistent.
    """
    q = require_prime(q)
    arr, rhs = _int_array(a), as_integers(b, "matrix entries").reshape(-1)
    if rhs.shape[0] != arr.shape[0]:
        raise ValueError(f"shape mismatch: {arr.shape} vs rhs {rhs.shape}")
    x, consistent = _solve_stack(np.column_stack([arr, rhs])[:, :, None], q)
    return x[0] if consistent[0] else None


def _solve_stack(stack: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Solve every system a.x = b of an (R, C + 1, N) integer stack of
    augmented matrices [a | b] over F_q in one lockstep elimination.

    Systems of different shapes share the stack padded: zero rows below
    [a | b] and zero columns between a and b. A zero row or column gains no
    pivot and moves none, so each system keeps the pivots of its own
    elimination. Each pivot row is then a nonzero multiple of a row of the
    RREF, which is unique, so every solution is the one Gauss-Jordan
    elimination gives: the RREF's last column on the pivot columns and 0 on
    the free ones. A system with a pivot in its last column is inconsistent.

    Returns:
        The (N, C) solutions, zero for an inconsistent system, and the (N,)
        mask of the consistent ones.
    """
    rows, cols = stack.shape[0], stack.shape[1] - 1
    system, pivots, r = _pivot_rows(*_eliminate(_residues(stack, q), q, rows, cols + 1), q)
    consistent = np.ones(stack.shape[2], dtype=bool)
    consistent[system[pivots == cols]] = False
    x = np.zeros((stack.shape[2], cols + 1), dtype=np.int64)
    x[system, pivots] = r[:, cols]
    return np.where(consistent[:, None], x[:, :cols], 0), consistent


def batch_rank_mod(mats, q: int) -> np.ndarray:
    """Ranks of a stack of matrices over F_q, eliminated in lockstep.

    Args:
        mats: integer array of shape (N, rows, cols).

    Returns:
        int64 array of shape (N,).
    """
    q = require_prime(q)
    arr = _int_array(mats, ndim=3)
    return _eliminate(_residues(arr.transpose(1, 2, 0), q), q, arr.shape[1], arr.shape[2])[1].sum(axis=0)


def _border_indicators(a: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Span tests for an (R, C, N) stack of N bordered matrices
    [[M, c], [r, x]] over F_q, residues of _kernel_type(q) as _residues
    makes them, eliminated in place: access.batch_indicators' route.

    One lockstep elimination of M, with the last column c and the last row r
    carried along as a border (the corner x is ignored), decides both
    rank(M | c) - rank(M) and rank(M ; r) - rank(M); M is (R - 1) x (C - 1),
    and either may be 0.

    Returns:
        (c_outside, r_outside): bool arrays of shape (N,) holding
        c not in colspan M and r not in rowspan M.
    """
    a, used = _eliminate(a, q, a.shape[0] - 1, a.shape[1] - 1)
    # c is in colspan M exactly when it vanishes on the rows M reduced to 0;
    # r is in rowspan M exactly when its reduction against M vanishes
    c_outside = ((a[:-1, -1] != 0) & ~used).any(axis=0)
    r_outside = (a[-1, :-1] != 0).any(axis=0)
    return c_outside, r_outside
