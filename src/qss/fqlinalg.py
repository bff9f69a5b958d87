"""Exact linear algebra over prime fields F_q.

Every matrix routine takes plain numpy integer arrays and is an entry to one
fraction-free lockstep elimination, `_eliminate`; the single-matrix routines
run it on a stack of one. It reduces its input modulo the prime q in integer
arithmetic, then eliminates in float64 and reduces every entry back into
[0, q) after each step. Both are exact for every accepted q: products of two
residues stay below 2^40 < 2^53, and the float quotient floor((a + 1/2) / q)
is exact (see `_eliminate`). The pivot of a column is always the first
unused row that is nonzero there, which keeps every routine deterministic.
"""

from __future__ import annotations

import threading

import numpy as np


def is_prime(n: int) -> bool:
    """Trial-division primality test, adequate for field moduli."""
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
    q < 2^20, so a product of two is below 2^40. The elimination step
    v * r - f * p is then an integer of magnitude below 2^40 < 2^53, exact
    in float64, and its float quotient floor((a + 1/2) * (1/q)) is exact
    (see _eliminate). In int64, a row sum Gamma @ v of n such products
    (witness checks, neighbour multisets, the sufficient-condition scan)
    stays below n * 2^40 < 2^63 for every order n < 2^23, whose int64
    adjacency matrix alone would take 512 TiB.

    Raises:
        ValueError: for a composite q or one at or above the ceiling. The
            ceiling is checked first, so an oversized modulus costs no trial
            division.
    """
    q = int(q)
    if q >= FIELD_SIZE_CEILING:
        raise ValueError(f"field size {q} is not below the ceiling {FIELD_SIZE_CEILING}")
    if not is_prime(q):
        raise ValueError(f"modulus must be a prime, got {q}")
    return q


def inv_mod(a: int, q: int) -> int:
    """Inverse of a modulo q via the extended Euclid built into pow.

    Raises:
        ZeroDivisionError: if a is divisible by q.
    """
    a = int(a) % q
    if a == 0:
        raise ZeroDivisionError(f"0 has no inverse in F_{q}")
    return pow(a, -1, q)


def _int_array(a, ndim: int = 2) -> np.ndarray:
    arr = np.asarray(a, dtype=np.int64)
    if arr.ndim != ndim:
        raise ValueError(f"expected a {ndim}-d array, got shape {arr.shape}")
    return arr


# _eliminate's scratch stack: one float64 buffer per thread, grown to the
# largest stack the thread has eliminated and never shrunk (see _eliminate)
_scratch = threading.local()


def _scratch_like(a: np.ndarray) -> np.ndarray:
    """An uninitialised float64 array of a's shape, a view of this thread's
    scratch buffer; it is only valid until the thread's next call."""
    buf = getattr(_scratch, "buf", None)
    if buf is None or buf.size < a.size:
        buf = _scratch.buf = np.empty(a.size)
    return buf[: a.size].reshape(a.shape)


def _eliminate(stack: np.ndarray, q: int, rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Eliminate an int64 (R, C, N) stack of N matrices over F_q in lockstep.

    Returns (a, used): a is the eliminated stack, a C-contiguous float64
    copy of stack mod q, and used is the (rows, N) mask of pivot rows, so
    each matrix's leading rows x cols block has rank used.sum(0). Keeping
    the matrix axis last makes every array operation run along the long N
    axis.

    Pivots come only from the leading rows x cols block, but every row is
    reduced, so rows below the block end up reduced against it. Rows are
    never swapped: the pivot of a column is the first unused leading row
    that is nonzero there. Elimination is fraction-free (Bareiss): every
    other row r becomes v * r - r[col] * p for the pivot row p with pivot
    value v, and a matrix with no pivot in the column gets v = 1 and
    r[col] taken as 0. Scaling a row by a nonzero v keeps every span, so no
    inverse is needed and no table grows with q.

    Exactness: callers may pass any int64, so the stack is first reduced
    mod q in integer arithmetic, as stack - q * (stack // q); numpy divides
    an int64 array by a scalar through a multiply, several times faster
    than %, and a product that wraps past int64 wraps back in the
    subtraction. Afterwards every entry is a residue in [0, q), so a step's
    v * r - r[col] * p is an integer of magnitude at most (q - 1)^2 < 2^40,
    exact in float64, whose significand holds 53 bits. It is reduced back
    as a - q * floor((a + 1/2) * (1/q)): (a + 1/2) / q = (2a + 1) / (2q)
    lies at least 1 / (2q) > 2^-21 from every integer, while rounding 1/q
    and the product errs by under q * 2^-52 <= 2^-32, so the floor is
    exactly floor(a / q). Without the 1/2 it is not: floor(a * (1/q)) is
    one too small for some multiples a of q = 197.

    Each column step writes its products into a scratch stack of a's shape,
    a view of a buffer that only grows and is reused by every call. A fresh
    stack per call would cost page faults: glibc hands a freed block above
    about 128 KiB back to the OS, and the next call faults it in again. The
    buffer is per thread, and worker processes have their own, so no two
    eliminations share it; nothing returned aliases it.
    """
    residues = stack // q
    residues *= q
    np.subtract(stack, residues, out=residues)
    a = residues.astype(np.float64, order="C")
    _, width, size = a.shape
    unused = np.ones((rows, size), dtype=bool)
    if rows == 0:
        return a, ~unused
    # a is C-contiguous, so flat is a view of it and pivot rows are read
    # from the live stack
    flat = a.reshape(-1)
    row_offsets = np.arange(width * size).reshape(width, size)
    # the first free row of a column scores highest
    score = np.arange(rows, 0, -1)[:, None]
    scratch = _scratch_like(a)
    inv_q = 1.0 / q
    for col in range(cols):
        key = ((a[:rows, col] != 0) & unused) * score
        top = key.max(axis=0)
        has = top > 0
        if not has.any():
            continue
        pivot = (key == top) & has
        pivot_rows = flat[np.where(has, rows - top, 0) * (width * size) + row_offsets]
        factors = a[:, col] * has
        factors[:rows] *= ~pivot
        a *= np.where(has, pivot_rows[col], 1.0)
        np.multiply(factors[:, None, :], pivot_rows, out=scratch)
        a -= scratch
        np.add(a, 0.5, out=scratch)
        scratch *= inv_q
        np.floor(scratch, out=scratch)
        scratch *= q
        a -= scratch
        unused ^= pivot
    return a, ~unused


def rref_mod(a, q: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of a over F_q.

    A stack-of-one call to the fraction-free elimination. Each pivot row it
    leaves is a nonzero multiple of an RREF row, with its pivot as its first
    nonzero entry; the pivot rows are ordered by pivot column and each is
    scaled by the inverse of its pivot value. The RREF is unique, so this
    equals Gauss-Jordan elimination with row swaps.

    Returns:
        (R, pivot_cols) where R is the RREF and pivot_cols lists the pivot
        column of each nonzero row in order.
    """
    q = require_prime(q)
    arr = _int_array(a)
    rows, cols = arr.shape
    eliminated, used = _eliminate(arr[:, :, None], q, rows, cols)
    r = eliminated[used[:, 0], :, 0].astype(np.int64)
    # a pivot row's first nonzero entry is its pivot
    pivots = (r != 0).argmax(axis=1) if cols else np.zeros(0, dtype=np.intp)
    order = np.argsort(pivots)
    r, pivots = r[order], pivots[order]
    scale = [inv_mod(v, q) for v in r[np.arange(len(r)), pivots].tolist()]
    out = np.zeros((rows, cols), dtype=np.int64)
    out[: len(r)] = r * np.array(scale, dtype=np.int64)[:, None] % q
    return out, pivots.tolist()


def rank_mod(a, q: int) -> int:
    """Rank of a over F_q. Empty matrices have rank 0."""
    q = require_prime(q)
    arr = _int_array(a)
    return int(_eliminate(arr[:, :, None], q, *arr.shape)[1].sum())


def kernel_basis_mod(a, q: int) -> np.ndarray:
    """Basis of the right kernel {x : a.x = 0 over F_q}.

    Returns:
        Array of shape (cols, k) whose columns are the basis vectors, built
        from the free columns of the RREF (deterministic).
    """
    r, pivots = rref_mod(a, q)
    cols = r.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((cols, len(free)), dtype=np.int64)
    for j, fc in enumerate(free):
        basis[fc, j] = 1
        for i, pc in enumerate(pivots):
            basis[pc, j] = (-r[i, fc]) % q
    return basis


def solve_affine_mod(a, b, q: int) -> np.ndarray | None:
    """Solve a.x = b over F_q.

    Returns:
        The deterministic particular solution (free variables set to 0), or
        None when the system is inconsistent.
    """
    q = require_prime(q)
    arr = _int_array(a)
    rhs = np.asarray(b, dtype=np.int64).reshape(-1)
    rows, cols = arr.shape
    if rhs.shape[0] != rows:
        raise ValueError(f"shape mismatch: {arr.shape} vs rhs {rhs.shape}")
    r, pivots = rref_mod(np.concatenate([arr, rhs[:, None]], axis=1), q)
    if cols in pivots:
        return None
    x = np.zeros(cols, dtype=np.int64)
    x[pivots] = r[: len(pivots), cols]
    return x


def reduced_column_echelon_mod(a, q: int) -> np.ndarray:
    """Reduced column echelon form: nonzero columns first, each column's
    first nonzero entry is 1 and is the only nonzero entry of its row."""
    return rref_mod(np.asarray(a).T, q)[0].T.copy()


def batch_rank_mod(mats, q: int) -> np.ndarray:
    """Ranks of a stack of matrices over F_q, eliminated in lockstep.

    Args:
        mats: integer array of shape (N, rows, cols).

    Returns:
        int64 array of shape (N,).
    """
    q = require_prime(q)
    arr = _int_array(mats, ndim=3)
    return _eliminate(arr.transpose(1, 2, 0), q, arr.shape[1], arr.shape[2])[1].sum(axis=0)


def batch_border_indicators_mod(mats, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Span tests for a stack of bordered matrices [[M, c], [r, x]] over F_q.

    One lockstep elimination of M, with the last column c and the last row r
    carried along as a border (the corner x is ignored), decides both
    rank(M | c) - rank(M) and rank(M ; r) - rank(M).

    Args:
        mats: integer array of shape (N, m + 1, w + 1); M is m x w, and m
            or w may be 0.

    Returns:
        (c_outside, r_outside): bool arrays of shape (N,) holding
        c not in colspan M and r not in rowspan M.
    """
    q = require_prime(q)
    arr = _int_array(mats, ndim=3)
    _, rows, cols = arr.shape
    if rows == 0 or cols == 0:
        raise ValueError(f"expected a border row and column, got shape {arr.shape}")
    a, used = _eliminate(arr.transpose(1, 2, 0), q, rows - 1, cols - 1)
    # c is in colspan M exactly when it vanishes on the rows M reduced to 0;
    # r is in rowspan M exactly when its reduction against M vanishes
    c_outside = ((a[:-1, -1] != 0) & ~used).any(axis=0)
    r_outside = (a[-1, :-1] != 0).any(axis=0)
    return c_outside, r_outside
