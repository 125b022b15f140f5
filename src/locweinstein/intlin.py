"""Exact integer linear algebra.

Smith normal form with unimodular change-of-basis certificates and their
inverses, saturated kernel bases, and integer linear solving, all read off
one elimination.  The elimination reduces only S and logs its row and
column operations; all four certificates are replayed from those logs on
first read.  Everything runs on Python ints, so entries never overflow,
but they do grow: the certificates of a dense 60x60 matrix reach about
28k bits, a cost paid only by callers that read them.  Invariant factors
and rank cost just the elimination.

The integer rule for outside input lives here too: `require_ints` for
values and `parse_int` for integer text.
"""


class DimensionError(ValueError):
    """Shapes of the operands do not match."""


def require_ints(values, what):
    """A value counts as an integer only if its type is int, so never a
    bool, float or string; raises TypeError otherwise."""
    if not set(map(type, values)) <= {int}:
        raise TypeError(f"{what} must be int")


def parse_int(text):
    """Integer text counts only in canonical form, str(int(text)) == text,
    so " 1", "+1", "01", "-0" and "1_0" are refused with ValueError."""
    try:
        value = int(text)
    except ValueError:
        pass
    else:
        if str(value) == text:
            return value
    raise ValueError(f"{text!r} is not a canonical integer")


class IntMatrix:
    """Immutable dense integer matrix, entries stored row-major."""

    __slots__ = ("rows", "cols", "_entries")

    def __init__(self, rows, cols, entries):
        if rows < 0 or cols < 0:
            raise DimensionError("negative matrix dimension")
        entries = list(entries)
        require_ints(entries, "matrix entries")
        if len(entries) != rows * cols:
            raise DimensionError(
                f"expected {rows * cols} entries, got {len(entries)}")
        self.rows = rows
        self.cols = cols
        self._entries = entries

    @classmethod
    def from_rows(cls, rows_data, cols=None):
        """Build from a list of rows; `cols` disambiguates the empty case."""
        rows = len(rows_data)
        if rows == 0:
            return cls(0, 0 if cols is None else cols, [])
        ncols = len(rows_data[0])
        if any(len(r) != ncols for r in rows_data):
            raise DimensionError("ragged rows")
        flat = [e for r in rows_data for e in r]
        return cls(rows, ncols, flat)

    @classmethod
    def identity(cls, n):
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, rows, cols):
        return cls(rows, cols, [0] * (rows * cols))

    def at(self, i, j):
        return self._entries[i * self.cols + j]

    def row(self, i):
        return self._entries[i * self.cols:(i + 1) * self.cols]

    def column(self, j):
        return self._entries[j::self.cols] if self.cols else []

    def to_rows(self):
        return [self.row(i) for i in range(self.rows)]

    def transpose(self):
        return IntMatrix(self.cols, self.rows,
                         [self.at(i, j) for j in range(self.cols)
                          for i in range(self.rows)])

    def __eq__(self, other):
        return (isinstance(other, IntMatrix)
                and self.rows == other.rows and self.cols == other.cols
                and self._entries == other._entries)

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(self._entries)))

    def __mul__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        out = [0] * (self.rows * other.cols)
        for i in range(self.rows):
            srow = self.row(i)
            base = i * other.cols
            for k, a in enumerate(srow):
                if a == 0:
                    continue
                orow = other.row(k)
                for j in range(other.cols):
                    out[base + j] += a * orow[j]
        return IntMatrix(self.rows, other.cols, out)

    def apply(self, vec):
        """Matrix-vector product."""
        if len(vec) != self.cols:
            raise DimensionError("vector length does not match column count")
        return [sum(self.at(i, j) * vec[j] for j in range(self.cols))
                for i in range(self.rows)]

    def scaled(self, s):
        return IntMatrix(self.rows, self.cols, [s * e for e in self._entries])

    def is_zero(self):
        return all(e == 0 for e in self._entries)

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols}, {self.to_rows()})"


# `snf` logs its row and its column operations in two lists, one tuple
# (code, a, b, q) per operation.  Swaps exchange lines a and b, additions
# add q times line a to line b, negations negate line a.
_SWAP, _ADD, _NEGATE = range(3)


def _replay(log, n, undo):
    """One side's logged operations, in log order, as row operations on
    the rows of the n x n identity.

    Forward, each operation is repeated: this builds U = E_k ... E_1 for
    rows and V^T = F_k^T ... F_1^T for columns.  Undone, line a loses q
    times line b, and swaps and negations are their own inverses: this
    builds (U^-1)^T = E_k^-T ... E_1^-T and V^-1 = F_k^-1 ... F_1^-1.
    """
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
    line = range(n)
    for code, a, b, q in log:
        if code == _ADD:
            if undo:
                a, b, q = b, a, -q
            src, dst = rows[a], rows[b]
            for j in line:
                dst[j] += q * src[j]
        elif code == _SWAP:
            rows[a], rows[b] = rows[b], rows[a]
        else:
            rows[a] = [-x for x in rows[a]]
    return rows


def _certificate(name, side, undo, transposed):
    """Property replaying one certificate from the log of `side` (0 for
    rows, 1 for columns) on first read."""
    def read(self):
        if name not in self._certs:
            n = self.S.cols if side else self.S.rows
            rows = _replay(self._logs[side], n, undo)
            self._certs[name] = IntMatrix.from_rows(
                list(zip(*rows)) if transposed else rows, cols=n)
        return self._certs[name]
    return property(read)


class SnfResult:
    """Certified Smith normal form: U * M * V = S with U, V unimodular.

    Only S and the logs of the elementary operations `snf` applied are
    kept.  U, V, `U_inv` and `V_inv` are each replayed from those logs on
    first read, so their entry growth is paid only by callers that read
    them.
    """

    __slots__ = ("S", "_logs", "_certs")

    def __init__(self, S, row_log, col_log):
        self.S = S
        self._logs = (row_log, col_log)
        self._certs = {}

    # Replays give U, V^T, (U^-1)^T and V^-1; transpose the middle two.
    U = _certificate("U", 0, False, False)
    V = _certificate("V", 1, False, True)
    U_inv = _certificate("U_inv", 0, True, True)
    V_inv = _certificate("V_inv", 1, True, False)

    def diagonal(self):
        n = min(self.S.rows, self.S.cols)
        return [self.S.at(i, i) for i in range(n)]

    def invariant_factors(self):
        return [d for d in self.diagonal() if d != 0]

    def rank(self):
        return len(self.invariant_factors())

    def kernel(self):
        """Saturated basis of ker M: the last cols - rank columns of V."""
        r, n = self.rank(), self.S.cols
        return IntMatrix(n, n - r, [e for row in self.V.to_rows() for e in row[r:]])

    def solve(self, b):
        """An integer solution x of M x = b, or None when none exists."""
        if len(b) != self.S.rows:
            raise DimensionError("right-hand side length does not match row count")
        c = self.U.apply(list(b))
        diag = self.diagonal()
        diag += [0] * (len(c) - len(diag))
        if any(ci % d if d else ci for ci, d in zip(c, diag)):
            return None
        y = [ci // d for ci, d in zip(c, diag) if d]
        return self.V.apply(y + [0] * (self.S.cols - len(y)))


def _pivot(rows, r0, c0, nrows, ncols):
    """Smallest nonzero |entry| in the trailing submatrix, ties by (row, col)."""
    best = None
    for i in range(r0, nrows):
        ri = rows[i]
        for j in range(c0, ncols):
            v = ri[j]
            if v != 0:
                a = abs(v)
                if best is None or a < best[0]:
                    best = (a, i, j)
                    if a == 1:
                        return best
    return best


def snf(M):
    """Smith normal form, certified by the logs of its operations.

    Returns SnfResult with U*M*V = S, S diagonal with nonnegative entries
    in a divisibility chain (zeros last).  Only S is eliminated; U and V
    are replayed from the logs when read.
    """
    m, n = M.rows, M.cols
    S = M.to_rows()
    row_log, col_log = [], []

    def swap_rows(i1, i2):
        S[i1], S[i2] = S[i2], S[i1]
        row_log.append((_SWAP, i1, i2, 0))

    def swap_cols(j1, j2):
        for row in S:
            row[j1], row[j2] = row[j2], row[j1]
        col_log.append((_SWAP, j1, j2, 0))

    def add_row(src, dst, q):
        S[dst] = [x + q * y for x, y in zip(S[dst], S[src])]
        row_log.append((_ADD, src, dst, q))

    def add_col(src, dst, q):
        for row in S:
            row[dst] += q * row[src]
        col_log.append((_ADD, src, dst, q))

    def near_q(a, b):
        # Nearest-integer quotient keeps remainders at most |b| / 2.
        q, r = divmod(a, b)
        if 2 * abs(r) > abs(b):
            q += 1
        return q

    for t in range(min(m, n)):
        best = _pivot(S, t, t, m, n)
        if best is None:
            break
        while True:
            _, pi, pj = best
            if pi != t:
                swap_rows(t, pi)
            if pj != t:
                swap_cols(t, pj)
            clean = True
            for i in range(t + 1, m):
                if S[i][t] != 0:
                    add_row(t, i, -near_q(S[i][t], S[t][t]))
                    if S[i][t] != 0:
                        clean = False
            for j in range(t + 1, n):
                if S[t][j] != 0:
                    add_col(t, j, -near_q(S[t][j], S[t][t]))
                    if S[t][j] != 0:
                        clean = False
            if clean:
                # Pivot must divide every remaining entry for the chain to hold.
                offender = next((i for i in range(t + 1, m) for j in range(t + 1, n)
                                 if S[i][j] % S[t][t] != 0), None)
                if offender is None:
                    break
                add_row(offender, t, 1)
            # Re-select the smallest pivot each pass to bound entry growth.
            best = _pivot(S, t, t, m, n)

        if S[t][t] < 0:
            S[t] = [-x for x in S[t]]
            row_log.append((_NEGATE, t, t, 0))

    return SnfResult(IntMatrix.from_rows(S, cols=n), row_log, col_log)


def kernel_basis(M):
    """Saturated integer basis of ker M, one basis vector per column.

    The span is a direct summand of Z^cols, so coefficients of kernel
    elements in this basis are integral.
    """
    return snf(M).kernel()


def solve(M, b):
    """An integer solution x of M x = b, or None when none exists."""
    return snf(M).solve(b)


def inverse_unimodular(M):
    """Exact inverse of a unimodular integer matrix: U M V = I, so M^-1 = V U."""
    if M.rows != M.cols:
        raise DimensionError("inverse of a non-square matrix")
    res = snf(M)
    if res.rank() < M.rows:
        raise ValueError("matrix is singular")
    if res.S != IntMatrix.identity(M.rows):
        raise ValueError("matrix is not unimodular")
    return res.V * res.U
