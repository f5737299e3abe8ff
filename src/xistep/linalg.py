"""Exact linear solves over the rationals.

`solve_tridiagonal` is the solver the moment engine runs: Thomas
elimination, forward sweep and back substitution without pivoting, O(n)
rational operations. `solve_exact` is dense Gauss-Jordan; it is kept as the
oracle the tridiagonal solves are checked against.
"""

from fractions import Fraction


def solve_exact(matrix, rhs):
    """Gaussian elimination with exact rationals. Returns (solution,
    determinant); raises ValueError on a singular matrix."""
    n = len(matrix)
    a = [[Fraction(x) for x in row] + [Fraction(rhs[i])]
         for i, row in enumerate(matrix)]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)], det


def solve_tridiagonal(matrix, rhs):
    """Thomas elimination of a square tridiagonal system given as a dense
    matrix. Returns (solution, determinant), the determinant being the
    product of the pivots (no rows are exchanged). Raises ValueError if a
    nonzero coefficient lies off the three diagonals, and
    ValueError("singular matrix") on a zero pivot.

    A strictly diagonally dominant matrix has no zero pivot. The stationary
    moment systems are: row (n, m) has the off-diagonal terms m u1 and
    n u2, and its diagonal is minus their sum, minus theta (n + m) / 2 and
    the collision rates, so theta > 0 with nonnegative migration and
    collision rates suffices."""
    n = len(matrix)
    for i, row in enumerate(matrix):
        if any(row[j] != 0 for j in range(n) if abs(i - j) > 1):
            raise ValueError(f"row {i} has a coefficient off the band")
    det = Fraction(1)
    upper, forward = [], []   # eliminated super-diagonal and right side
    for i, row in enumerate(matrix):
        pivot, value = Fraction(row[i]), Fraction(rhs[i])
        if i:
            pivot -= row[i - 1] * upper[i - 1]
            value -= row[i - 1] * forward[i - 1]
        if pivot == 0:
            raise ValueError("singular matrix")
        det *= pivot
        if i + 1 < n:
            upper.append(row[i + 1] / pivot)
        forward.append(value / pivot)
    solution = forward
    for i in reversed(range(n - 1)):
        solution[i] -= upper[i] * solution[i + 1]
    return solution, det
