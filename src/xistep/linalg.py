"""Exact linear solves.

`solve_tridiagonal` is the solver the moment engine runs: fraction-free
elimination of an integer tridiagonal system given as its three bands,
O(n) integer operations and no rationals at all. `solve_exact` is dense
Gauss-Jordan over the rationals; it is kept as the oracle the tridiagonal
solves are checked against.
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


def solve_tridiagonal(low, diag, up, rhs):
    """Fraction-free elimination of a square tridiagonal system given by
    its three integer bands and an integer right side: row i has the
    diagonal diag[i], the sub-diagonal low[i] in column i - 1 and the
    super-diagonal up[i] in column i + 1, so low[0] and up[-1] are never
    read. Returns (X, det): det is the determinant and the solution is
    x_i = X_i / det, with every X_i an integer. Raises
    ValueError("singular matrix") on a zero leading minor.

    The continuants theta_0 = 1, theta_{i+1} = diag_i theta_i -
    low_i up_{i-1} theta_{i-1} are the leading principal minors, theta_n =
    det. Thomas elimination's pivots are theta_{i+1} / theta_i and its
    forward values are F_i / theta_{i+1} with F_i = theta_i v_i -
    low_i F_{i-1}. Back substitution from X_{n-1} = F_{n-1} is X_i =
    (theta_n F_i - up_i theta_i X_{i+1}) / theta_{i+1}. Every such division
    is exact: X_i = det * x_i is, by Cramer's rule, the determinant of the
    matrix with column i replaced by the right side, an integer.

    A strictly diagonally dominant matrix has no zero leading minor, hence
    no zero continuant. The stationary moment systems are: row (n, m) has
    the off-diagonal terms m u1 and n u2, and its diagonal is minus their
    sum, minus theta (n + m) / 2 and the collision rates, so theta > 0
    with nonnegative migration and collision rates suffices. Scaling a row
    by a positive integer keeps it dominant."""
    n = len(diag)
    theta = [1]
    forward = []
    for i in range(n):
        if i:
            theta.append(diag[i] * theta[i]
                         - low[i] * up[i - 1] * theta[i - 1])
            forward.append(theta[i] * rhs[i] - low[i] * forward[i - 1])
        else:
            theta.append(diag[0])
            forward.append(rhs[0])
        if theta[i + 1] == 0:
            raise ValueError("singular matrix")
    det = theta[n]
    solution = forward
    for i in reversed(range(n - 1)):
        solution[i] = ((det * forward[i] - up[i] * theta[i] * solution[i + 1])
                       // theta[i + 1])
    return solution, det
