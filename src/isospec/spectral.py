"""Eigen-decomposition of the pi-weighted Laplacian and the Ky Fan trace functional."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .calculus import laplacian_apply
from .errors import ConvergenceError, FrameNotOrthonormal
from .tolerance import CLUSTER, INPUT, JACOBI_OFFDIAG, ZERO


def jacobi_eigh(matrix, max_sweeps=100):
    """Cyclic Jacobi diagonalization of a symmetric float matrix.

    Returns (eigenvalues, eigenvectors, residual) with the eigenvectors taken
    from the columns of the accumulated rotation, unsorted.  Deterministic for
    a fixed input.  Raises ConvergenceError carrying the residual if the
    off-diagonal Frobenius norm does not fall below JACOBI_OFFDIAG within
    max_sweeps.
    """
    n = len(matrix)
    a = [list(row) for row in matrix]
    v = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]

    def offdiag():
        return math.sqrt(sum(2.0 * a[p][q] ** 2 for p in range(n) for q in range(p + 1, n)))

    resid = offdiag()
    for _ in range(max_sweeps):
        if resid < JACOBI_OFFDIAG:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if apq == 0.0:
                    continue
                theta = (a[q][q] - a[p][p]) / (2.0 * apq)
                t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
                if theta < 0.0:
                    t = -t
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                app, aqq = a[p][p], a[q][q]
                a[p][p] = app - t * apq
                a[q][q] = aqq + t * apq
                a[p][q] = a[q][p] = 0.0
                for i in range(n):
                    if i != p and i != q:
                        aip, aiq = a[i][p], a[i][q]
                        a[i][p] = a[p][i] = c * aip - s * aiq
                        a[i][q] = a[q][i] = s * aip + c * aiq
                for i in range(n):
                    vip, viq = v[i][p], v[i][q]
                    v[i][p] = c * vip - s * viq
                    v[i][q] = s * vip + c * viq
        resid = offdiag()
    else:
        if resid >= JACOBI_OFFDIAG:
            raise ConvergenceError(
                f"Jacobi sweeps did not converge (residual {resid:.3e})", residual=resid
            )
    eigvals = [a[i][i] for i in range(n)]
    eigvecs = [[v[i][j] for i in range(n)] for j in range(n)]
    return eigvals, eigvecs, resid


def _sign_normalize(vec):
    for x in vec:
        if abs(x) > ZERO:
            if x < 0:
                return [-y for y in vec]
            return list(vec)
    return list(vec)


@dataclass(frozen=True)
class SpectrumReport:
    """Spectral data of Delta = I - K_bar in the pi-weighted inner product.

    lambdas ascend, alphas = 1 - lambdas descend, mean_lambdas[k-1] is the
    mean of the k smallest lambdas, and eigenbasis is pi-orthonormal with a
    positive leading nonzero coordinate per vector.
    """

    chain: object
    lambdas: tuple
    alphas: tuple
    mean_lambdas: tuple
    eigenbasis: tuple
    offdiag_residual: float
    degenerate: tuple

    def mean_lambda(self, n):
        return self.mean_lambdas[n - 1]


def spectrum(chain):
    """Diagonalize Delta via the similarity Pi^(1/2) Delta Pi^(-1/2) and Jacobi
    sweeps, once per chain: the report is memoized on the chain."""
    report = chain._memo.get("spectrum")
    if report is not None:
        return report
    n = chain.graph.vertex_count
    pi = [float(p) for p in chain.pi]
    sqrt_pi = [math.sqrt(p) for p in pi]
    s = [[0.0] * n for _ in range(n)]
    for u in range(n):
        s[u][u] = float(1 - chain.kernel[u][u])
        for v in range(u + 1, n):
            val = -float(chain.phibar[u][v]) / (sqrt_pi[u] * sqrt_pi[v])
            s[u][v] = s[v][u] = val
    eigvals, eigvecs, resid = jacobi_eigh(s)

    basis = []
    for vec in eigvecs:
        f = [vec[u] / sqrt_pi[u] for u in range(n)]
        norm = math.sqrt(sum(x * x * p for x, p in zip(f, pi)))
        f = [x / norm for x in f]
        basis.append(_sign_normalize(f))
    order = sorted(range(n), key=lambda i: (eigvals[i], tuple(basis[i])))
    lambdas = tuple(eigvals[i] for i in order)
    eigenbasis = tuple(tuple(basis[i]) for i in order)
    alphas = tuple(1.0 - lam for lam in lambdas)
    means = []
    acc = 0.0
    for k, lam in enumerate(lambdas, start=1):
        acc += lam
        means.append(acc / k)
    degenerate = tuple(
        (k > 0 and abs(lambdas[k] - lambdas[k - 1]) < CLUSTER)
        or (k + 1 < n and abs(lambdas[k + 1] - lambdas[k]) < CLUSTER)
        for k in range(n)
    )
    report = chain._memo["spectrum"] = SpectrumReport(
        chain=chain,
        lambdas=lambdas,
        alphas=alphas,
        mean_lambdas=tuple(means),
        eigenbasis=eigenbasis,
        offdiag_residual=resid,
        degenerate=degenerate,
    )
    return report


def ky_fan_value(report, frame):
    """Mean Rayleigh trace (1/n) sum_i <Delta f_i, f_i>_pi over a pi-orthonormal frame."""
    chain = report.chain
    pi = [float(p) for p in chain.pi]
    frame = [list(map(float, f)) for f in frame]
    for i, fi in enumerate(frame):
        for j in range(i, len(frame)):
            val = sum(a * b * p for a, b, p in zip(fi, frame[j], pi))
            target = 1.0 if i == j else 0.0
            if abs(val - target) > INPUT:
                raise FrameNotOrthonormal(
                    f"<f_{i}, f_{j}>_pi = {val!r}, expected {target}"
                )
    total = 0.0
    for f in frame:
        df = laplacian_apply(chain, f)
        total += sum(a * b * p for a, b, p in zip(df, f, pi))
    return total / len(frame)
