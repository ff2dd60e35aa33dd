import math
import random
from fractions import Fraction

import pytest

from isospec.calculus import combinatorial_laplacian, laplacian_apply, laplacian_matrix
from isospec.chains import natural_walk
from isospec.errors import ConvergenceError, FrameNotOrthonormal
from isospec.graphs import complete_graph, connected_graphs, cycle_graph, path_graph
from isospec.spectral import (
    jacobi_eigh,
    ky_fan_value,
    spectrum,
)

F = Fraction


def char_poly(matrix):
    """Exact characteristic polynomial coefficients of a rational matrix,
    highest degree first, by the Faddeev-LeVerrier recurrence."""
    n = len(matrix)
    a = [[F(x) for x in row] for row in matrix]
    coeffs = [F(1)]
    m = [[F(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        m = [[sum(a[i][t] * m[t][j] for t in range(n)) + (coeffs[-1] if i == j else 0)
              for j in range(n)] for i in range(n)]
        c = -sum(sum(a[i][t] * m[t][i] for t in range(n)) for i in range(n)) / k
        coeffs.append(c)
    return coeffs


def poly_from_roots(roots):
    out = [F(1)]
    for r in roots:
        nxt = [F(0)] * (len(out) + 1)
        for i, c in enumerate(out):
            nxt[i] += c
            nxt[i + 1] -= c * r
        out = nxt
    return out


def test_char_poly_oracle_c4(c4):
    # Delta(C_4) has spectrum {0, 1, 1, 2}
    coeffs = char_poly(laplacian_matrix(c4, "symmetric"))
    assert coeffs == poly_from_roots([F(0), F(1), F(1), F(2)])


def test_char_poly_oracle_k3(k3):
    coeffs = char_poly(laplacian_matrix(k3, "symmetric"))
    assert coeffs == poly_from_roots([F(0), F(3, 2), F(3, 2)])


def test_c4_spectrum(c4):
    rep = spectrum(c4)
    for got, want in zip(rep.lambdas, (0.0, 1.0, 1.0, 2.0)):
        assert abs(got - want) < 1e-10
    assert abs(rep.mean_lambdas[1] - 0.5) < 1e-10
    assert rep.degenerate == (False, True, True, False)


def test_k3_spectrum(k3):
    rep = spectrum(k3)
    for got, want in zip(rep.lambdas, (0.0, 1.5, 1.5)):
        assert abs(got - want) < 1e-10
    for got, want in zip(rep.alphas, (1.0, -0.5, -0.5)):
        assert abs(got - want) < 1e-10


def test_constant_ground_state_and_orthonormality():
    rng = random.Random(3)
    graphs = [cycle_graph(5), path_graph(4), complete_graph(4)]
    graphs += list(connected_graphs(5))[:6]
    for g in graphs:
        ch = natural_walk(g)
        rep = spectrum(ch)
        n = g.vertex_count
        assert abs(rep.lambdas[0]) < 1e-10
        ground = rep.eigenbasis[0]
        assert max(ground) - min(ground) < 1e-8
        pi = [float(p) for p in ch.pi]
        for i in range(n):
            fi = rep.eigenbasis[i]
            resid = laplacian_apply(ch, fi)
            err = math.sqrt(sum((r - rep.lambdas[i] * x) ** 2 * w
                                for r, x, w in zip(resid, fi, pi)))
            assert err < 1e-9
            for j in range(i, n):
                val = sum(a * b * w for a, b, w in zip(fi, rep.eigenbasis[j], pi))
                assert abs(val - (1.0 if i == j else 0.0)) < 1e-10
        # alpha_k + lambda_k = 1, trace identity, monotone means
        for lam, alp in zip(rep.lambdas, rep.alphas):
            assert abs(lam + alp - 1.0) < 1e-10
        assert abs(sum(rep.lambdas) - float(n - ch.trace())) < 1e-9
        assert all(b >= a - 1e-12 for a, b in zip(rep.mean_lambdas, rep.mean_lambdas[1:]))
        _ = rng


def test_courant_fischer_spot_check(c4):
    rng = random.Random(41)
    rep = spectrum(c4)
    pi = [float(p) for p in c4.pi]
    for _ in range(200):
        f = [rng.uniform(-1, 1) for _ in range(4)]
        mean = sum(x * w for x, w in zip(f, pi))
        f = [x - mean for x in f]
        sq = sum(x * x * w for x, w in zip(f, pi))
        if sq < 1e-12:
            continue
        df = laplacian_apply(c4, f)
        quot = sum(a * b * w for a, b, w in zip(df, f, pi)) / sq
        assert quot >= rep.lambdas[1] - 1e-9


def test_ky_fan_at_eigenframe(c4):
    rep = spectrum(c4)
    for n in range(1, 5):
        val = ky_fan_value(rep, rep.eigenbasis[:n])
        assert abs(val - rep.mean_lambdas[n - 1]) < 1e-9


def test_ky_fan_random_frames_bound(c4):
    rng = random.Random(43)
    rep = spectrum(c4)
    pi = [float(p) for p in c4.pi]

    def gram_schmidt(vectors):
        out = []
        for v in vectors:
            for u in out:
                proj = sum(a * b * w for a, b, w in zip(v, u, pi))
                v = [a - proj * b for a, b in zip(v, u)]
            norm = math.sqrt(sum(a * a * w for a, w in zip(v, pi)))
            if norm < 1e-8:
                return None
            out.append([a / norm for a in v])
        return out

    count = 0
    while count < 500:
        frame = gram_schmidt([[rng.uniform(-1, 1) for _ in range(4)] for _ in range(2)])
        if frame is None:
            continue
        count += 1
        assert ky_fan_value(rep, frame) >= 0.5 - 1e-9


def test_ky_fan_full_frame_is_trace(c4):
    rng = random.Random(47)
    rep = spectrum(c4)
    pi = [float(p) for p in c4.pi]
    vecs = [[rng.uniform(-1, 1) for _ in range(4)] for _ in range(4)]
    out = []
    for v in vecs:
        for u in out:
            proj = sum(a * b * w for a, b, w in zip(v, u, pi))
            v = [a - proj * b for a, b in zip(v, u)]
        norm = math.sqrt(sum(a * a * w for a, w in zip(v, pi)))
        out.append([a / norm for a in v])
    val = ky_fan_value(rep, out)
    assert abs(val - rep.mean_lambdas[3]) < 1e-9


def test_ky_fan_rejects_bad_frame(c4):
    rep = spectrum(c4)
    with pytest.raises(FrameNotOrthonormal):
        ky_fan_value(rep, [(1.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0)])


def test_jacobi_determinism(k33):
    a = spectrum(k33)
    b = spectrum(k33)
    assert a.lambdas == b.lambdas
    assert a.eigenbasis == b.eigenbasis


def test_jacobi_nonconvergence_reports_residual():
    with pytest.raises(ConvergenceError) as err:
        jacobi_eigh([[0.0, 1.0], [1.0, 0.0]], max_sweeps=0)
    assert err.value.residual > 0


def combinatorial_eigenvalues(cl):
    """Sorted Jacobi eigenvalues of a combinatorial Laplacian's float matrix."""
    return sorted(jacobi_eigh([[float(x) for x in row] for row in cl.matrix])[0])


def test_combinatorial_spectrum_bounds():
    for g in (path_graph(3), complete_graph(4), cycle_graph(5)):
        cl = combinatorial_laplacian(g)
        eigs = combinatorial_eigenvalues(cl)
        assert eigs[0] > -1e-9
        assert eigs[-1] <= 2 * cl.d_max + 1e-9
    # P_3: eigenvalues {0, 1, 3}
    eigs = combinatorial_eigenvalues(combinatorial_laplacian(path_graph(3)))
    for got, want in zip(eigs, (0.0, 1.0, 3.0)):
        assert abs(got - want) < 1e-9
    # K_n: eigenvalues {0, n, ..., n} exceed d_max = n-1
    eigs = combinatorial_eigenvalues(combinatorial_laplacian(complete_graph(4)))
    for got, want in zip(eigs, (0.0, 4.0, 4.0, 4.0)):
        assert abs(got - want) < 1e-9
