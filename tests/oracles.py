"""Independent oracles used by the test suite.

These deliberately avoid the library's own evaluation paths, and import
nothing from it: the Bessel function comes from its power series, the
Hilbert-Schmidt norm oracle from naive nested Riemann/Gauss sums over
explicitly built phase arrays.
"""

import math

import numpy as np


def bessel_j(order: int, x) -> np.ndarray:
    """J_order(x) by the alternating power series.

    Accurate to ~1e-12 absolute for |x| <= 12 and any modest order, which
    covers every oracle comparison in the suite (J_{-n} = (-1)^n J_n).
    """
    n = abs(int(order))
    x = np.asarray(x, dtype=float)
    half = 0.5 * x
    term = half**n / float(np.prod(np.arange(1, n + 1), dtype=float) or 1.0)
    total = term.copy()
    for k in range(1, 80):
        term = -term * half**2 / (k * (n + k))
        total += term
        if np.all(np.abs(term) <= 1e-17 * np.maximum(np.abs(total), 1e-30)):
            break
    if order < 0 and n % 2 == 1:
        total = -total
    return total


def direct_transform(field_values, grid_axes, cell_volume, point, sign=-1.0) -> complex:
    """sum_x f(x) exp(sign 2 pi i <x, point>) * cell_volume, term by term.

    The full phase array over the grid is built for the one point and
    summed, with no factorisation, reuse or out-of-box mask.
    """
    dim = len(grid_axes)
    phase = np.zeros(field_values.shape)
    for a in range(dim):
        shape = [1] * dim
        shape[a] = grid_axes[a].size
        phase = phase + grid_axes[a].reshape(shape) * point[a]
    return complex(np.sum(field_values * np.exp(sign * 2j * np.pi * phase)) * cell_volume)


def brute_force_hs_norm_sq(field_values, grid_axes, cell_volume, h_abs, targets, t_weights):
    """|h| * sum_i w_i |F(f)(target_i)|^2 with a naive direct transform.

    ``targets`` is (P, n); each transform value is a ``direct_transform``,
    so the only thing shared with the library path is the sample data
    itself.
    """
    total = 0.0
    for point, w in zip(targets, t_weights):
        total += w * abs(direct_transform(field_values, grid_axes, cell_volume, point)) ** 2
    return h_abs * total


def solve_decreasing(fn, lo, hi, target):
    """The x in [lo, hi] where the decreasing function fn equals target, by bisection."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if fn(mid) > target else (lo, mid)
    return 0.5 * (lo + hi)


def gaussian_band_fraction(modulation, cut):
    """Share of the spectral mass of exp(-pi x^2 + 2 pi i a x) in |xi| < cut: its
    density is proportional to exp(-2 pi (xi - a)^2), so the share is a pair of
    error functions."""
    s = math.sqrt(2.0 * math.pi)
    return 0.5 * (math.erf(s * (cut - modulation)) + math.erf(s * (cut + modulation)))


def gaussian_edge_moment_fraction(width, half_extent, count, power):
    """Share of sum_j |x_j|^p |f(x_j)|^2, p = power, carried by the two end
    samples x_0 = -L and x_{N-1} = L - h (h = 2 L / N) for f = exp(-pi x^2 / w^2)
    on a box that holds nearly all of it: the whole sum is taken as the integral
    over the line divided by h, Gamma((p + 1) / 2) / (alpha^((p + 1) / 2) h)
    with alpha = 2 pi / w^2."""
    h, alpha = 2.0 * half_extent / count, 2.0 * math.pi / width**2
    ends = [half_extent, half_extent - h]
    edge = sum(x**power * math.exp(-alpha * x * x) for x in ends)
    return h * edge * alpha ** ((power + 1) / 2) / math.gamma((power + 1) / 2)


def peter_weyl_blocks(values, weights, irreps, inverses):
    """phihat(sigma) = sum_k w_k values[..., k] sigma(k^{-1}), one irrep at a time.

    ``irreps`` lists the (|K|, d, d) arrays sigma(k) and ``inverses[k]`` is
    the label of k^{-1}; each block is one tensordot over the trailing group
    axis, giving a list of (..., d, d) arrays with no shared kernel matrix.
    """
    return [np.tensordot(values * weights, m[inverses], axes=(-1, 0)) for m in irreps]


def group_irreps(group):
    """(irreps, inverses) of a K type, read off its own data.

    A finite group gives its shipped matrices and the inverses found in its
    table.  The sampled circle gives the characters e^{i m theta},
    |m| <= truncation, as (samples, 1, 1) arrays, with theta_k^{-1} the
    sample theta_{-k mod n}.
    """
    if hasattr(group, "irreps"):
        return group.irreps, group.inverses()
    modes = range(-group.truncation, group.truncation + 1)
    chars = [np.exp(1j * m * group.thetas).reshape(-1, 1, 1) for m in modes]
    return chars, -np.arange(group.order) % group.order


def plane_wave(lam, z1, z2, gamma):
    """exp(-i lam (z1 cos gamma - z2 sin gamma)), the motion-group kernel
    sampled at rotation angles gamma (arrays broadcast)."""
    return np.exp(-1j * lam * (z1 * np.cos(gamma) - z2 * np.sin(gamma)))


def circle_samples(modes, planes, n_theta):
    """f(z, theta_k) = sum_j planes[..., j] e^{i modes[j] theta_k} at the n_theta
    points theta_k = 2 pi k / n_theta: the samples of a motion field held as
    its circle modes, by one explicit sum over the modes (no FFT)."""
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    return planes @ np.exp(1j * np.outer(modes, theta))


def circle_average_transform_sq(planes, grid_axes, cell_volume, lam, n_theta):
    """sum_m mean_j |C_m(lam (cos g_j, -sin g_j) / 2 pi)|^2 over the n_theta
    angles g_j = 2 pi j / n_theta, C_m the ``direct_transform`` of the plane
    planes[..., m]: the HS norm of the motion transform at lam summed over all
    n_theta circle modes, by Parseval over the circle grid.

    Each angle's point is transformed on its own, with no factorisation of the
    plane wave, no reflection table and no out-of-box mask.
    """
    total = 0.0
    for m in range(planes.shape[-1]):
        for g in 2.0 * np.pi * np.arange(n_theta) / n_theta:
            point = lam * np.array([np.cos(g), -np.sin(g)]) / (2.0 * np.pi)
            total += abs(direct_transform(planes[..., m], grid_axes, cell_volume, point)) ** 2
    return total / n_theta


def brute_force_motion_ft(values, z1, z2, lam, m_max):
    """Truncated motion-group transform F[m, m'] by an explicit nested sum.

    F[m, m'] = h^2 sum_{z, k, j} f(z, theta_k) e^{-i m theta_k}
               exp(-i lam (z1 cos g_j - z2 sin g_j)) e^{-i (m - m') g_j} / n^2

    with theta_k = g_k = 2 pi k / n on the n-point circle grid: the full
    plane wave is built over (z1, z2, theta, gamma) for every entry, with no
    FFT and no factorisation of the exponential.  An angle whose wave has a
    frequency |lam cos g_j| / 2 pi or |lam sin g_j| / 2 pi beyond the
    Nyquist frequency 1 / (2 h) of its axis contributes 0, as the grid
    cannot tell it from its aliases.
    """
    n = values.shape[-1]
    ang = 2.0 * np.pi * np.arange(n) / n
    TH = ang[None, None, :, None]
    GA = ang[None, None, None, :]
    wave = plane_wave(lam, z1[:, None, None, None], z2[None, :, None, None], GA)
    for z, trig in ((z1, np.cos), (z2, np.sin)):
        wave = np.where(abs(lam * trig(GA)) / (2.0 * np.pi) > 0.5 / (z[1] - z[0]), 0.0, wave)
    f = values[..., None]
    h2 = (z1[1] - z1[0]) * (z2[1] - z2[0])
    side = 2 * m_max + 1
    out = np.zeros((side, side), dtype=complex)
    for r, m in enumerate(range(-m_max, m_max + 1)):
        for c, mp in enumerate(range(-m_max, m_max + 1)):
            terms = f * np.exp(-1j * m * TH) * wave * np.exp(-1j * (m - mp) * GA)
            out[r, c] = np.sum(terms) * h2 / n**2
    return out


def circle_mode_motion_ft(modes, planes, z1, z2, lam, m_max, n_theta):
    """Truncated motion-group transform F[m, m'] of a field held as its circle
    modes (planes[..., j] = c_{modes[j]}), term by term.

    Per held mode |m| <= m_max and angle g_k = 2 pi k / n_theta the plane
    wave is summed against the plane, S[m, k] = h^2 sum_z c_m(z)
    plane_wave(lam, z1, z2, g_k), and a plain circle DFT, an explicit sum
    over k, gives F[m, m'] = sum_k e^{-i (m - m') g_k} S[m, k] / n_theta: no
    FFT, no factorisation of the wave and no reflection table.  An angle
    whose wave has a frequency beyond the Nyquist frequency 1 / (2 h) of
    either axis contributes 0, as the grid cannot tell it from its aliases.
    Rows of modes not held are 0.
    """
    gam = 2.0 * np.pi * np.arange(n_theta) / n_theta
    wave = plane_wave(lam, z1[:, None, None], z2[None, :, None], gam)
    for z, trig in ((z1, np.cos), (z2, np.sin)):
        wave = np.where(abs(lam * trig(gam)) / (2.0 * np.pi) > 0.5 / (z[1] - z[0]), 0.0, wave)
    h2 = (z1[1] - z1[0]) * (z2[1] - z2[0])
    out = np.zeros((2 * m_max + 1, 2 * m_max + 1), dtype=complex)
    for j, m in enumerate(modes):
        if abs(m) > m_max:
            continue
        s = h2 * np.sum(planes[..., j, None] * wave, axis=(0, 1))
        for c, mp in enumerate(range(-m_max, m_max + 1)):
            out[m + m_max, c] = np.sum(np.exp(-1j * (m - mp) * gam) * s) / n_theta
    return out


def brute_force_tail_fraction(values, half_extents, weights, lam_max):
    """Spectral mass at radii |xi| > lam_max / (2 pi) by explicit per-slice DFTs.

    Each circle slice values[:, :, k] is transformed with dense phase
    matrices exp(-2 pi i xi x) between the box nodes x_j = -L + 2 L j / N
    and the dual nodes xi_k = -N / (4 L) + k / (2 L); the density is the
    weights-weighted sum of the slices' squared moduli, masked by radius.
    No FFT, no circle-mode decomposition and no library code is involved.
    """
    n1, n2, n_theta = values.shape
    phases = []
    for L, N in zip(half_extents, (n1, n2)):
        x = -L + (2.0 * L / N) * np.arange(N)
        xi = -N / (4.0 * L) + np.arange(N) / (2.0 * L)
        phases.append((xi, np.exp(-2j * np.pi * np.outer(xi, x))))
    (xi1, e1), (xi2, e2) = phases
    dens = np.zeros((n1, n2))
    for k in range(n_theta):
        dens += weights[k] * np.abs(e1 @ values[:, :, k] @ e2.T) ** 2
    outside = xi1[:, None] ** 2 + xi2[None, :] ** 2 > (lam_max / (2.0 * np.pi)) ** 2
    return float(dens[outside].sum() / dens.sum())


def dense_box_transform(values, half_extents, inverse=False):
    """Box transform of the leading len(half_extents) axes by one dense matrix.

    With x_j = -L + 2 L j / N and xi_k = -N / (4 L) + k / (2 L) per axis,
    the forward transform is sum_j values[j] exp(-2 pi i <x_j, xi_k>) times
    the cell volume prod(2 L / N); the inverse maps dual samples back with
    exp(+2 pi i <x_j, xi_k>) times the dual cell volume prod(1 / (2 L)).
    ``half_extents`` are the primal L in both directions.  The phase matrix
    couples every grid point with every dual point, so no FFT, roll or
    per-axis factorisation is involved.  Trailing (group) axes are carried
    along column by column in their original order.
    """
    dim = len(half_extents)
    counts = values.shape[:dim]
    x, xi = [], []
    for L, N in zip(half_extents, counts):
        x.append(-L + (2.0 * L / N) * np.arange(N))
        xi.append(-N / (4.0 * L) + np.arange(N) / (2.0 * L))
    pts_x = np.stack(np.meshgrid(*x, indexing="ij"), axis=-1).reshape(-1, dim)
    pts_xi = np.stack(np.meshgrid(*xi, indexing="ij"), axis=-1).reshape(-1, dim)
    if inverse:
        matrix = np.exp(2j * np.pi * pts_x @ pts_xi.T)
        volume = np.prod([1.0 / (2.0 * L) for L in half_extents])
    else:
        matrix = np.exp(-2j * np.pi * pts_xi @ pts_x.T)
        volume = np.prod([2.0 * L / N for L, N in zip(half_extents, counts)])
    flat = values.reshape(matrix.shape[1], -1)
    return (matrix @ flat * volume).reshape(values.shape)


def centred_fft_out_of_place(values, dim, scale, inverse=False):
    """fftshift(fftn | ifftn(fftshift(values))) * scale over the leading
    ``dim`` axes, every step into a fresh array.

    Each roll, the transform and the scale allocate their own output, so
    this is the reference an in-place centred transform must match bit for
    bit.  Trailing (group) axes are left alone.
    """
    axes = tuple(range(dim))
    transform = np.fft.ifftn if inverse else np.fft.fftn
    return np.fft.fftshift(transform(np.fft.fftshift(values, axes), axes=axes), axes) * scale


def symmetric_group_3():
    """(table, irreps) of S_3 as the dihedral group of the triangle.

    Elements 0..5 are e, r, r^2, s, sr, sr^2 with r the rotation by 2 pi/3
    and s a reflection; the table comes from composing the underlying
    permutations of {0,1,2}, the 2-dim irrep from the rotation/reflection
    matrices themselves.  Irrep dims (1, 1, 2), each a (6, d, d) array.
    """
    r = (1, 2, 0)
    s = (0, 2, 1)

    def compose(p, q):  # (p o q)(i) = p[q[i]]
        return tuple(p[q[i]] for i in range(3))

    perms = [(0, 1, 2), r, compose(r, r)]
    perms += [compose(s, p) for p in perms[:3]]
    index = {p: i for i, p in enumerate(perms)}
    table = np.array([[index[compose(p, q)] for q in perms] for p in perms])

    def rot(t):
        return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])

    ref = np.diag([1.0, -1.0])
    two_dim = [np.eye(2), rot(2 * np.pi / 3), rot(4 * np.pi / 3)]
    two_dim += [ref @ m for m in two_dim[:3]]

    trivial = np.ones((6, 1, 1), dtype=complex)
    sign = np.array([1, 1, 1, -1, -1, -1], dtype=complex).reshape(6, 1, 1)
    standard = np.stack(two_dim).astype(complex)
    return table, [trivial, sign, standard]


def cyclic_group(n):
    """(table, irreps) of Z_n: addition mod n and the n characters
    chi_k(m) = e^{2 pi i km/n}, each an (n, 1, 1) array."""
    table = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    irreps = [np.exp(2j * np.pi * k * np.arange(n) / n).reshape(n, 1, 1) for k in range(n)]
    return table, irreps


def threadlike_brackets(n):
    """Structure constants c[i, j, k] (0-based) of the filiform algebra
    [X_n, X_j] = X_{j-1}, 2 <= j <= n-1 (the Heisenberg algebra at n = 3)."""
    c = np.zeros((n, n, n))
    for j in range(2, n):  # 1-based j in [2, n-1]
        c[n - 1, j - 1, j - 2] = 1.0
        c[j - 1, n - 1, j - 2] = -1.0
    return c
