"""Band-analytic function algebra, triangular-cocycle closed forms and
the Schrodinger-form reduction iteration.

Band norms are the Fourier-coefficient majorant sum |f_k| e^{2 pi eps |k|}
(``cocycle.strip_majorant``, as are the mode sum and the 2x2 adjugate),
an upper bound for the sup of |f| on the strip |Im x| <= eps that is
exact to compute for trigonometric polynomials; all contraction
arguments survive under any submultiplicative dominating norm.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .arithmetic import torus_norm
from .cocycle import Potential, adjugate, herm_eigs, mode_sum, strip_majorant

MODE_DROP_REL = 1e-16
LOG_GUARD = math.log(2.0)
CONTRACTION_GUARD = 1e3


class NotContracting(RuntimeError):
    """The reduction iteration lost its superlinear contraction."""


# ---------------------------------------------------------------------------
# band functions


@dataclass(frozen=True)
class BandFunction:
    """Finite Fourier series with a band parameter for its norm."""

    coeffs: dict
    band: float

    def norm(self) -> float:
        """Majorant band norm: sum |f_k| e^{2 pi band |k|}."""
        return float(strip_majorant(list(self.coeffs), list(self.coeffs.values()), self.band))

    def __call__(self, x):
        out = mode_sum(self.coeffs, x)
        return out if np.ndim(x) else complex(out[()])

    def to_grid(self, n: int) -> np.ndarray:
        spec = np.zeros(n, dtype=complex)
        for k, c in self.coeffs.items():
            spec[k % n] += c
        return np.fft.ifft(spec) * n

    @classmethod
    def from_grid(cls, values: np.ndarray, band: float,
                  rel: float = MODE_DROP_REL) -> "BandFunction":
        """Coefficients from an equispaced grid on [0,1): the noise-floored
        spectrum (``_spectrum``), less the modes whose majorant term is
        below ``rel`` of the band norm."""
        k, spec = _spectrum(values)
        terms = strip_majorant(k[None], spec[None], band)  # one term per mode
        keep = (spec != 0) & (terms >= rel * terms.sum())
        return cls(dict(zip(k[keep].tolist(), spec[keep].tolist())), band)

    @classmethod
    def constant(cls, c, band: float) -> "BandFunction":
        return cls({0: complex(c)} if c != 0 else {}, band)


def _spectrum(values: np.ndarray):
    """Fourier coefficients of equispaced grid values on [0, 1), along
    axis 0: the modes k (FFT order, n // 2 positive) and the coefficients,
    shaped like ``values``.  Coefficients below the noise floor (1e-13 of
    the largest of their column, or 1e-14 absolute for O(1) inputs) are
    FFT roundoff, not signal; they are zeroed before the exponential band
    weight can amplify them."""
    n = len(values)
    spec = np.fft.fft(values, axis=0) / n
    mag = np.abs(spec)
    spec[mag < np.maximum(1e-13 * mag.max(axis=0), 1e-14)] = 0.0
    k = np.arange(n)
    k[n // 2 + 1:] -= n
    return k, spec


def _grid_shift(values: np.ndarray, dx: float) -> np.ndarray:
    """Evaluate the band-limited interpolant of grid values at x + dx,
    along axis 0 (a whole stack of 2x2 grids at once)."""
    n = len(values)
    k = np.fft.fftfreq(n, d=1.0 / n).reshape((n,) + (1,) * (values.ndim - 1))
    return np.fft.ifft(np.fft.fft(values, axis=0) * np.exp(2j * np.pi * k * dx), axis=0)


@dataclass(frozen=True)
class MatFunction:
    """2x2 matrix of band functions on R/Z."""

    entries: tuple
    band: float

    def __call__(self, x) -> np.ndarray:
        return np.array([[self.entries[0][0](x), self.entries[0][1](x)],
                         [self.entries[1][0](x), self.entries[1][1](x)]])

    def eval_grid(self, n: int) -> np.ndarray:
        out = np.empty((n, 2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                out[:, i, j] = self.entries[i][j].to_grid(n)
        return out

    def norm(self) -> float:
        return max(self.entries[i][j].norm() for i in range(2) for j in range(2))

    @classmethod
    def from_grid(cls, values: np.ndarray, band: float,
                  rel: float = MODE_DROP_REL) -> "MatFunction":
        ent = tuple(tuple(BandFunction.from_grid(values[:, i, j], band, rel)
                          for j in range(2)) for i in range(2))
        return cls(ent, band)


def certified_min_abs(p: Potential, band: float, grid: int = 4096) -> float:
    """Certified lower bound for |p| on the strip |Im x| <= band.

    min over a grid on the strip boundary and the real axis, minus a
    Lipschitz correction from the coefficient majorant of p'.  For
    zero-free p the maximum principle (applied to 1/p) localises the
    minimum of |p| on the boundary; sampling the real axis additionally
    catches the real zeros of hermitian symbols, which is where zeros
    appear first for the thin bands used here.
    """
    xs = np.arange(grid) / grid
    vals = np.concatenate([p(xs + 1j * band), p(xs - 1j * band),
                           np.asarray(p(xs), dtype=complex)])
    ks, cs = np.array(list(p.coeffs)), np.array(list(p.coeffs.values()))
    lip = strip_majorant(ks, 2 * np.pi * ks * cs, band)  # the majorant of p'
    return float(np.min(np.abs(vals)) - lip / (2 * grid))


# ---------------------------------------------------------------------------
# 2x2 matrix log / exp on grids (Cayley-Hamilton closed forms)


def _sinhc(mu: np.ndarray) -> np.ndarray:
    """sinh(mu)/mu with the removable singularity filled by series."""
    small = np.abs(mu) < 1e-6
    safe = np.where(small, 1.0, mu)
    out = np.sinh(safe) / safe
    return np.where(small, 1.0 + mu * mu / 6.0, out)


def mat_exp_grid(s: np.ndarray) -> np.ndarray:
    """exp of traceless 2x2 matrices, batched over the leading axis."""
    det = s[:, 0, 0] * s[:, 1, 1] - s[:, 0, 1] * s[:, 1, 0]
    mu = np.sqrt(-det + 0j)
    c = np.cosh(mu)
    f = _sinhc(mu)
    out = f[:, None, None] * s
    out[:, 0, 0] += c
    out[:, 1, 1] += c
    return out


def mat_log_grid(m: np.ndarray) -> np.ndarray:
    """Principal log of 2x2 matrices with det ~ 1, near the identity.

    Valid for ||log|| < ln 2; the caller guards.  Roundoff in det is
    removed by dividing by the principal square root of det first.
    """
    det = m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
    m = m / np.sqrt(det + 0j)[:, None, None]
    t = 0.5 * (m[:, 0, 0] + m[:, 1, 1])
    mu = np.log(t + np.sqrt(t - 1 + 0j) * np.sqrt(t + 1 + 0j))
    w = (m - np.cosh(mu)[:, None, None] * np.eye(2)) / _sinhc(mu)[:, None, None]
    # project exactly traceless (kills residual roundoff)
    tr = 0.5 * (w[:, 0, 0] + w[:, 1, 1])
    w[:, 0, 0] -= tr
    w[:, 1, 1] -= tr
    return w


# ---------------------------------------------------------------------------
# triangular cocycle closed forms


@dataclass(frozen=True)
class TriangularCocycle:
    """Constant-diagonal triangular cocycle step
    [[e^{2 pi i theta}, t_hat e^{2 pi i r x}], [0, e^{-2 pi i theta}]]."""

    theta: float
    alpha: float
    r: int
    t_hat: complex
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")

    @property
    def delta(self) -> float:
        """r alpha - 2 theta reduced to [-1/2, 1/2]: the closed forms read
        it only through 1-periodic functions, and an unreduced d puts
        sin(4 pi k d) at an argument of thousands, with that many times
        the rounding of d."""
        d = self.r * self.alpha - 2.0 * self.theta
        return d - round(d)


@dataclass(frozen=True)
class TXRecord:
    """X = sum_{j=1}^k T*_{2j-1} T_{2j-1} summarised: X = [[k, x1],[x1*, x2]]."""

    x1: complex
    x2: float
    detX: float
    normX: float
    invnormX: float


def _tx_record(k: int, x1: complex, x2: float) -> TXRecord:
    # det(T* T) = |det T|^2 = 1: exact at k = 1, no roundoff allowed through
    det = 1.0 if k == 1 else k * x2 - abs(x1) ** 2
    low, high = herm_eigs(k, x1, x2)
    return TXRecord(x1=x1, x2=x2, detX=det, normX=high, invnormX=max(low, 0.0))


def tx_closed_form(tc: TriangularCocycle, x: float) -> TXRecord:
    """Closed forms for the entries of X.

    Near delta = 0 (mod 1) the geometric sums degenerate and the
    analytic limits (sums of squares of odd integers) are used; near
    delta = 1/2 the half-angle sums are evaluated termwise to avoid the
    0/0 in the sine-ratio display.
    """
    k = tc.k
    t = tc.t_hat
    d = tc.delta
    front = cmath.exp(2j * math.pi * (tc.r * x - tc.theta))
    if torus_norm(d) < 1e-12:
        x1 = t * front * (k * k)
        x2 = k + abs(t) ** 2 * k * (4 * k * k - 1) / 3.0
        return _tx_record(k, x1, x2)
    q = cmath.exp(2j * math.pi * d)
    if abs(q * q - 1.0) > 1e-8:
        geom = q * (q ** (2 * k) - 1.0) / (q * q - 1.0)
    else:
        geom = sum(q ** (2 * j - 1) for j in range(1, k + 1))
    x1 = t / (q - 1.0) * front * (geom - k)
    s2 = math.sin(2 * math.pi * d)
    if abs(s2) > 1e-9:
        x2 = k * (1.0 + 2.0 * abs(t) ** 2 / abs(q - 1.0) ** 2
                  * (1.0 - math.sin(4 * math.pi * k * d) / (2 * k * s2)))
    else:
        sp = math.sin(math.pi * d)
        x2 = k + abs(t) ** 2 * sum(
            (math.sin(math.pi * (2 * j - 1) * d) / sp) ** 2 for j in range(1, k + 1))
    return _tx_record(k, x1, float(x2))


def tx_bruteforce(tc: TriangularCocycle, x: float) -> TXRecord:
    """Direct product-and-sum oracle for X (guard: k <= 1e6).

    Iterates T_{j+1} = T(x + j alpha) T_j explicitly; the diagonal stays
    unimodular so only the unit u_j = e^{2 pi i j theta} and the corner
    b_j are tracked.
    """
    if tc.k > 10**6:
        raise ValueError("k too large for brute force")
    p = cmath.exp(2j * math.pi * tc.theta)
    two_pi_r = 2j * math.pi * tc.r
    u = p
    b = tc.t_hat * cmath.exp(two_pi_r * x)
    x1 = u.conjugate() * b
    x2 = 1.0 + abs(b) ** 2
    for j in range(1, 2 * tc.k - 1):
        tval = tc.t_hat * cmath.exp(two_pi_r * (x + j * tc.alpha))
        b = p * b + tval * u.conjugate()
        u = p * u
        if j % 2 == 0:  # j steps done -> T_{j+1}, odd index
            x1 += u.conjugate() * b
            x2 += 1.0 + abs(b) ** 2
    return _tx_record(tc.k, x1, float(x2))


@dataclass(frozen=True)
class AsymptoticsRecord:
    norm_ratio: float
    inv_ratio: float


def tx_asymptotics_check(tc: TriangularCocycle, x: float) -> AsymptoticsRecord:
    """||X|| against k (1 + |t|^2 min{k^2, ||2theta - r alpha||^{-2}})
    and ||X^{-1}||^{-1} against k."""
    if tc.k < 2:
        raise ValueError("k must be >= 2")
    rec = tx_closed_form(tc, x)
    dist = torus_norm(tc.delta)
    inv2 = math.inf if dist == 0 else dist ** -2
    comparison = tc.k * (1.0 + abs(tc.t_hat) ** 2 * min(tc.k ** 2, inv2))
    return AsymptoticsRecord(norm_ratio=rec.normX / comparison,
                             inv_ratio=rec.invnormX / tc.k)


# ---------------------------------------------------------------------------
# Schrodinger-form reduction


@dataclass(frozen=True)
class ReductionResult:
    v_out: Potential
    B: MatFunction
    residual: float
    w_norms: tuple[float, ...]
    contraction_ratios: tuple[float, ...]
    iterations: int
    imag_asym: float


def _schrodinger_grid(vg: np.ndarray) -> np.ndarray:
    """The steps [[v, -1], [1, 0]] at the grid values vg, shape (len(vg), 2, 2)."""
    S = np.zeros((len(vg), 2, 2), dtype=complex)
    S[:, 0, 0] = vg
    S[:, 0, 1] = -1.0
    S[:, 1, 0] = 1.0
    return S


def _band_norms_from_grid(values: np.ndarray, band: float) -> float:
    """Max over the entries of a (grid, 2, 2) stack of the
    coefficient-majorant band norm of the noise-floored spectrum."""
    k, spec = _spectrum(values)
    return float(strip_majorant(k[:, None, None], spec, band).max())


def schrodinger_reduction(A: MatFunction, v: Potential, alpha: float, band: float,
                          max_iter: int = 12, tol: float = 1e-12,
                          grid: int = 512) -> ReductionResult:
    """Iteratively conjugate A back to Schrodinger form [[v', -1], [1, 0]].

    Writes A = A^{(v)} e^w, applies the explicit shear update

        s2 = w2 + w1/v,   s3(x) = -w1(x-a)/v(x-a),
        v~ = v - w3 + w2(x+a) + w1(x+a)/v(x+a) + v w1 - w1(x-a)/v(x-a),

    and replaces A by e^{s(x+a)} A(x) e^{-s(x)}, which is A^{(v~)} e^{w~}
    with ||w~|| = O(||w||^2).  Stops when ||w|| < tol; raises
    NotContracting when ||w~|| > 1e3 ||w||^{3/2} twice in a row.

    Division by v requires a certified bound: |v| >= 1e-6 on the band.
    """
    bound = certified_min_abs(v, band)
    if bound < 1e-6:
        raise ValueError(f"certified min |v| on the band is {bound:.2e} < 1e-6; "
                         "reduction refuses to divide")
    xs = np.arange(grid) / grid
    A0 = A.eval_grid(grid)
    Ag = A0.copy()
    vgrid = np.asarray(v(xs), dtype=float)
    B = np.tile(np.eye(2, dtype=complex), (grid, 1, 1))
    W = mat_log_grid(adjugate(_schrodinger_grid(vgrid)) @ Ag)
    wn = _band_norms_from_grid(W, band)
    w_norms = [wn]
    ratios: list[float] = []
    strikes = 0
    it = 0
    imag_asym = 0.0
    while wn >= tol and it < max_iter:
        if wn > LOG_GUARD:
            raise ValueError(f"||w|| = {wn:.3e} outside the matrix-log domain (< ln 2)")
        w1 = W[:, 0, 0]
        w2 = W[:, 0, 1]
        w3 = W[:, 1, 0]
        r = w1 / vgrid
        s = np.zeros((grid, 2, 2), dtype=complex)
        s[:, 0, 1] = w2 + r
        s[:, 1, 0] = -_grid_shift(r, -alpha)
        s_plus = _grid_shift(s, alpha)
        # s_plus[:, 0, 1] = w2(x + a) + r(x + a) and s[:, 1, 0] = -r(x - a)
        vt = vgrid - w3 + s_plus[:, 0, 1] + vgrid * w1 + s[:, 1, 0]
        imag_asym = max(imag_asym, float(np.max(np.abs(vt.imag))))
        Ag = mat_exp_grid(s_plus) @ Ag @ mat_exp_grid(-s)
        B = mat_exp_grid(s) @ B
        vgrid = vt.real
        W = mat_log_grid(adjugate(_schrodinger_grid(vgrid)) @ Ag)
        wn_new = _band_norms_from_grid(W, band)
        ratios.append(wn_new / wn ** 2 if wn > 0 else 0.0)
        if wn_new > CONTRACTION_GUARD * wn ** 1.5:
            strikes += 1
            if strikes >= 2:
                raise NotContracting(
                    f"||w|| sequence {w_norms + [wn_new]} lost quadratic contraction")
        else:
            strikes = 0
        wn = wn_new
        w_norms.append(wn)
        it += 1

    vf = BandFunction.from_grid(vgrid.astype(complex), band)
    vcoeffs = {k: 0.5 * (c + vf.coeffs.get(-k, 0.0).conjugate())
               for k, c in vf.coeffs.items()}
    v_out = Potential.trig(vcoeffs)
    # B is a product of exponentials of traceless matrices: det B = 1
    conj = _grid_shift(B, alpha) @ A0 @ adjugate(B)
    target = _schrodinger_grid(np.asarray(v_out(xs), dtype=float))
    residual = float(np.max(np.linalg.norm(conj - target, 2, axis=(1, 2))))
    return ReductionResult(
        v_out=v_out, B=MatFunction.from_grid(B, band), residual=residual,
        w_norms=tuple(w_norms), contraction_ratios=tuple(ratios),
        iterations=it, imag_asym=imag_asym)


def perturbed_schrodinger(v: Potential, w_entries, band: float,
                          grid: int = 512) -> MatFunction:
    """A^{(v)} e^w for a traceless w given as three band functions
    (w1, w2, w3); convenience builder for reduction experiments."""
    xs = np.arange(grid) / grid
    w = np.zeros((grid, 2, 2), dtype=complex)
    w1, w2, w3 = w_entries
    w[:, 0, 0] = w1(xs)
    w[:, 0, 1] = w2(xs)
    w[:, 1, 0] = w3(xs)
    w[:, 1, 1] = -w[:, 0, 0]
    ew = mat_exp_grid(w)
    return MatFunction.from_grid(_schrodinger_grid(np.asarray(v(xs), dtype=float)) @ ew, band)
