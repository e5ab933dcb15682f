"""Band-analytic function algebra, triangular-cocycle closed forms,
the Schrodinger-form reduction iteration, and constant-cocycle
normalisation.

Band norms are the Fourier-coefficient majorant sum |f_k| e^{2 pi eps |k|}
(``cocycle.strip_majorant``, as are the mode sum and the 2x2 adjugate),
an upper bound for the sup of |f| on the strip |Im x| <= eps that is
exact to compute for trigonometric polynomials; all contraction
arguments survive under any submultiplicative dominating norm.  The
sup on a real grid is also available for diagnostics.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .arithmetic import torus_norm
from .cocycle import Potential, adjugate, mode_sum, strip_majorant

MODE_DROP_REL = 1e-16
LOG_GUARD = math.log(2.0)
TILDE_T_CONSTANT = 1.0 / 16.0  # implemented c of the perturbation premise
CONTRACTION_GUARD = 1e3


class NotContracting(RuntimeError):
    """The reduction iteration lost its superlinear contraction."""


class NotUnimodular(ValueError):
    """Input matrix determinant is not 1 within tolerance."""


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

    def shifted(self, dx: float) -> "BandFunction":
        return BandFunction({k: c * cmath.exp(2j * math.pi * k * dx)
                             for k, c in self.coeffs.items()}, self.band)

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

    def to_json(self) -> dict:
        ent = []
        for i in range(2):
            for j in range(2):
                f = self.entries[i][j]
                ent.append([[k, c.real, c.imag] for k, c in sorted(f.coeffs.items())])
        return {"band": self.band, "entries": ent}

    @classmethod
    def from_json(cls, obj: dict) -> "MatFunction":
        band = obj["band"]
        funcs = [BandFunction({int(k): complex(re, im) for k, re, im in e}, band)
                 for e in obj["entries"]]
        return cls(((funcs[0], funcs[1]), (funcs[2], funcs[3])), band)


def schrodinger_matfunction(p: Potential, band: float) -> MatFunction:
    """The cocycle map [[p(x), -1], [1, 0]] as a MatFunction."""
    return MatFunction((
        (BandFunction(dict(p.coeffs), band), BandFunction.constant(-1.0, band)),
        (BandFunction.constant(1.0, band), BandFunction.constant(0.0, band)),
    ), band)


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
        return self.r * self.alpha - 2.0 * self.theta

    def step(self, x: float) -> np.ndarray:
        p = cmath.exp(2j * math.pi * self.theta)
        return np.array([[p, self.t_hat * cmath.exp(2j * math.pi * self.r * x)],
                         [0.0, p.conjugate()]])


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
    half = 0.5 * (k + x2)
    disc = math.sqrt(max(0.25 * (k - x2) ** 2 + abs(x1) ** 2, 0.0))
    return TXRecord(x1=x1, x2=x2, detX=det, normX=half + disc,
                    invnormX=max(half - disc, 0.0))


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


def tx_det_display(tc: TriangularCocycle) -> float:
    """The displayed determinant closed form, for cross-checking.

    Falls back to the entrywise record when the sine ratio degenerates
    (delta within 1e-9 of a half-integer).
    """
    k, t, d = tc.k, tc.t_hat, tc.delta
    if torus_norm(d) < 1e-12:
        return k * k * (1.0 + abs(t) ** 2 * (k * k - 1.0) / 3.0)
    s2 = math.sin(2 * math.pi * d)
    if abs(s2) <= 1e-9:
        return tx_closed_form(tc, 0.0).detX
    q = cmath.exp(2j * math.pi * d)
    ratio = math.sin(2 * math.pi * k * d) / (k * s2)
    return k * k * (1.0 + abs(t) ** 2 / abs(q - 1.0) ** 2 * (1.0 - ratio ** 2))


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


def tx_entry_formula(tc: TriangularCocycle, x: float, j: int) -> complex:
    """Displayed corner entry t_j of the iterate T_j."""
    d = tc.delta
    q = cmath.exp(2j * math.pi * d)
    if abs(q - 1.0) < 1e-12:
        ratio = complex(j)
    else:
        ratio = (q ** j - 1.0) / (q - 1.0)
    return tc.t_hat * cmath.exp(2j * math.pi * (tc.r * x + (j - 1) * tc.theta)) * ratio


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


@dataclass(frozen=True)
class PerturbationRecord:
    lhs: float            # ||X~ - X|| at x
    premise: float        # ||T~ - T||_0 over a phase grid
    threshold: float      # c k^{-2} (1 + 2k ||t||_0)^{-2}
    premise_ok: bool
    holds: bool           # lhs <= 1


def triangular_matfunction(tc: TriangularCocycle, band: float = 0.0) -> MatFunction:
    p = cmath.exp(2j * math.pi * tc.theta)
    return MatFunction((
        (BandFunction.constant(p, band), BandFunction({tc.r: complex(tc.t_hat)}, band)),
        (BandFunction.constant(0.0, band), BandFunction.constant(p.conjugate(), band)),
    ), band)


def perturbation_bound_check(tc: TriangularCocycle, x: float,
                             Ttilde: MatFunction, grid: int = 512) -> PerturbationRecord:
    """Check ||X~ - X|| <= 1 under the premise ||T~ - T||_0 small.

    The implemented premise constant is c = 1/16 (the paper's c is
    non-effective); the record reports both sides so sweeps can locate
    the empirical threshold.
    """
    X = tx_bruteforce(tc, x)
    Xmat = np.array([[tc.k, X.x1], [X.x1.conjugate(), X.x2]])
    M = np.eye(2, dtype=complex)
    Xt = np.zeros((2, 2), dtype=complex)
    for j in range(2 * tc.k - 1):
        M = Ttilde(x + j * tc.alpha) @ M
        if j % 2 == 0:
            Xt += M.conj().T @ M
    lhs = np.linalg.norm(Xt - Xmat, 2)
    sup = max((np.linalg.norm(Ttilde(xv) - tc.step(xv), 2) for xv in np.arange(grid) / grid),
              default=0.0)
    t0 = abs(tc.t_hat)
    threshold = TILDE_T_CONSTANT * tc.k ** -2 * (1.0 + 2.0 * tc.k * t0) ** -2
    return PerturbationRecord(lhs=float(lhs), premise=float(sup),
                              threshold=float(threshold),
                              premise_ok=bool(sup <= threshold),
                              holds=bool(lhs <= 1.0))


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


# ---------------------------------------------------------------------------
# constant-cocycle normalisation


def rotation(t: float) -> np.ndarray:
    c, s = math.cos(2 * math.pi * t), math.sin(2 * math.pi * t)
    return np.array([[c, -s], [s, c]])


def companion(E: float) -> np.ndarray:
    return np.array([[E, -1.0], [1.0, 0.0]])


def _c_theta(theta: float) -> np.ndarray:
    """The explicit conjugator with C_theta R_theta C_theta^{-1} companion;
    requires sin(2 pi theta) in (0, 1)."""
    s = math.sin(2 * math.pi * theta)
    c = math.cos(2 * math.pi * theta)
    if not (0.0 < s < 1.0):
        raise ValueError("sin(2 pi theta) must lie in (0,1)")
    inv = np.array([[0.0, -s], [1.0, -c]]) / math.sqrt(s)
    return np.linalg.inv(inv)


def _shift_mode(theta: float, alpha: float, max_k: int = 10000) -> int:
    """Smallest |k| (positive first) with sin(2 pi (theta + k alpha)) in (0,1)."""
    for mag in range(0, max_k + 1):
        for k in ([0] if mag == 0 else [mag, -mag]):
            s = math.sin(2 * math.pi * (theta + k * alpha))
            if 0.0 < s < 1.0:
                return k
    raise RuntimeError("no admissible rotation shift found")


@dataclass(frozen=True)
class Normalization:
    """Conjugation data bringing a constant SL(2,R) matrix to companion
    form [[E, -1], [1, 0]].

    The full conjugator is C(x) = pre @ R_{mode * x} @ post; for the
    parabolic case ``post`` must additionally be left-multiplied by the
    Jordan shrinker [[eps, 0], [eps, 1/eps]] with a caller-supplied
    schedule eps_n (the defect decay rate fixes the admissible schedule,
    which the source construction leaves open).
    """

    kind: str                 # 'hyperbolic' | 'elliptic' | 'parabolic'
    pre: np.ndarray
    mode: int
    post: np.ndarray
    energy: float | None
    theta: float | None
    jordan_scale: float | None = None   # off-diagonal of the Jordan form

    def conjugator(self, x: float, eps: float | None = None) -> np.ndarray:
        mid = rotation(self.mode * x)
        post = self.post
        if self.kind == "parabolic":
            if eps is None:
                raise ValueError("parabolic normalisation needs a shrinker eps")
            post = self.shrinker(eps)
        return self.pre @ mid @ post

    def shrinker(self, eps: float) -> np.ndarray:
        if self.kind != "parabolic":
            raise ValueError("shrinker only applies to the parabolic case")
        return np.array([[eps, 0.0], [eps, 1.0 / eps]]) @ self.post

    def target(self) -> np.ndarray:
        return companion(self.energy)


def normalize_constant(A_star: np.ndarray, alpha: float) -> Normalization:
    """Conjugator bringing A_star to companion form [[E, -1],[1, 0]], E != 0.

    Case |tr| > 2 converts through the diagonal form; |tr| < 2 through a
    rotation R_theta and the explicit C_theta (shifting theta by k alpha,
    which costs the x-dependent factor R_{kx}, whenever sin 2 pi theta
    falls outside (0,1)); |tr| = 2 returns the Jordan-shrinking data.
    """
    A = np.asarray(A_star, dtype=float)
    det = float(np.linalg.det(A))
    if abs(det - 1.0) > 1e-10:
        raise NotUnimodular(f"det A_star = {det} != 1")
    tr = float(np.trace(A))

    if abs(A[0, 1] + 1.0) < 1e-12 and abs(A[1, 0] - 1.0) < 1e-12 \
            and abs(A[1, 1]) < 1e-12 and abs(A[0, 0]) > 1e-12:
        return Normalization(kind="companion", pre=np.eye(2), mode=0,
                             post=np.eye(2), energy=float(A[0, 0]), theta=None)

    if abs(tr) > 2.0 + 1e-12:
        lam = (tr + math.copysign(math.sqrt(tr * tr - 4.0), tr)) / 2.0
        evals, evecs = np.linalg.eig(A)
        order = np.argsort(-np.abs(evals))
        V = np.real(evecs[:, order])
        Wc = np.array([[lam, 1.0 / lam], [1.0, 1.0]])
        C0 = Wc @ np.linalg.inv(V)
        d = float(np.linalg.det(C0))
        if d < 0:
            V[:, 0] = -V[:, 0]
            C0 = Wc @ np.linalg.inv(V)
            d = float(np.linalg.det(C0))
        C = C0 / math.sqrt(d)
        return Normalization(kind="hyperbolic", pre=C, mode=0,
                             post=np.eye(2), energy=tr, theta=None)

    if abs(tr) < 2.0 - 1e-12:
        evals, evecs = np.linalg.eig(A)
        i = int(np.argmax(evals.imag))
        wvec = evecs[:, i]
        P = np.column_stack([wvec.real, wvec.imag])
        if np.linalg.det(P) < 0:
            P = np.column_stack([wvec.real, -wvec.imag])
        P = P / math.sqrt(float(np.linalg.det(P)))
        Ct = np.linalg.inv(P)
        R = Ct @ A @ np.linalg.inv(Ct)
        theta = math.atan2(R[1, 0], R[0, 0]) / (2 * math.pi)
        k = _shift_mode(theta, alpha)
        pre = _c_theta(theta + k * alpha)
        E = 2.0 * math.cos(2 * math.pi * (theta + k * alpha))
        return Normalization(kind="elliptic", pre=pre, mode=k, post=Ct,
                             energy=E, theta=theta)

    # |tr| = 2: parabolic
    sigma = 1.0 if tr > 0 else -1.0
    B = sigma * A
    theta = 0.0 if sigma > 0 else 0.5
    if np.max(np.abs(B - np.eye(2))) < 1e-12:
        Q = np.eye(2)
        m_scale = 0.0
    else:
        N = B - np.eye(2)  # nilpotent: N @ N = 0
        f0 = np.array([1.0, 0.0])
        e = N @ f0
        if np.max(np.abs(e)) < 1e-12:
            f0 = np.array([0.0, 1.0])
            e = N @ f0
        Q = np.column_stack([e, f0])
        dq = float(np.linalg.det(Q))
        if dq < 0:
            Q = np.column_stack([-e, f0])
            dq = -dq
        Q = Q / math.sqrt(dq)
        J = np.linalg.inv(Q) @ B @ Q
        m_scale = float(J[0, 1])
    k = _shift_mode(theta, alpha)
    pre = _c_theta(theta + k * alpha)
    E = 2.0 * math.cos(2 * math.pi * (theta + k * alpha))
    return Normalization(kind="parabolic", pre=pre, mode=k,
                         post=np.linalg.inv(Q), energy=E, theta=theta,
                         jordan_scale=m_scale)
