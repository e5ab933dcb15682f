"""Potentials, Schrodinger transfer matrices, cocycle iterates and
Lyapunov exponents.

The cocycle over the circle rotation by alpha is (x, w) -> (x + alpha,
A(x) w) with the companion step A(x) = [[z - v(x), -1], [1, 0]].  Site
phases x + n alpha come from one sampler, ``orbit``, and are reduced
mod 1; ``site_rows`` turns its phases at block starts by t alpha with a
table, giving the potential row by row without a cosine per site.
Ordered products A_n(x) = A(x+(n-1)alpha) ... A(x) come from one
scan, ``companion_scan``, which multiplies the steps onto a (2, 2, ...)
stack of matrices in place and rescales it by powers of two every 32
steps against overflow, handing each step's running products and
rescale exponents to its consumer: the block totals (``block_totals``)
behind ``iterate`` and the m-function walk, the block starts
(``block_starts``, totals folded by a log-depth prefix product) behind
the Sturm counts and the Lyapunov products, the in-block pass of the
Lyapunov products, and the P-ladder's blocked pass.  Every
product-returning routine reports the accumulated log scale, so the
exact product is exp(log_scale) * matrix.  Matrices are
plain 2x2 ndarrays, and stacks of them (2, 2, ...) ndarrays.

The small algebra the other modules share is written here once: the
Fourier mode sum and strip majorant of a mode table (``mode_sum``,
``strip_majorant``), and the product, adjugate and power-of-two
normaliser of stacks of 2x2 matrices (``stack_mul``, ``adjugate``,
``normalize_stack``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

RESCALE_EVERY = 32
LN2 = math.log(2.0)


def mode_sum(coeffs: dict, x):
    """The Fourier mode sum sum_k c_k e^{2 pi i k x} of ``coeffs`` {k: c_k}
    at (complex) x, as a complex array of the shape of x."""
    xs = np.asarray(x)
    out = np.zeros(xs.shape, dtype=complex)
    for k, c in sorted(coeffs.items()):
        out = out + c * np.exp(2j * np.pi * k * xs)
    return out


def strip_majorant(ks, cs, band: float):
    """The coefficient majorant sum |c_k| e^{2 pi band |k|} of sup |f| on
    the strip |Im x| <= band, for modes ``ks`` and coefficients ``cs``
    (broadcast), summed over axis 0: exact to compute for trigonometric
    polynomials, and submultiplicative."""
    return np.sum(np.abs(cs) * np.exp(2 * np.pi * band * np.abs(ks)), axis=0)


class Potential:
    """Real-analytic sampled potential on R/Z: a finite set of Fourier
    modes with hermitian coefficients, so the function is real on the
    real axis.  ``amo`` (2*lambda*cos(2 pi x)) is the modes +-1 at
    lambda; ``variant`` and ``lam`` only label it for ``repr``.  The
    evaluator accepts complex arguments, so the function extends to any
    strip |Im x| <= band.
    """

    __slots__ = ("variant", "lam", "coeffs", "_c0", "_waves", "_sup")

    def __init__(self, variant: str, lam: float = 0.0, coeffs: dict | None = None):
        self.variant = variant
        self.lam = float(lam)
        if variant == "amo":
            coeffs = {1: complex(lam), -1: complex(lam)}
        elif variant == "trigpoly":
            coeffs = {int(k): complex(c) for k, c in (coeffs or {}).items() if c != 0}
            for k, c in coeffs.items():
                if abs(coeffs.get(-k, 0).conjugate() - c) > 1e-13 * max(1.0, abs(c)):
                    raise ValueError("trig coefficients must satisfy v[-k] == conj(v[k])")
        else:
            raise ValueError(f"unknown potential variant {variant!r}")
        self.coeffs = coeffs
        self._c0 = coeffs.get(0, 0j).real
        # v(x) = c_0 + sum_{k > 0} 2 Re c_k cos(2 pi k x) - 2 Im c_k sin(2 pi k x)
        self._waves = [(2 * np.pi * k, 2 * c.real, 2 * c.imag)
                       for k, c in sorted(coeffs.items()) if k > 0]
        self._sup = sum(map(abs, coeffs.values()), 0.0)  # the strip majorant at band 0

    @classmethod
    def amo(cls, lam: float) -> "Potential":
        return cls("amo", lam=lam)

    @classmethod
    def trig(cls, coeffs: dict) -> "Potential":
        return cls("trigpoly", coeffs=coeffs)

    @classmethod
    def zero(cls) -> "Potential":
        return cls("trigpoly", coeffs={})

    def __call__(self, x):
        """v(x): the mode sum at complex x; at real x one cosine per mode
        k > 0, plus a sine where Im c_k != 0, so ``amo`` is
        2 lambda cos(2 pi x) bit for bit."""
        if not np.ndim(x):
            return self(np.array([x]))[0].item()
        if np.iscomplexobj(x):
            return mode_sum(self.coeffs, x)
        xs = np.asarray(x, dtype=float)
        if not self._waves:
            return np.full(xs.shape, self._c0)
        out = None
        for w, re, im in self._waves:
            arg = w * xs
            sin = np.sin(arg) if im else None
            term = np.cos(arg, out=arg)  # in place: one new array per mode
            term *= re
            if im:
                term -= im * sin
            out = term if out is None else np.add(out, term, out=out)
        if self._c0:
            out += self._c0
        return out

    def sup_bound(self, band: float = 0.0) -> float:
        """Coefficient majorant for sup of |v| on the strip |Im x| <= band."""
        if band == 0.0:  # on the real axis, where every m-function walk asks
            return self._sup
        return float(strip_majorant(list(self.coeffs), list(self.coeffs.values()), band))

    def __repr__(self):
        if self.variant == "amo":
            return f"Potential.amo({self.lam})"
        return f"Potential.trig({self.coeffs})"


def orbit(theta: float, alpha: float, lo: int, hi: int, stride: int = 1) -> np.ndarray:
    """Phases theta + n alpha mod 1 of the sites n = lo, lo + stride, ...
    below hi: the one sampler of the rotation orbit, so every caller sees
    the same site phases (reduced mod 1, where the potential is
    periodic)."""
    x = np.arange(lo, hi, stride, dtype=float)  # in place below: two arrays at most
    x *= alpha
    x += theta
    x -= np.floor(x)  # exactly x % 1.0, at a tenth of its cost
    return x


def site_rows(v: Potential, theta: float, alpha: float, starts: range, steps: int):
    """Yield the potential at the sites s + t, s in ``starts``, one row
    (an array over the starts) per step t = 0 .. steps-1, with no cosine
    per site: for x_s = ``orbit`` at the starts,

        v(x_s + t alpha) = c_0 + sum_{k>0} Re(W_k(s) R_k(t)),

    with W_k(s) = 2 c_k e^{2 pi i k x_s} formed once per call and the
    table R_k(t) = e^{2 pi i k alpha t} once per (alpha, modes, steps):
    one complex multiply per mode and site.  For t < 32 and coefficients
    of order one a row is within 1e-14 of v at x_s + t alpha (checked
    against 40 digits), so it carries the phase error of its start's
    float orbit, about n 1e-16 at site n, as a per-site ``orbit`` sample
    carries its own."""
    x = orbit(theta, alpha, starts.start, starts.stop, starts.step)
    c0 = v._c0
    ks = [k for k in sorted(v.coeffs) if k > 0]
    if not ks:
        for _ in range(steps):
            yield np.full(len(x), c0)
        return
    waves = [np.exp(2j * np.pi * k * x) * (2 * v.coeffs[k]) for k in ks]
    w0, rest = waves[0], waves[1:]
    for r0, *rs in _turns(alpha, tuple(ks), steps):
        row = (w0 * r0).real
        for w, r in zip(rest, rs):
            row += (w * r).real
        if c0:
            row += c0
        yield row


@functools.lru_cache(maxsize=64)
def _turns(alpha: float, ks: tuple, steps: int) -> tuple:
    """e^{2 pi i k alpha t} for t = 0 .. steps-1 (rows) and k in ``ks``, as
    tuples of complex.  The turn t k alpha mod 1 is rounded once: alpha =
    hi + lo with hi of 26 bits (Veltkamp's split), so t k hi, its
    fractional part and t k lo are exact while t k < 2**27."""
    hi = alpha * 134217729.0
    hi -= hi - alpha
    tk = np.outer(np.arange(steps), ks)
    turns = tk * hi
    turns = turns - np.floor(turns) + tk * (alpha - hi)
    return tuple(map(tuple, np.exp(2j * np.pi * turns).tolist()))


def iterate(z, v: Potential, alpha: float, x: float, n: int) -> tuple[np.ndarray, float]:
    """n-th cocycle iterate at x, rescaled to unit operator norm.

    Returns ``(mat, log_scale)`` with exact product exp(log_scale)*mat.
    The steps are one block of ``block_totals``, normalised by ``_norm``.
    Negative n follows the cocycle power definition
    A_{-n}(x) = A_n(x - n alpha)^{-1}: the adjugate of the forward
    product from x + n alpha, which has det 1 and the same norm.  The
    energy must be real.
    """
    z = complex(z)
    if z.imag != 0.0:
        raise ValueError(f"iterate needs a real energy, got {z}")
    if n < 0:
        m, log_scale = iterate(z, v, alpha, x + n * alpha, -n)
        return adjugate(m), log_scale
    m, ex = block_totals(z.real - v(orbit(x, alpha, 0, n)), ())
    nrm = _norm(m)
    return m / nrm, float(ex * LN2 + np.log(nrm))


def _phase_batch(x0: float, alpha: float, count: int, grid: str) -> np.ndarray:
    if grid == "orbit":
        return orbit(x0, alpha, 0, count)
    if grid == "uniform":
        return (x0 + np.arange(count) / count) % 1.0
    raise ValueError("grid must be 'orbit' or 'uniform'")


def block_count(n: int, width: int) -> int:
    """Blocks for a two-level scan of n sequential steps over ``width``
    independent lanes: about sqrt(n), so the in-block loops are ~sqrt(n)
    long (the fold over the blocks, ``block_starts``, is log-depth),
    capped so one step of every block touches at most 2**12 values.  1
    when the cap leaves no room for more: a step over that many values
    already costs far more than its Python overhead, so blocking would
    only add the block-total pass.  (A 2**14
    cap measured no faster and held up to 1 MB more in temporaries.)"""
    return max(1, min(math.isqrt(n), 2**12 // max(width, 1)))


def companion_scan(rows, x, every=RESCALE_EVERY):
    """Multiply the companion steps T_t = [[e_t, -1], [1, 0]] onto the
    (2, 2, ...) stack x, in place: the one step loop of the package.

    ``rows`` yields the step values e_1, e_2, ... one at a time, each an
    array that broadcasts to x[0, 0] (one value per matrix of the stack).
    After step t the generator yields (x_t, k): the running products
    T_t ... T_1 x as a (2, 2, ...) view of x's memory, and the exponents
    k of the ``normalize_stack`` rescale that step made (every ``every``
    steps), else None; so the exact products are 2**(sum of k) x_t.  The
    rescale is exact: the interval changes exponents, never mantissas, so
    a caller may shorten it where |e_t| is large enough to overflow 32
    unscaled steps.  Each step is four in-place ufunc calls, the new top
    row written over the old bottom one, so the rows of x_t alternate
    between x and x[::-1]."""
    a, b, c, d = x[0, 0, ...], x[0, 1, ...], x[1, 0, ...], x[1, 1, ...]  # views, 0-d too
    tmp = np.empty_like(a)
    # x_t at even and odd t, sliced once: a slice a step costs ~7% on narrow stacks
    flips = (x[::-1], x)
    for t, e in enumerate(rows):
        # [[a, b], [c, d]] <- [[e a - c, e b - d], [a, b]]
        np.multiply(e, a, out=tmp)
        np.subtract(tmp, c, out=c)
        np.multiply(e, b, out=tmp)
        np.subtract(tmp, d, out=d)
        a, b, c, d = c, d, a, b
        x = flips[t & 1]
        yield x, (normalize_stack(x) if t % every == every - 1 else None)


def block_totals(rows, shape, dtype=float, every=RESCALE_EVERY):
    """Products T_S ... T_1 of companion steps, one per block, all blocks
    at once: ``companion_scan`` from the identity over the step values
    ``rows`` (each an array of ``shape``, that step of every block, so no
    caller builds the whole S x blocks table).  ``dtype`` is float for
    real energies, complex off the real axis.  Returns (x, ex): the
    totals are 2**ex x, x a (2, 2, *shape) stack."""
    x = np.zeros((2, 2) + shape, dtype)
    x[0, 0] = x[1, 1] = 1.0
    ex = np.zeros(shape, dtype=np.int64)
    for x, k in companion_scan(rows, x, every):
        if k is not None:
            ex += k
    return x, ex


def block_starts(rows, shape):
    """The products of companion steps at the start of every block, all
    blocks at once: I for block 0, and total_i ... total_0 for block
    i + 1, where total_i is the product of block i's steps.  ``rows``
    yields the step values as ``block_totals`` reads them (each an array
    of ``shape``, blocks first), and the totals are formed in place in
    the slots of blocks 1 .. B, so no stack is copied.  Returns (x, sx),
    one block longer than the totals, the starts being 2**sx x; every
    matrix is rescaled by a power of two (exact) after each product, so
    its largest entry lies in [0.5, 1).

    The fold is a log-depth prefix product (Brent and Kung's): an
    up-sweep multiplies partial products 1, 2, 4, ... blocks apart, and a
    down-sweep fills in the starts between them, so about 2 log2(blocks)
    vectorised levels of ``stack_mul`` and ``normalize_stack`` replace a
    few numpy calls per block, and no temporary of a level holds more
    than half the stack.  Each start is a product of the same totals as a
    sequential fold's, grouped differently, so the two agree to
    rounding."""
    B = shape[0]
    x = np.zeros((2, 2, B + 1) + shape[1:])
    x[0, 0, 1:] = x[1, 1, 1:] = 1.0
    sx = np.zeros((B + 1,) + shape[1:], dtype=np.int64)
    p, ps = x[:, :, 1:], sx[1:]  # p[i] is total_i, then total_i ... total_0
    for p, k in companion_scan(rows, p):
        if k is not None:
            ps += k
    if p.strides[0] < 0:  # the scan ended with the rows swapped in memory
        x = x[::-1]
    x[0, 0, 0] = x[1, 1, 0] = 1.0
    ps += normalize_stack(p)

    def level(j, d):  # p[i] <- p[i] p[i - d] for i = j, j + 2d, ...
        n = len(range(j, B, 2 * d))
        left, right = p[:, :, j::2 * d], p[:, :, j - d:j - d + 2 * d * n:2 * d]
        left[...] = stack_mul(left, right)
        ps[j::2 * d] += ps[j - d:j - d + 2 * d * n:2 * d] + normalize_stack(left)

    d = 1
    while 2 * d <= B:  # up-sweep: p[i], i = -1 mod 2d, spans blocks i-2d+1 .. i
        level(2 * d - 1, d)
        d *= 2
    while d > 1:  # down-sweep: p[i], i = d-1 mod 2d, takes the start p[i-d]
        d //= 2
        level(3 * d - 1, d)
    return x, sx


def stack_mul(left, right):
    """Products left @ right of (2, 2, ...) stacks of matrices."""
    out = left[:, 0, None] * right[0]
    out += left[:, 1, None] * right[1]
    return out


def normalize_stack(x):
    """Scale each matrix of the (2, 2, ...) stack x, in place, by the power
    of two that brings its max-abs entry into [0.5, 1): exact, and
    invisible to a Moebius action.  Returns the exponents k, so the
    matrices were 2**k times the scaled ones."""
    k = np.frexp(np.abs(x).max(axis=(0, 1)))[1]
    x *= np.ldexp(1.0, -k)
    return k


def adjugate(m):
    """Adjugate [[d, -b], [-c, a]] of the matrices [[a, b], [c, d]] on the
    last two axes of m: the inverse of a matrix with det 1."""
    adj = np.empty_like(m)
    adj[..., 0, 0], adj[..., 1, 1] = m[..., 1, 1], m[..., 0, 0]
    adj[..., 0, 1], adj[..., 1, 0] = -m[..., 0, 1], -m[..., 1, 0]
    return adj


def _norm(x):
    """Operator 2-norms of the real (2, 2, ...) stack x = [[a, b], [c, d]],
    from sigma_max = (hypot(a + d, b - c) + hypot(a - d, b + c)) / 2: a
    sum of non-negative terms, where the trace/determinant formula
    cancels for norms near 1."""
    (a, b), (c, d) = x
    return 0.5 * (np.hypot(a + d, b - c) + np.hypot(a - d, b + c))


def _batched_log_norms(E, v, alpha, phases, n, keep_all=False):
    """Cumulative products over a batch of phases.

    Returns log ||A_s(x)|| for s = n only (shape (len(phases),)), or for
    every s = 1..n (shape (n, len(phases))) when keep_all is set.

    The n steps run as a two-level blocked scan over B = block_count(n,
    len(phases)) blocks of S = ceil(n / B) steps, so no Python loop is
    longer than about sqrt(n) and the potential is sampled once per block
    row (one step of every block), never once per step:

    1. the totals of the B - 1 full blocks, and
    2. their log-depth prefix product, every block's starting product
       (both ``block_starts``);
    3. from those starts, the products inside the blocks
       (``companion_scan``): all B blocks, with the norm of every
       prefix, for keep_all; otherwise only the last block, whose end is
       A_n.

    Every rescaling is by a power of two, so the grouping of the products
    is the only difference from a step-by-step loop, and the results agree
    with one to rounding.
    """
    P = len(phases)
    B = block_count(n, P)
    S = -(-n // B)

    def rows(blocks, steps):
        if not blocks:
            return
        first = np.asarray(blocks)[:, None] * S
        for t in range(steps):
            yield E - v(phases + (first + t) * alpha)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # 1-2. block totals, folded into block starts
        x, sx = block_starts(rows(range(B - 1), S), (B - 1, P))
        # 3. inside the blocks
        if keep_all:
            blocks, steps = range(B), S
            hist = np.empty((B, S, P))
        else:
            blocks, steps = range(B - 1, B), n - (B - 1) * S
            x, sx = x[:, :, -1:], sx[-1:]
        for t, (x, k) in enumerate(companion_scan(rows(blocks, steps), x)):
            if keep_all:  # each norm as it was before the step's rescale
                nrm = _norm(x) if k is None else np.ldexp(_norm(x), k)
                hist[:, t] = sx * LN2 + np.log(nrm)
            if k is not None:
                sx += k
    if keep_all:
        return hist.reshape(B * S, P)[:n]
    return (sx * LN2 + np.log(_norm(x)))[0]


def lyapunov(E: float, v: Potential, alpha: float, n: int, x_grid: int,
             x0: float = 0.0, grid: str = "orbit") -> float:
    """Finite-n Lyapunov estimate (1/n) <ln ||A_n(x)||> over a phase grid.

    The default grid is the Birkhoff orbit x_j = x0 + j*alpha mod 1;
    pass grid='uniform' for an equispaced grid.  The products A_n(x) of
    all phases come from one blocked scan (``_batched_log_norms``): about
    2 sqrt(n) vectorised steps, each sampling the potential once for all
    blocks and phases, and a log-depth fold between them.  The reduction
    order is fixed, so results are deterministic for a given grid
    specification.
    """
    if n < 1 or x_grid < 1:
        raise ValueError("n and x_grid must be >= 1")
    phases = _phase_batch(x0, alpha, x_grid, grid)
    logn = _batched_log_norms(float(E), v, alpha, phases, n)
    return float(np.mean(logn)) / n


@dataclass(frozen=True)
class GrowthProfile:
    """sup_x ||A_s(x)|| over a phase grid, for s = 1..s_max, in log form."""

    s: np.ndarray
    log_sup: np.ndarray
    phase_count: int

    @property
    def sup_norms(self) -> np.ndarray:
        return np.exp(self.log_sup)

    def loglog_slope(self, s_min: int = 16) -> float:
        """Slope of log sup||A_s|| against log s (polynomial growth rate)."""
        mask = self.s >= s_min
        return float(np.polyfit(np.log(self.s[mask]), self.log_sup[mask], 1)[0])

    def exp_rate(self, s_min: int = 16) -> float:
        """Slope of log sup||A_s|| against s (exponential growth rate)."""
        mask = self.s >= s_min
        return float(np.polyfit(self.s[mask], self.log_sup[mask], 1)[0])


def growth_profile(E: float, v: Potential, alpha: float, s_max: int,
                   phase_grid: int = 64, x0: float = 0.0) -> GrowthProfile:
    """Growth diagnostic: sup over ``phase_grid`` equispaced phases of
    ||A_s(x)|| for s = 1..s_max."""
    if s_max < 1:
        raise ValueError("s_max must be >= 1")
    phases = _phase_batch(x0, alpha, phase_grid, "uniform")
    hist = _batched_log_norms(float(E), v, alpha, phases, s_max, keep_all=True)
    return GrowthProfile(s=np.arange(1, s_max + 1), log_sup=hist.max(axis=1),
                         phase_count=phase_grid)


def solution_norm_sq_batch(u0: np.ndarray, u1: np.ndarray, E: float, v: Potential,
                           alpha: float, x: float, L: int) -> np.ndarray:
    """sum_{j=1}^{L} u_j^2 for a batch of real boundary pairs at real energy."""
    prev = np.array(u0, dtype=float)
    cur = np.array(u1, dtype=float)
    acc = cur * cur
    for e in E - v(orbit(x, alpha, 1, L)):  # sites 1 .. L-1
        prev, cur = cur, e * cur - prev
        acc += cur * cur
    return acc
