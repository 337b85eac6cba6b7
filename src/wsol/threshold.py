"""Random-threshold priors on [a, b] within the unit interval.

A classification threshold is modelled as a continuous random variable
with density f supported on [a, b], 0 <= a < b <= 1.  Two families are
provided: Uniform(a, b) and Beta(alpha, beta) on [0, 1].  The Beta cdf is
the regularized incomplete beta function, evaluated with a modified Lentz
continued fraction so the cdf used by expectations and the cdf used by
inverse-transform sampling are one and the same routine.

Beta sampling inverts that cdf.  A 2049-point grid gives each draw a
bracket and a starting point; safeguarded Newton steps then refine only
the draws whose residual |F(x) - u| still exceeds 1e-12, so a draw leaves
the loop, and costs no further cdf evaluations, once it has converged.
Bisection on the float bit patterns finishes the rare draws Newton
cannot settle (steep tails, steps below the float spacing) on
neighbouring floats.  Most shapes need about two cdf evaluations per
draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ValidationError, check_finite

_CF_MAX_ITER = 400
_CF_EPS = 1e-15
_TINY = 1e-300
# Beta inversion: a draw is settled once |cdf(x) - u| is within _INVERT_TOL;
# draws still unsettled after _NEWTON_STEPS Newton steps are bisected.
_INVERT_TOL = 1e-12
_NEWTON_STEPS = 10


def _log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _beta_cf(a, b, x):
    """Continued fraction for the incomplete beta, vectorized over x.

    Modified Lentz evaluation of the standard even/odd-term expansion;
    converges fast for x < (a + 1) / (a + b + 2), which the caller
    guarantees via the symmetry transformation.
    """
    x = np.asarray(x, dtype=np.float64)
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = np.ones_like(x)
    d = 1.0 - qab * x / qap
    np.copyto(d, _TINY, where=np.abs(d) < _TINY)
    d = 1.0 / d
    h = d.copy()
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        num = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + num * d
        np.copyto(d, _TINY, where=np.abs(d) < _TINY)
        c = 1.0 + num / c
        np.copyto(c, _TINY, where=np.abs(c) < _TINY)
        d = 1.0 / d
        h = h * d * c
        num = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + num * d
        np.copyto(d, _TINY, where=np.abs(d) < _TINY)
        c = 1.0 + num / c
        np.copyto(c, _TINY, where=np.abs(c) < _TINY)
        d = 1.0 / d
        delta = d * c
        h = h * delta
        if np.all(np.abs(delta - 1.0) < _CF_EPS):
            return h
    raise ValidationError(
        f"incomplete beta continued fraction did not converge for a={a}, b={b}"
    )


def regularized_incomplete_beta(a: float, b: float, x):
    """Regularized incomplete beta I_x(a, b), vectorized over x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise ValidationError("beta shape parameters must be positive")
    x_arr = np.asarray(x, dtype=np.float64)
    scalar = x_arr.ndim == 0
    x_arr = np.atleast_1d(x_arr)
    if np.any((x_arr < 0) | (x_arr > 1)):
        raise ValidationError("incomplete beta argument must lie in [0, 1]")
    out = np.empty_like(x_arr)
    lo = x_arr <= 0.0
    hi = x_arr >= 1.0
    out[lo] = 0.0
    out[hi] = 1.0
    mid = ~(lo | hi)
    if np.any(mid):
        xm = x_arr[mid]
        # Symmetry keeps the continued fraction in its fast-convergence region.
        flip = xm > (a + 1.0) / (a + b + 2.0)
        res = np.empty_like(xm)
        for use_flip in (False, True):
            sel = flip if use_flip else ~flip
            if not np.any(sel):
                continue
            aa, bb = (b, a) if use_flip else (a, b)
            xs = 1.0 - xm[sel] if use_flip else xm[sel]
            front = np.exp(
                aa * np.log(xs) + bb * np.log1p(-xs) - _log_beta(aa, bb)
            ) / aa
            val = front * _beta_cf(aa, bb, xs)
            res[sel] = 1.0 - val if use_flip else val
        out[mid] = np.clip(res, 0.0, 1.0)
    return float(out[0]) if scalar else out


@lru_cache(maxsize=32)
def _beta_quantile_grid(alpha: float, beta: float):
    # Coarse inverse-cdf table; refined by Newton/bisection in sample().
    x = np.linspace(0.0, 1.0, 2049)
    return x, regularized_incomplete_beta(alpha, beta, x)


@dataclass(frozen=True)
class ThresholdDistribution:
    """Prior on the threshold: kind is ``uniform`` (a, b) or ``beta`` (alpha, beta).

    Immutable after construction; pdf/cdf accept scalars or arrays and
    sampling draws from a caller-owned numpy Generator.
    """

    kind: str
    a: float = 0.0
    b: float = 1.0
    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        for name in ("a", "b", "alpha", "beta"):
            object.__setattr__(self, name, check_finite(name, getattr(self, name)))
        if self.kind == "uniform":
            if not (0.0 <= self.a < self.b <= 1.0):
                raise ValidationError(
                    f"uniform support needs 0 <= a < b <= 1, got [{self.a}, {self.b}]"
                )
        elif self.kind == "beta":
            if self.alpha <= 0 or self.beta <= 0:
                raise ValidationError("beta shapes must be strictly positive")
            if (self.a, self.b) != (0.0, 1.0):
                raise ValidationError("beta prior is supported on [0, 1] only")
        else:
            raise ValidationError(f"unknown distribution kind {self.kind!r}")

    @classmethod
    def uniform(cls, a: float = 0.0, b: float = 1.0) -> "ThresholdDistribution":
        return cls(kind="uniform", a=a, b=b)

    @classmethod
    def beta_prior(cls, alpha: float, beta: float) -> "ThresholdDistribution":
        return cls(kind="beta", alpha=alpha, beta=beta)

    @property
    def support(self) -> tuple[float, float]:
        return (self.a, self.b)

    def mean(self) -> float:
        if self.kind == "uniform":
            return 0.5 * (self.a + self.b)
        return self.alpha / (self.alpha + self.beta)

    def pdf(self, x):
        """Density value; zero outside the support."""
        x_arr = np.asarray(x, dtype=np.float64)
        if self.kind == "uniform":
            inside = (x_arr >= self.a) & (x_arr <= self.b)
            out = np.where(inside, 1.0 / (self.b - self.a), 0.0)
        else:
            inside = (x_arr > 0.0) & (x_arr < 1.0)
            safe = np.where(inside, x_arr, 0.5)
            log_pdf = (
                (self.alpha - 1.0) * np.log(safe)
                + (self.beta - 1.0) * np.log1p(-safe)
                - _log_beta(self.alpha, self.beta)
            )
            out = np.where(inside, np.exp(log_pdf), 0.0)
        return float(out) if np.ndim(x) == 0 else out

    def cdf(self, x):
        """Cumulative probability F(x); clamps to 0 below a and 1 above b."""
        x_arr = np.asarray(x, dtype=np.float64)
        if self.kind == "uniform":
            out = np.clip((x_arr - self.a) / (self.b - self.a), 0.0, 1.0)
            return float(out) if np.ndim(x) == 0 else out
        clipped = np.clip(x_arr, 0.0, 1.0)
        return regularized_incomplete_beta(self.alpha, self.beta, clipped)

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw i.i.d. thresholds by inverse-transform on cdf().

        One ``rng.random(size)`` call supplies the uniforms.  Beta draws
        invert the implemented cdf to a residual of 1e-12 (grid bracket,
        Newton steps on the unconverged draws only, bisection fallback),
        so sampler and cdf cannot drift apart.
        """
        u = rng.random(size)
        if self.kind == "uniform":
            return self.a + (self.b - self.a) * u
        u_arr = np.atleast_1d(np.asarray(u, dtype=np.float64))
        x = self._invert_beta_cdf(u_arr)
        return float(x[0]) if size is None else x

    def _invert_beta_cdf(self, u: np.ndarray) -> np.ndarray:
        grid_x, grid_f = _beta_quantile_grid(self.alpha, self.beta)
        idx = np.clip(np.searchsorted(grid_f, u, side="right"), 1, len(grid_x) - 1)
        lo = grid_x[idx - 1]
        hi = grid_x[idx]
        # Each full-size temporary alive during a cdf call adds to the
        # sampler's peak memory, so idx and f_err are dropped early.
        del idx
        x = np.interp(u, grid_f, grid_x)
        out = np.empty_like(u)
        # Positions in u of the draws still unsettled; x, lo, hi and target
        # hold only those draws, so each round evaluates the cdf on them alone.
        todo = np.arange(u.size)
        target = u
        for step in range(_NEWTON_STEPS + 1):
            f_err = regularized_incomplete_beta(self.alpha, self.beta, x) - target
            settled = np.abs(f_err) <= _INVERT_TOL
            if settled.any():
                out[todo[settled]] = x[settled]
                keep = ~settled
                todo, x, f_err, lo, hi, target = (
                    v[keep] for v in (todo, x, f_err, lo, hi, target)
                )
            if todo.size == 0:
                return out
            # An unsettled x is a strict bound on its root.
            np.copyto(lo, x, where=f_err < 0)
            np.copyto(hi, x, where=f_err > 0)
            if step == _NEWTON_STEPS:
                break
            x = self._newton_step(x, f_err, lo, hi)
            del f_err
        # Newton could not settle these (slow next to a pole, or the cdf
        # jumps by more than the tolerance between neighbouring floats):
        # bisect their brackets on the int64 bit patterns, which order
        # non-negative floats, so that in at most 64 rounds lo and hi are
        # neighbouring floats however small the quantile.  hi is then the
        # least float whose cdf reaches u.
        lo_bits = lo.view(np.int64)
        hi_bits = hi.view(np.int64)
        for _ in range(64):
            gap = hi_bits - lo_bits
            if np.all(gap <= 1):
                break
            mid_bits = lo_bits + gap // 2
            below = (
                regularized_incomplete_beta(
                    self.alpha, self.beta, mid_bits.view(np.float64)
                )
                < target
            )
            np.copyto(lo_bits, mid_bits, where=below)
            np.copyto(hi_bits, mid_bits, where=~below)
        out[todo] = hi
        return out

    def _newton_step(self, x, f_err, lo, hi):
        """Newton step on cdf(x) - u; the bracket midpoint where it leaves (lo, hi)."""
        dens = self.pdf(x)
        x_new = x - f_err / np.maximum(dens, 1e-12)
        # A Newton step must land strictly inside the bracket to be trusted.
        bad = (x_new <= lo) | (x_new >= hi) | (dens <= 1e-12)
        return np.where(bad, 0.5 * (lo + hi), x_new)
