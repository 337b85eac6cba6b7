"""Random-threshold priors on [a, b] within the unit interval.

A classification threshold is modelled as a continuous random variable
with density f supported on [a, b], 0 <= a < b <= 1.  Two families are
provided: Uniform(a, b) and Beta(alpha, beta) on [0, 1].  The Beta cdf is
the regularized incomplete beta function, evaluated with a modified Lentz
continued fraction so the cdf used by expectations and the cdf used by
inverse-transform sampling are one and the same routine.

Beta sampling inverts that cdf.  A 2049-point grid gives each draw a
bracket, and the chord of that grid cell a starting point.  One loop then
refines only the draws whose residual |F(x) - u| still exceeds 1e-12: each
round narrows a draw's bracket to the side of x its residual shows and
takes a Newton step where it lands strictly inside the bracket, else the
midpoint of the bracket's float bit patterns.  A draw leaves the loop,
and costs no further cdf evaluations, once it has converged or its
bracket is two neighbouring floats (steep tails, where the cdf jumps by
more than the tolerance between floats).  Most shapes need about two cdf
evaluations per draw.
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
# Beta inversion: a draw is settled once |cdf(x) - u| is within _INVERT_TOL.
_INVERT_TOL = 1e-12
# Largest Beta shape accepted.  Such a prior is all but a point mass, and
# the continued fraction stops converging near the mean from about 1e6 and
# overflows its coefficients from about 1e154.
MAX_BETA_SHAPE = 1e5


def _log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _beta_cf(a, b, x):
    """Continued fraction for the incomplete beta, vectorized over x.

    Modified Lentz evaluation of 1/(1 + d1/(1 + d2/(1 + ...))) with the
    standard even/odd coefficients: round 0 applies d1, round m applies
    d_2m and then d_2m+1.  C starts infinite, so the half-step on d1
    leaves C = 1 and h = D = 1 / (1 + d1).  Converges fast for
    x < (a + 1) / (a + b + 2), which the caller guarantees via the
    symmetry transformation.  An element stays converged from the first
    round its |delta - 1| is below _CF_EPS; the call returns once all are.
    """
    x = np.asarray(x, dtype=np.float64)
    c = np.full_like(x, np.inf)
    d = np.ones_like(x)
    h = np.ones_like(x)
    done = np.zeros(x.shape, dtype=bool)
    nums = (-(a + b) * x / (a + 1.0),)
    for m in range(1, _CF_MAX_ITER + 2):
        for num in nums:
            d = 1.0 + num * d
            np.copyto(d, _TINY, where=np.abs(d) < _TINY)
            c = 1.0 + num / c
            np.copyto(c, _TINY, where=np.abs(c) < _TINY)
            d = 1.0 / d
            delta = d * c
            h = h * delta
        done |= np.abs(delta - 1.0) < _CF_EPS
        if done.all():
            return h
        m2 = 2 * m
        nums = (
            m * (b - m) * x / ((a - 1.0 + m2) * (a + m2)),
            -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2)),
        )
    raise ValidationError(
        f"incomplete beta continued fraction did not converge for a={a}, b={b}"
    )


def _lower_tail(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """I_x(a, b) as front factor times continued fraction, for 0 < x < 1."""
    front = np.exp(a * np.log(x) + b * np.log1p(-x) - _log_beta(a, b)) / a
    return front * _beta_cf(a, b, x)


def regularized_incomplete_beta(a: float, b: float, x):
    """Regularized incomplete beta I_x(a, b), vectorized over x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise ValidationError("beta shape parameters must be positive")
    x_arr = np.asarray(x, dtype=np.float64)
    scalar = x_arr.ndim == 0
    x_arr = np.atleast_1d(x_arr)
    # Written so that NaN, which fails every comparison, fails it too.
    if not np.all((x_arr >= 0) & (x_arr <= 1)):
        raise ValidationError("incomplete beta argument must lie in [0, 1]")
    out = np.where(x_arr >= 1.0, 1.0, 0.0)
    mid = (x_arr > 0.0) & (x_arr < 1.0)
    xm = x_arr[mid]
    # Symmetry keeps the continued fraction in its fast-convergence region.
    flip = xm > (a + 1.0) / (a + b + 2.0)
    res = np.empty_like(xm)
    res[~flip] = _lower_tail(a, b, xm[~flip])
    res[flip] = 1.0 - _lower_tail(b, a, 1.0 - xm[flip])
    out[mid] = np.clip(res, 0.0, 1.0)
    return float(out[0]) if scalar else out


@lru_cache(maxsize=32)
def _beta_quantile_grid(alpha: float, beta: float):
    # Coarse inverse-cdf table: each draw's bracket and start in sample().
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
            if (self.alpha, self.beta) != (1.0, 1.0):
                raise ValidationError("uniform prior takes no beta shapes")
        elif self.kind == "beta":
            if self.alpha <= 0 or self.beta <= 0:
                raise ValidationError("beta shapes must be strictly positive")
            if max(self.alpha, self.beta) > MAX_BETA_SHAPE:
                raise ValidationError(
                    f"beta shapes must be at most {MAX_BETA_SHAPE:g}, "
                    f"got ({self.alpha}, {self.beta})"
                )
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
        # np.clip's bits without its wrapper: NaN and, bound first, -0.0 pass.
        x_arr = np.asarray(x, dtype=np.float64)
        if self.kind == "uniform":
            out = np.minimum(1.0, np.maximum(0.0, (x_arr - self.a) / (self.b - self.a)))
            return float(out) if np.ndim(x) == 0 else out
        clipped = np.minimum(1.0, np.maximum(0.0, x_arr))
        return regularized_incomplete_beta(self.alpha, self.beta, clipped)

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw i.i.d. thresholds by inverse-transform on cdf().

        One ``rng.random(size)`` call supplies the uniforms.  Beta draws
        invert the implemented cdf to a residual of 1e-12, or to
        neighbouring floats where the cdf steps over that band: each draw
        starts at the chord of its grid cell, and one loop refines the
        unconverged draws with Newton steps, bisecting where a step would
        leave the bracket, so sampler and cdf cannot drift apart.
        """
        u = rng.random(size)
        if self.kind == "uniform":
            return self.a + (self.b - self.a) * u
        u_arr = np.atleast_1d(np.asarray(u, dtype=np.float64))
        x = self._invert_beta_cdf(u_arr)
        return float(x[0]) if size is None else x

    def _invert_beta_cdf(self, u: np.ndarray) -> np.ndarray:
        grid_x, grid_f = _beta_quantile_grid(self.alpha, self.beta)
        # grid_f runs from 0 to 1 and u < 1, so grid_f[idx - 1] <= u < grid_f[idx].
        idx = np.searchsorted(grid_f, u, side="right")
        lo = grid_x[idx - 1]
        hi = grid_x[idx]
        f_lo = grid_f[idx - 1]
        x = lo + (hi - lo) * ((u - f_lo) / (grid_f[idx] - f_lo))
        # Each full-size temporary alive during a cdf call adds to the
        # sampler's peak memory, so each is dropped before the next call.
        del idx, f_lo
        out = np.empty_like(u)
        # Positions in u of the draws still unsettled; x, lo, hi and target
        # hold only those draws, so each round evaluates the cdf on them alone.
        todo = np.arange(u.size)
        target = u
        while True:
            f_err = regularized_incomplete_beta(self.alpha, self.beta, x) - target
            # An unsettled x is a strict bound on its root.
            np.copyto(lo, x, where=f_err < 0)
            np.copyto(hi, x, where=f_err > 0)
            # The int64 bit patterns order non-negative floats, so a gap of
            # one is two neighbouring floats; hi is then the least float
            # whose cdf exceeds u.
            settled = np.abs(f_err) <= _INVERT_TOL
            done = settled | (hi.view(np.int64) - lo.view(np.int64) <= 1)
            out[todo[done]] = np.where(settled, x, hi)[done]
            keep = ~done
            todo, x, f_err, lo, hi, target = (
                v[keep] for v in (todo, x, f_err, lo, hi, target)
            )
            del settled, done, keep
            if todo.size == 0:
                return out
            with np.errstate(divide="ignore", over="ignore"):
                newton = x - f_err / self.pdf(x)
            lo_bits = lo.view(np.int64)
            mid = (lo_bits + (hi.view(np.int64) - lo_bits) // 2).view(np.float64)
            x = np.where((newton > lo) & (newton < hi), newton, mid)
            del f_err, newton, mid
