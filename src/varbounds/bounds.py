"""Assembly of the variance-bound matrices and their certificates.

For a function tuple g = (g_1 ... g_p) against a family member X with
quadratic q, the building blocks are

    D      covariance matrix of (g_1(X), ..., g_p(X)),
    H_k    E[w_k * d^k g_i * d^k g_j]        (a Gram form, PSD),
    B_k    E[w_k * d^k g_i] E[w_k * d^k g_j] (rank <= 1, PSD),

where d^k is the exact k-th derivative and w_k = q(X)^k in the continuous
case, and d^k is the k-th forward difference and w_k = q^[k](X) (the rising
product) in the discrete case.  The certified inequalities are

    (-1)^n (D - S_n) >= 0   with  S_n = sum_k (-1)^(k-1) H_k / (k! prod_{j<k} (1 - j delta)),
    L_n <= D                with  L_n = sum_k B_k / (k! E[w_k] prod_{j=k-1}^{2k-2} (1 - j delta)),

both in the Loewner order.  Whenever E[w_k] vanishes (possible for discrete
members) the k-th summand is the null matrix by convention.

A request assembles every order up to its highest, top, at once
(``_Pass``).  Each grid is built for top and read only as two whole stacks,
the (top + 1, N) weights w_k and the (top + 1, p, N) rows d^k g_i
(``_Grid.powers``, ``_Grid.rows``), each made for every order in one pass:
the rows in one pass over the slots of the tuple's derivative table
compiled for the orders 0..top, on a discrete member the forward
differences in one pass over the shifts and each rising product from the
one before.  The class checks of a catalog
member and a tuple far inside the class are settled in closed form, from
the member's tails, the tuple's exponential rates and a screen of the
assembly grid for lost mass (``_closed_form``); otherwise the class check
classifies every order up to top in one ladder pass on its first read
(``_ClassCheck``).  D and every H_k come from one stacked Gram product and
every B_k from one stacked mat-vec; the checks, the symmetrisation, the
entry brackets, the prefix sums S_n and L_n and the tested matrices A_n
and D - L_n are array operations over the stacks; and D and every tested
matrix are solved in one batched eigen-solve (``linalg.solve_spectra``).
Every value is, bit for bit, the one an order assembled on its own gets.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import expectation as ex
from .calculus import (FunctionTuple, SmoothFunction, forward_differences,
                       rising_products)
from .distributions import Spec, moment_criterion
from .errors import (ClassMembershipError, InvalidParameterError,
                     NonFiniteIntegrandError, SingularCoefficientError)
from .linalg import (SymMatrix, eigenvalues, is_psd, solve_spectra,
                     spectral_radius, symmetrized)
# unused here: perfbench/tracing.py wraps these names in this module
from .calculus import forward_difference, rising_q  # noqa: F401
from .linalg import loewner_leq  # noqa: F401

COEFFICIENT_FACTOR_GUARD = 1e-10
NULL_EXPECTATION_TOL = 1e-12
DEFAULT_TOL_SCALE = 1e-6
# the margins of the closed-form class rule (``_closed_form``): twice a
# rate of the tuple is at most EXACT_RATE_SHARE of the member's tail rate,
# the log of the bound on every row's expectation at most EXACT_LOG_CAP,
# and the assembly grid's mass, mean, variance and tilted log-MGFs within
# GRID_HEALTH_TOL, relative, of the member's.  That last gate screens for
# grids that have lost the member's mass or overflow a tilted sum (a miss
# of 1 or inf); it does not certify quadrature accuracy, which the grids
# of members such as beta(0.3, 4) and normal(5, 100) miss by up to 1.4e-3
EXACT_RATE_SHARE = 0.5
EXACT_LOG_CAP = 150.0
GRID_HEALTH_TOL = 1e-2


# ---------------------------------------------------------------------------
# evaluation grids
# ---------------------------------------------------------------------------

class _Grid:
    """Evaluation grid of one spec: points x, nonnegative weights w with
    sum(w * phi(x)) ~ E[phi(X)], plus the tail bound for discrete members.
    ``build`` gives the quadrature nodes or the positive-pmf support down
    to pmf underflow (``expectation.truncated_support``) with the ``edge``
    of that underflow, from which a discrete member's class ladder is
    built, and ``from_samples`` the grids of N Monte Carlo samples.

    A grid is built for the highest order ``top`` its request reads, and
    it is read as two stacks over the orders 0..top, each made in one pass
    and kept: the (top + 1, N) powers q^k (on a discrete member the rising
    products q^[k], each the one before times one q) and, per tuple, the
    (top + 1, p, N) rows d^k g_i, every order from one evaluation of the
    bases of the tuple's derivative table and one pass over its summand
    slots (on a discrete member its rows g_i(x + j), j = 0..top, whose
    forward differences of every order are taken in one pass over the
    shifts).  No order above ``top`` is read."""

    def __init__(self, spec, x, w, tail=0.0, counts=None, top=0, edge=None):
        self.spec, self.x, self.w, self.tail = spec, x, w, tail
        self.counts, self.top, self.edge = counts, top, edge
        self._q, self._refused, self._eq, self._rows = None, None, {}, {}

    @classmethod
    def build(cls, spec, cfg=None, n_nodes=None, top=0):
        cfg = cfg or ex.EngineConfig()
        if spec.is_discrete:
            x, w, tail, edge = ex.truncated_support(spec)
            return cls(spec, x, w, tail, top=top, edge=edge)
        x, w = ex.continuous_grid(spec, cfg, n_nodes)
        return cls(spec, x, w, top=top)

    @classmethod
    def from_samples(cls, spec, xs, top):
        """The grids of the N samples ``xs``, each of weight 1/N, read up to
        order ``top`` and carrying the integer ``counts`` of their points:
        one grid of a discrete member's runs of equal values, with weights
        count/N, or one per ``expectation.BLOCK`` of a continuous member's
        samples, made as they are read.  A discrete sampler returns its
        variates sorted, so each run is one distinct value, counted
        without another sort."""
        if spec.is_discrete:
            starts = np.flatnonzero(np.concatenate(([True],
                                                    xs[1:] != xs[:-1])))
            counts = np.diff(starts, append=xs.size)
            yield cls(spec, xs[starts], counts / xs.size, counts=counts,
                      top=top)
            return
        ones = np.ones(min(xs.size, ex.BLOCK))
        for lo in range(0, xs.size, ex.BLOCK):
            x = xs[lo:lo + ex.BLOCK]
            yield cls(spec, x, 1.0 / xs.size, counts=ones[:x.size], top=top)

    def powers(self):
        """The read-only (top + 1, N) stack of q^k (continuous) or the
        rising products q^[k] (discrete) at the grid points."""
        if self._q is None:
            # a power past the largest float is a divergent weight, which
            # the reads of the stack report
            with np.errstate(over="ignore"):
                if self.spec.is_discrete:
                    stack = rising_products(self.spec.q, self.top, self.x)
                else:
                    stack = np.empty((self.top + 1, self.x.size))
                    stack[0] = 1.0
                    qx = self.spec.q(self.x)
                    for k in range(1, self.top + 1):
                        stack[k] = qx ** k
            stack.setflags(write=False)
            self._q = stack
        return self._q

    def refused(self):
        """Whether each weight w_k, k = 0..top, is negative on the grid
        beyond roundoff, judged once and kept: a negative weight means the
        spec violates its family contract.  Roundoff is judged against
        (max |q|)^k, the size of a product of k values of q, with q taken
        on the grid and, on a discrete member, at the points past its last
        node that the rising products reach; not against the row's own
        largest value, which is itself roundoff where the row is 0 (a
        rising product that meets a zero of q at the end of a finite
        support)."""
        if self._refused is None:
            powers, top = self.powers(), self.top
            # row 1 is q on the grid; there is none at top = 0
            size = float(np.max(np.abs(powers[1:2]), initial=0.0))
            if self.spec.is_discrete and top > 1:
                beyond = self.spec.q(self.x.max() + np.arange(1.0, top))
                size = max(size, float(np.max(np.abs(beyond))))
            with np.errstate(over="ignore"):
                scale = size ** np.arange(top + 1.0)
            refused = np.min(powers, axis=1) < -1e-12 * scale
            refused.setflags(write=False)
            self._refused = refused
        return self._refused

    def expectation(self, k):
        """E[w_k], the grid sum of q^k (q^[k]) without clipping; a
        non-finite term raises ``NonFiniteIntegrandError``."""
        if k not in self._eq:
            qk = self.powers()[k]
            contrib = self.w * qk
            bad = ~np.isfinite(contrib)
            if np.any(bad):
                i = int(np.argmax(bad))
                node = self.x[i]
                raise NonFiniteIntegrandError(
                    int(node) if self.spec.is_discrete else float(node),
                    float(qk[i]))
            self._eq[k] = float(contrib.sum())
        return self._eq[k]

    def rows(self, g):
        """The read-only (top + 1, p, N) stack of the rows d^k g_i of the
        tuple ``g``, every order made in one pass and kept.  The bases of
        the tuple's derivative table are evaluated once: at the grid points
        for every order (continuous), or at every shift x + j, j = 0..top,
        for the rows g_i(x + j) whose forward differences are the rows
        (discrete).  Each order is then handed out once by
        ``deriv_values``."""
        table = g.table
        _, stack = self._rows.get(id(table), (None, None))
        if stack is None:
            top = self.top
            if self.spec.is_discrete:
                shifts = np.concatenate([self.x + j if j else self.x
                                         for j in range(top + 1)])
                shifted = table.rows(table.bases(shifts, (0,)))[0]
                stack = forward_differences(shifted.reshape(
                    len(shifted), top + 1, self.x.size).swapaxes(0, 1))
            else:
                stack = table.rows(table.bases(self.x, range(top + 1)))
            stack.setflags(write=False)
            self._rows[id(table)] = (table, stack)
            # one derivative-row span per order for perfbench/tracing.py,
            # which wraps deriv_values
            for k in range(top + 1):
                self.deriv_values(stack, k)
        return stack

    def deriv_values(self, stack, k):
        """The (p, N) rows of d^k g_i over the grid (exact derivative or
        forward difference): order k of the stack that ``rows`` makes."""
        return stack[k]


def _negative_weight(k) -> ClassMembershipError:
    return ClassMembershipError(
        f"weight of order {k} is negative on the support grid; "
        f"the spec is outside its family")


def _grid_terms(grid, g, keep, kinds):
    """Raw D, H_k and B_k, k = 1..top, of the functions ``keep`` of ``g``
    (all of them if None) on one grid, as (G, B): G[0] is D and G[k] H_k
    (G is D alone without 'H' in ``kinds``), B[k - 1] is B_k (None
    without 'B').  The rows u of every Gram form (the centred rows g_i for
    D, the rows d^k g_i for H_k, each times the square root of its weights)
    fill one (top + 1, p, N) array, and one stacked product u u^T gives
    every form; one stacked mat-vec gives every E[w_k d^k g]."""
    rows = grid.rows(g)
    if keep is not None:
        rows = rows[:, keep]
    weights = grid.w * np.maximum(grid.powers()[1:], 0.0)
    vals = rows[0]
    means = (vals @ grid.w) / float(grid.w.sum())
    u = np.empty((len(rows) if "H" in kinds else 1,) + vals.shape)
    np.subtract(vals, means[:, None], out=u[0])
    u[0] *= np.sqrt(grid.w)
    if "H" in kinds:
        np.multiply(rows[1:], np.sqrt(weights)[:, None, :], out=u[1:])
    grams = u @ u.transpose(0, 2, 1)
    if "B" not in kinds:
        return grams, None
    v = (rows[1:] @ weights[:, :, None])[..., 0]
    return grams, v[:, :, None] * v[:, None, :]


# ---------------------------------------------------------------------------
# scalar coefficients
# ---------------------------------------------------------------------------

def _guarded_product(delta: float, js, k: int) -> float:
    prod = 1.0
    for j in js:
        factor = 1.0 - j * delta
        if abs(factor) <= COEFFICIENT_FACTOR_GUARD:
            raise SingularCoefficientError(k, j, delta)
        prod *= factor
    return prod


def poincare_coefficient(delta: float, k: int) -> float:
    """Signed weight (-1)^(k-1) / (k! prod_{j=0}^{k-1} (1 - j delta)).

    Refuses (rather than regularizes) when a factor vanishes: the bound of
    this order is undefined for the family.
    """
    if k < 1:
        raise ValueError("order k must be at least 1")
    prod = _guarded_product(delta, range(k), k)
    sign = 1.0 if (k - 1) % 2 == 0 else -1.0
    return sign / (math.factorial(k) * prod)


# ---------------------------------------------------------------------------
# weighted sums
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TermWeight:
    k: int
    weight: float | None  # None marks a null-matrix substitution
    expectation: float | None = None  # E[w_k] when it was needed

    @property
    def null(self) -> bool:
        return self.weight is None


def _poincare_weight(spec, grid: _Grid, k) -> TermWeight:
    if spec.is_discrete:
        eq = grid.expectation(k)
        if abs(eq) <= NULL_EXPECTATION_TOL:
            return TermWeight(k, None, eq)
    return TermWeight(k, poincare_coefficient(spec.q.delta, k))


def _bessel_weight(spec, k, eq) -> TermWeight:
    if abs(eq) <= NULL_EXPECTATION_TOL:
        return TermWeight(k, None, eq)
    prod = _guarded_product(spec.q.delta, range(k - 1, 2 * k - 1), k)
    return TermWeight(k, 1.0 / (math.factorial(k) * eq * prod), eq)


# ---------------------------------------------------------------------------
# class membership
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassReport:
    """Per-(function, order) finiteness verdicts for a function class.

    ``verdicts[i][k]`` covers orders k = 0..n; the zeroth order is the
    finite-variance requirement.  ``implies_other`` records the consistency
    note that membership in the Gram class plus a finite 2n-th moment implies
    membership in the outer-product class.
    """

    class_name: str
    n: int
    verdicts: tuple
    ratios: tuple
    implies_other: bool

    @property
    def ok(self) -> bool:
        return all(all(row) for row in self.verdicts)

    def failures(self):
        return [(i, k) for i, row in enumerate(self.verdicts)
                for k, good in enumerate(row) if not good]

    def passing_functions(self):
        return [i for i, row in enumerate(self.verdicts) if all(row)]


# the verdict of a row the closed-form rule settles: finite, read off no
# rungs and no decay ratio
_SETTLED = ex.FinitenessProbe(True, (), None)


class _ClassCheck:
    """Class verdicts of one tuple for the Gram class 'H', the
    outer-product class 'B', both or neither, and the numerical half of the
    moment gate, for every order up to ``top``, from one ladder of the spec.
    The ladder is built, and every order classified once, on the first
    read (``upto``): w_k and every d^k g_i are evaluated once on its nodes
    (the grid ``nodes``), and the rows of every order are classified
    together with the moment rows |x|^(2k).  On a discrete member
    ``nodes`` is the summation grid too, and a summation grid given as
    ``nodes`` is the one the ladder is built on.

    A request the closed-form rule settles (``_closed_form``) is
    ``exact``: it builds no ladder, every row is finite, and ``nodes``, the
    assembly grid, only checks the signs of the weights."""

    def __init__(self, spec, g, classes, cfg, top, nodes=None, exact=False):
        self.spec, self.g, self.cfg, self.top = spec, g, cfg, top
        self.classes = tuple(classes)
        self.unbounded = not all(map(math.isfinite, spec.support))
        self.nodes, self.exact = nodes, exact
        self.probes = None  # probes[cls][k][i], once classified
        self.moments = []  # [k]: E|X|^(2k) verdict, None if bounded
        self.refusal = None  # (k, error) of the first weight refused

    def classify(self):
        """Classify, in one ladder pass, the rows of every order up to
        ``top``, built as stacks over the orders: the squares
        w_k (d^k g_i)^2 (for 'H', and at k = 0 for 'B', which needs
        Var[g] < inf too), the absolute values w_k |d^k g_i| (for 'B',
        k > 0) and the moment rows |x|^(2k).  An order whose weight is
        refused as negative ends the pass: the orders before it are
        classified, and its error is kept for ``upto``.  An ``exact``
        check builds no ladder and reads only the signs of the weights."""
        nodes = self.nodes
        if not self.exact:
            ladder = ex.Ladder.build(
                self.spec, self.cfg, None if nodes is None else
                (nodes.x, nodes.w, nodes.tail, nodes.edge))
            if nodes is None:
                self.nodes = _Grid(self.spec, ladder.x, ladder.w,
                                   ladder.tail, top=self.top)
        classes, p, stop = self.classes, len(self.g), self.top + 1
        self.probes = {cls: [] for cls in classes}
        squares = absolutes = range(0)
        if classes:
            powers = self.nodes.powers()
            refused = self.nodes.refused()
            if refused.any():
                stop = int(np.argmax(refused))
                self.refusal = (stop, _negative_weight(stop))
            squares = range(stop if "H" in classes else min(stop, 1))
            absolutes = range(1, stop if "B" in classes else 0)
        if self.exact:
            for cls in classes:
                self.probes[cls] = [[_SETTLED] * p] * stop
            return
        moments = range(stop) if self.unbounded else range(0)
        size = p * (len(squares) + len(absolutes))
        contrib = np.empty((size + len(moments), ladder.x.size))
        # divergent integrands are fed on purpose; inf is a verdict, not a bug
        with np.errstate(over="ignore", invalid="ignore"):
            if size:
                base = np.maximum(powers, 0.0)[:, None, :]
                rows = self.nodes.rows(self.g)
            if squares:
                # the node weight goes inside the square, as in the Gram
                # product, so a weighted square overflows only where it is
                # itself huge
                out = contrib[:p * len(squares)].reshape(len(squares), p, -1)
                np.multiply(np.sqrt(ladder.w), rows[:len(squares)], out=out)
                np.multiply(out, out, out=out)
                np.multiply(base[:len(squares)], out, out=out)
            if absolutes:
                out = contrib[p * len(squares):size].reshape(len(absolutes), p,
                                                             -1)
                np.abs(rows[1:stop], out=out)
                np.multiply(base[1:stop], out, out=out)
                np.multiply(ladder.w, out, out=out)
            ax = np.abs(ladder.x)
            for row, k in zip(contrib[size:], moments):
                np.multiply(ladder.w, ax ** (2 * k), out=row)
        probes = ladder.classify(contrib) if len(contrib) else []
        for k in range(stop):
            for cls in classes:
                at = (k if cls == "H" or k == 0 else len(squares) + k - 1) * p
                self.probes[cls].append(probes[at:at + p])
        self.moments = probes[size:] or [None] * stop

    def upto(self, n):
        """The check of the orders up to n <= ``top``, classified on the
        first read, raising the error of a refused order up to n."""
        if self.probes is None:
            self.classify()
        if self.refusal is not None and self.refusal[0] <= n:
            raise self.refusal[1]
        return self

    def moment_finite(self, n) -> bool:
        """Whether E|X|^(2n) is finite: the Pearson criterion, and where it
        admits order n on an unbounded support of a request the rule does
        not settle, the moment row of order n."""
        return moment_criterion(self.spec, n) and (
            self.exact or not self.unbounded
            or self.upto(n).moments[n].finite)

    def report(self, cls, n, implies_other=False) -> ClassReport:
        rows = list(zip(*self.probes[cls][:n + 1]))  # [function][order]
        return ClassReport(cls, n,
                           tuple(tuple(p.finite for p in r) for r in rows),
                           tuple(tuple(p.decay_ratio for p in r) for r in rows),
                           implies_other)


def _closed_form(spec, g, cfg, top):
    """Whether the closed-form rule settles the class checks and the
    numerical half of the moment gate of a request up to order ``top``, as
    (the assembly grid, if the rule built it, and the verdict).

    The rule takes a catalog member (one that carries ``Tails``) and a
    tuple of grammar functions without a log factor, and admits the
    request only with every row finite, by a margin.  A term
    c u(x) v(x) of g_i and every derivative of it are at most
    M (1 + |x|)^deg e^(a x), where a, the term's rate, is the sum of its
    exp factors' rates, deg the sum of its polynomial degrees, and
    M = |c| C_u C_v (r_u + r_v)^k, with C the 1-norm of a polynomial or
    e^b of exp(ax + b) (1 for sin and cos) and r the degree or |a|.  So
    the rule asks that
    - twice the tuple's largest rate toward each infinite end be at most
      EXACT_RATE_SHARE of the member's tail rate there;
    - a bound on the log of every E[w_k (d^k g_i)^2] be at most
      EXACT_LOG_CAP, so that no row overflows where the ladder would read
      inf: twice the log of the largest M (times the most terms of one
      function), the log-MGF at twice the rates (twice a rate times the
      largest |x| on a bounded support) and an allowance of
      2 (deg + 2 top) log(1 + |mu| + 10 sigma) for the powers of x and
      of q;
    - the assembly grid reproduce the member's mass, mean and variance
      q(mu) / (1 - delta) and, on an unbounded support, its log-MGF at
      twice the rates, each within GRID_HEALTH_TOL relative: a screen for
      grids that have lost the member's mass (a narrow normal far from 0,
      whose nodes all underflow) or overflow a tilted sum (exp(2 a x) past
      the largest float on a summation grid), not a certificate of their
      accuracy.
    A request it does not admit takes the ladder."""
    tails = getattr(spec, "tails", None)
    if tails is None:
        return None, False
    # (log M, rate, deg) of every term, after those of the zero function,
    # which a function of no terms is
    terms, most = [(-math.inf, 0.0, 0)], 1
    for f in g:
        if not isinstance(f, SmoothFunction):
            return None, False
        most = max(most, len(f._terms))
        for c, u, v in f._terms:
            log_m = math.log(abs(c)) if c else -math.inf
            rate = growth = 0.0
            deg = 0
            for factor in filter(None, (u, v)):
                if factor.kind == "log":
                    return None, False
                if factor.kind == "poly":
                    norm = sum(map(abs, factor.derivs[0]))
                    log_m += math.log(norm) if norm else -math.inf
                    deg += factor.top
                    growth += factor.top
                    continue
                growth += abs(float(factor.a))
                if factor.kind == "exp":
                    rate += float(factor.a)
                    log_m += factor.b
            terms.append((log_m + top * math.log(max(growth, 1.0)), rate,
                          deg))
    log_m, rate, deg = np.array(terms).T
    # nan (from a nan coefficient) passes no test below
    up, down = (float(np.maximum(np.max(r), 0.0)) for r in (rate, -rate))
    alpha, omega = spec.support
    if math.isinf(omega) and not 2 * up <= EXACT_RATE_SHARE * tails.hi:
        return None, False
    if math.isinf(alpha) and not 2 * down <= EXACT_RATE_SHARE * -tails.lo:
        return None, False
    mu, q = spec.mean, spec.q
    # the variance; only a one-point member (hypergeometric of population
    # 1) has delta = 1, and none is admitted
    var = max(q(mu), 0.0) / (1.0 - q.delta) if q.delta < 1.0 else math.inf
    unbounded = math.isinf(alpha) or math.isinf(omega)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        tilted = {t: float(tails.log_mgf(t)) for t in (2 * up, -2 * down)
                  if t} if unbounded else {}
    spread = max(tilted.values(), default=0.0) + math.log(2.0) \
        if unbounded else 2 * max(up, down) * max(abs(alpha), abs(omega))
    bound = (2 * (float(np.max(log_m)) + math.log(most)) + spread
             + 2 * (float(np.max(deg)) + 2 * top)
             * math.log1p(abs(mu) + 10.0 * math.sqrt(var)))
    if not bound <= EXACT_LOG_CAP:
        return None, False
    full = _Grid.build(spec, cfg, top=top)
    x, w = full.x, full.w
    # (value on the grid, the member's, scale); an overflow fails its check
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        checks = [(w.sum(), 1.0, 1.0),
                  (w @ x, mu, abs(mu) + math.sqrt(var)),
                  (w @ (x - mu) ** 2, var, var)]
        checks += [(np.log(w @ np.exp(t * x)), want, max(1.0, abs(want)))
                   for t, want in tilted.items()]
        return full, all(abs(got - want) <= GRID_HEALTH_TOL * scale
                         for got, want, scale in checks)


def moment_finiteness(spec: Spec, n: int,
                      cfg: ex.EngineConfig | None = None) -> bool:
    """Whether E|X|^(2n) is finite: the Pearson tail criterion
    (``distributions.moment_criterion``) and, where it admits order n on an
    unbounded support, the stabilization of the truncated moment on the
    spec's ladder, so that a wrong edge case cannot silently pass."""
    return _ClassCheck(spec, (), (), cfg or ex.EngineConfig(),
                       n).moment_finite(n)


def check_class(spec: Spec, g: FunctionTuple, n: int, class_name: str,
                cfg: ex.EngineConfig | None = None) -> ClassReport:
    """Numerical membership check for the Gram class ('H') or the
    outer-product class ('B').

    'H' requires E[w_k (d^k g)^2] < infinity for k = 0..n; 'B' requires
    finite variance and E[w_k |d^k g|] < infinity for k = 0..n.  Finiteness
    is judged by stabilization of truncated expectations over one expanding
    window ladder: w_k and every d^k g_i are evaluated once on its nodes and
    all p (n + 1) integrands are classified together.  The moment gate
    behind ``implies_other`` is read off the same ladder.
    """
    cfg = cfg or ex.EngineConfig()
    if class_name not in ("H", "B"):
        raise ValueError("class must be 'H' or 'B'")
    check = _ClassCheck(spec, g, (class_name,), cfg, n).upto(n)
    report = check.report(class_name, n)
    if class_name == "H" and report.ok:
        return check.report(class_name, n, check.moment_finite(n))
    return report


# ---------------------------------------------------------------------------
# full report
# ---------------------------------------------------------------------------

@dataclass
class BoundReport:
    """Everything one certification run produced: the matrices, the scalar
    weights (with null-matrix substitutions recorded), eigenvalue-based
    verdicts, and the engine provenance."""

    n: int
    p: int
    D: SymMatrix
    H: list[SymMatrix] = field(default_factory=list)
    B: list[SymMatrix] = field(default_factory=list)
    S: SymMatrix | None = None
    L: SymMatrix | None = None
    A: SymMatrix | None = None
    poincare_weights: list[TermWeight] = field(default_factory=list)
    bessel_weights: list[TermWeight] = field(default_factory=list)
    verdicts: dict = field(default_factory=dict)
    tol: float = 0.0
    provenance: dict = field(default_factory=dict)
    _d_minus_l: SymMatrix | None = field(default=None, repr=False)
    # id(matrix) -> (matrix, nested list), shared by the reports of a pass
    _lists: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def passed(self) -> bool:
        return all(v.ok for v in self.verdicts.values())

    def to_json_dict(self) -> dict:
        """The report as JSON data.  Each matrix's nested list is built
        once and shared by the documents of the reports of one request, so
        a caller must not modify it."""
        lists = self._lists

        def arr(m):
            if m is None:
                return None
            held = lists.get(id(m))
            if held is None:
                held = lists[id(m)] = (m, m._a.tolist())
            return held[1]

        def weights(ws):
            return [{"k": tw.k, "weight": tw.weight, "null": tw.null,
                     "expectation": tw.expectation} for tw in ws]

        return {
            "n": self.n,
            "p": self.p,
            "D": arr(self.D),
            "H": [arr(h) for h in self.H],
            "B": [arr(b) for b in self.B],
            "S": arr(self.S),
            "L": arr(self.L),
            "A": arr(self.A),
            "coefficients": {"poincare": weights(self.poincare_weights),
                             "bessel": weights(self.bessel_weights)},
            "verdicts": {name: {"pass": bool(v.ok),
                                "min_eig": v.min_eigenvalue,
                                "tol": v.tol}
                         for name, v in self.verdicts.items()},
            "tol": self.tol,
            "provenance": self.provenance,
        }

    def eigen_rows(self):
        """Flat (n, matrix, index, eigenvalue) rows for CSV plotting."""
        rows = []
        named = [("D", self.D), ("S", self.S), ("L", self.L), ("A", self.A)]
        named += [(f"H{k + 1}", h) for k, h in enumerate(self.H)]
        named += [(f"B{k + 1}", b) for k, b in enumerate(self.B)]
        named.append(("D-L", self._d_minus_l))  # solved by the verdict
        for name, m in named:
            if m is None:
                continue
            for i, val in enumerate(eigenvalues(m)):
                rows.append((self.n, name, i, float(val)))
        return rows


_THEOREMS = (("poincare", "H"), ("bessel", "B"))


class _Terms:
    """The terms of one kind ('H': Gram, 'B': outer product) of one set of
    functions kept, for every order 1..top, computed over their stacks at
    once: the symmetrised terms, their faults, the running maxima of their
    entry brackets (``worst[k]`` over the orders up to k), the prefix sums
    and the tested matrices (A_n or D - L_n)."""

    def __init__(self, kind, raw, half, sym, weights, d, refused):
        """From the (top, p, p) raw terms on the full and the half grid,
        their symmetrised stack, the TermWeight (or error) of each order,
        the symmetrised D and whether w_k is refused on each grid."""
        top = len(raw)
        self.kind, self.sym = kind, sym
        # per order k, in the order a report meets them: w_k negative on the
        # full grid, a non-finite entry there, w_k negative on the half grid
        # and a non-finite symmetrised entry
        self.faults = np.array([
            refused[0], ~np.isfinite(raw).all(axis=(1, 2)),
            refused[1], ~np.isfinite(sym).all(axis=(1, 2))])
        worst = np.zeros(top + 1)
        worst[1:] = np.max(np.abs(raw - half), axis=(1, 2))
        # fmax passes over a NaN bracket (an overflow on the half grid only)
        self.worst = np.fmax.accumulate(worst)
        # S_n (L_n): one running sum of the weighted terms after a zero; a
        # null term adds zeros, and so does an order whose coefficient is
        # refused, which no report reads past
        sums = np.empty((top + 1,) + d.shape)
        sums[0] = 0.0
        np.multiply(np.array([
            tw.weight if isinstance(tw, TermWeight) and not tw.null else 0.0
            for tw in weights])[:, None, None], raw, out=sums[1:])
        self.total = symmetrized(np.cumsum(sums, axis=0, out=sums)[1:])
        if kind == "H":
            signs = np.where(np.arange(1, top + 1) % 2, -1.0, 1.0)
            self.tested = (d - self.total) * signs[:, None, None] + 0.0
        else:
            self.tested = d - self.total + 0.0
        self.overflow = ~(np.isfinite(self.total).all(axis=(1, 2))
                          & np.isfinite(self.tested).all(axis=(1, 2)))
        for a in (sym, self.total, self.tested):
            a.setflags(write=False)
        self.mats = [None] * top  # the SymMatrix of each order, once read

    def read(self, n):
        """The terms of orders 1..n and the order-n prefix sum and tested
        matrix, raising the first fault among them."""
        faults = self.faults[:, :n]
        if faults.any():
            k = int(np.argmax(faults.any(axis=0)))
            fault = int(np.argmax(faults[:, k]))
            if fault in (0, 2):
                raise _negative_weight(k + 1)
            if fault == 1:
                what = "Gram matrix" if self.kind == "H" else "outer product"
                raise ClassMembershipError(
                    f"divergent entry in order-{k + 1} {what}")
        if faults.any() or self.overflow[n - 1]:  # beyond the largest float
            raise ValueError("matrix entries must be finite")
        for k in range(n):
            if self.mats[k] is None:
                self.mats[k] = SymMatrix._view(self.sym[k])
        return (self.mats[:n], SymMatrix._view(self.total[n - 1]),
                SymMatrix._view(self.tested[n - 1]))


class _Pass:
    """One request's assembly, every order up to ``top`` at once.

    It holds the full and half-resolution grids (a discrete member's
    summation grid is ``full``, the class check's when it built one), the
    coefficients of every order and, per set of functions kept, D and the
    ``_Terms`` of H and B.  On each grid the stacks of weights w_k and rows
    d^k g_i give D and every H_k in one stacked Gram product and every B_k
    in one stacked mat-vec (``_grid_terms``); then, over the stacks at
    once, come the finiteness checks, the symmetrisation, the entry
    brackets (the running maxima of |full - half|), the prefix sums S_n
    and L_n (one cumulative sum of the weighted terms) and the tested
    matrices A_n and D - L_n.  A fault of any order is found then but
    raised only when a report reads its order, in the order a report
    reads: dispersion matrix, then per theorem the coefficients of orders
    1..n and the terms of orders 1..n.  ``judge`` solves D and the tested
    matrices of every report in one batched eigen-solve."""

    def __init__(self, spec, cfg, g, theorems, tol_scale, top, full=None):
        self.spec, self.g, self.top = spec, g, top
        self.tol_scale = tol_scale
        self.kinds = [kind for name, kind in _THEOREMS if name in theorems]
        self.full = full or _Grid.build(spec, cfg, top=top)
        self.half = self.full if spec.is_discrete else _Grid.build(
            spec, cfg, max(10, cfg.quad_nodes // 2), top)
        self.engine = asdict(cfg)
        self.lists = {}  # nested lists of the matrices, shared by the JSON
        self.weights = {}  # kind -> TermWeight, or its error, of each order
        self.sets = {}  # kept functions -> (D, its bracket, its fault, terms)

    def _weights(self, kind):
        """The TermWeight of every order 1..top, or the error its own
        call raises."""
        if kind not in self.weights:
            spec, full, out = self.spec, self.full, []
            for k in range(1, self.top + 1):
                try:
                    out.append(_poincare_weight(spec, full, k) if kind == "H"
                               else _bessel_weight(spec, k,
                                                   full.expectation(k)))
                except (NonFiniteIntegrandError,
                        SingularCoefficientError) as err:
                    out.append(err)
            self.weights[kind] = out
        return self.weights[kind]

    def _assemble(self, keep):
        """D, its bracket and fault, and the ``_Terms`` of each kind, of the
        functions ``keep``: a subset reads its rows off the whole tuple's."""
        full, half = self.full, self.half
        sel = None if len(keep) == self.g.p else list(keep)
        refused = [grid.refused()[1:] for grid in (full, half)]
        # a divergent entry is a fault to report, not a numerical accident
        with np.errstate(over="ignore", invalid="ignore"):
            grams, outer = _grid_terms(full, self.g, sel, self.kinds)
            half_grams, half_outer = (grams, outer) if half is full else \
                _grid_terms(half, self.g, sel, self.kinds)
            sym = symmetrized(grams)
            d = sym[0]
            fault = None
            if not np.isfinite(grams[0]).all():
                fault = ClassMembershipError(
                    "divergent second moment in dispersion matrix")
            elif not np.isfinite(d).all():
                fault = ValueError("matrix entries must be finite")
            terms = {kind: _Terms(kind, *(
                (grams[1:], half_grams[1:], sym[1:]) if kind == "H" else
                (outer, half_outer, symmetrized(outer))),
                self._weights(kind), d, refused) for kind in self.kinds}
            bracket = float(np.max(np.abs(grams[0] - half_grams[0])))
        d.setflags(write=False)
        return SymMatrix._view(d), bracket, fault, terms

    def report(self, n, keep, dropped) -> BoundReport:
        """The order-n report on the functions ``keep`` of the tuple, all
        but its verdicts, which ``judge`` gives."""
        if keep not in self.sets:
            self.sets[keep] = self._assemble(keep)
        d, d_bracket, fault, terms = self.sets[keep]
        if fault is not None:
            raise fault
        report = BoundReport(n=n, p=len(keep), D=d, _lists=self.lists)
        brackets = {"D": d_bracket}
        for kind in self.kinds:
            weights = self._weights(kind)[:n]
            for tw in weights:
                if not isinstance(tw, TermWeight):
                    raise tw
            mats, total, tested = terms[kind].read(n)
            brackets[kind + "_max"] = float(terms[kind].worst[n])
            if kind == "H":
                report.poincare_weights, report.H = weights, mats
                report.S, report.A = total, tested
            else:
                report.bessel_weights, report.B = weights, mats
                report.L, report._d_minus_l = total, tested
        report.provenance = {
            "engine": self.engine,
            "tol_scale": self.tol_scale,
            "spectral_radius_D": None,  # set by judge
            "entry_brackets": brackets,
            "discrete_tail_bound": self.full.tail,
            "dropped_functions": dropped,
            "null_terms": [tw.k for tw in
                           report.poincare_weights + report.bessel_weights
                           if tw.null],
        }
        return report

    def judge(self, reports):
        """Solve D and the tested matrices of ``reports`` in one batched
        eigen-solve, and give each report its tolerance and verdicts."""
        solve_spectra([m for r in reports for m in (r.D, r.A, r._d_minus_l)
                       if m is not None])
        for report in reports:
            rho = spectral_radius(report.D)
            report.tol = self.tol_scale * (1.0 + rho)
            report.provenance["spectral_radius_D"] = rho
            if report.A is not None:
                report.verdicts["poincare"] = is_psd(report.A, report.tol)
            if report._d_minus_l is not None:
                report.verdicts["bessel"] = is_psd(report._d_minus_l,
                                                   report.tol)


def bound_reports(spec: Spec, g: FunctionTuple, orders,
                  cfg: ex.EngineConfig | None = None,
                  theorems=("poincare", "bessel"),
                  tol_scale: float = DEFAULT_TOL_SCALE,
                  class_policy: str = "raise") -> list[BoundReport]:
    """Run the certification pipeline for every order in ``orders`` in one
    pass; returns one report per entry of ``orders``, in its order.

    Each report is the one ``bound_report`` gives for its order alone, but
    the grids, derivative rows, the one ladder of the moment gate and class
    checks (on a discrete member also the summation grid), and the matrices
    are shared: S_n and L_n are prefix sums of one set of H_k and B_k, and
    every order's class rows are classified in one ladder pass.  A request
    the closed-form rule settles (``_closed_form``: a catalog member, a
    tuple of grammar functions without a log factor, rates and sizes
    within margins and an assembly grid that keeps the member's mass and
    its tilted sums finite) builds no ladder: every row is finite, and
    only the signs of the weights on the assembly grid are checked, with
    the ladder's error.  Orders are gated in ascending
    order, each as its own call would gate it (moment gate, class checks
    on the prefix k <= n, coefficients), so a refused order raises what
    its own call raises.
    ``class_policy`` is as in ``bound_report``; with 'drop' each order keeps
    the functions that pass its own checks.
    """
    cfg = cfg or ex.EngineConfig()
    orders = list(orders)
    if any(n < 1 for n in orders):
        raise ValueError("order n must be at least 1")
    if spec.q is None:
        raise InvalidParameterError(
            "spec has no quadratic; infer or declare one first")
    theorems = tuple(theorems)
    unknown = set(theorems) - {"poincare", "bessel"}
    if unknown:
        raise ValueError(f"unknown theorems {sorted(unknown)}")
    if class_policy not in ("raise", "drop", "skip"):
        raise ValueError("class_policy must be 'raise', 'drop' or 'skip'")
    top = max(orders)
    # the assembly grid, built by the closed-form rule if it got that far,
    # is the ladder's too on a discrete member
    full, exact = _closed_form(spec, g, cfg, top)
    check = _ClassCheck(spec, g, [cls for name, cls in _THEOREMS
                                  if name in theorems
                                  and class_policy != "skip"], cfg, top,
                        full if exact or spec.is_discrete else None, exact)
    assembly = None
    done = {}
    for n in sorted(set(orders)):
        if not check.moment_finite(n):
            raise ClassMembershipError(
                f"E|X|^{2 * n} is not finite for this member; order {n} "
                f"bounds do not apply")
        keep, dropped = set(range(g.p)), []
        if check.classes:
            check.upto(n)
            for cls in check.classes:
                report = check.report(cls, n)
                if not report.ok:
                    if class_policy == "raise":
                        raise ClassMembershipError(
                            f"class {cls} check failed at (function, order) "
                            f"pairs {report.failures()}", report.failures())
                    keep &= set(report.passing_functions())
            if class_policy == "drop":
                dropped = sorted(set(range(g.p)) - keep)
                if not keep:
                    raise ClassMembershipError(
                        "no test function passes the class checks", ())
        assembly = assembly or _Pass(spec, cfg, g, theorems, tol_scale, top,
                                     check.nodes if spec.is_discrete
                                     else full)
        done[n] = assembly.report(n, tuple(sorted(keep)), dropped)
    assembly.judge(list(done.values()))
    return [done[n] for n in orders]


def bound_report(spec: Spec, g: FunctionTuple, n: int,
                 cfg: ex.EngineConfig | None = None,
                 theorems=("poincare", "bessel"),
                 tol_scale: float = DEFAULT_TOL_SCALE,
                 class_policy: str = "raise") -> BoundReport:
    """Run the full certification pipeline for one order n.

    ``class_policy`` controls what happens when a test function fails its
    class check: 'raise' (default) aborts, 'drop' silently removes the
    offending functions and certifies the rest, 'skip' trusts the caller and
    runs no checks.  The PSD tolerance scales with the spectral radius of D
    so tuples at different scales are judged uniformly.
    """
    return bound_reports(spec, g, (n,), cfg, theorems, tol_scale,
                         class_policy)[0]
