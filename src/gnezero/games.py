"""Games: costs, pseudo-gradients, shared affine constraints, and the payoff boundary.

A game couples N players through a joint action a = [a^1, ..., a^N] in R^D
and through a shared feasible set C = {a : K a <= l}. GameSpec owns the
quadratic part every game has: its batched costs and its exact
pseudo-gradient P a + q. Of the two families, the quadratic one adds exact
strong-monotonicity and Lipschitz constants; the other adds a sharp softplus
ridge to the costs and the pseudo-gradient and probes the Lipschitz constant.
A learner receives a game only as a PayoffEnvironment, which shows it payoff
values and constraint values and nothing else. Every count in the package is
checked by _integer, every positive scale by _positive and every scale that
may be zero by _nonnegative, all defined here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import _EXPORTS
from .lcp import SolverError, _lemke

__all__ = [*_EXPORTS["games"], "BUILTIN_GAMES"]


class DimensionMismatchError(ValueError):
    """A vector has the wrong length for the game it is used with."""

    def __init__(self, what: str, expected: int, given: int):
        super().__init__(f"{what}: expected dimension {expected}, got {given}")
        self.expected = expected
        self.given = given


class InfeasibleConstraintsError(ValueError):
    """Slater's condition fails: no a has K a < l.

    Raised when Lemke's method on LCP(K K', l - delta 1) ends on a ray whose
    direction y in lam is a Farkas vector, which proves
    {a : K a <= l - delta 1} empty (_is_farkas_vector), or returns a point
    whose worst margin is not below -1e-9 (1 + ||l||).
    """


class GameConfigError(ValueError):
    """A game definition file or config dict is malformed."""


def _integer(what: str, value, low: int) -> int:
    """value as an int >= low, or ValueError; integral floats count, bools and strings do not."""
    integral = (isinstance(value, (int, np.integer))
                or isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral or value < low:
        raise ValueError(f"{what} must be an integer >= {low}, got {value!r}")
    return int(value)


# the scalar types a scale may have; bools, strings and arrays are not scales
_REAL = (int, float, np.integer, np.floating)


def _positive(what: str, value: float) -> float:
    """value as a float, or ValueError when it is not a positive finite number."""
    if isinstance(value, bool) or not isinstance(value, _REAL) or not 0 < value < math.inf:
        raise ValueError(f"{what} must be positive and finite, got {value}")
    return float(value)


def _nonnegative(what: str, value: float) -> float:
    """value as a float, or ValueError when it is not a finite number >= 0."""
    if isinstance(value, bool) or not isinstance(value, _REAL) or not 0 <= value < math.inf:
        raise ValueError(f"{what} must be finite and >= 0, got {value!r}")
    return float(value)


def _fmt(x) -> str:
    """x in a CSV cell: the shortest repr that reads back as the same float."""
    return repr(float(x))


def _csv(header: str, rows) -> str:
    """CSV text: the header line, then one line per row of cell strings joined by commas.

    Every line, the last included, ends in one newline. The one builder of
    the package's CSV text: the harness writes it and oracle and diagnose
    print and write it.
    """
    return "\n".join([header, *map(",".join, rows)]) + "\n"


def _row_dots(V: np.ndarray) -> np.ndarray:
    """v @ v for each row v of a (..., dim) stack.

    A stacked matmul makes one BLAS dot per row, so each value is bit-equal
    to v @ v on that row alone: a row-wise reduction rounds differently.
    """
    return np.matmul(V[..., None, :], V[..., :, None])[..., 0, 0]


def _finite_entries(what: str, value) -> np.ndarray:
    """value as a float array, or GameConfigError when an entry is not finite."""
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise GameConfigError(f"{what} has non-finite entries")
    return arr


def _as_flat(a, expected: int, what: str = "action") -> np.ndarray:
    """Coerce an action (sequence or ndarray) to a flat float vector."""
    vec = np.asarray(a, dtype=float).reshape(-1)
    if vec.shape[0] != expected:
        raise DimensionMismatchError(what, expected, vec.shape[0])
    return vec


def block_slices(dims: Sequence[int]) -> tuple[slice, ...]:
    """Per-player index slices into the flat joint-action vector."""
    offsets = np.concatenate([[0], np.cumsum(dims)])
    return tuple(slice(int(offsets[i]), int(offsets[i + 1])) for i in range(len(dims)))


@dataclass(frozen=True)
class JointAction:
    """An oracle's joint action: a read-only flat (D,) vector; block i is flat[game.slices[i]]."""

    flat: np.ndarray

    def __post_init__(self):
        self.flat.flags.writeable = False

    def __reduce__(self):  # unpickling skips __post_init__, so rebuild through it
        return JointAction, (self.flat,)


def _is_farkas_vector(K: np.ndarray, r: np.ndarray, y: np.ndarray) -> bool:
    """Whether y proves {a : K a <= r} empty: y >= 0, K'y = 0 and r'y < 0.

    K'y = 0 is checked to ||K'y|| <= 1e-9 ||K|| ||y||. Summing y_j (K a - r)_j
    <= 0 over the rows gives 0 <= r'y for every a in the set.
    """
    return bool((y >= 0.0).all() and r.dot(y) < 0.0 and np.linalg.norm(K.T.dot(y))
                <= 1e-9 * np.linalg.norm(K) * np.linalg.norm(y))


class ConstraintSet:
    """Shared affine constraints g(a) = K a - l <= 0.

    K must be a finite (n, D) matrix and l a finite vector of length n.
    Construction decides Slater's condition exactly: some a has K a < l
    when {a : K a <= l - delta 1} is nonempty, with
    delta = 1e-6 (1 + ||l||). Its minimal-norm point is a = -K' y, where y
    solves LCP(K K', l - delta 1); the check accepts that a when its worst
    margin is below -1e-9 (1 + ||l||). Lemke's method ending on a ray
    proves the set empty when the ray's direction checks out as a Farkas
    vector; any other failure of the pivoting raises SolverError, as
    Slater's condition is then undecided. K is kept C-ordered: OpenBLAS can
    round a product X @ K.T with a Fortran-ordered K differently in small
    batches than in large ones, which would make a row block's constraint
    values differ from the whole batch's.
    """

    def __init__(self, K, l):
        self.K = np.array(K, dtype=float, order="C")
        if self.K.ndim != 2:
            raise GameConfigError(
                f"constraint K must be an (n, D) matrix, got shape {self.K.shape}")
        self.l = np.array(l, dtype=float).reshape(-1)
        if self.K.shape[0] != self.l.shape[0]:
            raise DimensionMismatchError("constraint offset l", self.K.shape[0], self.l.shape[0])
        _finite_entries("constraint K", self.K)
        _finite_entries("constraint l", self.l)
        self.K.flags.writeable = False
        self.l.flags.writeable = False
        scale = 1.0 + float(np.linalg.norm(self.l))
        delta = 1e-6 * scale
        try:
            y = _lemke(self.K @ self.K.T, self.l - delta)
        except SolverError as err:
            if err.ray is not None and _is_farkas_vector(self.K, self.l - delta, err.ray):
                raise InfeasibleConstraintsError(
                    f"Slater's condition fails for K a <= l - {delta:.1e}: {err}, whose "
                    "direction y >= 0 has K'y = 0 and (l - delta 1)'y < 0") from None
            raise SolverError(f"Slater's condition is undecided: complementary pivoting "
                              f"failed ({err})") from None
        worst = float(np.max(self.value(-self.K.T @ y), initial=-np.inf))
        if worst >= -1e-9 * scale:
            raise InfeasibleConstraintsError(
                f"Slater's condition fails: the minimal-norm a with K a <= l - {delta:.1e} "
                f"has margin {worst:.3e}")

    @property
    def num_constraints(self) -> int:
        return self.K.shape[0]

    @property
    def dim(self) -> int:
        return self.K.shape[1]

    def value(self, a) -> np.ndarray:
        """Constraint values g(a) = K a - l."""
        vec = _as_flat(a, self.dim)
        return self.K @ vec - self.l


class GameSpec:
    """A game with costs J^i(a) = 0.5 a' A_i a + b_i' a + r_i(a) under shared constraints.

    A must be (N, D, D) and b (N, D); dims None splits D evenly. Player
    indices are 0-based. The pseudo-gradient is P a + q + h(a): the block-i
    rows of P are the block-i rows of the symmetrized A_i, q's block i is
    b_i's block i, and h is `_nonaffine_gradient(x)` on (..., D) points, or
    None. A family with a term r beyond the quadratic part sets h and
    `_nonquadratic_costs(points)`, r at (P, D) points. All state is fixed at
    construction; instances are safe to share across threads.
    """

    _nonaffine_gradient = _nonquadratic_costs = None

    def __init__(self, A, b, constraints: ConstraintSet, dims=None, name: str = "game"):
        A, b = _finite_entries("cost A", A), _finite_entries("cost b", b)
        if A.ndim != 3 or A.shape[1] != A.shape[2]:
            raise GameConfigError(f"A must have shape (N, D, D), got {A.shape}")
        N, D = A.shape[0], A.shape[1]
        if b.shape != (N, D):
            raise GameConfigError(f"b must have shape ({N}, {D}), got {b.shape}")
        if dims is None:
            if D % N != 0:
                raise GameConfigError(
                    f"cannot infer per-player dims from N={N}, D={D}; pass dims="
                )
            dims = [D // N] * N
        self.dims = tuple(_integer("player dimension", d, 1) for d in dims)
        if len(self.dims) != N or sum(self.dims) != D:
            raise GameConfigError(f"dims {self.dims} inconsistent with A of shape {A.shape}")
        if constraints.dim != D:
            raise DimensionMismatchError("constraint matrix K columns", D, constraints.dim)
        self.num_players, self.D = N, D
        self.constraints = constraints
        self.name = name
        self.slices = block_slices(self.dims)
        self.P = np.empty((D, D))
        self.q = np.empty(D)
        for i, sl in enumerate(self.slices):
            self.P[sl, :] = 0.5 * (A[i] + A[i].T)[sl, :]
            self.q[sl] = b[i, sl]
        self.A, self.b = A, b
        self._A_flat = A.reshape(N * D, D)  # the stack of multi-point cost evaluation
        self._A_flatT, self._bT = self._A_flat.T, b.T
        self._lipschitz = None

    def _cost_work(self, rows: int, einsum: bool = False) -> tuple:
        """Buffers _costs writes for `rows` points: AX (rows, N D) and its (rows, N, D)
        view, the elementwise product (None with einsum) and two (rows, N) results."""
        AX = np.empty((rows, self.num_players * self.D))
        AX3 = AX.reshape(rows, self.num_players, self.D)
        return (AX, AX3, None if einsum else np.empty_like(AX3),
                np.empty((rows, self.num_players)), np.empty((rows, self.num_players)))

    def _costs(self, points: np.ndarray, einsum: bool = False, work=None) -> np.ndarray:
        """Every player's cost at each row of points; returns (P, N).

        By default a'A_i a is an elementwise (P, N, D) product summed over D, as
        costs_at and PayoffEnvironment.feedback take it. With einsum (the Monte
        Carlo pass of the diagnostics) it is contracted in one np.einsum pass,
        which forms no (P, N, D) product. At D = 2 both round the same; at D >= 3
        einsum adds in another order, so the results differ in the last bits.
        Either way a row's value does not depend on the other rows of the batch.
        einsum does not report overflow or invalid values to np.errstate, so a
        row whose einsum result is not finite is computed again with the product
        and sum, which gives the default's values and raises or warns as the
        caller's errstate says. A floating-point error that leaves a row's einsum
        result finite, such as an underflow, goes unreported. The results are
        written into work, _cost_work's buffers for P rows, and the returned
        array is one of them; without work they are allocated for this call.
        A family's _nonquadratic_costs(points) (P, N), if any, is added last.
        """
        AX, AX3, prod, quad, bX = self._cost_work(len(points), einsum) if work is None else work
        np.matmul(points, self._A_flatT, out=AX)
        if not einsum:
            np.add.reduce(np.multiply(AX3, points[:, None, :], out=prod), axis=2, out=quad)
        else:
            np.einsum("pnd,pd->pn", AX3, points, out=quad)
            finite = np.isfinite(quad)
            if not finite.all():  # all(axis=1) alone would cost a third of the einsum
                bad = ~finite.all(axis=1)
                quad[bad] = (AX3[bad] * points[bad, None, :]).sum(axis=2)
        np.multiply(0.5, quad, out=quad)
        np.add(quad, np.matmul(points, self._bT, out=bX), out=quad)
        if self._nonquadratic_costs is not None:
            quad += self._nonquadratic_costs(points)
        return quad

    def costs_at(self, points: np.ndarray) -> np.ndarray:
        """Evaluate every player's cost at each row of `points`; returns (P, N).

        `points` is a point (D,) or a batch (P, D), evaluated in one call with
        the elementwise product and sum of _costs. A row's result
        does not depend on the other rows of a batch, with one exception: a
        one-row batch (or a point). numpy sends its matrix products to gemv,
        which rounds differently from the gemm of a larger batch, so it is
        not bit-equal to the same row inside a larger batch.
        """
        points = np.asarray(points, dtype=float)
        if points.ndim < 2:
            points = np.atleast_2d(points)
        elif points.ndim > 2:
            raise ValueError(
                f"points must be a point (D,) or a batch (P, D), got shape {points.shape}")
        if points.shape[1] != self.D:
            raise DimensionMismatchError("points", self.D, points.shape[1])
        return self._costs(points)

    def pseudo_gradient(self, points) -> np.ndarray:
        """Stacked per-player partial gradients, block i = dJ^i/da^i.

        Takes a point (D,) or a batch (P, D) and returns the same shape.
        """
        x = np.asarray(points, dtype=float)
        if x.shape[-1:] != (self.D,):
            raise DimensionMismatchError("points", self.D, x.shape[-1] if x.ndim else 0)
        out = x @ self.P.T + self.q
        return out if self._nonaffine_gradient is None else out + self._nonaffine_gradient(x)

    # -- regularity constants ----------------------------------------------

    def lipschitz(self) -> float:
        """Lipschitz constant of the pseudo-gradient: a family's exact value, else probed once."""
        if self._lipschitz is None:
            self._lipschitz = probe_lipschitz(self, 20000, 3.0, seed=0)
        return self._lipschitz

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(name={self.name!r}, players={self.num_players}, "
            f"dims={self.dims}, constraints={self.constraints.num_constraints})"
        )


class QuadraticGame(GameSpec):
    """Game with per-player costs J^i(a) = 0.5 a' A_i a + b_i' a.

    The joint pseudo-gradient is the affine map M(a) = P a + q, where the
    block-i rows of P come from the symmetrized block-row of A_i. Exact
    constants: nu is the smallest eigenvalue of the symmetric part of P and
    the Lipschitz constant is the largest singular value of P.
    """

    def __init__(self, A, b, constraints: ConstraintSet, dims=None, name: str = "quadratic"):
        super().__init__(A, b, constraints, dims, name)
        nu = float(np.linalg.eigvalsh(0.5 * (self.P + self.P.T)).min())
        if nu <= 0:
            raise GameConfigError(
                f"pseudo-gradient is not strongly monotone (min symmetric eigenvalue {nu:.3e})"
            )
        self._nu = nu
        self._lipschitz = float(np.linalg.svd(self.P, compute_uv=False).max())

    def nu(self) -> float:
        """Strong-monotonicity constant: the smallest eigenvalue of the symmetric part of P."""
        return self._nu


def _softplus(u, beta: float) -> np.ndarray:
    """softplus_beta(u) = log(1 + exp(beta u)) / beta, elementwise; returns an array.

    Computed as (max(z, 0) + log1p(exp(-|z|))) / beta with z = beta u, in
    vectorized ufuncs that write into two buffers of u's shape. It is within
    4 ulp of np.logaddexp(0, z) / beta, which loops over scalars and takes
    about five times as long. A NaN entry gives NaN without a floating-point
    signal, as the quadratic part does; +inf gives inf, -inf gives 0 and
    +-0 gives ln 2 / beta. An exp(-|z|) that underflows (|z| > ~708) signals
    underflow to np.errstate, as logaddexp does.
    """
    z = np.multiply(beta, u, out=np.empty(np.shape(u)))
    t = np.abs(z)
    np.negative(t, out=t)
    np.exp(t, out=t)
    np.log1p(t, out=t)
    np.maximum(z, 0.0, out=z)
    z += t
    z /= beta
    return z


class SoftplusQuadraticGame(GameSpec):
    """Quadratic base plus a sharp softplus ridge coupling all players.

    Player i's cost is the quadratic 0.5 a' A_i a + b_i' a plus
    delta_i * softplus_beta(w_i' a)^2, a convex one-sided penalty whose
    curvature concentrates near the hyperplane w_i' a = 0; W, delta >= 0 and
    beta > 0 must be finite. Pseudo-gradients are exact; the Lipschitz
    constant is probed (no closed form).
    """

    def __init__(self, dims, A, b, W, delta, beta, constraints, name="softplus"):
        super().__init__(A, b, constraints, dims, name)
        self.W = _finite_entries("cost W", W).reshape(self.num_players, self.D)
        self.delta = _finite_entries("cost delta", delta).reshape(self.num_players)
        if np.any(self.delta < 0):
            raise GameConfigError(f"cost delta must be >= 0 for a convex ridge, got {self.delta}")
        self.beta = _positive("beta", beta)

    def _nonquadratic_costs(self, points: np.ndarray) -> np.ndarray:
        return self.delta * _softplus(points @ self.W.T, self.beta) ** 2  # (P, N)

    def _nonaffine_gradient(self, x: np.ndarray) -> np.ndarray:
        # coordinate j of player i: delta_i w_ij (softplus_beta^2)'(u_i), u_i = w_i' x
        u = x @ self.W.T  # (..., N)
        hp = 2.0 * _softplus(u, self.beta) * (0.5 * (1.0 + np.tanh(0.5 * self.beta * u)))
        own = np.repeat(np.arange(self.num_players), self.dims)  # each coordinate's player
        return self.delta[own] * hp[..., own] * self.W[own, np.arange(self.D)]


class PayoffEnvironment:
    """What crosses from a game to its players: Lagrangian payoffs and constraint values.

    A learner sees the game only through this view: the player dims, the
    constraint count and feedback. feedback evaluates the costs with
    GameSpec._costs into buffers bound to the last X it was passed; called
    again with that same array (a caller's buffer rewritten in place), it
    reuses them, and any other X binds new ones. So one instance does not
    serve concurrent feedback calls, and a pickled one carries no buffers.
    The Monte Carlo pass of the diagnostics evaluates the costs itself, with
    the einsum contraction of GameSpec._costs, on worker threads, and adds
    the multiplier term through _lagrangian, the one copy of the payoff
    formula.
    """

    def __init__(self, game: GameSpec):
        self._game = game
        self._K = game.constraints.K
        self._l = game.constraints.l
        self.dims = game.dims
        self.num_constraints = game.constraints.num_constraints
        self._X = self._bound = None

    def __getstate__(self):
        return {**self.__dict__, "_X": None, "_bound": None}

    def feedback(self, X: np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every player's Lagrangian payoff and the constraint values at each joint action.

        X holds joint actions along its last axis: a (P, D) batch, or an
        (R, P, D) stack of such batches with one multiplier row per batch in
        lam (R, n). Returns new arrays U (..., P, N) with U[..., p, i] =
        J^i(X[..., p]) + lam'g(X[..., p]) and g (..., P, n) with g[..., p] =
        K X[..., p] - l. These opaque values are the only information that
        crosses from the game to the players.
        """
        if X is not self._X:
            X2 = np.asarray(X, dtype=float).reshape(-1, X.shape[-1])
            if X2.shape[1] != self._game.D:
                raise DimensionMismatchError("points", self._game.D, X2.shape[1])
            self._X = X if np.may_share_memory(X, X2) else None  # a copy is not X's view
            self._bound = (X2, self._game._cost_work(len(X2)), X.shape[:-1] + (len(self.dims),),
                           self._K.T, np.empty((len(X2), self.num_constraints)),
                           X.shape[:-1] + (self.num_constraints,))
        X2, work, cost_shape, KT, KX, g_shape = self._bound
        costs = self._game._costs(X2, work=work).reshape(cost_shape)
        return self._lagrangian(costs, np.matmul(X2, KT, out=KX).reshape(g_shape), lam)

    def _lagrangian(self, costs: np.ndarray, KX: np.ndarray, lam: np.ndarray):
        """(U, g) of feedback from the costs J(X) (..., P, N) and the products X K' (..., P, n).

        The caller forms X K': feedback as one 2-D product into its bound
        buffer, the diagnostics' Monte Carlo pass as X @ K' on each row block.
        """
        g = KX - self._l
        return costs + g @ lam[..., None], g


def _sample_ball(rng: np.random.Generator, count: int, dim: int, radius: float) -> np.ndarray:
    direction = rng.standard_normal((count, dim))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    r = radius * rng.random(count) ** (1.0 / dim)
    return direction * r[:, None]


def _probe_pairs(game: GameSpec, num_pairs: int, radius: float, seed: int):
    """Differences (a1 - a2, M(a1) - M(a2)) of sampled pairs in the ball.

    Draws num_pairs pairs uniformly from the ball of the given radius and
    skips degenerate pairs, those with ||a1 - a2|| <= 1e-12.
    """
    num_pairs = _integer("num_pairs", num_pairs, 1)
    rng = np.random.default_rng(seed)
    x1 = _sample_ball(rng, num_pairs, game.D, radius)
    x2 = _sample_ball(rng, num_pairs, game.D, radius)
    diff = x1 - x2
    keep = np.einsum("ij,ij->i", diff, diff) > 1e-24
    if not np.any(keep):
        raise ValueError("all sampled pairs were degenerate; increase radius")
    return diff[keep], game.pseudo_gradient(x1[keep]) - game.pseudo_gradient(x2[keep])


def probe_monotonicity(game: GameSpec, num_pairs: int, radius: float, seed: int) -> float:
    """Estimate the strong-monotonicity constant of the pseudo-gradient.

    Returns the minimum over sampled pairs of
    <M(a1) - M(a2), a1 - a2> / ||a1 - a2||^2; a value <= 0 means the
    sampled pairs violate strong monotonicity.
    """
    diff, m_diff = _probe_pairs(game, num_pairs, radius, seed)
    ratios = np.einsum("ij,ij->i", m_diff, diff) / np.einsum("ij,ij->i", diff, diff)
    return float(ratios.min())


def probe_lipschitz(game: GameSpec, num_pairs: int, radius: float, seed: int) -> float:
    """Estimate the Lipschitz constant: max of ||M(a1)-M(a2)|| / ||a1-a2||."""
    diff, m_diff = _probe_pairs(game, num_pairs, radius, seed)
    return float((np.linalg.norm(m_diff, axis=1) / np.linalg.norm(diff, axis=1)).max())


# -- builtin game families ---------------------------------------------------


def paper_example() -> QuadraticGame:
    """Two scalar players with one shared budget-style constraint a1 + a2 >= 1.

    Costs: J^1 = 1.5 a1^2 + a1 a2 and J^2 = 0.5 a2^2 - a1 a2. The variational
    equilibrium is a* = [0, 1] with multiplier 1 on the active constraint.
    """
    A = np.array([
        [[3.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0], [-1.0, 1.0]],
    ])
    b = np.zeros((2, 2))
    cs = ConstraintSet([[-1.0, -1.0]], [-1.0])
    return QuadraticGame(A, b, cs, name="paper-example")


def random_quadratic_game(
    seed: int,
    dims: Sequence[int] | None = None,
    num_constraints: int | None = None,
) -> QuadraticGame:
    """Seeded strongly monotone quadratic game with active shared constraints.

    The constraint matrix K has orthogonal rows of a common norm, so its
    singular values coincide; the offset l is chosen so every constraint is
    violated at the unconstrained equilibrium and therefore binds at the
    solution.
    """
    rng = np.random.default_rng(seed)
    if dims is None:
        dims = [int(rng.integers(1, 3)) for _ in range(int(rng.integers(2, 4)))]
    dims = tuple(_integer("player dimension", d, 1) for d in dims)
    N, D = len(dims), sum(dims)
    if num_constraints is None:
        num_constraints = int(rng.integers(1, min(3, D) + 1))
    n = _integer("num_constraints", num_constraints, 0)
    if n > D:
        raise GameConfigError(
            f"num_constraints={n} exceeds D={D}: K has orthonormal rows, so at most D"
        )

    # target pseudo-gradient P = S + Z: symmetric PD part plus cross-block skew
    # eigenvalues of S in [0.5, 4.0], one of them redrawn in [0.5, 2.0]
    eigs = rng.uniform(0.5, 4.0, size=D)
    eigs[rng.integers(0, D)] = 0.5 + 1.5 * rng.random()
    Q, _ = np.linalg.qr(rng.standard_normal((D, D)))
    S = (Q * eigs) @ Q.T
    Z = rng.standard_normal((D, D))
    Z = 0.5 * (Z - Z.T)
    slices = block_slices(dims)
    for sl in slices:  # keep diagonal blocks symmetric so per-player Hessians exist
        Z[sl, sl] = 0.0
    P = S + Z

    # per-player symmetric Hessians A_i reproducing P's block-rows
    A = np.zeros((N, D, D))
    b = np.zeros((N, D))
    q = rng.standard_normal(D)
    for i, sl in enumerate(slices):
        A[i][sl, :] = P[sl, :]
        A[i][:, sl] = P[sl, :].T
        A[i][sl, sl] = P[sl, sl]
        b[i, sl] = q[sl]

    # K with orthonormal rows and a common scale; constraints bind at the solution
    Qk, _ = np.linalg.qr(rng.standard_normal((D, max(n, 1))))
    scale = rng.uniform(0.5, 2.0)
    K = scale * Qk[:, :n].T
    a_uncon = np.linalg.solve(P, -q)
    l = K @ a_uncon - rng.uniform(0.1, 1.0, size=n)
    cs = ConstraintSet(K, l)
    return QuadraticGame(A, b, cs, dims=dims, name=f"random-quadratic-{seed}")


def softplus_game(seed: int = 0) -> SoftplusQuadraticGame:
    """Smooth non-quadratic family: quadratic base plus a sharp softplus ridge.

    Two one-dimensional players, one shared constraint, ridge weight 0.1 and
    sharpness 400. Each player's ridge direction passes through the origin,
    so probes placed at zero sit exactly on the high-curvature ridge. The
    perturbation weight is kept small enough that the probed
    strong-monotonicity constant stays positive.
    """
    rng = np.random.default_rng(seed)
    dims = (1, 1)
    base = random_quadratic_game(seed, dims=dims, num_constraints=1)
    W = rng.standard_normal((2, 2))
    W /= np.linalg.norm(W, axis=1, keepdims=True)
    game = SoftplusQuadraticGame(
        dims, base.A, np.zeros((2, 2)), W, np.full(2, 0.1), 400.0,
        base.constraints,
        name=f"softplus-{seed}",
    )
    est = probe_monotonicity(game, 4000, 2.0, seed=seed + 1)
    if est <= 0:
        raise GameConfigError(
            f"softplus perturbation too strong: probed monotonicity {est:.3e} <= 0"
        )
    return game


BUILTIN_GAMES: dict[str, Callable[[], GameSpec]] = {
    "paper-example": paper_example,
    "softplus-ridge": softplus_game,
}


def builtin_game(name: str) -> GameSpec:
    if not isinstance(name, str):
        raise GameConfigError(f"builtin game name must be a string, got {name!r}")
    try:
        return BUILTIN_GAMES[name]()
    except KeyError:
        raise GameConfigError(
            f"unknown builtin game {name!r}; available: {sorted(BUILTIN_GAMES)}"
        ) from None


def _config_field(cfg: dict, key: str, convert):
    """convert(cfg[key]); GameConfigError if the key is missing or convert rejects its value."""
    try:
        value = cfg[key]
    except KeyError:
        raise GameConfigError(f"game config is missing key {key!r}") from None
    try:
        return convert(value)
    except (TypeError, ValueError) as err:
        raise GameConfigError(
            f"game config key {key!r} has the wrong type or shape ({err})") from None


def game_from_config(cfg: dict) -> GameSpec:
    """Build a game from a config dict.

    Either {"builtin": name} or a full quadratic definition with keys
    players, dims, A (list of N DxD matrices), b (list of N length-D vectors),
    K, l.
    """
    if not isinstance(cfg, dict):
        raise GameConfigError(f"game config must be a JSON object, got {type(cfg).__name__}")
    if "builtin" in cfg:
        return builtin_game(cfg["builtin"])
    players = _config_field(cfg, "players", lambda value: _integer("players", value, 1))
    dims = _config_field(cfg, "dims", lambda value: [_integer("dims", d, 1) for d in value])
    A, b, K, l = (_config_field(cfg, key, lambda v: np.asarray(v, dtype=float))
                  for key in ("A", "b", "K", "l"))
    if players != len(dims):
        raise GameConfigError(f"players={players} but dims has {len(dims)} entries")
    if K.shape == (0,):  # "K": [] is JSON's only spelling of no shared constraints
        K = K.reshape(0, sum(dims))
    cs = ConstraintSet(K, l)
    return QuadraticGame(A, b, cs, dims=dims, name=str(cfg.get("name", "config-game")))


def load_game(path) -> GameSpec:
    """Load a game definition from a JSON file."""
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as err:
            raise GameConfigError(f"{path}: not valid JSON ({err})") from None
    return game_from_config(cfg)


def resolve_game(spec: str) -> GameSpec:
    """Resolve a CLI game argument: a builtin name or a path to a JSON file."""
    if spec in BUILTIN_GAMES:
        return builtin_game(spec)
    return load_game(spec)
