"""Game definitions: costs, pseudo-gradients, and shared affine constraints.

A game couples N players through a joint action a = [a^1, ..., a^N] in R^D
and through a shared feasible set C = {a : K a <= l}. Every game belongs to
one of two families, quadratic costs or quadratic costs plus a sharp softplus
ridge. Each family writes its batched costs and its exact pseudo-gradient once,
on arrays of joint actions. The quadratic family also has exact
strong-monotonicity and Lipschitz constants; the ridge family probes them.
The learner still sees the costs only as payoff values, through costs_at.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .lcp import SolverError, _lemke

__all__ = [
    "DimensionMismatchError",
    "InfeasibleConstraintsError",
    "GameConfigError",
    "JointAction",
    "ConstraintSet",
    "GameSpec",
    "QuadraticGame",
    "SoftplusQuadraticGame",
    "probe_monotonicity",
    "probe_lipschitz",
    "paper_example",
    "random_quadratic_game",
    "softplus_game",
    "builtin_game",
    "game_from_config",
    "load_game",
    "resolve_game",
    "BUILTIN_GAMES",
]


class DimensionMismatchError(ValueError):
    """A vector has the wrong length for the game it is used with."""

    def __init__(self, what: str, expected: int, given: int):
        super().__init__(f"{what}: expected dimension {expected}, got {given}")
        self.expected = expected
        self.given = given


class InfeasibleConstraintsError(ValueError):
    """Slater's condition fails: no a has K a < l.

    Raised when Lemke's method on LCP(K K', l - delta 1) ends on a ray, which
    proves {a : K a <= l - delta 1} empty, hits its pivot cap, or returns a
    point whose worst margin is not below -1e-9 (1 + ||l||).
    """


class GameConfigError(ValueError):
    """A game definition file or config dict is malformed."""


def _as_flat(a, expected: int, what: str = "action") -> np.ndarray:
    """Coerce an action (sequence or ndarray) to a flat float vector."""
    vec = np.asarray(a, dtype=float).reshape(-1)
    if vec.shape[0] != expected:
        raise DimensionMismatchError(what, expected, vec.shape[0])
    return vec


def _as_points(points, expected: int) -> np.ndarray:
    """Coerce a point (D,) or a batch (..., D) to a float array with last axis D."""
    arr = np.asarray(points, dtype=float)
    if arr.shape[-1:] != (expected,):
        raise DimensionMismatchError("points", expected, arr.shape[-1] if arr.ndim else 0)
    return arr


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


class ConstraintSet:
    """Shared affine constraints g(a) = K a - l <= 0.

    K must be a finite (n, D) matrix and l a finite vector of length n.
    Construction decides Slater's condition exactly: some a has K a < l
    when {a : K a <= l - delta 1} is nonempty, with
    delta = 1e-6 (1 + ||l||). Its minimal-norm point is a = -K' y, where y
    solves LCP(K K', l - delta 1); the check accepts that a when its worst
    margin is below -1e-9 (1 + ||l||). Lemke's method ending on a ray
    proves the set empty. K is kept C-ordered: OpenBLAS can round a product
    X @ K.T with a Fortran-ordered K differently in small batches than in
    large ones, which would make a row block's constraint values differ from
    the whole batch's.
    """

    def __init__(self, K, l):
        self.K = np.array(K, dtype=float, order="C")
        if self.K.ndim != 2:
            raise GameConfigError(
                f"constraint K must be an (n, D) matrix, got shape {self.K.shape}")
        self.l = np.array(l, dtype=float).reshape(-1)
        if self.K.shape[0] != self.l.shape[0]:
            raise DimensionMismatchError("constraint offset l", self.K.shape[0], self.l.shape[0])
        for name, arr in (("K", self.K), ("l", self.l)):
            if not np.all(np.isfinite(arr)):
                raise GameConfigError(f"constraint {name} has non-finite entries")
        self.K.flags.writeable = False
        self.l.flags.writeable = False
        scale = 1.0 + float(np.linalg.norm(self.l))
        delta = 1e-6 * scale
        try:
            y = _lemke(self.K @ self.K.T, self.l - delta)
        except SolverError as err:
            raise InfeasibleConstraintsError(
                f"Slater's condition fails for K a <= l - {delta:.1e}: {err}") from None
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
    """The part every game family shares: player blocks, shared constraints, constants.

    Player indices are 0-based. A family defines the batched cost
    `_costs(points, einsum)` on (P, D) rows, returning (P, N), and the exact
    `pseudo_gradient(points)` on a point (D,) or a batch (P, D). All state is
    fixed at construction; instances are safe to share across threads.
    """

    def __init__(
        self,
        dims: Sequence[int],
        constraints: ConstraintSet,
        nu: float | None = None,
        lipschitz: float | None = None,
        name: str = "game",
    ):
        self.dims = tuple(int(d) for d in dims)
        if any(d <= 0 for d in self.dims):
            raise ValueError(f"player dimensions must be positive, got {self.dims}")
        self.num_players = len(self.dims)
        self.D = int(sum(self.dims))
        if constraints.dim != self.D:
            raise DimensionMismatchError("constraint matrix K columns", self.D, constraints.dim)
        self.constraints = constraints
        self.known_nu = None if nu is None else float(nu)
        self.known_lipschitz = None if lipschitz is None else float(lipschitz)
        self.name = name
        self.slices = block_slices(self.dims)
        self._probed_nu = None
        self._probed_lipschitz = None

    def costs_at(self, points: np.ndarray) -> np.ndarray:
        """Evaluate every player's cost at each row of `points`; returns (P, N).

        `points` is a point (D,) or a batch (P, D), evaluated in one call with
        the elementwise product and sum of _quadratic_costs. A row's result
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
        raise NotImplementedError(f"{type(self).__name__} defines no pseudo-gradient")

    # -- regularity constants ----------------------------------------------

    def nu(self) -> float:
        """Strong-monotonicity constant: known value if supplied, else probed."""
        if self.known_nu is not None:
            return self.known_nu
        if self._probed_nu is None:
            self._probed_nu = probe_monotonicity(self, 20000, 3.0, seed=0)
        return self._probed_nu

    def lipschitz(self) -> float:
        """Lipschitz constant of the pseudo-gradient: known if supplied, else probed."""
        if self.known_lipschitz is not None:
            return self.known_lipschitz
        if self._probed_lipschitz is None:
            self._probed_lipschitz = probe_lipschitz(self, 20000, 3.0, seed=0)
        return self._probed_lipschitz

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(name={self.name!r}, players={self.num_players}, "
            f"dims={self.dims}, constraints={self.constraints.num_constraints})"
        )


def _set_quadratic_part(game, A, b, dims) -> tuple[int, ...]:
    """Check and store the costs 0.5 a' A_i a + b_i' a on `game`; returns the dims.

    A must be (N, D, D) and b (N, D); dims None splits D evenly. Sets game.A,
    game.b, the affine pseudo-gradient P a + q (the block-i rows of P are the
    block-i rows of the symmetrized A_i, q's block i is b_i's block i) and
    game._A_flat, the (N*D, D) stack used for multi-point cost evaluation.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    for name, arr in (("A", A), ("b", b)):
        if not np.all(np.isfinite(arr)):
            raise GameConfigError(f"cost {name} has non-finite entries")
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
        dims = tuple([D // N] * N)
    dims = tuple(int(d) for d in dims)
    if len(dims) != N or sum(dims) != D:
        raise GameConfigError(f"dims {dims} inconsistent with A of shape {A.shape}")
    P = np.empty((D, D))
    q = np.empty(D)
    for i, sl in enumerate(block_slices(dims)):
        sym = 0.5 * (A[i] + A[i].T)
        P[sl, :] = sym[sl, :]
        q[sl] = b[i, sl]
    game.A, game.b, game.P, game.q = A, b, P, q
    game._A_flat = A.reshape(N * D, D)
    return dims


def _quadratic_costs(game, points: np.ndarray, einsum: bool = False) -> np.ndarray:
    """Quadratic part of every player's cost at each row of points; returns (P, N).

    By default a'A_i a is an elementwise (P, N, D) product summed over D, as
    costs_at and so the learner take it. With einsum (the Monte Carlo pass
    of the diagnostics) it is contracted in one np.einsum pass, which forms no
    (P, N, D) temporary. At D = 2 both round the same; at D >= 3 einsum adds
    in another order, so the results differ in the last bits. Either way a
    row's value does not depend on the other rows of the batch. einsum does
    not report overflow or invalid values to np.errstate, so a row whose
    einsum result is not finite is computed again with the product and sum,
    which gives the default's values and raises or warns as the caller's
    errstate says. A floating-point error that leaves a row's einsum result
    finite, such as an underflow, goes unreported.
    """
    AX3 = (points @ game._A_flat.T).reshape(points.shape[0], game.num_players, game.D)
    if not einsum:
        quad = (AX3 * points[:, None, :]).sum(axis=2)
    else:
        quad = np.einsum("pnd,pd->pn", AX3, points)
        finite = np.isfinite(quad)
        if not finite.all():  # all(axis=1) alone would cost a third of the einsum
            bad = ~finite.all(axis=1)
            quad[bad] = (AX3[bad] * points[bad, None, :]).sum(axis=2)
    return 0.5 * quad + points @ game.b.T


class QuadraticGame(GameSpec):
    """Game with per-player costs J^i(a) = 0.5 a' A_i a + b_i' a.

    The joint pseudo-gradient is the affine map M(a) = P a + q, where the
    block-i rows of P come from the symmetrized block-row of A_i. Exact
    constants: nu is the smallest eigenvalue of the symmetric part of P and
    the Lipschitz constant is the largest singular value of P.
    """

    def __init__(self, A, b, constraints: ConstraintSet, dims=None,
                 name: str = "quadratic", require_monotone: bool = True):
        dims = _set_quadratic_part(self, A, b, dims)
        sym_eigs = np.linalg.eigvalsh(0.5 * (self.P + self.P.T))
        nu = float(sym_eigs.min())
        if require_monotone and nu <= 0:
            raise GameConfigError(
                f"pseudo-gradient is not strongly monotone (min symmetric eigenvalue {nu:.3e})"
            )
        L = float(np.linalg.svd(self.P, compute_uv=False).max())
        super().__init__(dims, constraints, nu=nu, lipschitz=L, name=name)

    _costs = _quadratic_costs

    def pseudo_gradient(self, points) -> np.ndarray:
        return _as_points(points, self.D) @ self.P.T + self.q


def _softplus(u, beta: float):
    return np.logaddexp(0.0, beta * u) / beta


class SoftplusQuadraticGame(GameSpec):
    """Quadratic base plus a sharp softplus ridge coupling all players.

    Player i's cost is the quadratic 0.5 a' A_i a + b_i' a plus
    delta_i * softplus_beta(w_i' a)^2, a convex one-sided penalty whose
    curvature concentrates near the hyperplane w_i' a = 0. Pseudo-gradients
    are exact; nu and the Lipschitz constant are probed (no closed form).
    """

    def __init__(self, dims, A, b, W, delta, beta, constraints, name="softplus"):
        dims = _set_quadratic_part(self, A, b, dims)
        N, D = self.A.shape[:2]
        self.W = np.asarray(W, dtype=float).reshape(N, D)
        self.delta = np.asarray(delta, dtype=float).reshape(N)
        self.beta = float(beta)
        super().__init__(dims, constraints, name=name)

    def _softplus_prime(self, u):
        # derivative of softplus_beta(u)^2: 2 * softplus_beta(u) * sigmoid(beta u)
        sig = 0.5 * (1.0 + np.tanh(0.5 * self.beta * u))
        return 2.0 * _softplus(u, self.beta) * sig

    def _costs(self, points: np.ndarray, einsum: bool = False) -> np.ndarray:
        ridge = self.delta * _softplus(points @ self.W.T, self.beta) ** 2  # (P, N)
        return _quadratic_costs(self, points, einsum) + ridge

    def pseudo_gradient(self, points) -> np.ndarray:
        x = _as_points(points, self.D)
        out = x @ self.P.T + self.q
        hp = self._softplus_prime(x @ self.W.T)  # (..., N)
        for i, sl in enumerate(self.slices):
            out[..., sl] += self.delta[i] * hp[..., i:i + 1] * self.W[i, sl]
        return out


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
    if num_pairs < 1:
        raise ValueError("num_pairs must be >= 1")
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
    dims = tuple(int(d) for d in dims)
    N, D = len(dims), int(sum(dims))
    if num_constraints is None:
        num_constraints = int(rng.integers(1, min(3, D) + 1))
    n = int(num_constraints)
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


def _integral(value) -> int:
    """value as an int: a JSON integer or an integral float, not a bool; else TypeError."""
    if isinstance(value, bool) or not (isinstance(value, (int, np.integer)) or
                                       isinstance(value, float) and value.is_integer()):
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


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
    players = _config_field(cfg, "players", _integral)
    dims = _config_field(cfg, "dims", lambda value: [_integral(d) for d in value])
    A, b, K, l = (_config_field(cfg, key, lambda v: np.asarray(v, dtype=float))
                  for key in ("A", "b", "K", "l"))
    if players != len(dims):
        raise GameConfigError(f"players={players} but dims has {len(dims)} entries")
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
