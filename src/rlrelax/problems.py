"""Benchmark problems: two closed-form shifted test functions, six synthetic
constrained families for training, and a name -> problem registry.

All problems live in the box [-100, 100]^D and work on shifted variables
y = x - o, with the shift o drawn from [-50, 50]^D so the interesting
region stays interior.  Every synthetic family certifies a feasible point
at construction time (stored on the problem for testing).
"""

from __future__ import annotations

import zlib

import numpy as np

from .cop import ConstrainedProblem

SEARCH_BOUND = 100.0
SHIFT_BOUND = 50.0

SYNTHETIC_KINDS = (
    "sphere-linear",
    "rosenbrock-cubic",
    "rastrigin-ring",
    "ackley-ellipsoid",
    "griewank-plane",
    "schwefel-band",
)

CEC_DIMS = frozenset({10, 30, 50, 100})


def _name_seed(*parts) -> np.random.Generator:
    """Deterministic generator keyed by string/int parts (stable across runs)."""
    ints = [zlib.crc32(str(p).encode()) for p in parts]
    return np.random.default_rng(ints)


def make_shift(name: str, dim: int) -> np.ndarray:
    """Default pseudo-random shift in [-SHIFT_BOUND, SHIFT_BOUND]^dim."""
    rng = _name_seed("shift", name, dim)
    return rng.uniform(-SHIFT_BOUND, SHIFT_BOUND, size=dim)


class ShiftFileError(ValueError):
    """A shift-data file that cannot be read or parsed; names the file and line."""


def load_shift_table(path) -> dict[tuple[str, int], np.ndarray]:
    """Parse a shift-data file.

    Plain text, one problem per block: line 1 is ``name dim``, line 2 the
    dim shift values as decimals separated by spaces.  Blank lines and
    ``#`` comments are ignored.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [(n, ln.strip()) for n, ln in enumerate(fh, start=1)]
    except (OSError, UnicodeDecodeError) as exc:
        raise ShiftFileError(f"shift file {path}: {exc}") from None
    lines = [(n, ln) for n, ln in lines if ln and not ln.startswith("#")]
    if len(lines) % 2 != 0:
        raise ShiftFileError(f"{path} line {lines[-1][0]}: header without a values line; "
                             f"expected name/values line pairs")
    table: dict[tuple[str, int], np.ndarray] = {}
    for (n_head, head), (n_values, values) in zip(lines[0::2], lines[1::2]):
        try:
            name, dim = head.split()
            dim = int(dim)
        except ValueError:
            raise ShiftFileError(f"{path} line {n_head}: bad header line {head!r}, "
                                 f"expected 'name dim'") from None
        try:
            o = np.array([float(v) for v in values.split()])
        except ValueError as exc:
            raise ShiftFileError(f"{path} line {n_values}: {exc}") from None
        if o.shape != (dim,):
            raise ShiftFileError(f"{path} line {n_values}: {name} declares dim {dim} "
                                 f"but has {o.size} values")
        if not np.all(np.abs(o) < SEARCH_BOUND):
            raise ShiftFileError(f"{path} line {n_values}: {name} shift must lie strictly "
                                 f"inside +-{SEARCH_BOUND}")
        table[(name, dim)] = o
    return table


# ---------------------------------------------------------------------------
# The two closed-form benchmark functions
# ---------------------------------------------------------------------------
#
# Every formula works on the rows of X (n, D) with axis=-1 reductions and
# returns (f (n,), C (n, p+q)), inequalities first.  Each reduction runs
# over one contiguous row, so a row's values are bitwise those of the same
# formula applied to that row alone.

def _cec12_rows(X, o):
    """Shifted rastrigin restricted near a sphere shell.

    f(y)  = sum(y_i^2 - 10 cos(2 pi y_i) + 10)
    g1(y) = 4 - sum |y_i|        (keeps solutions away from the axes)
    h1(y) = sum y_i^2 - 4        (sphere-surface equality)
    """
    y = X - o
    yy = y * y
    f = (yy - 10.0 * np.cos(2.0 * np.pi * y) + 10.0).sum(-1)
    g1 = 4.0 - np.abs(y).sum(-1)
    h1 = yy.sum(-1) - 4.0
    return f, np.concatenate([g1[:, None], h1[:, None]], axis=1)


def _cec14_rows(X, o):
    """Shifted max-abs objective with a quantized equality constraint.

    f(y)  = max |y_i|
    g1(y) = sum y_i^2 - 100 D
    h1(y) = cos(f) + sin(f)      (feasible only at discrete objective levels)
    """
    y = X - o
    f = np.abs(y).max(-1)
    g1 = (y * y).sum(-1) - 100.0 * y.shape[-1]
    h1 = np.cos(f) + np.sin(f)
    return f, np.concatenate([g1[:, None], h1[:, None]], axis=1)


def _box_problem(name: str, dim: int, n_ineq: int, n_eq: int, evaluator,
                 feasible_point: np.ndarray | None) -> ConstrainedProblem:
    """A problem on the search box [-SEARCH_BOUND, SEARCH_BOUND]^dim."""
    return ConstrainedProblem(name=name, dim=dim, lower=np.full(dim, -SEARCH_BOUND),
                              upper=np.full(dim, SEARCH_BOUND), n_ineq=n_ineq, n_eq=n_eq,
                              evaluator=evaluator, feasible_point=feasible_point)


def make_cec12(dim: int, shift: np.ndarray | None = None) -> ConstrainedProblem:
    o = make_shift("cec12", dim) if shift is None else np.asarray(shift, dtype=float)
    # y = (1,1,1,1,0,...) hits the shell exactly when dim >= 4
    feas = (o + np.concatenate([np.ones(4), np.zeros(dim - 4)])) if dim >= 4 else None
    return _box_problem("cec12", dim, 1, 1, lambda X, o=o: _cec12_rows(X, o), feas)


def make_cec14(dim: int, shift: np.ndarray | None = None) -> ConstrainedProblem:
    o = make_shift("cec14", dim) if shift is None else np.asarray(shift, dtype=float)
    # cos(f)+sin(f)=0 at f = 3*pi/4: put one coordinate there, rest at zero.
    feas = o + np.concatenate([[3.0 * np.pi / 4.0], np.zeros(dim - 1)])
    return _box_problem("cec14", dim, 1, 1, lambda X, o=o: _cec14_rows(X, o), feas)


# ---------------------------------------------------------------------------
# Synthetic training families
# ---------------------------------------------------------------------------

def _rastrigin(y):
    return (y * y - 10.0 * np.cos(2.0 * np.pi * y) + 10.0).sum(-1)


def _rosenbrock(y):
    return (100.0 * (y[:, 1:] - y[:, :-1] ** 2) ** 2 + (1.0 - y[:, :-1]) ** 2).sum(-1)


def _ackley(y):
    d = y.shape[-1]
    return (-20.0 * np.exp(-0.2 * np.sqrt((y * y).sum(-1) / d))
            - np.exp(np.cos(2.0 * np.pi * y).sum(-1) / d)
            + 20.0
            + np.e)


def _griewank(y, root_idx):
    """Griewank's function; root_idx holds sqrt(1), ..., sqrt(D)."""
    return (y * y).sum(-1) / 4000.0 - np.cos(y / root_idx).prod(-1) + 1.0


def _schwefel12(y):
    return (y.cumsum(-1) ** 2).sum(-1)


def synthetic_family(kind: str, seed: int, dim: int,
                     shift: np.ndarray | None = None) -> ConstrainedProblem:
    """Build one deterministic synthetic constrained problem.

    Each family pairs a classic multimodal/ill-conditioned objective with
    one or two inequality constraints and at most one equality constraint.
    The returned problem carries a certified feasible point; the same
    (kind, seed, dim) always yields bitwise-identical evaluations.  An
    explicit ``shift`` replaces the generated one; the remaining seeded
    parameters (radii, weights, band edges) are unaffected.
    """
    if kind not in SYNTHETIC_KINDS:
        raise ValueError(f"unknown synthetic kind {kind!r}; choose from {SYNTHETIC_KINDS}")
    if dim < 2:
        raise ValueError("synthetic problems need dim >= 2")
    rng = _name_seed("synthetic", kind, seed, dim)
    o = rng.uniform(-SHIFT_BOUND, SHIFT_BOUND, size=dim)
    if shift is not None:
        o = np.asarray(shift, dtype=float)
        if o.shape != (dim,):
            raise ValueError(f"shift must have length {dim}, got shape {o.shape}")

    if kind == "sphere-linear":
        # f = |y|^2, g1 = 1 - sum(y); feasible at y = (2, 0, ..., 0)
        def ev(X, o=o):
            y = X - o
            return (y * y).sum(-1), (1.0 - y.sum(-1))[:, None]

        p, q = 1, 0
        feas_y = np.concatenate([[2.0], np.zeros(dim - 1)])

    elif kind == "rosenbrock-cubic":
        # classic cubic + line pair on the first two coordinates
        def ev(X, o=o):
            y = X - o
            # each cube is a scalar pow: an array ** 3 rounds some rows differently
            cube = np.array([(v - 1.0) ** 3 for v in y[:, 0].tolist()])
            g1 = cube - y[:, 1] + 1.0
            g2 = y[:, 0] + y[:, 1] - 2.0
            return _rosenbrock(y), np.concatenate([g1[:, None], g2[:, None]], axis=1)

        p, q = 2, 0
        feas_y = np.concatenate([[0.0, 0.5], np.zeros(dim - 2)])

    elif kind == "rastrigin-ring":
        # equality ring of seeded radius plus an axis-exclusion inequality
        r = rng.uniform(1.5, 2.5)

        def ev(X, o=o, r=r):
            y = X - o
            g1 = 1.0 - np.abs(y).sum(-1)
            h1 = (y * y).sum(-1) - r * r
            return _rastrigin(y), np.concatenate([g1[:, None], h1[:, None]], axis=1)

        p, q = 1, 1
        feas_y = np.concatenate([[r], np.zeros(dim - 1)])

    elif kind == "ackley-ellipsoid":
        w = rng.uniform(0.5, 2.0, size=dim)
        c = rng.uniform(4.0, 25.0)

        def ev(X, o=o, w=w, c=c):
            y = X - o
            return _ackley(y), ((w * y * y).sum(-1) - c)[:, None]

        p, q = 1, 0
        feas_y = np.zeros(dim)

    elif kind == "griewank-plane":
        c = rng.uniform(-1.0, 1.0, size=dim)
        c[np.abs(c) < 0.1] = 0.1  # keep the plane normal well away from zero
        root_idx = np.sqrt(np.arange(1, dim + 1, dtype=float))

        def ev(X, o=o, c=c, root_idx=root_idx):
            y = X - o
            g1 = 1.0 - ((y - 1.0) ** 2).sum(-1)
            h1 = (c * y).sum(-1)
            return _griewank(y, root_idx), np.concatenate([g1[:, None], h1[:, None]], axis=1)

        p, q = 1, 1
        feas_y = np.zeros(dim)

    else:  # schwefel-band
        low = rng.uniform(1.0, 3.0)
        high = low + 2.0

        def ev(X, o=o, low=low, high=high):
            y = X - o
            s = y.sum(-1)
            return _schwefel12(y), np.concatenate([(s - high)[:, None], (low - s)[:, None]], axis=1)

        p, q = 2, 0
        feas_y = np.full(dim, (low + 1.0) / dim)

    return _box_problem(f"synthetic/{kind}/{seed}", dim, p, q, ev, o + feas_y)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

class UnknownProblemError(LookupError):
    """Raised when a registry lookup fails; the message lists valid names."""


class ProblemRegistry:
    """Maps names like ``cec12`` or ``synthetic/<kind>/<seed>`` to problems.

    A shift table (see load_shift_table) overrides the generated shift for
    the two closed-form problems when it holds a matching (name, dim) entry.
    """

    def __init__(self, shift_table: dict[tuple[str, int], np.ndarray] | None = None):
        self.shift_table = dict(shift_table or {})

    def valid_names(self) -> list[str]:
        return ["cec12", "cec14"] + [f"synthetic/{k}/<seed>" for k in SYNTHETIC_KINDS]

    def lookup(self, name: str, dim: int) -> ConstrainedProblem:
        if name in ("cec12", "cec14"):
            if dim not in CEC_DIMS:
                raise UnknownProblemError(
                    f"{name} supports dims {sorted(CEC_DIMS)}, got {dim}"
                )
            shift = self.shift_table.get((name, dim))
            return make_cec12(dim, shift) if name == "cec12" else make_cec14(dim, shift)
        if name.startswith("synthetic/"):
            parts = name.split("/")
            if len(parts) == 3 and parts[1] in SYNTHETIC_KINDS:
                try:
                    seed = int(parts[2])
                except ValueError:
                    raise UnknownProblemError(f"bad synthetic seed in {name!r}") from None
                return synthetic_family(parts[1], seed, dim,
                                        shift=self.shift_table.get((name, dim)))
        raise UnknownProblemError(
            f"unknown problem {name!r}; valid names: {', '.join(self.valid_names())}"
        )
