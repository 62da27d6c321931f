"""Seeded config generator for the benchmark workloads.

Every config is drawn from the admissibility inequalities that
`kricci.model.validate` checks, written out here from the paper's
conditions rather than imported, so the program under test only ever sees
the generated JSON files.  With N0 (N*) the complex dimension collapsing at
s = 0 (at s*), a factor (n, p, q) that does not collapse must satisfy

    steady               -q (N0+1) = p,  q < 0,  sigma > 0 given, kappa1 < 0
    expanding            -q (N0+1) > p,  q < 0,                   kappa1 < 0
    noncompact shrinker  -(N0+1) q < p,  q < 0,          kappa1 = "solve"
    compact shrinker     -(N0+1) q < p,  (N*+1) q < p,   kappa1 = "solve"

and collapsing end factors are projective with unit charge: (N0, N0+1, -1)
at s = 0 and (N*, N*+1, +1) at s*.  Compact shrinkers are kept only when
the obstruction integral I(0) is nonzero, so that kappa1 != 0 and the root
finder and the star end do real work.

A workload's configs form one *round*; the benchmark repeats whole rounds.
Rounds are stratified: each stratum fixes what sets an operation's cost
(soliton class, total dimension, kappa1 or epsilon, end structure) and the
seed draws the rest (charges, Einstein constants, sigmas, kappa0, the
other of epsilon and kappa1, the split of the dimension among factors), so
different seeds give different inputs with the same cost profile.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, Tuple

Factor = Tuple[int, int, int]


def _text(x: Fraction) -> object:
    """JSON spelling of a rational: an int when integral, else "p/q"."""
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _doc(epsilon, factors: List[Factor], compact: bool, kappa1, kappa0=0,
         sigmas=None) -> Dict:
    doc = {
        "epsilon": _text(epsilon),
        "factors": [{"n": n, "p": p, "q": q} for n, p, q in factors],
        "boundary": {
            "collapse_at_zero": "factor",
            "compact_end": {"collapse": "factor"} if compact else None,
        },
        "kappa1": kappa1 if kappa1 == "solve" else _text(kappa1),
    }
    if kappa0:
        doc["kappa0"] = _text(kappa0)
    if sigmas is not None:
        doc["sigmas"] = [_text(s) for s in sigmas]
    return doc


def _split(rng: random.Random, total: int, parts: int) -> List[int]:
    """A random composition of `total` into `parts` positive integers."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def _kappa0(rng: random.Random) -> Fraction:
    return rng.choice([Fraction(0), Fraction(1, 2), Fraction(1), Fraction(-1, 3)])


# -- the four classes ---------------------------------------------------------


def _parts(rng: random.Random, rest: int, parts) -> List[int]:
    """The dimensions of the non-collapsing factors: `rest` split into
    `parts` factors, or into one or two drawn by the seed when None."""
    if parts is None:
        parts = rng.choice([1, 2]) if rest >= 2 else 1
    return _split(rng, rest, parts)


def steady(rng: random.Random, dim: int, kappa1: Fraction, n0: int, parts=None) -> Dict:
    """Steady soliton of total complex dimension `dim` (circle included)
    whose first factor, of dimension `n0`, collapses at s = 0."""
    rest = dim - 1 - n0
    factors = [(n0, n0 + 1, -1)]
    sigmas = [Fraction(0)]
    for n in _parts(rng, rest, parts):
        k = rng.choice([1, 2, 3])
        factors.append((n, k * (n0 + 1), -k))
        sigmas.append(Fraction(rng.choice([1, 2, 3, 4, 5, 6]), 2))
    return _doc(0, factors, False, kappa1, _kappa0(rng), sigmas)


def expanding(rng: random.Random, dim: int, kappa1: Fraction, n0: int, parts=None) -> Dict:
    rest = dim - 1 - n0
    factors = [(n0, n0 + 1, -1)]
    for n in _parts(rng, rest, parts):
        k = rng.choice([2, 3, 4])
        p = rng.randint(1, min(n + 1, k * (n0 + 1) - 1))
        factors.append((n, p, -k))
    epsilon = rng.choice([Fraction(1, 2), Fraction(1), Fraction(2)])
    return _doc(epsilon, factors, False, kappa1, _kappa0(rng))


def noncompact_shrinker(rng: random.Random, dim: int, epsilon: Fraction, n0: int,
                        parts=None) -> Dict:
    rest = dim - 1 - n0
    factors = [(n0, n0 + 1, -1)]
    # with q = -k, -(N0+1) q < p <= n + 1 needs n >= k (N0+1): parts of at
    # least N0 + 1 always admit k = 1
    split = rest >= 2 * (n0 + 1) and (rng.random() < 0.5 if parts is None else parts == 2)
    dims = [rest]
    if split:
        first = rng.randint(n0 + 1, rest - n0 - 1)
        dims = [first, rest - first]
    for n in dims:
        k = rng.choice([k for k in (1, 2) if k * (n0 + 1) < n + 1])
        factors.append((n, rng.randint(k * (n0 + 1) + 1, n + 1), -k))
    return _doc(epsilon, factors, False, "solve", _kappa0(rng))


def _poly_mul(a: List[Fraction], b: List[Fraction]) -> List[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def obstruction_at_zero(factors: List[Factor], n0: int, n_star: int) -> Fraction:
    """I(0) = int_{-N0-1}^{N*+1} x prod_{n_i > 0} (x - p_i/q_i)^{n_i} dx."""
    poly = [Fraction(0), Fraction(1)]
    for n, p, q in factors:
        for _ in range(n):
            poly = _poly_mul(poly, [-Fraction(p, q), Fraction(1)])

    def anti(x: Fraction) -> Fraction:
        return sum(c * x ** (k + 1) / (k + 1) for k, c in enumerate(poly))

    return anti(Fraction(n_star + 1)) - anti(Fraction(-n0 - 1))


def middle_factors(n0: int, n_star: int, n: int) -> List[Factor]:
    """Every (n, p, q) with 1 <= p <= n + 1 and integer q != 0 that satisfies
    both compact-shrinker inequalities."""
    out = []
    for p in range(1, n + 2):
        for q in range(-p, p + 1):
            if q and -(n0 + 1) * q < p and (n_star + 1) * q < p:
                out.append((n, p, q))
    return out


def compact_shrinker(rng: random.Random, n0: int, n_star: int,
                     middle_dims: List[int]) -> Dict:
    """Compact shrinker with the given end dimensions and middle-factor
    dimensions; charges and Einstein constants are drawn until I(0) != 0."""
    for _ in range(1000):
        mids = [rng.choice(middle_factors(n0, n_star, n)) for n in middle_dims]
        factors = [(n0, n0 + 1, -1)] + mids + [(n_star, n_star + 1, 1)]
        if obstruction_at_zero(factors, n0, n_star) != 0:
            return _doc(-1, factors, True, "solve", _kappa0(rng))
    raise ValueError(f"no compact shrinker with I(0) != 0 for {n0, n_star, middle_dims}")


def compact_from_shape(rng: random.Random, shape) -> Dict:
    """A compact shrinker of a fixed shape ((N0, N*), middle factors); the
    seed draws kappa0."""
    (n0, n_star), mids = shape
    factors = [(n0, n0 + 1, -1)] + list(mids) + [(n_star, n_star + 1, 1)]
    return _doc(-1, factors, True, "solve", _kappa0(rng))


# -- workloads ------------------------------------------------------------------

#: solve-compact shapes ((N0, N*), middle factors): a CP^1 star end under a
#: negative charge, and a CP^1 collapsing at s = 0 under a positive one.  The
#: arclength table's star end sets the cost of `kricci solve` on a compact
#: shrinker and is not a smooth function of the data, so the shapes are fixed
#: measured ones, about 2-2.5 s each on the reference machine, and the seed
#: draws kappa0.  Two shapes let a run repeat each four times or more.
COMPACT_SHAPES = (
    ((0, 1), ((3, 4, -1),)),
    ((1, 0), ((1, 2, 1),)),
)

#: existence strata: (N0, N*) and the middle-factor dimensions
EXISTENCE_SHAPES = (
    ((0, 0), [1]), ((0, 0), [2]), ((0, 0), [1, 1]), ((1, 0), [1]),
    ((0, 1), [2]), ((0, 0), [1, 1, 1]), ((0, 0), [3]), ((1, 0), [1, 2]),
    ((2, 0), [2]), ((1, 1), [2]), ((0, 0), [2, 3]), ((0, 1), [1, 1, 2]),
)

#: the parameters that set the cost of an open-ended operation most are
#: kappa1 on steady and expanding solitons, epsilon on noncompact shrinkers,
#: and the dimension N0 collapsing at s = 0 (N0 = 1 is about 40% cheaper
#: than N0 = 0 at dimension 7)
OPEN_STRATA = (
    (steady, (Fraction(-1, 2), Fraction(-1), Fraction(-2))),
    (expanding, (Fraction(-1, 2), Fraction(-1), Fraction(-2))),
    (noncompact_shrinker, (Fraction(-1, 2), Fraction(-1), Fraction(-2))),
)


def solve_open(seed: int) -> List[Dict]:
    """Nine configs: each open-ended class at total dimensions 3, 5 and 7,
    with the values of its cost parameter in a Latin square, so that every
    class and every dimension meets each value once; N0 = 1 where the value
    -1 meets dimension 7, N0 = 0 elsewhere."""
    rng = random.Random(seed)
    return [make(rng, dim, values[(i + j) % 3], int(dim == 7 and values[(i + j) % 3] == -1))
            for i, (make, values) in enumerate(OPEN_STRATA)
            for j, dim in enumerate((3, 5, 7))]


def solve_compact(seed: int) -> List[Dict]:
    """One compact shrinker of each shape in COMPACT_SHAPES."""
    rng = random.Random(seed)
    return [compact_from_shape(rng, shape) for shape in COMPACT_SHAPES]


def tabulate(seed: int) -> List[Dict]:
    """Four profiles at total dimension 3, with a point collapsing at s = 0:
    a steady soliton with kappa1 = -1 and one two-dimensional factor, an
    expanding one with kappa1 = -2 and two one-dimensional factors, and
    noncompact shrinkers with epsilon = -1 (two factors) and -2 (one).  At
    -1/2 one operation cost up to twice as much as at -2, the widest spread
    of any stratum, so it is left out."""
    rng = random.Random(seed)
    one, two = Fraction(-1), Fraction(-2)
    return [steady(rng, 3, one, 0, 1), expanding(rng, 3, two, 0, 2),
            noncompact_shrinker(rng, 3, one, 0, 2), noncompact_shrinker(rng, 3, two, 0, 1)]


def existence(seed: int) -> List[Dict]:
    """Six compact shrinkers of every existence stratum."""
    rng = random.Random(seed)
    return [compact_shrinker(rng, n0, n_star, dims)
            for (n0, n_star), dims in EXISTENCE_SHAPES for _ in range(6)]


WORKLOADS = {
    "solve-open": solve_open,
    "solve-compact": solve_compact,
    "tabulate": tabulate,
    "existence": existence,
}


#: t_max and tau of the tabulate workload's reconstruct and flow calls.  They
#: are fixed: each sets the cost of every operation of a round at once, so
#: drawing them from the seed moved a whole run's cost with the seed.
FLOW_T_MAX = 5.0
FLOW_TAU = 0.2
