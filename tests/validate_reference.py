"""Every admissibility clause written out in full, the way `model.validate`
once checked them: the structural clauses with beta positivity as float
products at the two ends, then the first integral and each class's
inequalities on (p, q, N0) besides its sign conditions on kappa1.

`model.validate` keeps only the clauses that beta positivity, given the
consistency relation, cannot imply; its verdict must be this one's.
"""

from fractions import Fraction

from kricci.model import Collapse, SolitonClass, _base_class, _close


def structural_violations(config) -> tuple:
    v: list = []
    factors = config.factors
    r = len(factors)
    eps = config.epsilon

    zero_set, star_set = set(config.zero_indices), set(config.star_indices)
    n0 = config.n_zero

    # -- boundary structure at s = 0
    if config.boundary.collapse_at_zero is Collapse.FACTOR:
        if 0 not in zero_set:
            v.append("boundary: factor 1 marked collapsing but sigma_1 != 0")
        if config.boundary.strict_unit_charge:
            if factors[0].q != -1:
                v.append("boundary: q_1 must be -1 at a collapsing first factor")
            if factors[0].p != factors[0].n + 1:
                v.append("boundary: collapsing factor 1 must be projective (p_1 = n_1 + 1)")
            for i in sorted(zero_set - {0}):
                v.append(f"boundary: sigma_{i+1} = 0 on a non-collapsing factor (degenerate)")
        else:
            for i in sorted(zero_set):
                if factors[i].q >= 0:
                    v.append(f"boundary: collapsing factor {i+1} needs q < 0")
                elif factors[i].p / factors[i].q != -(n0 + 1):
                    v.append(
                        f"boundary: collapsing factor {i+1} needs p/q = -(N0+1) = {-(n0 + 1)}"
                    )
    else:
        for i in sorted(zero_set):
            v.append(f"boundary: sigma_{i+1} = 0 with circle-only collapse (degenerate)")

    # -- boundary structure at s = s_star
    if config.is_compact:
        s_star = config.s_star
        n1 = config.n_star
        expected = Fraction(2) * (n0 + n1 + 2)
        if s_star != expected:
            v.append(f"boundary: s_star = {s_star} but collapsing dimensions give {expected}")
        if eps != -1:
            v.append(f"boundary: epsilon = {eps} on a compact interval, whose length "
                     f"s_star = 2(N0+N*+2) closes alpha only at epsilon = -1")
        if config.boundary.compact_end.collapse is Collapse.FACTOR:
            if r - 1 not in star_set:
                v.append("boundary: factor r marked collapsing at s_star but sigma_r != -s_star")
            if config.boundary.strict_unit_charge:
                if factors[-1].q != 1:
                    v.append("boundary: q_r must be +1 at a collapsing last factor")
                if factors[-1].p != factors[-1].n + 1:
                    v.append("boundary: collapsing factor r must be projective (p_r = n_r + 1)")
                for i in sorted(star_set - {r - 1}):
                    v.append(f"boundary: sigma_{i+1} = -s_star on a non-collapsing factor")
            else:
                for i in sorted(star_set):
                    if factors[i].q <= 0:
                        v.append(f"boundary: factor {i+1} collapsing at s_star needs q > 0")
                    elif factors[i].p / factors[i].q != config.n_star + 1:
                        v.append(
                            f"boundary: factor {i+1} collapsing at s_star needs "
                            f"p/q = N*+1 = {config.n_star + 1}"
                        )
        else:
            for i in sorted(star_set):
                v.append(f"boundary: sigma_{i+1} = -s_star with circle-only collapse (degenerate)")

    # -- E_star matches the collapsing structure
    if config.E_star != 2 * (n0 + 1):
        v.append(f"derived: E_star = {config.E_star} but collapse at zero gives {2 * (n0 + 1)}")

    # -- consistency condition per factor (only meaningful for eps != 0)
    if eps != 0:
        for i, fac in enumerate(factors):
            lhs = eps * config.sigmas[i] - 2 * fac.p / fac.q
            if not _close(lhs, config.E_star):
                v.append(
                    f"derived: factor {i+1} violates E_star = eps*sigma - 2p/q "
                    f"({lhs} != {config.E_star})"
                )

    # -- beta positivity on the open interior
    hi = config.s_star
    for i, fac in enumerate(factors):
        b0 = -fac.q * config.sigmas[i]  # beta_i(0)
        if hi is not None:
            b1 = -fac.q * (hi + config.sigmas[i])  # beta_i(s_star)
            interior_ok = b0 >= 0 and b1 >= 0 and (b0 > 0 or b1 > 0)
        else:
            interior_ok = b0 >= 0 and -fac.q > 0
        if not interior_ok:
            v.append(f"beta: beta_{i+1} is not positive on the open interior")
    return tuple(v)


def violations(config) -> tuple:
    """The structural violations, then those of the first integral, whose c
    every constructor computes as kappa1 (E_star - eps kappa0), and of the
    class clauses."""
    v = list(structural_violations(config))
    eps = config.epsilon
    cls = _base_class(config)
    zero_set, star_set = set(config.zero_indices), set(config.star_indices)
    n0 = config.n_zero

    # -- first integral constant
    if config.kappa1 != 0:
        expected = config.kappa1 * (config.E_star - eps * config.kappa0)
        if not _close(config.c, expected):
            v.append("derived: first-integral constant inconsistent "
                     f"(residual {config.c - expected})")

    # -- class-specific inequality families; n = 0 factors are skipped
    active = [(i, f) for i, f in enumerate(config.factors) if f.n > 0]
    if cls is SolitonClass.STEADY:
        if config.is_compact:
            v.append("class: steady configurations on a compact s-interval are rejected")
        if config.kappa1 > 0:
            v.append("class: steady requires kappa1 <= 0")
        for i, fac in active:
            if i in zero_set:
                continue
            if -fac.q * (n0 + 1) != fac.p:
                v.append(f"class: steady equality -q*(N0+1) = p failed for factor {i+1}")
            if config.sigmas[i] <= 0:
                v.append(f"class: steady requires sigma_{i+1} > 0")
    elif cls is SolitonClass.EXPANDING:
        if config.is_compact:
            v.append("class: expanding configurations on a compact s-interval are rejected")
        if config.kappa1 > 0:
            v.append("class: expanding requires kappa1 <= 0")
        for i, fac in active:
            if i in zero_set:
                continue
            if fac.p <= 0 and fac.q >= 0:
                v.append(f"class: non-Fano factor {i+1} (p <= 0) needs q < 0")
            if not (-fac.q * (n0 + 1) > fac.p):
                v.append(f"class: expanding inequality -q*(N0+1) > p failed for factor {i+1}")
    elif cls is SolitonClass.SHRINKING_COMPACT:
        nr = config.n_star
        for i, fac in active:
            if i in zero_set or i in star_set:
                continue
            if not (-(n0 + 1) * fac.q < fac.p):
                v.append(f"class: compact-shrinker inequality -(N0+1)q < p failed for factor {i+1}")
            if not ((nr + 1) * fac.q < fac.p):
                v.append(f"class: compact-shrinker inequality (N*+1)q < p failed for factor {i+1}")
    elif cls is SolitonClass.SHRINKING_NONCOMPACT:
        if config.kappa1 <= 0:
            v.append("class: noncompact shrinker requires kappa1 > 0")
        for i, fac in active:
            if i in zero_set:
                continue
            if not (0 < -(n0 + 1) * fac.q):
                v.append(f"class: noncompact-shrinker needs q < 0 for factor {i+1}")
            elif not (-(n0 + 1) * fac.q < fac.p):
                v.append(
                    f"class: noncompact-shrinker inequality -(N0+1)q < p failed for factor {i+1}"
                )
    return tuple(v)


def beta_underflows(config) -> bool:
    """Whether the beta clause above reads a negative beta_i(0) = -q_i sigma_i
    as -0.0: a float sigma_i times the float of a rational q_i underflows."""
    return any(-fac.q * sig == 0 > -fac.q * Fraction(sig)
               for fac, sig in zip(config.factors, config.sigmas))
