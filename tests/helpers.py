"""Helpers that only tests call, kept out of the library.

* `vadd`, `reduce_mod_span` and `solve_eq` are exact linear algebra on top
  of `_linalg`: a canonical vector sum, the canonical representative of x
  modulo a span, and one solution of a linear system.
* `enc_congruence` and `enc_flag` write the congruence and flag documents
  the CLI reads but never emits, for round trips and CLI inputs.
* `shifted_point` is the point w + N v that `init_forms.init_stability`
  and `init_forms.iterated_init_region` describe.
* `random_poly` draws a seeded polynomial with k distinct terms, exponents
  in [0, 3] and coefficients t^-2 .. t^2, for sweeps over random bends.
"""

from __future__ import annotations

from typing import Optional, Sequence

from tropcong._linalg import ZERO, Vec, canon, frac, reduce_mod_rref, rref, vec
from tropcong.jsonio import enc_context, enc_poly, enc_vec_int
from tropcong.trop_core import ExtPoint, parse_poly


def vadd(u: Vec, v: Vec) -> Vec:
    return tuple(canon(a + b) for a, b in zip(u, v))


def reduce_mod_span(x: Sequence, span_rows: Sequence[Sequence]) -> Vec:
    """Canonical representative of x modulo span(span_rows): pivot coords zeroed."""
    return reduce_mod_rref(x, *rref(span_rows))


def solve_eq(rows: Sequence[Sequence], rhs: Sequence) -> Optional[Vec]:
    """One solution of rows . x = rhs, or None if inconsistent."""
    if not rows:
        return None
    dim = len(rows[0])
    aug = [list(vec(r)) + [frac(b)] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    x = [ZERO] * dim
    for rrow, pc in zip(red, pivots):
        if pc == dim:  # 0 = 1 row
            return None
        x[pc] = rrow[dim]
    return tuple(x)


def enc_congruence(E) -> dict:
    return {"context": enc_context(E.context),
            "pairs": [{"lhs": enc_poly(f), "rhs": enc_poly(g)}
                      for f, g in E.pairs],
            "finite_basis": E.finite_tropical_basis}


def enc_flag(flag) -> dict:
    return {"ambient_dim": flag.ambient_dim,
            "tau_rays": [enc_vec_int(r) for r in flag.tau_rays],
            "cones": [{"rays": [enc_vec_int(r) for r in rays]}
                      for rays in flag.cones_rays]}


def shifted_point(w: ExtPoint, v: ExtPoint, N) -> ExtPoint:
    N = frac(N)
    return ExtPoint.make(w.context, w.r + N * v.r, w.tau,
                         tuple(a + N * b for a, b in zip(w.coords, v.coords)))


def random_poly(ctx, rng, k):
    exps = set()
    while len(exps) < k:
        exps.add(tuple(rng.randint(0, 3) for _ in range(ctx.rank)))
    names = ctx.var_names
    return parse_poly(ctx, " + ".join(
        "t^%d*" % rng.randint(-2, 2) + "*".join("%s^%d" % (v, e) for v, e in zip(names, u))
        for u in sorted(exps)))
