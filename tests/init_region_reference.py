"""Reference iterated-initial-form region: the recursive construction.

This was `resolve.iterated_init_region` (now in tests/init_forms.py) before
the deleted-term rows of an initial form were built by one step shared with
`init_stability`.  It is kept verbatim as an independent oracle for
tests/test_resolve.py.  It recurses from depth k down to 0, builds the chains
h_{i,0}, .., h_{i,k} of iterated initial forms on the way back up, and for
each term deleted at xi_depth emits one row in (N_1..N_k)-space, skipping
the row when the term dies at an earlier point.  When an iterated initial
form is bottom at an earlier point while the term survives there it raises
a bare TypeError (None minus a number); `init_forms` raises ValueError.

Test use only.
"""

from __future__ import annotations

from typing import Sequence

from tropcong._linalg import ZERO, vec
from tropcong.congruence import initial_form_point
from tropcong.polyhedra import LE, HRow, PolyhedronH
from tropcong.trop_core import ExtPoint, TropPoly


def iterated_init_region(polys: Sequence[TropPoly], xis: Sequence[ExtPoint]) -> PolyhedronH:
    """Polyhedron Q in (N_1..N_k)-space whose interior makes the iterated initial
    forms at xi_0, .., xi_k equal the single-point initial form at
    xi_0 + N_1 xi_1 + ... + N_k xi_k, for every given polynomial."""
    k = len(xis) - 1
    if k < 0:
        raise ValueError("need at least xi_0")

    # recursive construction mirroring the existence proof
    def region(fs, depth):
        """Rows over (N_1..N_depth); also returns h-chains h_{i,j} for j=0..depth."""
        if depth == 0:
            return [], [[fi] for fi in fs]
        gs = [initial_form_point(fi, xis[depth]) for fi in fs]
        sub_rows, sub_chains = region(gs, depth - 1)
        out_rows = list(sub_rows)
        chains = []
        for fi, gi, chain in zip(fs, gs, sub_chains):
            chain = list(chain) + [fi]  # h_{i,0}, ..., h_{i,depth}
            chains.append(chain)
            fv = fi.evaluate(xis[depth])
            init_support = set(gi.support())
            for u, a in fi.terms:
                if u in init_support:
                    continue
                m = (a,) + vec(u)
                pv = xis[depth].pair(m)
                if pv is None:
                    continue
                margin = fv - pv
                # N_depth * margin >= -( (h0(xi0)-<m,xi0>) + sum_j N_j (hj(xij)-<m,xij>) )
                coeffs = [ZERO] * k
                coeffs[depth - 1] = -margin
                const = ZERO
                dead = False
                for j in range(depth):
                    hj = chain[j]
                    val = hj.evaluate(xis[j])
                    bm = xis[j].pair(m)
                    if bm is None:
                        dead = True
                        break
                    gap = val - bm
                    if j == 0:
                        const += gap
                    else:
                        coeffs[j - 1] -= gap
                if dead:
                    continue
                out_rows.append(HRow(tuple(coeffs), const, LE))
        return out_rows, chains

    rows, _ = region(list(polys), k)
    return PolyhedronH.make(k, tuple(rows))
