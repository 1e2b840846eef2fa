"""Exhaustive gallery search, a reference for ``curvecone.metric.distance``.

Deliberately independent of the library's search: no heap, no bound,
no screen, no tie rule and no simplex of its own.  Every gallery is
walked depth first, with every embedding of both endpoints, and each
closed one is scored by scipy's ``linprog`` from the program's
definition.  Slow but simple; ``revisit_budget`` lets a gallery repeat
orbits, which the library's search never does.
"""

import numpy as np
from scipy.optimize import linprog


def _pad(embedding, coords, size):
    vec = [0.0] * size
    for c, e in enumerate(embedding):
        vec[e] = coords[c]
    return vec


def linprog_value(cx, seq, transits, emb_p, p, emb_q, q):
    """The closed gallery program from its definition: segment lengths
    ``t_j`` and breakpoints ``w_k``, with every edge of segment ``j``
    moving by at most ``2 t_j``."""
    n_seg = len(seq)
    offsets = np.cumsum([n_seg] + [len(t.into_source) for t in transits])
    nvar = int(offsets[-1])

    def side(j, at_start):
        # (constants, {edge: breakpoint variable}) at one end of segment j.
        m = cx.orbit(seq[j]).n_edges
        if at_start and j == 0:
            return _pad(emb_p, p.coords, m), {}
        if not at_start and j == n_seg - 1:
            return _pad(emb_q, q.coords, m), {}
        k = j - 1 if at_start else j
        edges = transits[k].into_target if at_start else transits[k].into_source
        return [0.0] * m, {e: int(offsets[k]) + c for c, e in enumerate(edges)}

    rows, rhs = [], []
    for j in range(n_seg):
        (u, u_var), (v, v_var) = side(j, True), side(j, False)
        for e in range(len(u)):
            for sign in (1.0, -1.0):
                # sign * (u_e - v_e) <= 2 t_j
                row = np.zeros(nvar)
                row[j] = -2.0
                if e in u_var:
                    row[u_var[e]] += sign
                if e in v_var:
                    row[v_var[e]] -= sign
                rows.append(row)
                rhs.append(-sign * (u[e] - v[e]))
    cost = np.zeros(nvar)
    cost[:n_seg] = 1.0
    res = linprog(cost, A_ub=np.array(rows), b_ub=rhs, bounds=(0, None), method="highs")
    assert res.status == 0
    return res.fun


def gallery_program(cx, seq, transits, emb_p, p, emb_q, q):
    """The key and right-hand side ``metric._gallery_lp`` takes for a
    gallery, walked from the whole gallery.

    The key is the segments' orbit sizes and the inner transits'
    ``(into_source, into_target)``, then, open, the last transit's
    ``into_source``.  Each edge of each segment gives a row pair with
    constants ``(-v, v)``, ``v`` being ``p``'s coordinate on the first
    segment minus ``q``'s on a closed last (``0.0 - q`` past the first),
    and 0 elsewhere; an open program's climb row ``-max(q) / 2`` comes
    first.  A closed gallery of one orbit is measured directly, and its
    key and right-hand side go unread.
    """
    closed = emb_q is not None
    n_seg = len(seq) if closed else len(seq) - 1
    sizes = tuple(cx.orbit(oid).n_edges for oid in seq[:n_seg])
    inner = transits if closed else transits[:-1]
    key = (sizes, tuple((t.into_source, t.into_target) for t in inner))
    if not closed:
        key += (transits[-1].into_source,)
    rhs = [] if closed else [-0.5 * max(q.coords)]
    for j, m in enumerate(sizes):
        const = _pad(emb_p, p.coords, m) if j == 0 else [0.0] * m
        if closed and j == n_seg - 1:
            for e, v in enumerate(_pad(emb_q, q.coords, m)):
                const[e] -= v
        for v in const:
            rhs += (-v, v)
    return key, rhs


def reference_distance(p, q, revisit_budget):
    """Least value over the apex route and every gallery of top orbits
    that repeats at most ``revisit_budget`` orbits."""
    best = 0.5 * (p.max_coord + q.max_coord)  # the apex route
    if p.is_apex or q.is_apex:
        return best
    cx = p.complex
    tops = cx.maximal_ids

    def walk(seq, transits, emb_p):
        nonlocal best
        for emb_q in cx.embeddings(q.orbit_id, seq[-1]):
            best = min(best, linprog_value(cx, seq, transits, emb_p, p, emb_q, q))
        for nxt in tops:
            if len(seq) + 1 - len({*seq, nxt}) > revisit_budget:
                continue
            for tr in cx.transits(seq[-1], nxt):
                walk(seq + [nxt], transits + [tr], emb_p)

    for start in tops:
        for emb_p in cx.embeddings(p.orbit_id, start):
            walk([start], [], emb_p)
    return best
