"""The candidate search of `securecode.secure_lif`, imported on its first
call, so that a process that only verifies or analyses designs does not
compile it.

`search` codes a network's edges in topological order.  At each edge it picks
the first local coefficient vector in product order whose global vector lies
in no forbidden set of the edge.  A forbidden set is a span A less an exempt
span B, given as a pair (inside, outside) of annihilator rows of A and of B,
outside None when nothing is exempt.  Per (receiver, path) through the edge, A
is the receiver's frontier without the path's row, annihilated by one row of
the frontier's dual basis.  Per security set W, a set of fewer than mu coded
directions whose C_W has full rank, A = [H; C_W] and B = C_W.  The root pair,
W empty, is read off the forms H keeps: its kernel annihilates A = span H,
the unit vectors annihilate B = 0, and its reduced rows are the root basis.

Only the encoding edges of the flow union choose anything.  By its paths and
inputs, an edge on no flow carries the zero vector, untested; one on a flow
with one input repeats it, as in Jaggi et al.'s Linear Information Flow; one
on a flow with two or more inputs is searched.
"""

from __future__ import annotations

from .exceptions import CapExceeded, FieldTooSmall
from .fmatrix import back_substitute, lead, null_space, reduce_row
from .securecode import alphabet_bound_general


def search(code, H, mu, cap):
    """Code `code`'s edges in topological order and yield (edge, dual,
    security, checks) after each: the receivers' frontier dual bases, the
    edge's security pairs as (W, pair) if it gathered them or None, and the
    tests counted so far, at most cap (CapExceeded).  FieldTooSmall at an
    edge no vector passes.

    An edge on no flow, with any number of inputs (none included), carries
    the zero vector, local zeros, with no test and no security pairs.  One
    on a flow with one input (forwarding) is not searched: (1) . input, the
    frontier row it replaces, with the tests the search would count, 1 for
    the zero vector and one per receiver span for the input; it keeps the
    dual bases and, its direction coded already, gathers no security pairs.
    One on a flow with two or more inputs is searched.

    The prefix search skips each prefix whose completions all lie in one
    receiver's forbidden span, and tries one vector per direction, the one
    whose first nonzero coefficient is 1.  A prefix leaves a line vec + c u,
    scanned up to the first vector that passes the receivers, which is
    nonzero.  A coded direction passes every security pair, so only a new
    direction is tested against them, and the edge gathers them then; if it
    fails one, `solve_line` solves the rest of the line.  A test is one
    receiver span or security pair against one prefix or vector, or one
    that a line solve evaluates."""
    net, f, n = code.network, code.field, code.n

    # per receiver, the dual basis of its frontier rows (initially the unit
    # vectors, the virtual inputs): frontier[r][j] . dual[r][i] = 1 if i == j, else 0
    dual = {r: list(code.units) for r in net.receivers}
    axpy, fdot = f.axpy, f.dot

    checks = 0
    top = mu if H.rows else 0  # security sets have sizes below top; with k = 0 there are none
    # the security sets as a prefix tree whose levels list them in order: kids[W] holds
    # the sets W + (x,) in the order x was coded, bases[W] the echelon bases of C_W and
    # [H; C_W], and seen the directions coded so far
    bases, kids, seen = {}, {}, set()

    def node(W, C, HC):  # W's security pair: A = [H; C_W], B = C_W
        bases[W] = C, HC
        return W, (null_space(f, *back_substitute(f, HC), n),
                   null_space(f, *back_substitute(f, C), n))

    roots = []
    if top:  # W = (): A = span H and B = 0, from the forms H keeps
        rows, pivots, rank = H.reduced
        bases[()] = [], [(p, row[:n]) for p, row in zip(pivots[:rank], rows)]
        roots.append(((), (H.kernel, code.units)))

    def count(tests):
        nonlocal checks
        checks += tests
        if checks > cap:
            raise CapExceeded(f"secure_lif exceeded SUBSET_CHECK_CAP = "
                              f"{cap} invariant checks at edge {e.id}")

    def held(rows, vec):  # a counted test per receiver span (dual row), up to one holding vec
        for i, x in enumerate(rows):
            if not fdot(x, vec):
                count(i + 1)
                return True
        count(len(rows))
        return False

    def forbids(pair, vec):
        count(1)
        return not any(fdot(x, vec) for x in pair[0]) and any(fdot(x, vec) for x in pair[1])

    def prefixes(cand, vec):  # all but the last coefficient, in product order, bar doomed ones
        if cand and held(doomed[len(cand)], vec):
            return
        if len(cand) == len(inputs) - 1:
            yield cand, vec
            return
        for c in range(f.order if any(cand) else 2):  # the first nonzero is 1
            yield from prefixes(cand + (c,), axpy(c, inputs[len(cand)], vec))

    def too_small():
        bound = alphabet_bound_general(len(net.edges), max(mu, 1), len(net.receivers))
        return FieldTooSmall(f"no valid coding vector for edge {e.id} over {f!r}; the "
                             f"sufficient alphabet bound is q >= {bound}", edge=e.id, bound=bound)

    def first_vector():  # (coefficients, vector, security pairs or None) of the first valid one
        security, u = None, inputs[-1]
        for cand, vec in prefixes((), [0] * n):
            stop = f.order if any(cand) else 2
            for c in range(stop):  # the line vec + c u
                w = axpy(c, u, vec)
                if held(receiving, w):
                    continue
                if tuple(lead(f, w)[1]) not in seen:  # a new direction
                    if security is None:  # the pairs by levels of the prefix tree: the sets in order
                        security, level = [], roots
                        while level:
                            security += level
                            level = [pair for W, _ in level for pair in kids.get(W, ())]
                    if any(forbids(pair, w) for _, pair in security):
                        c = solve_line(f, vec, u, [((x,), None) for x in receiving] +
                                       [pair for _, pair in security], range(c + 1, stop), count)
                        if c is None:
                            break
                        w = axpy(c, u, vec)
                return cand + (c,), w, security
        raise too_small()

    for e in net.topological_order:
        inputs, paths = code.inputs(e.id), net.flow_pairs[e.id]  # (receiver, path index) pairs
        receiving = [dual[r][pi] for r, pi in paths]  # each annihilates a receiver's span
        if not paths:  # in no receiver's frontier, and in every exempt span
            cand, vec, security = (0,) * len(inputs), (0,) * n, None
        elif len(inputs) == 1:  # coded already, or n = 1 with no security sets: no pairs
            count(1)  # the zero vector, held by the first receiver span
            if held(receiving, inputs[0]):  # each dual row meets its own frontier row
                raise too_small()
            cand, vec, security = (1,), inputs[0], None
        else:
            # doomed[j]: the receiver spans holding every input a j-prefix leaves free, those
            # whose dual row meets no input from the j-th on: past the last, found from the end
            doomed = [[] for _ in inputs]
            for x in receiving:
                i = len(inputs) - 1
                while i >= 0 and not fdot(x, inputs[i]):
                    i -= 1
                for later in doomed[i + 1:]:
                    later.append(x)
            cand, vec, security = first_vector()
            vec = tuple(vec)
            for r, pi in paths:  # frontier row pi becomes vec: update the dual basis
                D = dual[r]
                b = D[pi] = f.scale(f.inv(fdot(vec, D[pi])), D[pi])
                for j, row in enumerate(D):
                    c = j != pi and fdot(vec, row)
                    if c:
                        D[j] = axpy(f.neg(c), b, row)
            # a new direction joins each smaller set W it is independent of; having
            # passed W's pair, vec then also leaves span [H; C_W]
            direction = tuple(lead(f, vec)[1])
            if direction not in seen:  # then the edge gathered the pairs
                seen.add(direction)
                for W, _ in security:
                    C, HC = bases[W]
                    step = len(W) < top - 1 and reduce_row(f, C, vec)
                    if step:
                        kids.setdefault(W, []).append(
                            node(W + (e.id,), C + [step], HC + [reduce_row(f, HC, vec)]))
        code.local[e.id] = cand  # field elements by construction
        code.global_vectors[e.id] = vec
        yield e, dual, security, checks


def solve_line(f, vec, u, pairs, values, count):
    """The first c of `values` for which vec + c u lies in no forbidden set of
    `pairs` (as `search` gives them), or None.  A span of annihilator rows
    meets the line at one c, at every c or at none, by two dot products per
    row: a pair forbids one c, the line, or all of it but at most one c.
    Calls count(1) per pair it evaluates."""
    def meet(rows, cs):  # the c of cs that put vec + c u in the span rows annihilate
        for x in rows:
            a, b = f.dot(x, vec), f.dot(x, u)
            if a or b:
                cs = cs & {f.div(f.neg(a), b)} if b else set()
                if not cs:
                    break
        return cs

    allowed = set(values)
    for inside, outside in pairs:
        count(1)
        hits = meet(inside, allowed)  # forbidden unless also in B
        if hits:
            allowed -= hits - (set() if outside is None else meet(outside, hits))
            if not allowed:
                return None
    return min(allowed, default=None)
