"""Stabiliser chains of the automorphism groups of Steiner triple systems,
found by orbit-pruned backtracking over the third-point table (Seress,
Permutation Group Algorithms, 2003; McKay and Piperno, Practical graph
isomorphism II, 2014).

Permutations are tuples: p[x] is the image of point x, and (g o u)[x] is
g[u[x]].
"""

from . import _kernels
from .errors import BoundExceeded


def _transversal(point: int, gens, identity) -> dict:
    """Each point of the orbit of point under gens, with one element sending
    point there."""
    found = {point: identity}
    queue = [point]
    for x in queue:
        for g in gens:
            y = g[x]
            if y not in found:
                found[y] = tuple(map(g.__getitem__, found[x]))  # g o u
                queue.append(y)
    return found


def automorphism_chain(third, inv, budget: int):
    """(base, transversals, generators) of the automorphism group G of the
    system with third-point table third (nested lists, diagonal -1); inv
    gives each point an invariant that automorphisms keep.

    At level i each point c sharing base[i]'s invariant, in ascending
    order, that the maps found so far do not carry base[i] to gets one
    search for a map that fixes base[:i] and sends base[i] to c. A map
    found is a strong generator; a c with none rules out its whole orbit.
    The searches run on disjoint subtrees and together visit at most
    budget nodes, then raise BoundExceeded.

    The maps found are the greedy generators: the sorted elements, each time
    the first one outside the subgroup H generated so far. The points below
    base[i] lie in the subsystem that base[:i] generates, so the stabiliser
    G^(i) of base[:i] fixes them, and every element of G^(i+1) comes before
    the rest of G^(i) in lexicographic order. So the greedy choice fills
    the stabilisers from the bottom, as the search does, and at level i,
    with G^(i+1) inside H, wants the least element of G^(i) that sends
    base[i] outside H's orbit: the least such c, and the first map of its
    search, which tries the images of the later base points in ascending
    order (base images order the maps as their full tuples do).
    """
    v = len(third)
    # the points outside the subsystem generated by the points before them:
    # their images fix an automorphism, so the first point where two
    # automorphisms differ is a base point
    base, _ = _kernels.generator_forms(third)
    like = {}
    for q in range(v):
        like.setdefault(inv[q], []).append(q)
    img, pre, placed = [-1] * v, [-1] * v, []
    nodes = 0

    def visit():
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BoundExceeded(f"automorphism search exceeded its budget of {budget} nodes")

    def place(p, q):
        """Send p to q and each point that two placed points close on to
        the third point of their images; False at the first clash."""
        todo = [(p, q)]
        while todo:
            p, q = todo.pop()
            if img[p] != -1:
                if img[p] != q:
                    return False
                continue
            if pre[q] != -1 or inv[q] != inv[p]:
                return False
            row_p, row_q = third[p], third[q]
            todo += [(row_p[r], row_q[img[r]]) for r in placed]
            img[p], pre[q] = q, p
            placed.append(p)
        return True

    def undo(mark):
        while len(placed) > mark:
            p = placed.pop()
            pre[img[p]] = img[p] = -1

    def complete(j):
        """Place base[j:] in turn: True at the first map, else False with
        the placements undone."""
        if j == len(base):
            return True
        p, mark = base[j], len(placed)
        for q in like[inv[p]]:
            if pre[q] == -1:
                visit()
                if place(p, q) and complete(j + 1):
                    return True
                undo(mark)
        return False

    identity = tuple(range(v))
    gens, transversals = [], []
    try:
        for i in reversed(range(len(base))):
            b = base[i]
            undo(0)
            for x in base[:i]:
                place(x, x)
            mark = len(placed)
            orbit, dead = _transversal(b, gens, identity), set()
            for c in like[inv[b]]:
                if c in orbit or c in dead or pre[c] != -1:
                    continue
                visit()
                if place(b, c) and complete(i + 1):
                    gens.append(tuple(img))
                    orbit = _transversal(b, gens, identity)
                else:  # no map sends b to c, nor to any image of c under gens
                    dead.update(_transversal(c, gens, identity))
                undo(mark)
            transversals.append(tuple(orbit[c] for c in sorted(orbit)))
    finally:
        del complete  # complete refers to itself: free the search now, not at the next gc
    return tuple(base), tuple(reversed(transversals)), tuple(gens)
