"""Backtracking over the third-point table: the first isomorphism between
two Steiner triple systems, and stabiliser chains of their automorphism
groups by orbit-pruned search (Seress, Permutation Group Algorithms, 2003;
McKay and Piperno, Practical graph isomorphism II, 2014).

Both run on one engine, _Search: a placement sends a point to a point and
closes over every pair of placed points through the third-point tables. A
node is one candidate placement.

Permutations are tuples: p[x] is the image of point x, and (g o u)[x] is
g[u[x]].
"""

from . import _kernels
from .errors import BoundExceeded


class _Search:
    """Partial maps from the system with third-point table third1 to the one
    with third2 (nested lists, diagonal -1), sending each point only to a
    point of equal invariant (inv1, inv2). Past budget nodes visit raises
    BoundExceeded, naming the search as kind. reject, if given, is called
    once, at the first failed candidate placement; when it returns True,
    complete stops with no map."""

    def __init__(self, third1, inv1, third2, inv2, budget, kind, reject=None):
        v = len(third1)
        self.third1, self.inv1, self.third2, self.inv2 = third1, inv1, third2, inv2
        self.budget, self.kind, self.reject = budget, kind, reject
        self.like = {}
        for q in range(v):
            self.like.setdefault(inv2[q], []).append(q)
        self.img, self.pre, self.placed = [-1] * v, [-1] * v, []
        self.nodes = 0

    def visit(self):
        self.nodes += 1
        if self.nodes > self.budget:
            raise BoundExceeded(f"{self.kind} search exceeded its budget of {self.budget} nodes")

    def place(self, p, q):
        """Send p to q and each point that two placed points close on to
        the third point of their images; False at the first clash.

        A third point already placed is checked where the pair meets it, so
        a wrong candidate fails before its closure grows."""
        third1, third2, inv1, inv2 = self.third1, self.third2, self.inv1, self.inv2
        img, pre, placed = self.img, self.pre, self.placed
        todo = [(p, q)]
        while todo:
            p, q = todo.pop()
            if img[p] != -1:
                if img[p] != q:
                    return False
                continue
            if pre[q] != -1 or inv2[q] != inv1[p]:
                return False
            row_p, row_q = third1[p], third2[q]
            for r in placed:
                x, y = row_p[r], row_q[img[r]]
                if img[x] == -1:
                    todo.append((x, y))
                elif img[x] != y:
                    return False
            img[p], pre[q] = q, p
            placed.append(p)
        return True

    def undo(self, mark):
        img, pre, placed = self.img, self.pre, self.placed
        while len(placed) > mark:
            p = placed.pop()
            pre[img[p]] = img[p] = -1

    def complete(self, free, j):
        """Place free[j:] in turn, skipping points already placed, each on
        the unused points of its invariant in ascending order: True at the
        first map, or when reject stops the search with free[j] unplaced;
        else False with the placements undone."""
        while j < len(free) and self.img[free[j]] != -1:
            j += 1
        if j == len(free):
            return True
        p, mark = free[j], len(self.placed)
        for q in self.like[self.inv1[p]]:
            if self.pre[q] == -1:
                self.visit()
                if self.place(p, q) and self.complete(free, j + 1):
                    return True
                self.undo(mark)
                if self.reject is not None:
                    consult, self.reject = self.reject, None
                    if consult():
                        return True
        return False


def first_isomorphism(third1, inv1, third2, inv2, budget: int, reject=None):
    """The first point map carrying the system with third-point table third1
    to the one with third2, or None; inv1 and inv2 give each point an
    invariant that isomorphisms keep, with equal multisets. When inv1 has
    one value, a caller may instead pass inv1 as inv2 and check the target's
    own invariants in reject: until the first failed placement no choice of
    the search depends on inv2.

    The free points are placed rarest invariant class first, then in
    ascending order, each on the candidates in ascending order; the closure
    places the rest. The search visits at most budget nodes, then raises
    BoundExceeded; reject is called once, at the first failed candidate
    placement, and when it returns True the search stops with no map.
    """
    search = _Search(third1, inv1, third2, inv2, budget, "isomorphism", reject)
    # like holds the target's invariant classes, as large as the source's
    free_rank = sorted(range(len(third1)), key=lambda p: (len(search.like[inv1[p]]), p))
    if search.complete(free_rank, 0) and -1 not in search.img:  # not stopped by reject
        return tuple(search.img)
    return None


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
    # the points outside the subsystem generated by the points before them:
    # their images fix an automorphism, so the first point where two
    # automorphisms differ is a base point
    base, _ = _kernels.generator_forms(third)
    search = _Search(third, inv, third, inv, budget, "automorphism")
    identity = tuple(range(len(third)))
    gens, transversals = [], []
    for i in reversed(range(len(base))):
        b = base[i]
        search.undo(0)
        for x in base[:i]:
            search.place(x, x)
        mark = len(search.placed)
        orbit, dead = _transversal(b, gens, identity), set()
        for c in search.like[inv[b]]:
            if c in orbit or c in dead or search.pre[c] != -1:
                continue
            search.visit()
            if search.place(b, c) and search.complete(base, i + 1):
                gens.append(tuple(search.img))
                orbit = _transversal(b, gens, identity)
            else:  # no map sends b to c, nor to any image of c under gens
                dead.update(_transversal(c, gens, identity))
            search.undo(mark)
        transversals.append(tuple(orbit[c] for c in sorted(orbit)))
    return tuple(base), tuple(reversed(transversals)), tuple(gens)
