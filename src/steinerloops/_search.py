"""Backtracking over the third-point table: the first isomorphism between
two Steiner triple systems, and stabiliser chains of their automorphism
groups by orbit-pruned search (Seress, Permutation Group Algorithms, 2003;
McKay and Piperno, Practical graph isomorphism II, 2014).

Both run on one engine, _Search, along a closure plan of the source
system. The search places some points directly, always in the same order
(a level each); each such placement closes the map over the triples that
the placed points then span. Which source points that closure places, in
which order, and through which triples, depends on the source alone, so
the plan records every level once, when it is made: one step per point
the closure places, holding every triple that point is the last of. A
placement walks its level's steps, reading each point's image off the
images of two points placed before it, and fails at the first step whose
triples disagree. A node is one candidate placement.

A third search, steiner_operator.find_equivalence, walks the Plan of two
operators' quotient system with a placement of its own: one carrier map
per point, a direct point's tried from its candidates, every other point's
forced by its step. So the three searches share one plan and one closure
routine.

Permutations are tuples: p[x] is the image of point x, and (g o u)[x] is
g[u[x]].
"""

from .errors import BoundExceeded


def _close(third, placed, at, p):
    """The steps of placing p after the points of placed (in placing order;
    at[x] is x's position there, -1 for a point not placed): the closure of
    the placed points over p, run as a stack of points met unplaced, each
    point placed when it first comes off the stack, in turn after p.

    A step (x, a, c, more) says that x is placed at the third point of the
    images of a and c, and that every other pair (a', c') of more must close
    on the same point: {x, a, c} and each {x, a', c'} are the triples whose
    last point x is. placed and at grow by p and the points its closure
    places."""
    steps, todo = [], [p]
    while todo:
        x = todo.pop()
        if at[x] != -1:
            continue
        row, pairs = third[x], []
        for r in placed:
            z = row[r]
            if at[z] == -1:
                todo.append(z)
            elif at[z] > at[r]:  # the triple {x, r, z}, met again at z
                pairs.append((r, z))
        if pairs:  # every point but p, which closes no triple
            steps.append((x, *pairs[0], tuple(pairs[1:])))
        at[x] = len(placed)
        placed.append(x)
    return tuple(steps)


class Plan:
    """The closure plan of a source system: its third-point table third
    (nested lists, diagonal -1) and invariants inv, the points direct that
    a search places directly, in order, and steps[p] for each of them.

    _close runs once along order: a point of order that the closures of
    the points before it leave unplaced is direct, and its steps are its
    closure's. A plan holds only ints, so a system may keep its own."""

    __slots__ = ("third", "inv", "direct", "steps")

    def __init__(self, third, inv, order):
        self.third, self.inv, self.steps = third, inv, {}
        placed, at = [], [-1] * len(third)
        for p in order:
            if at[p] == -1:
                self.steps[p] = _close(third, placed, at, p)
        self.direct = tuple(self.steps)


class _Search:
    """Partial maps from the source system of plan to the one with
    third-point table third2 (nested lists, diagonal -1), sending each
    point only to a point of equal invariant (plan.inv, inv2), along the
    plan. Past budget nodes visit raises BoundExceeded, naming the search
    as kind. reject, if given, is called once, at the first failed
    candidate placement; when it returns True, complete stops with no map."""

    def __init__(self, plan, third2, inv2, budget, kind, reject=None):
        v = len(third2)
        self.inv1, self.third2, self.inv2 = plan.inv, third2, inv2
        self.direct, self.steps = plan.direct, plan.steps
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
        """Send p, the next direct point of the plan, to q and walk p's
        steps: each step's point goes to the third point of the images of
        its first pair, unless that point is used or of another invariant,
        or another pair of the step closes elsewhere; False at the first
        such clash, with the points before it placed.

        A point is placed once its whole step agrees, in the order in which
        a closure over every pair of placed points places them."""
        img, pre, placed = self.img, self.pre, self.placed
        inv1, inv2, third2 = self.inv1, self.inv2, self.third2
        if pre[q] != -1 or inv2[q] != inv1[p]:
            return False
        img[p], pre[q] = q, p
        placed.append(p)
        for x, a, c, more in self.steps[p]:
            y = third2[img[a]][img[c]]
            if pre[y] != -1 or inv2[y] != inv1[x]:
                return False
            for a, c in more:
                if third2[img[a]][img[c]] != y:
                    return False
            img[x], pre[y] = y, x
            placed.append(x)
        return True

    def undo(self, mark):
        img, pre, placed = self.img, self.pre, self.placed
        while len(placed) > mark:
            p = placed.pop()
            pre[img[p]] = img[p] = -1

    def complete(self, j):
        """Place the plan's direct points from the j-th on in turn, each on
        the unused points of its invariant in ascending order: True at the
        first map, or when reject stops the search with direct[j] unplaced;
        else False with the placements undone."""
        if j == len(self.direct):
            return True
        p, mark = self.direct[j], len(self.placed)
        for q in self.like[self.inv1[p]]:
            if self.pre[q] == -1:
                self.visit()
                if self.place(p, q) and self.complete(j + 1):
                    return True
                self.undo(mark)
                if self.reject is not None:
                    consult, self.reject = self.reject, None
                    if consult():
                        return True
        return False


def first_isomorphism(plan: Plan, third2, inv2, budget: int, reject=None):
    """The first point map carrying the source system of plan to the one
    with third-point table third2, or None; plan.inv and inv2 give each
    point an invariant that isomorphisms keep, with equal multisets. When
    plan.inv has one value, a caller may instead pass it as inv2 and check
    the target's own invariants in reject: until the first failed placement
    no choice of the search depends on inv2.

    The direct points of plan are placed in turn, each on the candidates
    in ascending order; the closure places the rest. The search visits at
    most budget nodes, then raises BoundExceeded; reject is called once, at
    the first failed candidate placement, and when it returns True the
    search stops with no map. Nothing is recorded in plan.
    """
    search = _Search(plan, third2, inv2, budget, "isomorphism", reject)
    if search.complete(0) and -1 not in search.img:  # not stopped by reject
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
    # the direct points of the plan in natural order lie outside the
    # subsystem generated by the points before them: their images fix an
    # automorphism, so the first point where two automorphisms differ is
    # a base point
    v = len(third)
    plan = Plan(third, inv, range(v))
    base = plan.direct
    search = _Search(plan, third, inv, budget, "automorphism")
    identity = tuple(range(v))
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
            if search.place(b, c) and search.complete(i + 1):
                gens.append(tuple(search.img))
                orbit = _transversal(b, gens, identity)
            else:  # no map sends b to c, nor to any image of c under gens
                dead.update(_transversal(c, gens, identity))
            search.undo(mark)
        transversals.append(tuple(orbit[c] for c in sorted(orbit)))
    return base, tuple(reversed(transversals)), tuple(gens)
