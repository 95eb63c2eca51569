"""Independent brute-force oracles used to cross-check the library.

Everything here works on plain Python sets over the vertex set, with no
imports from the package internals beyond the Polyomino data itself, so
a bug in the bit-set machinery cannot hide in its own oracle.
"""

from itertools import combinations, permutations

from polyrings.polyomino import Polyomino


def vertex_set(p):
    out = set()
    for c, r in p.cells:
        out.update({(c, r), (c + 1, r), (c, r + 1), (c + 1, r + 1)})
    return out


def brute_convex(p):
    """Row/column convexity straight from the definition."""
    cells = p.cells
    rows = {}
    cols = {}
    for c, r in cells:
        rows.setdefault(r, []).append(c)
        cols.setdefault(c, []).append(r)
    for r, cs in rows.items():
        for c in range(min(cs), max(cs) + 1):
            if (c, r) not in cells:
                return False
    for c, rs in cols.items():
        for r in range(min(rs), max(rs) + 1):
            if (c, r) not in cells:
                return False
    return True


def _normalize(cells):
    dc = min(c for c, _ in cells) - 1
    dr = min(r for _, r in cells) - 1
    if dc or dr:
        return frozenset((c - dc, r - dr) for c, r in cells)
    return cells


def fixed_polyominoes(max_cells):
    """Every fixed polyomino with 1..max_cells cells, smaller sizes first,
    each size in ascending order of its sorted cell list. Each size is
    grown from the one below by adding a neighbouring cell in every way,
    about 4x more shapes per cell."""
    level = {frozenset([(1, 1)])}
    for size in range(1, max_cells + 1):
        if size > 1:
            level = {
                _normalize(shape | {nb})
                for shape in level
                for c, r in shape
                for nb in ((c + 1, r), (c - 1, r), (c, r + 1), (c, r - 1))
                if nb not in shape
            }
        for shape in sorted(level, key=sorted):
            yield Polyomino(shape)


def brute_convex_polyominoes(fixed):
    """The convex shapes among the given fixed polyominoes, in their
    order: the filter over fixed_polyominoes(n) that the column-interval
    enumerator replaces."""
    return [p for p in fixed if brute_convex(p)]


def delete_cell(p, cell):
    """p without one of its cells, renormalized. Polyomino raises
    EmptyInput or DisconnectedCells when nothing or a disconnected set is
    left."""
    if cell not in p.cells:
        raise ValueError(f"{cell} is not a cell of the polyomino")
    return Polyomino(p.cells - {cell})


def brute_heights(p):
    vs = vertex_set(p)
    m = max(c for c, _ in vs)
    return [max(r for c, r in vs if c == i) for i in range(1, m + 1)]


def neigh_y(vs, t):
    """Row levels adjacent to the column set t in the vertex graph whose
    edges are the vertices vs."""
    return {j for i, j in vs if i in t}


def neigh_x(vs, u):
    return {i for i, j in vs if j in u}


def vertical_interval(vs, cells, t):
    """Contiguous levels plus a shared column of the cells between
    consecutive ones."""
    ny = sorted(neigh_y(vs, t))
    if not ny:
        return False
    if ny != list(range(ny[0], ny[-1] + 1)):
        return False
    for j in ny[:-1]:
        if not any((x - 1, j) in cells or (x, j) in cells for x in t):
            return False
    return True


def horizontal_interval(vs, cells, u):
    nx = sorted(neigh_x(vs, u))
    if not nx:
        return False
    if nx != list(range(nx[0], nx[-1] + 1)):
        return False
    for v in nx[:-1]:
        if not any((v, y - 1) in cells or (v, y) in cells for y in u):
            return False
    return True


def induced_connected(vs, tx, ty):
    """The subgraph of the vertex graph induced by the nodes x_i for i in
    tx and y_j for j in ty is nonempty and connected, by a search from
    one node along the edges (i, j) of vs with both ends kept."""
    nodes = {("x", i) for i in tx} | {("y", j) for j in ty}
    if not nodes:
        return False
    adj = {v: set() for v in nodes}
    for i, j in vs:
        if i in tx and j in ty:
            adj[("x", i)].add(("y", j))
            adj[("y", j)].add(("x", i))
    todo = [next(iter(nodes))]
    seen = set(todo)
    while todo:
        for w in adj[todo.pop()] - seen:
            seen.add(w)
            todo.append(w)
    return seen == nodes


def brute_gorenstein_convex(p):
    """Literal sweep of every nonempty proper T over X, conditions checked
    exactly as written, with the Hall gate done by subset enumeration."""
    vs = vertex_set(p)
    m = max(c for c, _ in vs)
    n = max(r for _, r in vs)
    if m != n:
        return False
    xs = list(range(1, m + 1))
    ys = list(range(1, n + 1))
    for k in range(1, m + 1):
        for t in combinations(xs, k):
            if len(neigh_y(vs, set(t))) < k:
                return False
        for u in combinations(ys, k):
            if len(neigh_x(vs, set(u))) < k:
                return False
    return all(len(ny) == len(t) + 1 for t, ny in brute_admissible(p))


def brute_admissible(p):
    """Every nonempty proper column set T meeting conditions (a) and (b)
    as written, listed in increasing bit order (by the sum of 2^(x-1)
    over x in T), each as the pair (sorted T, sorted N_Y(T))."""
    vs = vertex_set(p)
    xs = {c for c, _ in vs}
    ys = {r for _, r in vs}
    m = max(xs)
    out = []
    for code in range(1, (1 << m) - 1):
        t = {x for x in xs if code >> (x - 1) & 1}
        ny = neigh_y(vs, t)
        u = ys - ny
        if (
            u
            and vertical_interval(vs, p.cells, t)
            and neigh_x(vs, u) == xs - t
            and horizontal_interval(vs, p.cells, u)
        ):
            out.append((tuple(sorted(t)), tuple(sorted(ny))))
    return out


def brute_stack_subsets(p):
    """Literal form of the level-set criterion: sweep ALL column subsets,
    keep those where some level is missed and every outside column reaches
    strictly higher than max N_Y(T), then demand |N_Y(T)| = |T| + 1."""
    vs = vertex_set(p)
    m = max(c for c, _ in vs)
    n = max(r for _, r in vs)
    if m != n:
        return False
    xs = list(range(1, m + 1))
    ys = set(range(1, n + 1))
    for k in range(1, m + 1):
        for t in combinations(xs, k):
            ny = neigh_y(vs, set(t))
            if not ys - ny:
                continue
            top = max(ny)
            if all(max(neigh_y(vs, {x})) > top for x in xs if x not in t):
                if len(ny) != k + 1:
                    return False
    return True


def brute_perfect_matching(p):
    """Permutation search; only sensible for m = n <= 7."""
    vs = vertex_set(p)
    m = max(c for c, _ in vs)
    n = max(r for _, r in vs)
    if m != n:
        return False
    for perm in permutations(range(1, n + 1)):
        if all((i, perm[i - 1]) in vs for i in range(1, m + 1)):
            return True
    return False


def recursive_kuhn_matching(p):
    """Kuhn's augmenting paths written recursively, neighbours in level
    order: the matching max_matching must reproduce, as x -> y."""
    vs = vertex_set(p)
    m = max(c for c, _ in vs)
    n = max(r for _, r in vs)
    match_y = {}

    def augment(i, visited):
        for j in range(1, n + 1):
            if (i, j) in vs and j not in visited:
                visited.add(j)
                if j not in match_y or augment(match_y[j], visited):
                    match_y[j] = i
                    return True
        return False

    for i in range(1, m + 1):
        augment(i, set())
    return {i: j for j, i in match_y.items()}


def brute_independent_sets(vertices, forbidden):
    """All independent sets of the forbidden-pair graph, as frozensets."""
    clash: dict = {}
    for a, b in forbidden:
        clash.setdefault(a, set()).add(b)
        clash.setdefault(b, set()).add(a)
    out = [frozenset()]
    for v in vertices:
        others = clash.get(v, ())
        out += [s | {v} for s in out if s.isdisjoint(others)]
    return out


def brute_maximal_independent_sets(vertices, forbidden):
    verts = list(vertices)
    bad = {frozenset(pair) for pair in forbidden}
    sets = brute_independent_sets(verts, bad)

    def maximal(s):
        return all(
            v in s or any(frozenset((v, w)) in bad for w in s) for v in verts
        )

    return sorted(tuple(sorted(s)) for s in sets if maximal(s))


def brute_f_vector(vertices, forbidden, d):
    counts = [0] * (d + 1)
    for s in brute_independent_sets(vertices, forbidden):
        if len(s) <= d:
            counts[len(s)] += 1
    return tuple(counts)


def brute_face_counts(facet_list):
    """(f_-1, f_0, ...): the faces generated by facet_list, each subset of
    each facet listed once, counted by size."""
    faces = set()
    for f in facet_list:
        members = sorted(f)
        for k in range(len(members) + 1):
            faces.update(combinations(members, k))
    counts = [0] * (max(map(len, faces)) + 1)
    for face in faces:
        counts[len(face)] += 1
    return tuple(counts)


def brute_deltas(vs, tx, ty):
    """(delta+(T), delta-(T)) for T = {x_i : i in tx} u {y_j : j in ty}
    over the vertex set vs: the edges (i, j) with x_i outside T and y_j
    inside, and those with x_i inside and y_j outside. T is the source
    of a directed cut when it is proper, nonempty and delta-(T) is
    empty; the cut is then delta+(T)."""
    plus = frozenset((i, j) for i, j in vs if i not in tx and j in ty)
    minus = frozenset((i, j) for i, j in vs if i in tx and j not in ty)
    return plus, minus


def brute_directed_cuts(p):
    """Distinct directed-cut edge sets by sweeping all (Tx, Ty) pairs."""
    vs = vertex_set(p)
    m = max(c for c, _ in vs)
    n = max(r for _, r in vs)
    xs = list(range(1, m + 1))
    ys = list(range(1, n + 1))
    cuts = set()
    for kx in range(m + 1):
        for tx in combinations(xs, kx):
            for ky in range(n + 1):
                if kx + ky in (0, m + n):
                    continue
                for ty in combinations(ys, ky):
                    plus, minus = brute_deltas(vs, set(tx), set(ty))
                    if not minus:
                        cuts.add(plus)
    return cuts


def brute_max_disjoint_cuts(p):
    """Exact maximum pairwise-disjoint packing of directed cuts."""
    cuts = sorted(brute_directed_cuts(p), key=sorted)

    def best(idx, used):
        top = 0
        for k in range(idx, len(cuts)):
            if not cuts[k] & used:
                top = max(top, 1 + best(k + 1, used | cuts[k]))
        return top

    return best(0, frozenset())


def is_palindrome(seq):
    seq = list(seq)
    return seq == seq[::-1]


def brute_inner_minor_corners(p):
    """Corner pairs of all inner intervals, by direct cell containment."""
    vs = vertex_set(p)
    m = max(c for c, _ in vs)
    n = max(r for _, r in vs)
    out = []
    for i in range(1, m):
        for k in range(i + 1, m + 1):
            for j in range(1, n):
                for l in range(j + 1, n + 1):
                    if all(
                        (a, b) in p.cells
                        for a in range(i, k)
                        for b in range(j, l)
                    ):
                        out.append((i, j, k, l))
    return sorted(out)


def generic_revlex_less(mono_a, mono_b, ranked_desc):
    """Exponent-vector revlex over the full variable list, smallest first.

    For equal total degree: the monomial with the LARGER exponent at the
    first differing position (scanning from the smallest variable) is the
    revlex-smaller one.
    """
    ascending = list(reversed(ranked_desc))
    ea = [sum(1 for v in mono_a if v == w) for w in ascending]
    eb = [sum(1 for v in mono_b if v == w) for w in ascending]
    for a, b in zip(ea, eb):
        if a != b:
            return a > b
    return False


def brute_verify_groebner(p, ranked_desc):
    """Buchberger's criterion on the inner minors, pair by pair.

    Leading terms come from generic_revlex_less, every pair of minors is
    visited (pairs with coprime leading terms are skipped), and each side
    of an S-pair is reduced by scanning the generators in order and
    rewriting with the first whose leading term divides it.
    """
    gens = []
    for i, j, k, l in brute_inner_minor_corners(p):
        diag = sorted([(i, j), (k, l)])
        anti = sorted([(i, l), (k, j)])
        if generic_revlex_less(anti, diag, ranked_desc):
            gens.append((diag, anti))
        else:
            gens.append((anti, diag))
    for a in range(len(gens)):
        lead_a = set(gens[a][0])
        for b in range(a + 1, len(gens)):
            lead_b = set(gens[b][0])
            if not lead_a & lead_b:
                continue
            lcm = sorted(lead_a | lead_b)
            one = _first_match_normal_form(_spoly_side(lcm, gens[a]), gens)
            two = _first_match_normal_form(_spoly_side(lcm, gens[b]), gens)
            if one != two:
                return False
    return True


def _spoly_side(lcm, gen):
    lead, trail = gen
    rest = list(lcm)
    for v in lead:
        rest.remove(v)
    return sorted(rest + list(trail))


def _first_match_normal_form(mono, gens):
    current = list(mono)
    reduced = True
    while reduced:
        reduced = False
        for (u, v), (s, t) in gens:
            if u in current and v in current:
                current.remove(u)
                current.remove(v)
                current += [s, t]
                reduced = True
                break
    return sorted(current)
