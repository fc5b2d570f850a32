"""Independent reference implementations used to cross-check the package.

Everything in here is deliberately naive: explicit word enumeration and
per-word path searches, no subset construction, no worklists, no shared
state across words.  The one exception is `memo_unreadable_word`, the
package's earlier subset search, kept as the reference for the successor
tables that replaced it.  The only allowed overlap with the package under
test is the mathematics itself.
"""

import itertools
from collections import deque

import numpy as np


# ---------------------------------------------------------------------------
# path-completeness by exhaustive word enumeration
# ---------------------------------------------------------------------------

def word_is_readable(nodes, edges, word):
    """True iff some node sequence in the graph reads `word` left to right.

    Per-word path search via boolean adjacency products; nothing is shared
    between calls.
    """
    n = len(nodes)
    idx = {v: i for i, v in enumerate(nodes)}
    v = np.ones(n, dtype=bool)
    for sym in word:
        adj = np.zeros((n, n), dtype=bool)
        for (p, q, h) in edges:
            if h == sym:
                adj[idx[p], idx[q]] = True
        v = (v.astype(np.float32) @ adj.astype(np.float32)) > 0
        if not v.any():
            return False
    return True


def enumerate_unreadable(nodes, edges, alphabet, max_len, chunk=1 << 22):
    """Search every word of length 1..max_len for one with no reading path.

    Returns a readable/unreadable verdict: True if all words are readable,
    False otherwise.  The enumeration walks the full word tree level by
    level, keeping one boolean reachability row per word; once a level
    outgrows `chunk` rows the remaining depth is explored depth-first per
    symbol so memory stays bounded.  No deduplication, no sharing: each of
    the sum_{L<=max_len} |S|^L words gets its own row.
    """
    n = len(nodes)
    idx = {v: i for i, v in enumerate(nodes)}
    adj = {}
    for sym in alphabet:
        m = np.zeros((n, n), dtype=np.float32)
        for (p, q, h) in edges:
            if h == sym:
                m[idx[p], idx[q]] = 1.0
        adj[sym] = m

    def all_readable(rows, depth_left):
        if depth_left == 0:
            return True
        for sym in alphabet:
            nxt = (rows @ adj[sym]) > 0
            if not nxt.any(axis=1).all():
                return False
            if not all_readable(nxt.astype(np.float32), depth_left - 1):
                return False
        return True

    frontier = np.ones((1, n), dtype=np.float32)
    depth = 0
    while depth < max_len and frontier.shape[0] * len(alphabet) <= chunk:
        nxt = np.concatenate([(frontier @ adj[sym]) > 0 for sym in alphabet])
        if not nxt.any(axis=1).all():
            return False
        frontier = nxt.astype(np.float32)
        depth += 1
    if depth == max_len:
        return True
    # rows stay constant through the per-symbol recursion, so memory is
    # bounded by (remaining depth) * chunk rows
    return all_readable(frontier, max_len - depth)


def oracle_is_path_complete(nodes, edges, alphabet):
    """Brute-force path-completeness: every word up to length 2^|N| readable."""
    return enumerate_unreadable(nodes, edges, alphabet, 2 ** len(nodes))


def memo_unreadable_word(g):
    """Shortest unreadable word of the graph g, most recent symbol first,
    or None when every word reads.

    Breadth-first subset construction from the full node set with symbols
    in alphabet order, so the first empty subset found is reached by the
    shortlex-first unreadable word.  A state is a 1-tuple of a node mask
    (bit i for g.nodes[i]); each successor is built bit by bit from the
    nodes' own successor masks and memoized per symbol.  No cap.
    """
    index = {v: i for i, v in enumerate(g.nodes)}
    succ = {h: [0] * len(g.nodes) for h in g.alphabet}
    for p, q, h in g.edges:
        succ[h][index[p]] |= 1 << index[q]
    memo = {h: {0: 0} for h in g.alphabet}

    def step(h, mask):
        if mask not in memo[h]:
            out, rest = 0, mask
            while rest:
                low = rest & -rest
                out |= succ[h][low.bit_length() - 1]
                rest ^= low
            memo[h][mask] = out
        return memo[h][mask]

    start = ((1 << len(g.nodes)) - 1,)
    parent = {start: None}
    queue = deque([start])
    while queue:
        current = queue.popleft()
        for h in g.alphabet:
            state = (step(h, current[0]),)
            if state in parent:
                continue
            parent[state] = (current, h)
            if not state[0]:
                word = []
                while parent[state] is not None:
                    state, sym = parent[state]
                    word.append(sym)
                return tuple(word)
            queue.append(state)
    return None


# ---------------------------------------------------------------------------
# terminal strongly connected components by per-node reach sets
# ---------------------------------------------------------------------------

def terminal_components(nodes, edges):
    """The terminal strongly connected components, as frozensets.

    A node's reach set R (itself included) counts exactly when reach(v) = R
    for every v in R: then R is strongly connected and no edge leaves it.
    One search per node over the edge list, nothing shared between them.
    """
    reach = {}
    for u in nodes:
        seen = {u}
        stack = [u]
        while stack:
            v = stack.pop()
            for p, q, _ in edges:
                if p == v and q not in seen:
                    seen.add(q)
                    stack.append(q)
        reach[u] = frozenset(seen)
    return {r for r in reach.values() if all(reach[v] == r for v in r)}


# ---------------------------------------------------------------------------
# regular-language membership by per-word graph search
# ---------------------------------------------------------------------------

def nfa_accepts(edges, initial, accepting, word):
    """Word membership decided by DFS over (state, position) pairs."""
    stack = [(q, 0) for q in initial]
    seen = set(stack)
    while stack:
        q, k = stack.pop()
        if k == len(word):
            if q in accepting:
                return True
            continue
        for (p, r, h) in edges:
            if p == q and h == word[k] and (r, k + 1) not in seen:
                seen.add((r, k + 1))
                stack.append((r, k + 1))
    return False


def words_up_to(alphabet, max_len):
    """All words of length 0..max_len in length-then-lexicographic order."""
    for length in range(max_len + 1):
        yield from itertools.product(alphabet, repeat=length)


def prefix_class_member(stem, word):
    """Membership in a prefix class: agree with the stem where both defined."""
    k = min(len(stem), len(word))
    return tuple(word[:k]) == tuple(stem[:k])


def stem_shift_includes(symbol, source_stem, target_stem):
    """Closed-form edge test for prefix-class members.

    Prepending `symbol` to the class of `source_stem` lands inside the class
    of `target_stem` exactly when `target_stem` is a prefix of the shifted
    stem (symbol, *source_stem).  Requires an alphabet with at least two
    symbols; over a one-symbol alphabet distinct stems describe overlapping
    classes and this test is too strict.
    """
    shifted = (symbol,) + tuple(source_stem)
    return tuple(target_stem) == shifted[: len(target_stem)]


# ---------------------------------------------------------------------------
# short-product growth by eigensolving every word
# ---------------------------------------------------------------------------

def all_words_growth(system, max_len):
    """Largest rho(A_w)^(1/|w|) over every word with 1 <= |w| <= max_len,
    and its witness in time order.

    Every product is formed, newest mode on the left, and eigensolved, with
    no use of rotations or powers.  Each product is kept divided by its
    largest entry c_w, with log c_w carried beside it.  The witness is the
    shortest, then lexicographically first (in alphabet order), word whose
    rate is within 1e-12 (relative) of the best, so that eigensolves of
    similar products cannot steal a tie.
    """
    alphabet = system.alphabet
    n = system.dimension

    def unit_scaled(stack):
        peak = np.abs(stack).max(axis=(1, 2))
        peak[peak == 0.0] = 1.0
        stack /= peak[:, None, None]
        return np.log(peak)

    modes = np.array([system.modes[s] for s in alphabet])
    mode_logs = unit_scaled(modes)
    best, best_word = -np.inf, None
    prods, logs = np.eye(n)[None], np.zeros(1)
    for length in range(1, max_len + 1):
        # word index i * |alphabet| + s is word i followed by symbol s
        prods = np.matmul(modes[None], prods[:, None]).reshape(-1, n, n)
        logs = (logs[:, None] + mode_logs).reshape(-1) + unit_scaled(prods)
        radii = np.abs(np.linalg.eigvals(prods)).max(axis=1)
        with np.errstate(divide="ignore"):
            growth = np.exp((np.log(radii) + logs) / length)
        peak = float(growth.max())
        tie = 1e-12 * max(1.0, abs(peak))
        if peak > best + tie:
            best = peak
            first = int(np.argmax(growth >= peak - tie))
            best_word = next(itertools.islice(
                itertools.product(alphabet, repeat=length), first, None))
    return best, best_word


# ---------------------------------------------------------------------------
# grid-search oracle for the single-variable 2x2 margin program
# ---------------------------------------------------------------------------

def grid_margin_2x2(rho, modes, step=1e-3, box=1.2, return_argmax=False):
    """Maximize min-eigenvalue slack over symmetric 2x2 P with trace 2.

    The single matrix variable is parametrized as P = [[1+u, v], [v, 1-u]].
    Constraints: P itself and rho^2 P - A^T P A per mode, all >= t I; the
    oracle grids (u, v) over [-box, box]^2 and reports the best
    min-eigenvalue over all constraints.  Fully vectorized closed-form 2x2
    eigenvalues.  With return_argmax the (u, v) of the best grid point is
    returned too, so callers can assert the optimum is interior to the box.
    """
    u = np.arange(-box, box + step / 2, step)
    uu, vv = np.meshgrid(u, u, indexing="ij")

    def min_eig_affine(c0, cu, cv):
        a = c0[0, 0] + uu * cu[0, 0] + vv * cv[0, 0]
        d = c0[1, 1] + uu * cu[1, 1] + vv * cv[1, 1]
        b = c0[0, 1] + uu * cu[0, 1] + vv * cv[0, 1]
        mid = 0.5 * (a + d)
        rad = np.sqrt(np.maximum(0.25 * (a - d) ** 2 + b * b, 0.0))
        return mid - rad

    basis = [np.eye(2), np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])]
    t = min_eig_affine(*basis)
    for mode in modes:
        a = np.asarray(mode, dtype=float)
        mats = [rho ** 2 * b - a.T @ b @ a for b in basis]
        t = np.minimum(t, min_eig_affine(*mats))
    flat = int(t.argmax())
    best = float(t.reshape(-1)[flat])
    if return_argmax:
        i, j = np.unravel_index(flat, t.shape)
        return best, (float(u[i]), float(u[j]))
    return best
