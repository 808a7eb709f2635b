"""Molecular graphs over C/O with implicit hydrogens.

Molecules are undirected labeled graphs: atoms carry an element symbol,
bonds carry an integer order (1, 2, 3). Hydrogens are never stored;
each atom's implicit H count is whatever valence is left over.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

MAX_VALENCE = {"C": 4, "O": 2}

# validate() verdicts
OK = "ok"
SELF_LOOP = "self_loop"
DUPLICATE_BOND = "duplicate_bond"
BAD_BOND_ORDER = "bad_bond_order"
BAD_ATOM_INDEX = "bad_atom_index"
UNSUPPORTED_ELEMENT = "unsupported_element"
VALENCE_VIOLATION = "valence_violation"
DISCONNECTED = "disconnected"
EMPTY = "empty"


class MolGraphError(Exception):
    pass


class ParseError(MolGraphError):
    pass


class UnsupportedElement(ParseError):
    pass


class ValenceError(MolGraphError):
    pass


@dataclass(frozen=True)
class MolecularGraph:
    """Immutable undirected molecular graph.

    atoms: tuple of element symbols ("C" or "O").
    bonds: tuple of (u, v, order) with u < v, stored once per pair.
    """

    atoms: tuple
    bonds: tuple

    def __init__(self, atoms, bonds):
        norm = []
        for u, v, order in bonds:
            if u > v:
                u, v = v, u
            norm.append((int(u), int(v), int(order)))
        norm.sort()
        object.__setattr__(self, "atoms", tuple(atoms))
        object.__setattr__(self, "bonds", tuple(norm))

    @property
    def n_atoms(self):
        return len(self.atoms)

    @property
    def n_rings(self):
        # cyclomatic number; equals ring count for connected graphs
        return len(self.bonds) - len(self.atoms) + 1

    @cached_property
    def adjacency(self):
        """List of (neighbor, order) per atom."""
        return [tuple(a) for a in _neighbours(self.atoms, self.bonds)]

    def degree(self, i):
        return len(self.adjacency[i])

    def bond_order_sum(self, i):
        return sum(order for _, order in self.adjacency[i])

    def implicit_h(self, i):
        return MAX_VALENCE[self.atoms[i]] - self.bond_order_sum(i)

    def count(self, element):
        return sum(1 for a in self.atoms if a == element)


def _neighbours(atoms, bonds):
    """A list of (neighbor, order) pairs per atom."""
    adj = [[] for _ in atoms]
    for u, v, order in bonds:
        adj[u].append((v, order))
        adj[v].append((u, order))
    return adj


def validate(g):
    """Return OK or the first violated structural invariant."""
    return _validate(g)[0]


def _validate(g):
    """validate()'s verdict and, for a valid graph, each atom's bond-order
    sum (None otherwise)."""
    n = g.n_atoms
    if n == 0:
        return EMPTY, None
    for a in g.atoms:
        if a not in MAX_VALENCE:
            return UNSUPPORTED_ELEMENT, None
    # __init__ sorts the bonds, so a repeated pair follows its first copy
    prev = None
    sums = [0] * n
    for u, v, order in g.bonds:
        if not (0 <= u < n and 0 <= v < n):
            return BAD_ATOM_INDEX, None
        if u == v:
            return SELF_LOOP, None
        if (u, v) == prev:
            return DUPLICATE_BOND, None
        prev = u, v
        if order not in (1, 2, 3):
            return BAD_BOND_ORDER, None
        sums[u] += order
        sums[v] += order
    for a, total in zip(g.atoms, sums):
        if total > MAX_VALENCE[a]:
            return VALENCE_VIOLATION, None
    # connectivity from atom 0
    adjacency = g.adjacency
    reach = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for u, _ in adjacency[v]:
            if u not in reach:
                reach.add(u)
                stack.append(u)
    if len(reach) != n:
        return DISCONNECTED, None
    return OK, sums


ATOM_FEATURE_DIM = 4


def atom_features(g):
    """Per-atom feature matrix: [is_C, is_O, implicit_H, degree]."""
    feats = np.zeros((g.n_atoms, ATOM_FEATURE_DIM))
    for i, a in enumerate(g.atoms):
        feats[i, 0] = 1.0 if a == "C" else 0.0
        feats[i, 1] = 1.0 if a == "O" else 0.0
        feats[i, 2] = g.implicit_h(i)
        feats[i, 3] = g.degree(i)
    return feats


_BOND_CHARS = {"-": 1, "=": 2, "#": 3}
_BOND_SYMS = {1: "", 2: "=", 3: "#"}


def parse_smiles(s):
    """Parse a SMILES string over the supported subset.

    Supports C/O atoms (aromatic c/o via Kekule expansion of even rings),
    bond symbols - = #, branches, and ring-closure digits 1-9.
    """
    if not isinstance(s, str) or not s:
        raise ParseError("empty SMILES string")
    atoms = []          # element symbols
    aromatic = []       # per-atom aromatic flag
    bonds = {}          # (u, v) -> order or None (undecided aromatic)
    stack = []
    prev = None
    pending = None      # explicit bond order awaiting next atom
    ring_open = {}      # digit -> (atom, pending order at opening)

    def add_bond(u, v, order):
        if u == v:
            raise ParseError("self-bond")
        key = (min(u, v), max(u, v))
        if key in bonds:
            raise ParseError("duplicate bond between atoms %d and %d" % key)
        bonds[key] = order

    for ch in s:
        if ch in ("C", "O", "c", "o"):
            atoms.append(ch.upper())
            aromatic.append(ch.islower())
            idx = len(atoms) - 1
            if prev is not None:
                add_bond(prev, idx, pending)
            pending = None
            prev = idx
        elif ch in _BOND_CHARS:
            if pending is not None:
                raise ParseError("consecutive bond symbols")
            pending = _BOND_CHARS[ch]
        elif ch.isdigit():
            if prev is None:
                raise ParseError("ring digit before any atom")
            d = int(ch)
            if d == 0:
                raise ParseError("ring digit 0 is not supported")
            if d in ring_open:
                other, other_pending = ring_open.pop(d)
                order = pending if pending is not None else other_pending
                if (pending is not None and other_pending is not None
                        and pending != other_pending):
                    raise ParseError("conflicting ring-closure bond orders")
                add_bond(other, prev, order)
                pending = None
            else:
                ring_open[d] = (prev, pending)
                pending = None
        elif ch == "(":
            if prev is None:
                raise ParseError("branch before any atom")
            stack.append(prev)
        elif ch == ")":
            if not stack:
                raise ParseError("unmatched ')'")
            prev = stack.pop()
        elif ch.isalpha():
            raise UnsupportedElement("unsupported element %r" % ch)
        else:
            raise ParseError("unexpected character %r" % ch)

    if stack:
        raise ParseError("unmatched '('")
    if ring_open:
        raise ParseError("unclosed ring digit(s): %s" % sorted(ring_open))
    if pending is not None:
        raise ParseError("dangling bond symbol")
    if not atoms:
        raise ParseError("no atoms in SMILES")

    bond_list = _kekulize(atoms, aromatic, bonds)
    g = MolecularGraph(atoms, bond_list)
    verdict = validate(g)
    if verdict == VALENCE_VIOLATION:
        raise ValenceError("valence exceeded in %r" % s)
    if verdict != OK:
        raise ParseError("invalid molecule (%s) in %r" % (verdict, s))
    return g


def _kekulize(atoms, aromatic, bonds):
    """Resolve undecided aromatic bonds to alternating single/double.

    Each aromatic component must be a simple even cycle.
    """
    undecided = [key for key, order in bonds.items() if order is None
                 and aromatic[key[0]] and aromatic[key[1]]]
    for key, order in bonds.items():
        if order is None and key not in undecided:
            bonds[key] = 1  # explicit-element bond with no symbol: single
    if not undecided:
        return [(u, v, order if order is not None else 1)
                for (u, v), order in bonds.items()]

    adj = {}
    for u, v in undecided:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    seen = set()
    for start in sorted(adj):
        if start in seen:
            continue
        # walk the component; it must be a plain cycle
        if len(adj[start]) != 2:
            raise ParseError("cannot kekulize: aromatic atoms do not form a ring")
        cycle = [start]
        seen.add(start)
        cur, prev = adj[start][0], start
        while cur != start:
            if len(adj[cur]) != 2:
                raise ParseError("cannot kekulize: aromatic atoms do not form a ring")
            seen.add(cur)
            cycle.append(cur)
            nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
            prev, cur = cur, nxt
        if len(cycle) % 2 != 0:
            raise ParseError("cannot kekulize: odd aromatic ring")
        for i in range(len(cycle)):
            u, v = cycle[i], cycle[(i + 1) % len(cycle)]
            bonds[(min(u, v), max(u, v))] = 2 if i % 2 == 0 else 1
    return [(u, v, order) for (u, v), order in bonds.items()]


# ---------------------------------------------------------------------------
# Canonicalization: colour refinement, then, for a graph with two or more
# rings, an individualisation search that branches on one atom per
# automorphism orbit; every graph, tree or not, is then written from its
# ranks by one DFS (`_emit`), the last step of CANGEN (Weininger, Weininger
# & Weininger 1989). A tree or a one-ring graph needs no search
# (`_canonical_candidates` gives the argument).
#
# The search tree is the one an exhaustive search would walk: each node
# individualises one atom of its first tied cell and refines. Refinement
# and individualisation commute with every automorphism that fixes the
# node's individualised atoms, so two cell atoms in one orbit of that group
# root subtrees with the same leaf strings. Exploring one atom per orbit
# therefore keeps the minimum over all leaves exactly (McKay & Piperno
# 2014, "Practical graph isomorphism, II").
#
# The core reads a graph as its atoms, its bonds (each pair once, either
# way round), each atom's (neighbour, order) list and each atom's bond-order
# sum, and it has two entries. `canonical_form` takes any MolecularGraph and
# validates it first. `canonical_form_trusted` takes a state as the
# grammar's builder makes it, (atoms, bonds, bond-order sums), and checks
# nothing: `grammar._attach` bonds each new fragment by one bond to an
# existing atom with enough free valence, so its states are connected, within
# valence and hold each pair once, and it carries the sums `_validate`
# would recompute. That entry builds only the neighbour lists, with no
# MolecularGraph (bond normalisation, sort, cached adjacency) and no
# validation.
# ---------------------------------------------------------------------------

def canonical_smiles(g):
    """Deterministic canonical SMILES; equal iff graphs are isomorphic."""
    return canonical_form(g)[0]


def canonical_form(g):
    """(canonical SMILES, order): order[k] is the atom the string writes k-th.

    `_emit` writes a tree from its refined ranks and a one-ring graph from
    the one leaf it needs; a graph with more rings takes the smallest pair
    written over the leaves of the individualisation search, which
    `_canonical_candidates` prunes of branches that repeat a leaf set.
    Two graphs with one string are isomorphic, and matching their
    atoms by position in that string is an isomorphism: parsing the string
    gives one graph whose atom k is the k-th written, and each graph's
    order maps onto it. An invalid graph raises MolGraphError.
    """
    verdict, sums = _validate(g)
    if verdict != OK:
        raise MolGraphError("cannot canonicalize invalid graph (%s)" % verdict)
    return _canonical_core(g.atoms, g.bonds, g.adjacency, sums)


def canonical_form_trusted(atoms, bonds, sums):
    """canonical_form(MolecularGraph(atoms, bonds)) for a graph known valid,
    with sums[i] atom i's bond-order sum, as every state `grammar._attach`
    builds is. Nothing is checked: an invalid graph gives no defined
    result."""
    return _canonical_core(atoms, bonds, _neighbours(atoms, bonds), sums)


def _canonical_core(atoms, bonds, adjacency, sums):
    init = [(a, len(nbrs), total, MAX_VALENCE[a] - total)
            for a, nbrs, total in zip(atoms, adjacency, sums)]
    return min(_canonical_candidates(atoms, bonds, adjacency, _rank(init)))


def _rank(keys):
    uniq = sorted(set(keys))
    pos = {k: r for r, k in enumerate(uniq)}
    return [pos[k] for k in keys]


def _refine(adjacency, ranks):
    """Split cells by their neighbours' (order, rank) multisets until stable.

    ranks must be dense, 0 to cells - 1, as `_rank` and `_individualise`
    keep them. A neighbour is the int order * (n + 1) + rank, which sorts
    like the (order, rank) pair. Ties keep their relative order, so a cell
    only ever splits into consecutive ranks; an atom alone in its cell
    needs no signature, and a ranking without ties is already stable. Each
    key leads with its atom's rank, so a pass with as many distinct keys as
    cells splits none and would give back the ranks it was given: it ends
    the loop.
    """
    n = len(ranks)
    m = n + 1
    cells = max(ranks) + 1
    while cells < n:
        counts = [0] * cells
        for r in ranks:
            counts[r] += 1
        keys = [(r, tuple(sorted([order * m + ranks[u]
                                  for u, order in adjacency[i]])))
                if counts[r] > 1 else (r,)
                for i, r in enumerate(ranks)]
        uniq = set(keys)
        if len(uniq) == cells:
            break
        pos = {k: r for r, k in enumerate(sorted(uniq))}
        ranks = [pos[k] for k in keys]
        cells = len(uniq)
    return ranks


def _individualise(ranks, atom):
    """Give atom its own rank just below the rest of its cell."""
    r = ranks[atom]
    new = [x + 1 if x >= r else x for x in ranks]
    new[atom] = r
    return new


def _first_tied_cell(ranks):
    counts = [0] * len(ranks)
    for r in ranks:
        counts[r] += 1
    r = next(r for r, c in enumerate(counts) if c > 1)
    return [i for i, x in enumerate(ranks) if x == r]


def _find(parent, i):
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i


def _canonical_candidates(atoms, bonds, adjacency, ranks):
    """The (string, order) pairs to take the min of: the one `_emit` writes
    from a tree's refined ranks or from a one-ring graph's one-branch
    descent, or those of the leaves the pruned search reaches on a graph
    with two or more rings.

    A leaf is a refined ranking with no ties. Colour refinement (atoms,
    bond orders and individualised atoms as colours) gives two atoms one
    colour exactly when their universal covers are isomorphic.

    A tree (`len(bonds) < n`) is its own cover, so its refined cells are
    its orbits (Immerman & Lander 1990), and it is written from them with
    no individualisation. Every automorphism maps the tree's centre (an
    atom or a bond) onto itself, so two tied neighbours of one atom, being
    in one orbit, are equally far from it: neither lies towards it.
    Swapping their branches, away from the atom, is then an automorphism
    that fixes the atom, so the branches write the same text over the same
    bond order to it. Any rank-0 atom starts the same string, as all of
    them are in one orbit. Individualising down to a leaf only orders such
    tied atoms, and keeps the order between cells, so it would write the
    same string; `_emit` puts tied atoms in index order, and its order
    still maps the graph onto the string.

    A graph with one ring (`len(bonds) == n`) has the ring unrolled into a
    bi-infinite path as its cover, with the same finite trees hanging at
    each period; an isomorphism of two such covers maps the path onto
    itself, so it is a rotation or reflection of the ring that carries the
    hanging trees, their colours and bond orders onto each other: an
    automorphism. Every tied cell is one orbit, then, and one branch per
    level reaches the leaf `_search` would emit first and alone. A graph
    with two or more rings goes to `_search`, which learns automorphisms,
    as refinement can tie atoms of different orbits there.
    """
    n = len(atoms)
    ranks = _refine(adjacency, ranks)
    if len(bonds) > n:
        return _search(atoms, bonds, adjacency, ranks)
    if len(bonds) == n:
        while max(ranks) < n - 1:
            atom = _first_tied_cell(ranks)[0]
            ranks = _refine(adjacency, _individualise(ranks, atom))
    return [_emit(atoms, adjacency, ranks)]


def _search(atoms, bonds, adjacency, ranks):
    """`_canonical_candidates` on refined ranks, searching below each tied
    cell atom that is in no explored atom's orbit.

    A leaf whose relabelled bond set equals an earlier leaf's maps onto it
    by an automorphism that fixes their common ancestor's individualised
    atoms. (Elements need no check: every leaf gives each rank the same
    element, as ranks only ever split the initial element-first key in
    order.) That leaf is not emitted, the search returns to the common
    ancestor, and the map's orbits are merged at that node and every node
    above it; a cell atom in the orbit of an explored one is skipped.
    """
    n = len(atoms)
    leaves = {}     # relabelled bond set -> (path, ranks) of its first leaf
    forms = []
    orbits = []     # union-find parents, one per node on the current path

    def search(ranks, path):
        """Explore the node at depth len(path). Returns None when done, or
        the depth of the common ancestor to resume from after a leaf
        repeated an earlier one."""
        if max(ranks) == n - 1:
            key = frozenset((ranks[u], ranks[v], order) if ranks[u] < ranks[v]
                            else (ranks[v], ranks[u], order)
                            for u, v, order in bonds)
            if key not in leaves:
                leaves[key] = (path, ranks)
                forms.append(_emit(atoms, adjacency, ranks))
                return None
            first_path, first_ranks = leaves[key]
            atom_at = [0] * n
            for i, r in enumerate(first_ranks):
                atom_at[r] = i
            depth = 0   # no leaf is another's ancestor: the paths differ
            while first_path[depth] == path[depth]:
                depth += 1
            for parent in orbits[:depth + 1]:
                for i, r in enumerate(ranks):
                    a, b = _find(parent, i), _find(parent, atom_at[r])
                    if a != b:
                        parent[max(a, b)] = min(a, b)
            return depth
        depth = len(path)
        parent = list(range(n))
        orbits.append(parent)
        explored = set()
        for atom in _first_tied_cell(ranks):
            if _find(parent, atom) in {_find(parent, a) for a in explored}:
                continue
            explored.add(atom)
            back = search(_refine(adjacency, _individualise(ranks, atom)),
                          path + [atom])
            if back is not None and back < depth:
                break
        else:
            back = None
        orbits.pop()
        return back

    search(ranks, [])
    return forms


def _emit(atoms, adjacency, ranks):
    """Write SMILES by one DFS from the lowest-index rank-0 atom, with
    neighbours in (rank, index) order.

    Returns (string, atoms in visit order), which is the order the string
    writes them. Each child is written as "(", its bond symbol and element,
    its subtree, and ")"; once an atom's neighbours are done, its last
    child's parentheses are blanked. A visited neighbour that is not the
    parent and was written earlier is an ancestor: their bond takes the
    next ring-closure digit, appended with its bond symbol to both atoms'
    tokens. Digits are numbered as the rings close, so each token gets
    them in increasing order. Ranks may tie on a tree, which has no
    closures; tied children go in index order."""
    start = ranks.index(0)
    out = [atoms[start]]
    slot = [-1] * len(atoms)    # each written atom's token in out
    slot[start] = 0
    written = []
    counter = 0

    def visit(v, parent):
        nonlocal counter
        written.append(v)
        last = -1
        for _, u, order in sorted([(ranks[u], u, order)
                                   for u, order in adjacency[v]
                                   if u != parent]):
            if slot[u] < 0:
                last = len(out)
                out.append("(")
                slot[u] = last + 1
                out.append(_BOND_SYMS[order] + atoms[u])
                visit(u, v)
                out.append(")")
            elif slot[u] < slot[v]:
                counter += 1
                if counter > 9:
                    raise MolGraphError("more than 9 ring closures")
                digit = _BOND_SYMS[order] + str(counter)
                out[slot[u]] += digit
                out[slot[v]] += digit
        if last >= 0:
            out[last] = out[-1] = ""

    visit(start, -1)
    return "".join(out), written
