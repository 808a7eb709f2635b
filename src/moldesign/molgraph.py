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
        adj = [[] for _ in self.atoms]
        for u, v, order in self.bonds:
            adj[u].append((v, order))
            adj[v].append((u, order))
        return [tuple(a) for a in adj]

    def degree(self, i):
        return len(self.adjacency[i])

    def bond_order_sum(self, i):
        return sum(order for _, order in self.adjacency[i])

    def implicit_h(self, i):
        return MAX_VALENCE[self.atoms[i]] - self.bond_order_sum(i)

    def total_h(self):
        return sum(self.implicit_h(i) for i in range(self.n_atoms))

    def count(self, element):
        return sum(1 for a in self.atoms if a == element)

    def permuted(self, perm):
        """Relabel atoms: new index of old atom i is perm[i]."""
        atoms = [None] * self.n_atoms
        for i, a in enumerate(self.atoms):
            atoms[perm[i]] = a
        bonds = [(perm[u], perm[v], order) for u, v, order in self.bonds]
        return MolecularGraph(atoms, bonds)


def validate(g):
    """Return OK or the first violated structural invariant."""
    if g.n_atoms == 0:
        return EMPTY
    for a in g.atoms:
        if a not in MAX_VALENCE:
            return UNSUPPORTED_ELEMENT
    seen = set()
    for u, v, order in g.bonds:
        if not (0 <= u < g.n_atoms and 0 <= v < g.n_atoms):
            return BAD_ATOM_INDEX
        if u == v:
            return SELF_LOOP
        if (u, v) in seen:
            return DUPLICATE_BOND
        seen.add((u, v))
        if order not in (1, 2, 3):
            return BAD_BOND_ORDER
    for i in range(g.n_atoms):
        if g.bond_order_sum(i) > MAX_VALENCE[g.atoms[i]]:
            return VALENCE_VIOLATION
    # connectivity from atom 0
    reach = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for u, _ in g.adjacency[v]:
            if u not in reach:
                reach.add(u)
                stack.append(u)
    if len(reach) != g.n_atoms:
        return DISCONNECTED
    return OK


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
# Canonicalization: iterative neighborhood refinement with tie-breaking,
# then deterministic DFS emission of a SMILES string.
# ---------------------------------------------------------------------------

def canonical_smiles(g):
    """Deterministic canonical SMILES; equal iff graphs are isomorphic."""
    verdict = validate(g)
    if verdict != OK:
        raise MolGraphError("cannot canonicalize invalid graph (%s)" % verdict)
    n = g.n_atoms
    init = [(g.atoms[i], g.degree(i), g.bond_order_sum(i), g.implicit_h(i))
            for i in range(n)]
    ranks = _rank(init)
    return min(_canonical_candidates(g, ranks))


def _rank(keys):
    uniq = sorted(set(keys))
    pos = {k: r for r, k in enumerate(uniq)}
    return [pos[k] for k in keys]


def _refine(g, ranks):
    n = g.n_atoms
    while True:
        keys = [(ranks[i],
                 tuple(sorted((order, ranks[u]) for u, order in g.adjacency[i])))
                for i in range(n)]
        new = _rank(keys)
        if new == ranks:
            return ranks
        ranks = new


def _canonical_candidates(g, ranks):
    """Yield SMILES strings for every tie-break branch; min is canonical."""
    ranks = _refine(g, ranks)
    n = g.n_atoms
    cells = {}
    for i, r in enumerate(ranks):
        cells.setdefault(r, []).append(i)
    tied = [cells[r] for r in sorted(cells) if len(cells[r]) > 1]
    if not tied:
        yield _emit(g, ranks)
        return
    cell = tied[0]
    for atom in cell:
        branched = [2 * r for r in ranks]
        branched[atom] -= 1
        yield from _canonical_candidates(g, _rank(branched))


def _emit(g, ranks):
    """Write SMILES by DFS from the rank-0 atom, neighbors in rank order."""
    n = g.n_atoms
    start = ranks.index(0)
    order_of = {}
    for u, v, o in g.bonds:
        order_of[(u, v)] = o
        order_of[(v, u)] = o
    nbrs = {v: sorted((u for u, _ in g.adjacency[v]), key=lambda u: ranks[u])
            for v in range(n)}

    visited = [False] * n
    children = {v: [] for v in range(n)}
    ring_at = {v: [] for v in range(n)}
    closed = set()
    counter = [0]

    def visit(v, parent):
        visited[v] = True
        for u in nbrs[v]:
            if u == parent:
                continue
            key = (min(u, v), max(u, v))
            if visited[u]:
                if key not in closed:
                    closed.add(key)
                    counter[0] += 1
                    d = counter[0]
                    if d > 9:
                        raise MolGraphError("more than 9 ring closures")
                    ring_at[v].append((d, order_of[(v, u)]))
                    ring_at[u].append((d, order_of[(v, u)]))
            else:
                children[v].append(u)
                visit(u, v)

    visit(start, -1)

    def render(v, bond_order):
        s = _BOND_SYMS[bond_order] + g.atoms[v]
        for d, o in sorted(ring_at[v]):
            s += _BOND_SYMS[o] + str(d)
        kids = children[v]
        for u in kids[:-1]:
            s += "(" + render(u, order_of[(v, u)]) + ")"
        if kids:
            u = kids[-1]
            s += render(u, order_of[(v, u)])
        return s

    return render(start, 1)


def is_isomorphic(a, b):
    """Labeled-multigraph isomorphism via canonical strings."""
    if sorted(a.atoms) != sorted(b.atoms) or len(a.bonds) != len(b.bonds):
        return False
    return canonical_smiles(a) == canonical_smiles(b)
