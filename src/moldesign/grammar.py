"""Deterministic latent-vector <-> molecule mapping via a fragment grammar.

Each latent coordinate is one decision slot. Slot 0 picks a scaffold;
every later slot either attaches a fragment at a deterministic site or
stops. Coordinates are clamped into the search box and thresholded into
equal-width cells, so the decoder is total, piecewise constant, and has
an exact inverse on expressible molecules.
"""

from __future__ import annotations

import json
import logging
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .checks import as_box, check_keys, is_int, read_json
from .molgraph import (MAX_RINGS, MAX_VALENCE, MolecularGraph, _find,
                       _neighbours, _validate, canonical_form_trusted,
                       canonical_smiles)

log = logging.getLogger("moldesign")

class GrammarError(Exception):
    pass


class NotExpressible(GrammarError):
    pass


class TooLarge(GrammarError):
    pass


# --- scaffolds and fragments -----------------------------------------------

def _bond_type(atoms, bond):
    """The sorted element pair of a bond plus its order."""
    u, v, o = bond
    return tuple(sorted((atoms[u], atoms[v]))) + (o,)


def _ring_blocks(atoms, bonds):
    """One ("ring", size) part per 2-edge-connected block of the graph
    that is a simple cycle, and one ("ring", atoms, bonds) part per block
    that is not (fused, bridged or spiro rings).

    A ring bond is one whose ends stay joined without it; the ring bonds'
    ends, joined, are the blocks, and a bond lies in a block when both its
    ends do. This takes O(bonds^2), once per piece and per encode target.
    """
    block = list(range(len(atoms)))   # union-find over atoms
    for k, (u, v, _) in enumerate(bonds):
        rest = list(range(len(atoms)))   # union-find without bond k
        for a, b, _ in bonds[:k] + bonds[k + 1:]:
            rest[_find(rest, a)] = _find(rest, b)
        if _find(rest, u) == _find(rest, v):
            block[_find(block, u)] = _find(block, v)
    n_bonds = Counter(_find(block, u) for u, v, _ in bonds
                      if _find(block, u) == _find(block, v))
    n_atoms = Counter(_find(block, a) for a in range(len(atoms)))
    return [("ring", n_atoms[r]) if n_atoms[r] == m
            else ("ring", n_atoms[r], m) for r, m in n_bonds.items()]


def _parts(atoms, bonds):
    """The elements, bond types and ring blocks of a graph."""
    return list(atoms) + [_bond_type(atoms, b) for b in bonds] \
        + _ring_blocks(atoms, bonds)


class _Piece(NamedTuple):
    """A scaffold or fragment: its atoms, its internal bonds, each atom's
    bond-order sum over them, its budget parts (`_parts`) and, for a
    fragment, the order of the bond from its atom 0 to its site."""

    atoms: tuple
    bonds: tuple
    sums: tuple
    parts: tuple
    order: int


def _piece(atoms, bonds, order=None):
    sums = _validate(MolecularGraph(atoms, bonds))[1]
    return _Piece(tuple(atoms), tuple(bonds), tuple(sums),
                  tuple(_parts(atoms, bonds)), order)


def _ring(k):
    return _piece(["C"] * k,
                  [(i, i + 1, 1) for i in range(k - 1)] + [(0, k - 1, 1)])


# each piece is built once here, as it does not depend on the grammar. A
# fragment is connected and hangs on the one bond to its site, a bridge,
# so a state's ring blocks are those of its scaffold and fragments and
# carry over unchanged into every descendant; a piece's parts are then
# exactly what it adds to a state's, the bond to the site aside. Every
# bond is written low atom first, and so is each bond `_attach` adds.
_SCAFFOLDS = {
    "C": _piece(["C"], []),
    "CC": _piece(["C", "C"], [(0, 1, 1)]),
    "CO": _piece(["C", "O"], [(0, 1, 1)]),
    "ring3": _ring(3),
    "ring5": _ring(5),
    "ring6": _ring(6),
}

_FRAGMENTS = {
    "methyl": _piece(["C"], [], 1),
    "ethyl": _piece(["C", "C"], [(0, 1, 1)], 1),
    "hydroxyl": _piece(["O"], [], 1),
    "methoxy": _piece(["O", "C"], [(0, 1, 1)], 1),
    "carbonyl": _piece(["O"], [], 2),
    "formyl": _piece(["C", "O"], [(0, 1, 2)], 1),
    "tert_butyl": _piece(["C"] * 4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)], 1),
    "cyclopropyl": _piece(["C"] * 3, [(0, 1, 1), (0, 2, 1), (1, 2, 1)], 1),
    "phenyl": _piece(["C"] * 6, [(0, 1, 2), (1, 2, 1), (2, 3, 2), (3, 4, 1),
                                 (4, 5, 2), (0, 5, 1)], 1),
}

DEFAULT_FRAGMENTS = tuple(_FRAGMENTS)
DEFAULT_SCAFFOLDS = tuple(_SCAFFOLDS)


@dataclass(frozen=True)
class FragmentGrammar:
    """Fragment/scaffold libraries plus the latent slot layout."""

    n_dims: int = 32
    fragments: tuple = DEFAULT_FRAGMENTS
    scaffolds: tuple = DEFAULT_SCAFFOLDS
    max_heavy_atoms: int = 9

    def __post_init__(self):
        if not is_int(self.n_dims, 1):
            raise GrammarError("n_dims must be an integer >= 1")
        if not is_int(self.max_heavy_atoms, 1):
            raise GrammarError("max_heavy_atoms must be an integer >= 1")
        if not self.scaffolds:
            raise GrammarError("scaffolds must not be empty")
        for f in self.fragments:
            if not (isinstance(f, str) and f in _FRAGMENTS):
                raise GrammarError("unknown fragment %r" % f)
        for s in self.scaffolds:
            if not (isinstance(s, str) and s in _SCAFFOLDS):
                raise GrammarError("unknown scaffold %r" % s)
        # a state has one ring per ring piece (each holds at most one, and
        # fragments hang by a bridge), and SMILES numbers MAX_RINGS closures
        scaf, frag = ([len(lib[n].atoms) for n in names
                       if len(lib[n].bonds) >= len(lib[n].atoms)]
                      for lib, names in ((_SCAFFOLDS, self.scaffolds),
                                         (_FRAGMENTS, self.fragments)))
        slots = bool(scaf) + bool(frag) * (self.n_dims - 1)
        fit = self.max_heavy_atoms // min(scaf + frag) if slots else 0
        if min(slots, fit) > MAX_RINGS:
            raise GrammarError("a path could build more than %d rings, which "
                               "SMILES cannot number" % MAX_RINGS)

    @property
    def choices_per_slot(self):
        out = [len(self.scaffolds)]
        out.extend([len(self.fragments) + 1] * (self.n_dims - 1))
        return out

    def to_config(self):
        return {
            "schema_version": 1,
            "n_dims": self.n_dims,
            "fragments": list(self.fragments),
            "scaffolds": list(self.scaffolds),
            "max_heavy_atoms": self.max_heavy_atoms,
        }

    @classmethod
    def from_config(cls, cfg):
        keys = ("n_dims", "fragments", "scaffolds", "max_heavy_atoms")
        if not isinstance(cfg, dict) or any(k not in cfg for k in keys):
            raise GrammarError("grammar config needs keys %s"
                               % ", ".join(keys))
        check_keys(cfg, keys, GrammarError, "grammar")
        for k in ("fragments", "scaffolds"):
            if not isinstance(cfg[k], list):
                raise GrammarError("%s must be a list" % k)
        return cls(n_dims=cfg["n_dims"], fragments=tuple(cfg["fragments"]),
                   scaffolds=tuple(cfg["scaffolds"]),
                   max_heavy_atoms=cfg["max_heavy_atoms"])

    def save(self, path):
        with open(path, "w") as f:
            json.dump(self.to_config(), f, indent=2, sort_keys=True)

    @classmethod
    def load(cls, path):
        return cls.from_config(read_json(path))


# --- building states -------------------------------------------------------

def _scaffold(grammar, s):
    """The (atoms, bonds, bond-order sums) state of scaffold number s."""
    atoms, bonds, sums, _, _ = _SCAFFOLDS[grammar.scaffolds[s]]
    return atoms, list(bonds), list(sums)


def _site(atoms, bond_sums, fragment):
    """The atom a fragment attaches to: the lowest-index one with enough
    free valence for the fragment's bond that is not an O when the
    fragment's atom 0 is an O; None if no atom qualifies."""
    frag = _FRAGMENTS[fragment]
    no_o = frag.atoms[0] == "O"   # no O-O bonds
    for site, a in enumerate(atoms):
        if MAX_VALENCE[a] - bond_sums[site] >= frag.order \
                and not (no_o and a == "O"):
            return site
    return None


def _attach(atoms, bonds, bond_sums, fragment, max_heavy, site=None):
    """Attach a fragment by its atom 0 to its `_site`, which a caller that
    has looked it up already passes in.

    Returns the updated (atoms, bonds, bond_sums) state, or None if no atom
    qualifies or the heavy-atom cap would be exceeded.
    """
    frag_atoms, frag_bonds, frag_sums, _, order = _FRAGMENTS[fragment]
    base = len(atoms)
    if base + len(frag_atoms) > max_heavy:
        return None
    if site is None:
        site = _site(atoms, bond_sums, fragment)
        if site is None:
            return None
    bonds = list(bonds)
    for a, b, o in frag_bonds:
        bonds.append((base + a, base + b, o))
    bonds.append((site, base, order))
    sums = [*bond_sums, *frag_sums]
    sums[site] += order
    sums[base] += order
    return atoms + frag_atoms, bonds, sums


class State(NamedTuple):
    """A built graph: atoms and bonds in build order, and bond-order sums."""

    atoms: tuple
    bonds: list
    sums: list


def decode_cells(cells, grammar):
    """Replay a decision sequence into a State; illegal attachments stop."""
    state = _scaffold(grammar, cells[0])
    for c in cells[1:]:
        if c == 0:
            break
        child = _attach(*state, grammar.fragments[c - 1],
                        grammar.max_heavy_atoms)
        if child is None:
            break
        state = child
    return State(*state)


# --- latent-space cell arithmetic -------------------------------------------

def cell_map(grammar, bounds):
    """The map from a latent point to its decision cells in the box bounds,
    as a list of ints, with the box's set-up done once.

    Slot by slot in plain floats: NaN reads as 0, the point is clamped into
    the box, so +-inf fall in the edge cells, and the cell is
    (x - lo) / (hi - lo) * k, truncated and capped at k - 1. A slot whose
    width hi - lo is not above 0 is always cell 0; a box whose arithmetic
    gives NaN (an infinite or NaN bound, or a width that overflows) raises
    GrammarError.
    """
    lo, hi = as_box(bounds, grammar.n_dims, GrammarError)
    slots = [(l, h, h - l, k) for l, h, k in
             zip(lo.tolist(), hi.tolist(), grammar.choices_per_slot)]

    def cells(z):
        z = np.asarray(z, dtype=float).tolist()
        if len(z) != len(slots):
            raise GrammarError("latent point of %d slots for a box of %d"
                               % (len(z), len(slots)))
        out = []
        for x, (l, h, w, k) in zip(z, slots):
            if w <= 0:
                out.append(0)
                continue
            if x != x:
                x = 0.0
            c = (min(max(x, l), h) - l) / w * k
            if c != c:
                raise GrammarError("latent box too wide for cell arithmetic")
            out.append(int(min(c, k - 1)))
        return out

    return cells


def cell_center(cells, grammar, bounds):
    """The latent point at the center of a decision cell sequence; missing
    trailing slots read as cell 0."""
    lo, hi = as_box(bounds, grammar.n_dims, GrammarError)
    c = np.zeros(grammar.n_dims)
    c[:len(cells)] = cells
    return lo + (c + 0.5) * (hi - lo) / np.array(grammar.choices_per_slot)


def decode(z, grammar, bounds):
    """Map a latent vector to a molecular graph. Total and deterministic."""
    return MolecularGraph(*decode_cells(cell_map(grammar, bounds)(z),
                                        grammar)[:2])


def encode(g, grammar, bounds):
    """Inverse of decode on expressible molecules: the center of the cell
    that encode_cells returns."""
    return cell_center(encode_cells(g, grammar), grammar, bounds)


def _spend(budget, parts):
    """budget, a count per part, less one per part; None if some count
    would fall below zero."""
    budget = dict(budget)
    for part in parts:
        left = budget.get(part, 0) - 1
        if left < 0:
            return None
        budget[part] = left
    return budget


def _signature(atoms, bonds, sums):
    """The sorted (element, degree, bond-order sum) of every atom: equal
    for isomorphic graphs."""
    return sorted(zip(atoms, map(len, _neighbours(atoms, bonds)), sums))


def encode_cells(g, grammar):
    """The lexicographically smallest decision sequence producing a graph
    isomorphic to g (possibly shorter than n_dims).

    A depth-first walk over the grammar in cell order that skips only
    states from which no match can be reached. An attachment only adds
    atoms and bonds, and joins them to the state by one bond, a bridge: it
    never bonds two existing atoms or changes an element or a bond order.
    So every state is a labelled induced subgraph of all its descendants,
    its ring blocks (2-edge-connected blocks) are blocks of all of them,
    and these bounds are admissible (McKay 1998):

    1. Budget. g's parts are its elements, its bond types (sorted element
       pair plus order) and one ("ring", size) per ring block; a fused or
       spiro block of g is a part that no scaffold or fragment supplies.
       Each state carries g's parts less its own and is a dead end once a
       count would fall below zero: its parts only grow.
    2. Usable fragments. A fragment whose own parts (its atoms, internal
       bonds and rings) overspend g's budget appears on no path to g, so
       the walk never attaches it, and it skips any fragment whose own
       parts overspend a state's budget before building the child.
    3. Reachable size. Each slot adds at most the largest usable
       fragment's atoms, so a state that cannot reach g's size that way
       is a dead end. This also bounds the walk's depth: with no slot
       left, a state short of g's size is pruned here, so no sequence
       runs past n_dims.
    4. Rings left. Each slot adds at most the most rings a usable fragment
       has, and a ring block g still needs must come from a usable
       fragment that has it; a state with more rings left to add, or one
       no usable fragment has, is a dead end. A fused or spiro g is
       therefore NotExpressible at once.
    5. Signature filter. A state of g's size is canonicalised only if its
       sorted (element, degree, bond-order sum) tuples equal g's, which
       isomorphism preserves.

    The surviving states are met in the unpruned walk's order, so the
    result is the unpruned walk's.
    """
    if g.n_rings > MAX_RINGS:   # FragmentGrammar refuses to build that many
        raise NotExpressible("%d rings, over %d" % (g.n_rings, MAX_RINGS))
    target = canonical_smiles(g)
    full = Counter(_parts(g.atoms, g.bonds))
    t_signature = _signature(g.atoms, g.bonds, _validate(g)[1])
    usable = [(c, f, _FRAGMENTS[f].parts)
              for c, f in enumerate(grammar.fragments, start=1)
              if _spend(full, _FRAGMENTS[f].parts) is not None]
    growth = max((len(_FRAGMENTS[f].atoms) for _, f, _ in usable),
                 default=0)
    ring_growth = max((sum(p[0] == "ring" for p in parts)
                       for _, _, parts in usable), default=0)
    rings = [p for p in full if p[0] == "ring"]
    supplied = {p for _, _, parts in usable for p in parts}
    unsupplied = [p for p in rings if p not in supplied]

    def search(state, slots_left, budget):
        """The cell suffix (with a trailing stop if a slot is left) that
        turns state into g, or None; budget is g's parts less state's."""
        atoms, bonds, sums = state
        if budget is None or len(atoms) + slots_left * growth < g.n_atoms \
                or sum(budget[p] for p in rings) > slots_left * ring_growth \
                or any(budget[p] for p in unsupplied):
            return None
        if len(atoms) == g.n_atoms:
            if _signature(atoms, bonds, sums) == t_signature \
                    and canonical_form_trusted(atoms, bonds, sums)[0] == target:
                return [0] if slots_left > 0 else []
            return None
        for c, fragment, parts in usable:
            left = _spend(budget, parts)
            if left is None:
                continue
            child = _attach(*state, fragment, grammar.max_heavy_atoms)
            if child is None:
                continue
            # the bond _attach adds last joins the site to the fragment
            tail = search(child, slots_left - 1,
                          _spend(left, [_bond_type(child[0], child[1][-1])]))
            if tail is not None:
                return [c] + tail
        return None

    for s, name in enumerate(grammar.scaffolds):
        tail = search(_scaffold(grammar, s), grammar.n_dims - 1,
                      _spend(full, _SCAFFOLDS[name].parts))
        if tail is not None:
            return [s] + tail
    raise NotExpressible("no decision sequence produces %s" % target)


# enumerate_grammar's limits: the most attachments on one decision path,
# which keeps each molecule short enough to canonicalise quickly, and the
# most states, one per legal decision prefix. Any grammar with at most
# 10**6 decision sequences is within both, as its n_dims is at most 20 or
# it has no fragments.
MAX_DEPTH = 19
MAX_STATES = 10 ** 6


def _form(atoms, bonds, sums):
    """A state's canonical SMILES and each atom's position in it."""
    smiles, order = canonical_form_trusted(atoms, bonds, sums)
    pos = [0] * len(order)
    for k, atom in enumerate(order):
        pos[atom] = k
    return smiles, pos


def enumerate_grammar(grammar):
    """All distinct molecules the grammar can produce, sorted by SMILES.

    Returns a dict canonical SMILES -> MolecularGraph; each value is the
    first graph built for that SMILES in decision order.

    The walk counts every legal decision prefix once as a state, in cell
    order, trying at each state only the fragments whose atoms fit under
    max_heavy_atoms (`_attach` would refuse the rest). It carries each
    state's canonical SMILES and each atom's position in that string
    (`_form`) and derives a child's from its parent's (canonical
    augmentation, McKay 1998). Atoms matched by string position map two
    graphs with one SMILES onto each other, and `_attach` appends the
    fragment's atoms after the parent's and bonds its atom 0 to the site,
    so two such parents with their sites at one string position give
    isomorphic children under the same fragment. Children are therefore
    memoised on (parent SMILES, site position, cell), the parent's atoms
    indexed by position in the parent's string; a miss canonicalises the
    child. The site is found (`_site`) before the child is built, and a
    leaf child (one slot left) that hits the memo is counted but not
    built: the entry was made just before the walk put that SMILES, with
    its first graph, in the result, so the leaf adds nothing. The
    scaffolds and the misses are the only states canonicalised, and a
    MolecularGraph is built only for a molecule's first state.

    Raises TooLarge before the walk when it would take more than MAX_DEPTH
    attachments (min(n_dims, max_heavy_atoms) - 1, as each adds an atom;
    none without fragments), and during it once it has counted more than
    MAX_STATES states. A DEBUG log line counts the states, the
    attachments tried, the children built, the canonicalisations and the
    molecules.
    """
    depth = min(grammar.n_dims, grammar.max_heavy_atoms) - 1 \
        if grammar.fragments else 0
    if depth > MAX_DEPTH:
        raise TooLarge("walk depth %d exceeds cap %d" % (depth, MAX_DEPTH))
    cap = grammar.max_heavy_atoms
    fits = {}   # n -> the (cell, fragment) pairs that fit on n atoms
    found = {}
    # (SMILES, site position, cell) -> (SMILES, positions of the parent's
    # atoms in parent-string order, then of the fragment's atoms)
    children = {}
    n_states = n_attached = n_built = 0
    too_many = "more than %d states" % MAX_STATES

    def walk(state, slots_left, smiles, pos):
        nonlocal n_states, n_attached, n_built
        n_states += 1
        if n_states > MAX_STATES:
            raise TooLarge(too_many)
        if smiles not in found:
            found[smiles] = MolecularGraph(state[0], state[1])
        if slots_left == 0:
            return
        atoms, _, sums = state
        n = len(pos)
        if n not in fits:
            fits[n] = [(c, f) for c, f in enumerate(grammar.fragments, start=1)
                       if n + len(_FRAGMENTS[f].atoms) <= cap]
        for c, fragment in fits[n]:
            n_attached += 1
            site = _site(atoms, sums, fragment)
            if site is None:
                continue
            memo = (smiles, pos[site], c)
            if slots_left == 1 and memo in children:
                # a known leaf: its SMILES went into found when the memo
                # entry was made
                n_states += 1
                if n_states > MAX_STATES:
                    raise TooLarge(too_many)
                continue
            n_built += 1
            child = _attach(*state, fragment, cap, site)
            if memo not in children:
                child_smiles, child_pos = _form(*child)
                rel = [0] * n + child_pos[n:]
                for i, k in enumerate(pos):
                    rel[k] = child_pos[i]
                children[memo] = child_smiles, rel
            child_smiles, rel = children[memo]
            walk(child, slots_left - 1, child_smiles,
                 [rel[k] for k in pos] + rel[n:])

    for s in range(len(grammar.scaffolds)):
        state = _scaffold(grammar, s)
        walk(state, grammar.n_dims - 1, *_form(*state))
    log.debug("enumerate_grammar: %d states, %d attachments tried, "
              "%d children built, %d canonicalisations, %d molecules",
              n_states, n_attached, n_built,
              len(grammar.scaffolds) + len(children), len(found))
    return dict(sorted(found.items()))
