"""Graph helpers that only the tests use."""

from moldesign.molgraph import MolecularGraph, canonical_smiles


def total_h(g):
    """Implicit hydrogens summed over the atoms of g."""
    return sum(g.implicit_h(i) for i in range(g.n_atoms))


def permuted(g, perm):
    """g with its atoms relabelled: the new index of old atom i is perm[i]."""
    atoms = [None] * g.n_atoms
    for i, a in enumerate(g.atoms):
        atoms[perm[i]] = a
    bonds = [(perm[u], perm[v], order) for u, v, order in g.bonds]
    return MolecularGraph(atoms, bonds)


def is_isomorphic(a, b):
    """Labeled-multigraph isomorphism via canonical strings."""
    if sorted(a.atoms) != sorted(b.atoms) or len(a.bonds) != len(b.bonds):
        return False
    return canonical_smiles(a) == canonical_smiles(b)
