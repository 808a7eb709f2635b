import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from moldesign import molgraph
from moldesign.grammar import FragmentGrammar, decode, encode
from moldesign.molgraph import (
    MAX_VALENCE,
    MolecularGraph,
    ParseError,
    UnsupportedElement,
    ValenceError,
    atom_features,
    canonical_smiles,
    parse_smiles,
    validate,
)

from graph_helpers import is_isomorphic, permuted, total_h

# the 16 promising commercially available molecules used as a corpus fixture
CORPUS = [
    "C1CC1",
    "CC",
    "CCc1cccc(C)c1",
    "COC(C)(C)C",
    "CCOC(C)(C)C",
    "CC(C)OC(C)(C)C",
    "CC(C=O)C(C)(C)C",
    "CC(C)(C)C=O",
    "CC(C)(C)OCC=O",
    "CCOC(C)(C)C=O",
    "COC(C)(C)C=O",
    "CC(C)OC(C)(C)C=O",
    "COC(C)C=O",
    "COC(C)(C)C(C)=O",
    "COC(C)C(=O)C(C)(C)C",
    "COC(C)(C)OC",
]


class TestParse:
    def test_ethane(self):
        g = parse_smiles("CC")
        assert g.atoms == ("C", "C")
        assert g.bonds == ((0, 1, 1),)
        assert total_h(g) == 6

    def test_mtbe(self):
        g = parse_smiles("COC(C)(C)C")
        assert g.count("C") == 5
        assert g.count("O") == 1
        assert len(g.bonds) == 5
        assert g.n_rings == 0

    def test_cyclopropane(self):
        g = parse_smiles("C1CC1")
        assert g.atoms == ("C", "C", "C")
        assert len(g.bonds) == 3
        assert g.n_rings == 1
        assert total_h(g) == 6

    def test_double_bond(self):
        g = parse_smiles("C=O")
        assert g.bonds == ((0, 1, 2),)
        assert g.implicit_h(0) == 2
        assert g.implicit_h(1) == 0

    def test_triple_bond(self):
        g = parse_smiles("C#C")
        assert g.bonds == ((0, 1, 3),)

    def test_branch_with_bond_symbol(self):
        g = parse_smiles("CC(=O)C")
        assert (1, 2, 2) in g.bonds

    def test_overvalent_oxygen_rejected(self):
        with pytest.raises((ValenceError, ParseError)):
            parse_smiles("CO=C")

    def test_overvalent_carbon_rejected(self):
        with pytest.raises(ValenceError):
            parse_smiles("C(=O)(=O)=O")

    def test_unsupported_element(self):
        with pytest.raises(UnsupportedElement):
            parse_smiles("CN")

    def test_unmatched_paren(self):
        with pytest.raises(ParseError):
            parse_smiles("C(C")
        with pytest.raises(ParseError):
            parse_smiles("CC)C")

    def test_unclosed_ring(self):
        with pytest.raises(ParseError):
            parse_smiles("C1CC")

    def test_empty(self):
        with pytest.raises(ParseError):
            parse_smiles("")

    def test_dangling_bond(self):
        with pytest.raises(ParseError):
            parse_smiles("CC=")

    def test_aromatic_ring_kekulized(self):
        g = parse_smiles("c1ccccc1")
        assert g.count("C") == 6
        orders = sorted(o for _, _, o in g.bonds)
        assert orders == [1, 1, 1, 2, 2, 2]
        assert validate(g) == molgraph.OK

    def test_aromatic_chain_rejected(self):
        with pytest.raises(ParseError):
            parse_smiles("cc")


class TestValidate:
    def test_ok_triangle(self):
        g = parse_smiles("C1CC1")
        assert validate(g) == molgraph.OK

    def test_disconnected(self):
        g = MolecularGraph(["C", "C"], [])
        assert validate(g) == molgraph.DISCONNECTED

    def test_valence_violation(self):
        g = MolecularGraph(["O", "C", "C"], [(0, 1, 2), (0, 2, 2)])
        assert validate(g) == molgraph.VALENCE_VIOLATION

    def test_duplicate_bond(self):
        g = MolecularGraph.__new__(MolecularGraph)
        object.__setattr__(g, "atoms", ("C", "C"))
        object.__setattr__(g, "bonds", ((0, 1, 1), (0, 1, 1)))
        assert validate(g) == molgraph.DUPLICATE_BOND

    def test_duplicate_pair_apart_in_input(self):
        # __init__ sorts the bonds, so the two (0, 1) bonds become adjacent
        g = MolecularGraph(["C", "C", "C"], [(1, 0, 1), (1, 2, 1), (0, 1, 2)])
        assert validate(g) == molgraph.DUPLICATE_BOND


class TestCanonical:
    def test_relabeled_ethanol(self):
        assert canonical_smiles(parse_smiles("OCC")) \
            == canonical_smiles(parse_smiles("CCO"))

    def test_methane_fixed_point(self):
        assert canonical_smiles(parse_smiles("C")) == "C"

    @pytest.mark.parametrize("smiles", CORPUS)
    def test_round_trip(self, smiles):
        g = parse_smiles(smiles)
        canon = canonical_smiles(g)
        assert is_isomorphic(parse_smiles(canon), g)

    @pytest.mark.parametrize("smiles", CORPUS)
    def test_permutation_invariance(self, smiles):
        g = parse_smiles(smiles)
        canon = canonical_smiles(g)
        rng = np.random.default_rng(hash(smiles) % 2 ** 32)
        for _ in range(100):
            perm = list(rng.permutation(g.n_atoms))
            assert canonical_smiles(permuted(g, perm)) == canon

    def test_distinguishes_isomers(self):
        # butane vs isobutane
        assert canonical_smiles(parse_smiles("CCCC")) \
            != canonical_smiles(parse_smiles("CC(C)C"))

    def test_distinguishes_bond_orders(self):
        assert canonical_smiles(parse_smiles("CCO")) \
            != canonical_smiles(parse_smiles("CC=O"))


class TestFeatures:
    def test_implicit_h_bookkeeping(self):
        assert total_h(parse_smiles("CC")) == 6
        assert total_h(parse_smiles("C1CC1")) == 6

    def test_feature_matrix(self):
        g = parse_smiles("C=O")
        feats = atom_features(g)
        assert feats.shape == (2, 4)
        # carbon: one-hot C, 2 implicit H, degree 1
        assert feats[0].tolist() == [1.0, 0.0, 2.0, 1.0]
        assert feats[1].tolist() == [0.0, 1.0, 0.0, 1.0]

    def test_one_hot_sums_to_one(self):
        for smiles in CORPUS:
            feats = atom_features(parse_smiles(smiles))
            assert np.all(feats[:, :2].sum(axis=1) == 1.0)


GRAMMAR6 = FragmentGrammar(n_dims=6)
UNIT6 = (np.zeros(6), np.ones(6))
latents6 = st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6)


class TestProperties:
    """Properties over graphs decoded from random n_dims=6 latents."""

    @settings(max_examples=200, deadline=None)
    @given(z=latents6, data=st.data())
    def test_canonical_smiles_invariant_under_permutation(self, z, data):
        g = decode(z, GRAMMAR6, UNIT6)
        perm = data.draw(st.permutations(range(g.n_atoms)))
        assert canonical_smiles(permuted(g, perm)) == canonical_smiles(g)

    @settings(max_examples=200, deadline=None)
    @given(z=latents6)
    def test_canonical_smiles_is_a_parse_fixed_point(self, z):
        canon = canonical_smiles(decode(z, GRAMMAR6, UNIT6))
        assert canonical_smiles(parse_smiles(canon)) == canon

    @settings(max_examples=100, deadline=None)
    @given(z=latents6)
    def test_decode_encode_decode(self, z):
        g = decode(z, GRAMMAR6, UNIT6)
        again = decode(encode(g, GRAMMAR6, UNIT6), GRAMMAR6, UNIT6)
        assert canonical_smiles(again) == canonical_smiles(g)


# --- test-only reference: the search before it pruned by automorphisms ---

def _reference_refine(g, ranks):
    """The former refinement: (order, rank) pair signatures for every atom."""
    while True:
        keys = [(ranks[i], tuple(sorted((order, ranks[u])
                                        for u, order in g.adjacency[i])))
                for i in range(g.n_atoms)]
        new = molgraph._rank(keys)
        if new == ranks:
            return ranks
        ranks = new


def reference_emit(atoms, adjacency, ranks):
    """The former two-pass writer, with neighbours in (rank, index) order.
    A first DFS finds the tree and the ring closures, each numbered when
    the later of its atoms is reached; a second renders the tree with each
    atom's closure digits."""
    n = len(atoms)
    nbrs = [sorted(adj, key=lambda e: (ranks[e[0]], e[0]))
            for adj in adjacency]
    visited = [False] * n
    written = []
    children = [[] for _ in range(n)]
    ring_at = [[] for _ in range(n)]
    closed = set()
    counter = 0

    def visit(v, parent):
        nonlocal counter
        visited[v] = True
        written.append(v)
        for u, order in nbrs[v]:
            if u == parent:
                continue
            if visited[u]:
                key = (min(u, v), max(u, v))
                if key not in closed:
                    closed.add(key)
                    counter += 1
                    ring_at[v].append((counter, order))
                    ring_at[u].append((counter, order))
            else:
                children[v].append((u, order))
                visit(u, v)

    start = ranks.index(0)
    visit(start, -1)
    syms = {1: "", 2: "=", 3: "#"}

    def render(v, bond_order):
        s = syms[bond_order] + atoms[v]
        for d, order in sorted(ring_at[v]):
            s += syms[order] + str(d)
        kids = children[v]
        for u, order in kids[:-1]:
            s += "(" + render(u, order) + ")"
        if kids:
            u, order = kids[-1]
            s += render(u, order)
        return s

    return render(start, 1), written


def _reference_candidates(g, ranks):
    """Yield the string of every leaf: branch on every atom of the first
    tied cell."""
    ranks = _reference_refine(g, ranks)
    cells = {}
    for i, r in enumerate(ranks):
        cells.setdefault(r, []).append(i)
    tied = [cells[r] for r in sorted(cells) if len(cells[r]) > 1]
    if not tied:
        yield reference_emit(g.atoms, g.adjacency, ranks)[0]
        return
    for atom in tied[0]:
        branched = [2 * r for r in ranks]
        branched[atom] -= 1
        yield from _reference_candidates(g, molgraph._rank(branched))


def reference_canonical_smiles(g):
    """The former canonicaliser: the minimum over the exhaustive search."""
    init = [(g.atoms[i], g.degree(i), g.bond_order_sum(i), g.implicit_h(i))
            for i in range(g.n_atoms)]
    return min(_reference_candidates(g, molgraph._rank(init)))


# Cubic 8-carbon graphs on which refinement ties atoms of different orbits
# (taking the first atom of every tied cell gives the wrong string on 15 to
# 22 of 30 random relabellings of each), and a vertex-transitive one.
CUBIC8 = [
    "C12C3C1C4C5C2C3C45",
    "C12C3C1C4C5C(C23)C45",
    "C12C3C1C5C4C2C5C34",
    "C13C2C4C1C5C2C3C45",
]


@st.composite
def co_trees(draw, max_atoms=12):
    """A random connected C/O tree with bond orders 1-3, randomly labelled."""
    atoms = [draw(st.sampled_from("CO"))]
    free = [MAX_VALENCE[atoms[0]]]
    bonds = []
    for i in range(1, draw(st.integers(1, max_atoms))):
        open_atoms = [j for j in range(i) if free[j] > 0]
        if not open_atoms:
            break
        parent = draw(st.sampled_from(open_atoms))
        atom = draw(st.sampled_from("CO"))
        order = draw(st.integers(1, min(3, free[parent], MAX_VALENCE[atom])))
        atoms.append(atom)
        free.append(MAX_VALENCE[atom] - order)
        free[parent] -= order
        bonds.append((parent, i, order))
    g = MolecularGraph(atoms, bonds)
    return permuted(g, draw(st.permutations(range(g.n_atoms))))


@st.composite
def doubled_trees(draw):
    """Two copies of a random C/O tree joined by a bond from one atom to
    its copy, randomly labelled. Swapping the copies is an automorphism,
    so refinement ties every atom with its copy: the worst case for
    ties."""
    g = draw(co_trees(max_atoms=8))
    n = g.n_atoms
    open_atoms = [i for i in range(n) if g.implicit_h(i) > 0]
    assume(open_atoms)
    joint = draw(st.sampled_from(open_atoms))
    order = draw(st.integers(1, min(3, g.implicit_h(joint))))
    bonds = list(g.bonds) + [(u + n, v + n, o) for u, v, o in g.bonds] \
        + [(joint, joint + n, order)]
    doubled = MolecularGraph(g.atoms * 2, bonds)
    return permuted(doubled, draw(st.permutations(range(2 * n))))


decoded_trees = latents6.map(lambda z: decode(z, GRAMMAR6, UNIT6)).filter(
    lambda g: len(g.bonds) < g.n_atoms)


def refined_ranks(g):
    """g's atoms ranked by the canonicaliser's initial key, then refined."""
    init = [(a, g.degree(i), g.bond_order_sum(i), g.implicit_h(i))
            for i, a in enumerate(g.atoms)]
    return molgraph._refine(g.adjacency, molgraph._rank(init))


def descent_form(g):
    """The form trees were written in before they skipped the descent:
    refine, then individualise the first atom of the first tied cell and
    refine again until no two atoms tie, and write that leaf."""
    ranks = refined_ranks(g)
    while max(ranks) < g.n_atoms - 1:
        atom = molgraph._first_tied_cell(ranks)[0]
        ranks = molgraph._refine(g.adjacency,
                                 molgraph._individualise(ranks, atom))
    return molgraph._emit(g.atoms, g.adjacency, ranks)


@st.composite
def one_ring_graphs(draw):
    """A random connected C/O graph with exactly one ring, of 3-8 atoms,
    randomly labelled. The ring repeats a unit of `period` ring atoms
    with their bonds to the next ring atom and up to 8 branch atoms in
    all, so a period shorter than the ring gives it rotations and
    reflections. Ring bonds are single or double, branch bonds single to
    triple."""
    size = draw(st.integers(3, 8))
    period = draw(st.sampled_from([d for d in range(1, size + 1)
                                   if size % d == 0]))
    copies = size // period
    unit = [draw(st.sampled_from("CO")) for _ in range(period)]
    # orders[j] bonds unit ring atom j to the next ring atom
    orders = [1 if "O" in (unit[j], unit[(j + 1) % period])
              else draw(st.integers(1, 2)) for j in range(period)]
    free = [MAX_VALENCE[a] - orders[j - 1] - orders[j]
            for j, a in enumerate(unit)]
    branch_bonds = []
    for _ in range(draw(st.integers(0, 8 // copies))):
        open_atoms = [j for j in range(len(unit)) if free[j] > 0]
        if not open_atoms:
            break
        parent = draw(st.sampled_from(open_atoms))
        atom = draw(st.sampled_from("CO"))
        order = draw(st.integers(1, min(3, free[parent], MAX_VALENCE[atom])))
        branch_bonds.append((parent, len(unit), order))
        unit.append(atom)
        free.append(MAX_VALENCE[atom] - order)
        free[parent] -= order
    m = len(unit)
    bonds = [(c * m + u, c * m + v, o)
             for c in range(copies) for u, v, o in branch_bonds]
    ring = [c * m + j for c in range(copies) for j in range(period)]
    bonds += [(ring[p], ring[(p + 1) % size], orders[p % period])
              for p in range(size)]
    g = MolecularGraph(unit * copies, bonds)
    return permuted(g, draw(st.permutations(range(g.n_atoms))))


class TestPrunedSearch:
    """The pruned search gives the exhaustive search's string."""

    @settings(max_examples=200, deadline=None)
    @given(z=latents6, data=st.data())
    def test_decoded_graphs(self, z, data):
        g = decode(z, GRAMMAR6, UNIT6)
        g = permuted(g, data.draw(st.permutations(range(g.n_atoms))))
        assert canonical_smiles(g) == reference_canonical_smiles(g)

    @settings(max_examples=200, deadline=None)
    @given(g=co_trees())
    def test_trees(self, g):
        assert validate(g) == molgraph.OK
        assert canonical_smiles(g) == reference_canonical_smiles(g)

    @settings(max_examples=300, deadline=None)
    @given(g=st.one_of(co_trees(), decoded_trees), data=st.data())
    def test_tree_string_is_the_descents(self, g, data):
        # a tree is written from its refined ranks with no individualisation,
        # and gives the string the descent to a leaf gave
        g = permuted(g, data.draw(st.permutations(range(g.n_atoms))))
        assert len(g.bonds) == g.n_atoms - 1
        assert canonical_smiles(g) == reference_canonical_smiles(g) \
            == descent_form(g)[0]

    @settings(max_examples=300, deadline=None)
    @given(g=doubled_trees())
    def test_doubled_tree_string_is_the_descents(self, g):
        assert validate(g) == molgraph.OK and len(g.bonds) == g.n_atoms - 1
        assert canonical_smiles(g) == reference_canonical_smiles(g) \
            == descent_form(g)[0]

    @settings(max_examples=200, deadline=None)
    @given(g=one_ring_graphs())
    def test_one_ring_graphs(self, g):
        assert validate(g) == molgraph.OK and len(g.bonds) == g.n_atoms
        assert canonical_smiles(g) == reference_canonical_smiles(g)

    @settings(max_examples=200, deadline=None)
    @given(g=one_ring_graphs())
    def test_one_ring_descent_is_the_search(self, g):
        # the one-branch descent's leaf is the one the search that learns
        # automorphisms emits: the same string and the same atom order
        def searching(atoms, bonds, adjacency, ranks):
            return molgraph._search(atoms, bonds, adjacency,
                                    molgraph._refine(adjacency, ranks))

        form = molgraph.canonical_form(g)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(molgraph, "_canonical_candidates", searching)
            assert molgraph.canonical_form(g) == form

    @settings(max_examples=120, deadline=None)
    @given(smiles=st.sampled_from(CUBIC8), data=st.data())
    def test_cubic_graphs(self, smiles, data):
        g = parse_smiles(smiles)
        g = permuted(g, data.draw(st.permutations(range(g.n_atoms))))
        assert canonical_smiles(g) == reference_canonical_smiles(g)

    # (smiles, leaves, emits); the exhaustive search reaches and emits
    # 24, 72, 72, 24, 12, 6, 2 and 16 leaves on these. A tree is written
    # from its refined ranks, which tie here, so it reaches no leaf;
    # one-ring graphs take one branch per level; the cubic graph searches
    @pytest.mark.parametrize("smiles,leaves,emits", [
        ("CC(C)(C)C", 0, 1),
        ("CC(C)(C)C(C)(C)C", 0, 1),
        ("CC(C)(C)OC(C)(C)C", 0, 1),
        ("OC(O)(O)O", 0, 1),
        ("C1CCCCC1", 1, 1),
        ("C1=CC=CC=C1", 1, 1),
        ("CC1CCCCC1", 1, 1),
        ("C13C2C4C1C5C2C3C45", 4, 1),
    ])
    def test_search_cost_on_symmetric_molecules(self, smiles, leaves, emits,
                                                monkeypatch):
        g = parse_smiles(smiles)
        expected = reference_canonical_smiles(g)
        counts = {"leaves": 0, "emits": 0, "individualised": 0}
        refine = molgraph._refine
        individualise = molgraph._individualise

        def counting_refine(adjacency, ranks):
            ranks = refine(adjacency, ranks)
            counts["leaves"] += len(set(ranks)) == len(ranks)
            return ranks

        emit = molgraph._emit

        def counting_emit(*args):
            counts["emits"] += 1
            return emit(*args)

        def counting_individualise(ranks, atom):
            counts["individualised"] += 1
            return individualise(ranks, atom)

        monkeypatch.setattr(molgraph, "_refine", counting_refine)
        monkeypatch.setattr(molgraph, "_individualise", counting_individualise)
        monkeypatch.setattr(molgraph, "_emit", counting_emit)
        assert canonical_smiles(g) == expected
        # trees take no individualisation; each ring graph here has a tie
        # that refinement cannot split
        individualised = counts.pop("individualised")
        assert (individualised == 0) == (len(g.bonds) < g.n_atoms)
        assert counts == {"leaves": leaves, "emits": emits}


def by_position(g, order):
    """g's element list and bond set with atoms renumbered by their
    position in the string, order[k] being the atom written k-th."""
    pos = [0] * g.n_atoms
    for k, atom in enumerate(order):
        pos[atom] = k
    return ([g.atoms[atom] for atom in order],
            {(min(pos[u], pos[v]), max(pos[u], pos[v]), o)
             for u, v, o in g.bonds})


graphs = st.one_of(
    latents6.map(lambda z: decode(z, GRAMMAR6, UNIT6)),
    co_trees(),
    doubled_trees(),
    one_ring_graphs(),
    st.sampled_from(CUBIC8).map(parse_smiles))


def prism(k):
    """Two k-carbon rings joined atom for atom by k single bonds: 3k bonds
    on 2k atoms, so k + 1 ring closures."""
    bonds = [(i, (i + 1) % k, 1) for i in range(k)] \
        + [(k + i, k + (i + 1) % k, 1) for i in range(k)] \
        + [(i, k + i, 1) for i in range(k)]
    return MolecularGraph("C" * 2 * k, bonds)


class TestWriter:
    """The one-pass writer gives the two-pass reference's string and atom
    order, and refuses a tenth ring closure."""

    @settings(max_examples=300, deadline=None)
    @given(g=graphs, data=st.data())
    def test_one_pass_writer(self, g, data):
        ranks = data.draw(st.permutations(range(g.n_atoms)))
        assert molgraph._emit(g.atoms, g.adjacency, ranks) \
            == reference_emit(g.atoms, g.adjacency, ranks)
        if len(g.bonds) < g.n_atoms:
            # trees are written at their refined ranks, which may tie
            ranks = refined_ranks(g)
            assert molgraph._emit(g.atoms, g.adjacency, ranks) \
                == reference_emit(g.atoms, g.adjacency, ranks)

    def test_more_than_nine_ring_closures_refused(self):
        g = prism(9)
        assert (g.n_atoms, len(g.bonds)) == (18, 27)
        with pytest.raises(molgraph.MolGraphError,
                           match="^more than 9 ring closures$"):
            canonical_smiles(g)

    def test_nine_ring_closures_written(self):
        g = prism(8)
        assert (g.n_atoms, len(g.bonds)) == (16, 24)
        smiles = canonical_smiles(g)
        assert "9" in smiles
        assert canonical_smiles(parse_smiles(smiles)) == smiles


class TestCanonicalForm:
    """What enumerate_grammar's child memo relies on: the string's atom
    order matches two graphs with one string atom for atom."""

    @settings(max_examples=200, deadline=None)
    @given(g=graphs, data=st.data())
    def test_order_is_an_isomorphism_to_the_string(self, g, data):
        copy = permuted(g, data.draw(st.permutations(range(g.n_atoms))))
        smiles, order = molgraph.canonical_form(g)
        copy_smiles, copy_order = molgraph.canonical_form(copy)
        assert smiles == copy_smiles == canonical_smiles(g)
        assert sorted(order) == sorted(copy_order) == list(range(g.n_atoms))
        assert by_position(g, order) == by_position(copy, copy_order)
