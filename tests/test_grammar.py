import hashlib
import itertools
import json
import logging
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from moldesign import grammar as grammar_mod, molgraph
from moldesign.grammar import (
    DEFAULT_FRAGMENTS,
    FragmentGrammar,
    GrammarError,
    NotExpressible,
    TooLarge,
    cell_center,
    cell_map,
    decode,
    decode_cells,
    encode,
    encode_cells,
    enumerate_grammar,
)
from moldesign.molgraph import canonical_smiles, parse_smiles, validate

from graph_helpers import is_isomorphic


@pytest.fixture(scope="module")
def small():
    return FragmentGrammar(n_dims=4)


@pytest.fixture(scope="module")
def unit_bounds():
    return np.zeros(4), np.ones(4)


class TestDecode:
    def test_lower_bound_is_methane(self, small, unit_bounds):
        g = decode(np.zeros(4), small, unit_bounds)
        assert canonical_smiles(g) == "C"

    def test_same_cell_same_molecule(self, small, unit_bounds):
        rng = np.random.default_rng(7)
        for _ in range(50):
            z = rng.uniform(0, 1, 4)
            center = cell_center(cell_map(small, unit_bounds)(z), small,
                                 unit_bounds)
            a = decode(z, small, unit_bounds)
            b = decode(center, small, unit_bounds)
            assert canonical_smiles(a) == canonical_smiles(b)

    def test_total_on_adversarial_inputs(self, small, unit_bounds):
        rng = np.random.default_rng(3)
        vectors = [rng.uniform(-100, 100, 4) for _ in range(500)]
        vectors += [np.full(4, 1e300), np.full(4, -1e300), np.zeros(4),
                    np.ones(4), np.array([np.inf, -np.inf, 0.5, 0.5])]
        for z in vectors:
            g = decode(z, small, unit_bounds)
            assert validate(g) == molgraph.OK

    def test_deterministic(self, small, unit_bounds):
        z = np.array([0.9, 0.4, 0.7, 0.2])
        a = decode(z, small, unit_bounds)
        b = decode(z, small, unit_bounds)
        assert a == b

    def test_heavy_atom_cap(self, small, unit_bounds):
        rng = np.random.default_rng(11)
        for _ in range(200):
            g = decode(rng.uniform(0, 1, 4), small, unit_bounds)
            assert g.n_atoms <= small.max_heavy_atoms


def numpy_cells(z, grammar, bounds):
    """cell_map's earlier body, in numpy arrays; a box it cannot map raises
    GrammarError, like cell_map."""
    lo, hi = (np.asarray(b, dtype=float) for b in bounds)
    k = np.array(grammar.choices_per_slot, dtype=float)
    with np.errstate(all="ignore"):
        width = hi - lo
        closed = width <= 0
        divisor = np.where(closed, 1.0, width)
        z = np.asarray(z, dtype=float)
        z = np.minimum(np.maximum(np.where(np.isnan(z), 0.0, z), lo), hi)
        c = np.trunc((z - lo) / divisor * k)
        c = np.where(closed, 0.0, np.minimum(np.maximum(c, 0.0), k - 1))
    if not np.isfinite(c).all():
        raise GrammarError("latent box too wide for cell arithmetic")
    return c.astype(int).tolist()


def scalar_cells(z, grammar, bounds):
    """The slot-by-slot cell arithmetic in numpy scalars that the vectorised
    cell map once replaced, for boxes of finite width."""
    lo, hi = bounds
    z = np.clip(np.nan_to_num(np.asarray(z, dtype=float), nan=0.0), lo, hi)
    cells = []
    for i, k in enumerate(grammar.choices_per_slot):
        width = hi[i] - lo[i]
        if width <= 0:
            cells.append(0)
            continue
        c = int((z[i] - lo[i]) / width * k)
        cells.append(min(max(c, 0), k - 1))
    return cells


def scalar_center(cells, grammar, bounds):
    lo, hi = bounds
    z = np.empty(grammar.n_dims)
    for i, k in enumerate(grammar.choices_per_slot):
        c = cells[i] if i < len(cells) else 0
        z[i] = lo[i] + (c + 0.5) * (hi[i] - lo[i]) / k
    return z


coords = st.floats(allow_nan=True, allow_infinity=True)
edges = st.floats(min_value=-1e6, max_value=1e6)


@st.composite
def latent_in_box(draw, grammar):
    """(z, bounds): arbitrary floats mixed with NaN, +-inf and cell edges,
    where the order of the rounding operations decides the cell."""
    lo = np.array(draw(st.lists(edges, min_size=grammar.n_dims,
                                max_size=grammar.n_dims)))
    # a zero or negative span gives an empty slot, which reads as cell 0
    span = np.array(draw(st.lists(st.one_of(st.just(0.0), edges),
                                  min_size=grammar.n_dims,
                                  max_size=grammar.n_dims)))
    z = []
    for i, k in enumerate(grammar.choices_per_slot):
        j = draw(st.integers(0, k))
        edge = lo[i] + span[i] * j / k
        z.append(draw(st.sampled_from([edge, np.nextafter(edge, -np.inf),
                                       np.nextafter(edge, np.inf), np.nan,
                                       np.inf, -np.inf])
                      | coords))
    return np.array(z), (lo, lo + span)


class TestCellArithmetic:
    @settings(max_examples=500, deadline=None)
    @given(case=latent_in_box(FragmentGrammar(n_dims=4)))
    def test_equals_numpy_and_scalar_loop(self, small, case):
        z, bounds = case
        cells = cell_map(small, bounds)(z)
        assert cells == scalar_cells(z, small, bounds)
        assert cells == numpy_cells(z, small, bounds)
        assert all(type(c) is int for c in cells)
        assert np.array_equal(cell_center(cells, small, bounds),
                              scalar_center(cells, small, bounds))

    def test_nan_and_inf(self, small, unit_bounds):
        z = np.array([np.nan, np.inf, -np.inf, 0.5])
        assert cell_map(small, unit_bounds)(z) == [0, 9, 0, 5]

    def test_inf_points_in_a_finite_box_take_the_edge_cells(self, small):
        bounds = np.array([-1e300, -2.0, 0.0, 5.0]), np.array([1e300, 3.0,
                                                               1e-300, 5.0])
        for z, want in [(np.full(4, np.inf), [5, 9, 9, 0]),
                        (np.full(4, -np.inf), [0, 0, 0, 0])]:
            assert cell_map(small, bounds)(z) == want
            assert numpy_cells(z, small, bounds) == want

    def test_overflowing_width_raises(self, small):
        # hi - lo overflows to inf: a finite offset over it reads 0, but
        # the point at hi gives inf / inf
        lo, hi = np.full(4, -1.5e308), np.full(4, 1.5e308)
        cells = cell_map(small, (lo, hi))
        assert cells(np.zeros(4)) == [0, 0, 0, 0]
        for z in [hi, np.array([0.0, 0.0, 0.0, np.inf])]:
            with pytest.raises(GrammarError):
                cells(z)
            with pytest.raises(GrammarError):
                numpy_cells(z, small, (lo, hi))

    @pytest.mark.parametrize("slot", [0, 3])
    @pytest.mark.parametrize("end", [0, 1])
    def test_nan_bound_raises(self, small, slot, end):
        bounds = [np.zeros(4), np.ones(4)]
        bounds[end][slot] = np.nan
        z = np.full(4, 0.5)
        with pytest.raises(GrammarError):
            cell_map(small, bounds)(z)
        with pytest.raises(GrammarError):
            numpy_cells(z, small, bounds)

    def test_point_of_another_length_raises(self, small, unit_bounds):
        for z in [np.zeros(3), np.zeros(5), np.zeros(1)]:
            with pytest.raises(GrammarError):
                cell_map(small, unit_bounds)(z)

    def test_short_sequence_center_pads_with_stop(self, small, unit_bounds):
        assert np.array_equal(cell_center([2], small, unit_bounds),
                              cell_center([2, 0, 0, 0], small, unit_bounds))

    @pytest.mark.parametrize("bounds", [(0.0, 1.0),
                                        (np.zeros(3), np.ones(3))])
    def test_bounds_must_be_two_latent_arrays(self, small, bounds):
        with pytest.raises(GrammarError):
            cell_map(small, bounds)(np.zeros(4))
        with pytest.raises(GrammarError):
            cell_center([0], small, bounds)


class TestEncode:
    def test_methane_is_cell_zero_center(self, small, unit_bounds):
        z = encode(parse_smiles("C"), small, unit_bounds)
        # slot 0: first of 6 scaffold cells; others: stop cell of 10
        assert z[0] == pytest.approx(0.5 / 6)
        assert np.allclose(z[1:], 0.05)

    def test_decode_encode_decode_idempotent(self, small, unit_bounds):
        rng = np.random.default_rng(5)
        for _ in range(200):
            z = rng.uniform(-0.5, 1.5, 4)
            g = decode(z, small, unit_bounds)
            z2 = encode(g, small, unit_bounds)
            assert is_isomorphic(decode(z2, small, unit_bounds), g)

    def test_too_big_not_expressible(self, small, unit_bounds):
        ten = parse_smiles("CCCCCCCCCC")
        with pytest.raises(NotExpressible):
            encode(ten, small, unit_bounds)

    def test_encode_is_center_of_encoded_cells(self, small, unit_bounds):
        rng = np.random.default_rng(9)
        for _ in range(10):
            g = decode(rng.uniform(0, 1, 4), small, unit_bounds)
            cells = encode_cells(g, small)
            assert np.array_equal(encode(g, small, unit_bounds),
                                  cell_center(cells, small, unit_bounds))
            assert canonical_smiles(decode(cell_center(
                cells, small, unit_bounds), small, unit_bounds)) \
                == canonical_smiles(g)

    def test_bo_design_corpus_cells_pinned(self):
        # perfbench's bo-design corpus, cells as the unpruned walk found them
        six = FragmentGrammar(n_dims=6)
        pinned = {
            "CC": [0, 1, 0],
            "C": [0, 0],
            "CCC2(CC2C1CC1)O": [3, 2, 3, 8, 0],
            "C1CCCCC1": [5, 0],
            "CC(O)=O": [0, 1, 3, 5, 0],
            "CC(C)C1=CC=CC=C1": [0, 1, 1, 9, 0],
            "COC1CCCCC1=O": [5, 4, 5, 0],
            "CC1(CCCC1)C=O": [4, 1, 6, 0],
            "CC1(CC1)C=O": [3, 1, 6, 0],
            "COC(=O)OC": [0, 3, 3, 5, 1, 1],
            "COC1CC1": [3, 4, 0],
            "CCC(C(C1CC1)=O)=O": [0, 1, 2, 5, 5, 8],
        }
        for smiles, cells in pinned.items():
            assert encode_cells(parse_smiles(smiles), six) == cells, smiles

    def test_foreign_structure_not_expressible(self, small, unit_bounds):
        # 4-membered ring: no scaffold or fragment builds one
        ring4 = parse_smiles("C1CCC1")
        with pytest.raises(NotExpressible):
            encode(ring4, small, unit_bounds)


class TestEnumerate:
    def test_single_scaffold_stop_only(self):
        g = FragmentGrammar(n_dims=1, fragments=(), scaffolds=("C",))
        mols = enumerate_grammar(g)
        assert list(mols) == ["C"]

    def test_default_small_grammar(self, small):
        mols = enumerate_grammar(small)
        assert len(mols) > 100
        for g in mols.values():
            assert validate(g) == molgraph.OK
            assert g.n_atoms <= small.max_heavy_atoms

    def test_matches_grid_oracle(self, small, unit_bounds):
        # every molecule reachable by decode appears in the enumeration
        mols = set(enumerate_grammar(small))
        grid = np.linspace(0.0, 1.0, 10)
        seen = set()
        for z0 in grid:
            for z1 in grid:
                for z2 in grid:
                    for z3 in grid:
                        g = decode(np.array([z0, z1, z2, z3]), small,
                                   unit_bounds)
                        seen.add(canonical_smiles(g))
        assert seen <= mols

    def test_dump_is_pinned(self, small):
        # every canonical string and every first-built graph, byte for byte
        dump = json.dumps([[s, list(g.atoms), [list(b) for b in g.bonds]]
                           for s, g in enumerate_grammar(small).items()])
        assert hashlib.sha256(dump.encode()).hexdigest() == (
            "9cb87de0413e8189b471241cdb48aaf8ea59ff3394b36400a1e430973902fbb3")

    def test_every_cell_row_decodes_as_pinned(self, small):
        # every row of the decision space, atoms in build order
        rows = itertools.product(*map(range, small.choices_per_slot))
        dump = json.dumps([[list(g.atoms), [list(b) for b in g.bonds]]
                           for g in (decode_cells(list(cells), small)
                                     for cells in rows)])
        assert hashlib.sha256(dump.encode()).hexdigest() == (
            "21aae84a083803851737a400de660a4af50a0fdd5dd1f3dfdf803b676d634898")

    def test_too_deep_refused_before_the_walk(self, monkeypatch):
        # a one-fragment grammar of 300 atoms would take minutes to
        # canonicalise; a walk of min(n_dims, max_heavy_atoms) - 1 > 19
        # attachments is refused before any state is canonicalised
        def grammar(n_dims, max_heavy):
            return FragmentGrammar(n_dims=n_dims, fragments=("methyl",),
                                   scaffolds=("C",), max_heavy_atoms=max_heavy)

        assert len(enumerate_grammar(grammar(20, 300))) == 20
        assert len(enumerate_grammar(grammar(300, 20))) == 20
        # without fragments the walk makes no attachment at any size
        assert list(enumerate_grammar(FragmentGrammar(
            n_dims=300, fragments=(), scaffolds=("C", "CC"),
            max_heavy_atoms=300))) == ["C", "CC"]
        monkeypatch.setattr(grammar_mod, "canonical_form_trusted", None)
        for n_dims, max_heavy, depth in [(300, 300, 299), (21, 21, 20),
                                         (21, 300, 20), (300, 21, 20)]:
            with pytest.raises(TooLarge, match="walk depth %d " % depth):
                enumerate_grammar(grammar(n_dims, max_heavy))

    def test_fragments_that_cannot_fit_are_not_tried(self, attach_calls):
        # a cap far above any state's size costs nothing to look up
        assert list(enumerate_grammar(FragmentGrammar(
            n_dims=3, fragments=("methyl", "phenyl"), scaffolds=("CC",),
            max_heavy_atoms=10 ** 12))) == [
                "CC", "CC(C)C", "CC(C)C1=CC=CC=C1",
                "CC(C1=CC=CC=C1)C2=CC=CC=C2", "CCC", "CCC1=CC=CC=C1"]
        # at a cap of 3, a C-C state has room for a methyl, not a phenyl
        attach_calls[0] = 0
        assert list(enumerate_grammar(FragmentGrammar(
            n_dims=3, fragments=("methyl", "phenyl"), scaffolds=("CC",),
            max_heavy_atoms=3))) == ["CC", "CCC"]
        assert attach_calls == [1]

    def test_too_many_states_refused(self, small, monkeypatch):
        # n_dims=4 builds 2,146 states
        monkeypatch.setattr(grammar_mod, "MAX_STATES", 2145)
        with pytest.raises(TooLarge, match="more than 2145 states"):
            enumerate_grammar(small)
        monkeypatch.setattr(grammar_mod, "MAX_STATES", 2146)
        assert len(enumerate_grammar(small)) == 643

    def test_every_enumerated_molecule_encodes(self, small, unit_bounds):
        mols = enumerate_grammar(small)
        for smi, g in list(mols.items())[::7]:
            z = encode(g, small, unit_bounds)
            assert canonical_smiles(decode(z, small, unit_bounds)) == smi


# --- test-only references: the grammar walks before they shared one core ---

def _reference_scaffold(grammar, name):
    atoms, bonds = grammar_mod._SCAFFOLDS[name][:2]
    bonds = list(bonds)
    sums = [0] * len(atoms)
    for u, v, o in bonds:
        sums[u] += o
        sums[v] += o
    return atoms, bonds, sums


def reference_encode_cells(g, grammar):
    """The former encoder: a DFS that canonicalises every state it visits."""
    target = canonical_smiles(g)
    t_atoms = sorted(g.atoms)
    t_rings = g.n_rings

    def compatible(atoms, bonds):
        if len(atoms) > len(t_atoms):
            return False
        if sum(1 for a in atoms if a == "C") > t_atoms.count("C"):
            return False
        if sum(1 for a in atoms if a == "O") > t_atoms.count("O"):
            return False
        return len(bonds) - len(atoms) + 1 <= t_rings

    def search(atoms, bonds, sums, slots_left):
        if canonical_smiles(molgraph.MolecularGraph(atoms, bonds)) == target:
            return [0] if slots_left > 0 else []
        if slots_left == 0:
            return None
        for c in range(1, len(grammar.fragments) + 1):
            result = grammar_mod._attach(atoms, bonds, sums,
                                         grammar.fragments[c - 1],
                                         grammar.max_heavy_atoms)
            if result is None or not compatible(result[0], result[1]):
                continue
            tail = search(*result, slots_left - 1)
            if tail is not None:
                return [c] + tail
        return None

    for s, name in enumerate(grammar.scaffolds):
        atoms, bonds, sums = _reference_scaffold(grammar, name)
        if not compatible(atoms, bonds):
            continue
        seq = search(atoms, bonds, sums, grammar.n_dims - 1)
        if seq is not None:
            return [s] + seq
    raise NotExpressible(target)


def reference_enumerate(grammar):
    """The former enumeration, memoised on (atoms, bonds, slots_left).

    Returns the molecules and the number of distinct built states."""
    found = {}
    seen_states = set()

    def walk(atoms, bonds, sums, slots_left):
        state = (tuple(atoms), tuple(sorted(bonds)), slots_left)
        if state in seen_states:
            return
        seen_states.add(state)
        g = molgraph.MolecularGraph(atoms, bonds)
        found.setdefault(canonical_smiles(g), g)
        if slots_left == 0:
            return
        for frag in grammar.fragments:
            result = grammar_mod._attach(atoms, bonds, sums, frag,
                                         grammar.max_heavy_atoms)
            if result is not None:
                walk(*result, slots_left - 1)

    for name in grammar.scaffolds:
        walk(*_reference_scaffold(grammar, name), grammar.n_dims - 1)
    n_states = len({state[:2] for state in seen_states})
    return dict(sorted(found.items())), n_states


def reference_first_paths(grammar):
    """SMILES -> the first decision path, in preorder, at which the
    unmemoised walk over every legal decision prefix builds it."""
    first = {}

    def walk(state, path, slots_left):
        g = molgraph.MolecularGraph(state[0], state[1])
        first.setdefault(canonical_smiles(g), path)
        if slots_left == 0:
            return
        for c, frag in enumerate(grammar.fragments, start=1):
            child = grammar_mod._attach(*state, frag, grammar.max_heavy_atoms)
            if child is not None:
                walk(child, path + [c], slots_left - 1)

    for s, name in enumerate(grammar.scaffolds):
        walk(_reference_scaffold(grammar, name), [s], grammar.n_dims - 1)
    return first


def assert_encodes_like_reference(g, grammar):
    try:
        expected = reference_encode_cells(g, grammar)
    except NotExpressible:
        with pytest.raises(NotExpressible):
            encode_cells(g, grammar)
    else:
        assert encode_cells(g, grammar) == expected


def atom_signature(g):
    """The sorted (element, degree, bond-order sum) of every atom."""
    return sorted((a, len(adj), sum(o for _, o in adj))
                  for a, adj in zip(g.atoms, g.adjacency))


@pytest.fixture
def canonical_calls(monkeypatch):
    """Every graph the grammar module passes to canonical_smiles (the
    encoder's calls), in call order."""
    calls = []

    def counting(g):
        calls.append(g)
        return canonical_smiles(g)

    monkeypatch.setattr(grammar_mod, "canonical_smiles", counting)
    return calls


@pytest.fixture
def attach_calls(monkeypatch):
    """The number of _attach calls the grammar module makes, in a list."""
    calls = [0]
    attach = grammar_mod._attach

    def counting(*args):
        calls[0] += 1
        return attach(*args)

    monkeypatch.setattr(grammar_mod, "_attach", counting)
    return calls


@st.composite
def random_grammars(draw):
    """Scaffolds in any order. A third of the draws are n_dims=4 grammars
    of five to nine distinct fragments in any order: their walks are deep
    enough that a parent's atom order often differs from its SMILES
    order, which the walk's atom-position map must follow. The rest are
    small grammars, whose fragments may repeat."""
    scaffolds = tuple(draw(st.lists(
        st.sampled_from(grammar_mod.DEFAULT_SCAFFOLDS), min_size=1,
        unique=True)))
    if draw(st.integers(0, 2)) == 0:
        fragments = draw(st.permutations(DEFAULT_FRAGMENTS))[
            :draw(st.integers(5, len(DEFAULT_FRAGMENTS)))]
        return FragmentGrammar(n_dims=4, fragments=tuple(fragments),
                               scaffolds=scaffolds,
                               max_heavy_atoms=draw(st.integers(6, 9)))
    fragments = draw(st.lists(st.sampled_from(DEFAULT_FRAGMENTS),
                              max_size=6))
    return FragmentGrammar(n_dims=draw(st.integers(1, 4)),
                           fragments=tuple(fragments), scaffolds=scaffolds,
                           max_heavy_atoms=draw(st.integers(2, 9)))


# two grammars whose site and fragment orders differ from the default's
REVERSED = FragmentGrammar(n_dims=4, fragments=DEFAULT_FRAGMENTS[::-1],
                           scaffolds=("ring5", "CO", "C", "ring3"),
                           max_heavy_atoms=7)
FEW_FRAGMENTS = FragmentGrammar(
    n_dims=4, fragments=("carbonyl", "methyl", "hydroxyl", "phenyl", "formyl"),
    scaffolds=("ring6", "CC"))


class TestAgainstReference:
    @pytest.mark.parametrize("grammar", [
        FragmentGrammar(n_dims=1), FragmentGrammar(n_dims=2),
        FragmentGrammar(n_dims=3), FragmentGrammar(n_dims=4), REVERSED,
        FEW_FRAGMENTS], ids=["1", "2", "3", "4", "reversed", "few"])
    def test_enumerate_equals_reference(self, grammar):
        mols = enumerate_grammar(grammar)
        ref, _ = reference_enumerate(grammar)
        assert list(mols) == list(ref)
        for smi in ref:
            assert mols[smi] == ref[smi], smi

    def test_enumerate_canonicalises_scaffolds_and_memo_misses(
            self, small, monkeypatch):
        # 1,985 labelled states and 643 molecules; a child whose parent's
        # SMILES, site position and cell were met before is not
        # canonicalised. Only the scaffolds CC and CO repeat a labelled
        # state already built as C plus methyl and C plus hydroxyl.
        calls = []

        def counting(atoms, bonds, sums):
            g = molgraph.MolecularGraph(atoms, bonds)
            calls.append((g.atoms, g.bonds))
            return molgraph.canonical_form_trusted(atoms, bonds, sums)

        monkeypatch.setattr(grammar_mod, "canonical_form_trusted", counting)
        enumerate_grammar(small)
        _, n_states = reference_enumerate(small)
        assert n_states == 1985
        assert len(calls) == 1184
        assert len(set(calls)) == 1182
        repeats = [key for key, n in Counter(calls).items() if n > 1]
        assert sorted(canonical_smiles(molgraph.MolecularGraph(*key))
                      for key in repeats) == ["CC", "CO"]

    def test_enumerate_logs_its_counts(self, small, caplog):
        with caplog.at_level(logging.DEBUG, logger="moldesign"):
            enumerate_grammar(small)
        assert [r.getMessage() for r in caplog.records] == [
            "enumerate_grammar: 2146 states, 2169 attachments tried, "
            "1335 children built, 1184 canonicalisations, 643 molecules"]

    def test_known_leaves_are_not_built(self, small, attach_calls, caplog):
        # every state is counted, but a leaf whose (parent SMILES, site
        # position, cell) is memoised is not built: only 1,335 of the
        # 2,140 children at n_dims=4 are
        with caplog.at_level(logging.DEBUG, logger="moldesign"):
            enumerate_grammar(small)
        assert attach_calls == [1335]
        assert "1335 children built" in caplog.records[-1].getMessage()

    @settings(max_examples=300, deadline=None)
    @given(grammar=random_grammars())
    def test_enumerate_equals_reference_on_random_grammars(self, grammar):
        mols = enumerate_grammar(grammar)
        ref, _ = reference_enumerate(grammar)
        assert list(mols) == list(ref)
        for smi in ref:
            assert mols[smi] == ref[smi], smi

    @settings(max_examples=200, deadline=None)
    @given(grammar=random_grammars(), data=st.data())
    def test_trusted_entry_equals_canonical_form(self, grammar, data):
        # every state along a random decision path, as _attach builds it
        path = [grammar_mod._scaffold(grammar, data.draw(
            st.integers(0, len(grammar.scaffolds) - 1)))]
        while len(path) < grammar.n_dims:
            children = [child for child in (
                grammar_mod._attach(*path[-1], f, grammar.max_heavy_atoms)
                for f in grammar.fragments) if child is not None]
            if not children:
                break
            path.append(data.draw(st.sampled_from(children)))
        for atoms, bonds, sums in path:
            assert molgraph.canonical_form_trusted(atoms, bonds, sums) \
                == molgraph.canonical_form(molgraph.MolecularGraph(atoms,
                                                                   bonds))

    def test_encode_is_the_first_enumeration_path(self, small):
        # encode's pruned walk stops where the unpruned one first builds
        # g, and adds a stop while slots are left
        first = reference_first_paths(small)
        mols = enumerate_grammar(small)
        assert list(mols) == sorted(first)
        assert len(mols) == 643
        for smiles, g in mols.items():
            path = first[smiles]
            assert encode_cells(g, small) == (
                path + [0] if len(path) < small.n_dims else path), smiles

    def test_encode_equals_reference(self, small):
        # cells and NotExpressible alike, also where the grammar is too
        # short for some molecules
        three = FragmentGrammar(n_dims=3)
        for g in list(enumerate_grammar(small).values())[::23]:
            assert_encodes_like_reference(g, small)
            assert_encodes_like_reference(g, three)
        for g in enumerate_grammar(three).values():
            assert_encodes_like_reference(g, three)
            assert_encodes_like_reference(g, FragmentGrammar(n_dims=2))

    @pytest.mark.parametrize("smiles", ["C1CCC1", "CCCCCCCCCC"])
    def test_not_expressible_like_reference(self, small, smiles):
        g = parse_smiles(smiles)
        with pytest.raises(NotExpressible):
            reference_encode_cells(g, small)
        with pytest.raises(NotExpressible):
            encode_cells(g, small)

    def test_encode_canonicalises_only_matching_sizes(self, small,
                                                      canonical_calls):
        # the walk passes butane (C4, one bond fewer) before reaching
        # methylcyclopropane; only a state with g's atom signature is
        # canonicalised
        g = parse_smiles("CC1CC1")
        assert encode_cells(g, small) == [0, 8, 0]
        assert canonical_calls[0] is g
        assert len(canonical_calls) == 2
        for partial in canonical_calls[1:]:
            assert atom_signature(partial) == atom_signature(g)

    def test_encode_prunes_before_canonicalising(self, canonical_calls):
        # the walk exhausts scaffolds 0-4 before ring6; without the bounds
        # it canonicalised 1,476 graphs
        g = parse_smiles("COC1CCCCC1=O")
        assert encode_cells(g, FragmentGrammar(n_dims=6)) == [5, 4, 5, 0]
        assert canonical_calls[0] is g
        assert len(canonical_calls) <= 18
        for partial in canonical_calls[1:]:
            assert atom_signature(partial) == atom_signature(g)

    @pytest.mark.parametrize("smiles,cells,calls", [
        # no usable fragment has g's 6-ring (phenyl's C=C bonds overspend
        # g's budget), so only the ring6 scaffold can reach g
        ("COC1CCCCC1=O", [5, 4, 5, 0], 12),
        # cyclopropyl gives g's 3-ring but not its 6-ring, which the
        # scaffolds before ring6 then lack
        ("C1CCCCC1C1CC1", [5, 8, 0], 7),
    ])
    def test_encode_attaches_only_usable_fragments(self, smiles, cells,
                                                   calls, attach_calls):
        # the walk before ring blocks and the fragment pre-check made
        # 16,380 and 1,637 calls
        g = parse_smiles(smiles)
        assert encode_cells(g, FragmentGrammar(n_dims=6)) == cells
        assert attach_calls == [calls]

    @pytest.mark.parametrize("smiles", [
        "C1CCC2CCCCC2C1",     # decalin: two fused rings
        "C1CC2CC1C2",         # norbornane: a bridged pair
        "C1CCC2(CC1)CC2",     # spiro[2.5]octane
    ])
    def test_fused_rings_not_expressible_like_reference(self, smiles,
                                                        attach_calls):
        # the grammar has room for their atoms, so only the ring block
        # refuses them, and it does so before any attachment
        grammar = FragmentGrammar(n_dims=3, max_heavy_atoms=10)
        g = parse_smiles(smiles)
        with pytest.raises(NotExpressible):
            encode_cells(g, grammar)
        assert attach_calls == [0]
        with pytest.raises(NotExpressible):
            reference_encode_cells(g, grammar)


@pytest.mark.parametrize("smiles,blocks", [
    ("CCO", []),
    ("C1CC1", [("ring", 3)]),
    ("C1CC1C1CC1", [("ring", 3), ("ring", 3)]),
    ("C1CCCCC1CC1=CC=CC=C1", [("ring", 6), ("ring", 6)]),
    ("C1CCC2CCCCC2C1", [("ring", 10, 11)]),
    ("C1CC2CC1C2", [("ring", 6, 7)]),
    ("C1CCC2(CC1)CC2", [("ring", 8, 9)]),
    ("C1CC1C1CCC2CC2C1", [("ring", 3), ("ring", 7, 8)]),
])
def test_ring_blocks(smiles, blocks):
    g = parse_smiles(smiles)
    assert sorted(grammar_mod._ring_blocks(g.atoms, g.bonds)) == sorted(blocks)


@settings(max_examples=200, deadline=None)
@given(s=st.integers(0, len(grammar_mod.DEFAULT_SCAFFOLDS) - 1),
       cells=st.lists(st.integers(0, len(DEFAULT_FRAGMENTS)), min_size=5,
                      max_size=5))
def test_ring_blocks_only_grow_along_a_decode_path(s, cells):
    # encode's ring bounds rest on this: an attachment hangs on a bridge,
    # so each state's ring blocks are simple rings and are ring blocks of
    # every later state
    grammar = FragmentGrammar(n_dims=6)
    path = [grammar_mod._scaffold(grammar, s)]
    for c in cells:
        child = None if c == 0 else grammar_mod._attach(
            *path[-1], grammar.fragments[c - 1], grammar.max_heavy_atoms)
        if child is None:
            break
        path.append(child)
    final = Counter(grammar_mod._ring_blocks(*path[-1][:2]))
    for atoms, bonds, _ in path:
        blocks = Counter(grammar_mod._ring_blocks(atoms, bonds))
        assert not blocks - final
        assert all(len(b) == 2 for b in blocks)
        assert sum(blocks.values()) == len(bonds) - len(atoms) + 1


class TestConfig:
    def test_round_trip(self, tmp_path, small):
        path = tmp_path / "grammar.json"
        small.save(path)
        loaded = FragmentGrammar.load(path)
        assert loaded == small

    @pytest.mark.parametrize("change", [
        {"n_dims": None},           # None deletes the key
        {"max_heavy_atoms": None},
        {"fragments": None},
        {"n_dims": 2.7},
        {"n_dims": "4"},
        {"n_dims": 0},
        {"max_heavy_atoms": 9.5},
        {"max_heavy_atoms": True},
        {"scaffolds": "CC"},
        {"scaffolds": []},
        {"fragments": [["methyl"]]},
        {"scaffolds": [{"C": 1}]},
        {"max_heavy_atom": 9},      # a typo of a field
        {"schema_version": 7},
        {"schema_version": "1"},
        {"schema_version": True},
        {"schema_version": 1.0},
    ])
    def test_bad_config_rejected(self, small, change):
        cfg = small.to_config()
        for key, value in change.items():
            if value is None:
                del cfg[key]
            else:
                cfg[key] = value
        with pytest.raises(GrammarError):
            FragmentGrammar.from_config(cfg)

    @pytest.mark.parametrize("version", [1, None])
    def test_schema_version_one_or_none(self, small, version):
        cfg = small.to_config()
        if version is None:
            del cfg["schema_version"]
        assert FragmentGrammar.from_config(cfg) == small

    def test_config_must_be_an_object(self):
        with pytest.raises(GrammarError):
            FragmentGrammar.from_config([4])


class TestDecodeIsTotal:
    @settings(max_examples=300, deadline=None)
    @given(z=st.lists(coords, min_size=6, max_size=6))
    def test_valid_molecule_for_any_floats(self, z):
        g = decode(z, FragmentGrammar(n_dims=6), (np.zeros(6), np.ones(6)))
        assert validate(g) == molgraph.OK
