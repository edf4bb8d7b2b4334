import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcorr.detect import statistic_given_pi
from graphcorr.errors import ExactLimitError
from graphcorr.graphs import (
    BinaryGraph,
    Permutation,
    WeightedGraph,
    canonical_pair,
    code_edge_counts,
    edge_code_maps,
    intersect,
    map_pair_indices,
    pair_index,
    pairs_from_indices,
    permutation_table,
    read_binary_graph,
    read_permutation,
    read_weighted_graph,
    relabel,
    write_binary_graph,
    write_permutation,
    write_weighted_graph,
)


def g(n, edges):
    return BinaryGraph(n, frozenset(edges))


class TestPermutation:
    def test_identity_and_inverse(self):
        pi = Permutation((2, 0, 1))
        assert pi.invert().compose(pi) == Permutation.identity(3)

    def test_composition_convention(self):
        # (pi o tau)(i) = pi(tau(i))
        pi = Permutation((1, 2, 0))
        tau = Permutation((0, 2, 1))
        assert pi.compose(tau).mapping == tuple(pi(tau(i)) for i in range(3))

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation((0, 0, 1))

    def test_from_cycles(self):
        pi = Permutation.from_cycles(4, [(0, 1), (2, 3)])
        assert pi.mapping == (1, 0, 3, 2)
        assert Permutation.from_cycles(5, [[4, np.int64(0), 2], (3,)]).mapping == (2, 1, 4, 3, 0)

    @pytest.mark.parametrize(
        "cycles, message",
        [
            ([(2, -1)], "cycle node -1 lies outside"),
            ([(1, -2)], "cycle node -2 lies outside"),
            ([(0, 5)], r"cycle node 5 lies outside \[0, 3\)"),
            ([(0, 3)], "cycle node 3 lies outside"),
            ([(0, 1), (0, 1)], "cycle node 0 appears more than once"),
            ([(0, 1), (2, 1)], "cycle node 1 appears more than once"),
            ([(0, 1, 0)], "cycle node 0 appears more than once"),
            ([(0, True)], "cycle node True is not an integer"),
            ([(0, 1.0)], "cycle node 1.0 is not an integer"),
            ([("0", 1)], "cycle node '0' is not an integer"),
        ],
    )
    def test_from_cycles_refuses_bad_nodes(self, cycles, message):
        with pytest.raises(ValueError, match=message):
            Permutation.from_cycles(3, cycles)

    @pytest.mark.parametrize("mapping", [(True, 0), [1, False], (0, True, 2), [np.True_, 0]])
    def test_rejects_bool_entries(self, mapping):
        # numpy reads (True, 0) as the int array (1, 0)
        with pytest.raises(ValueError, match="mapping entries must be integers"):
            Permutation(mapping)

    def test_rejects_non_integer_entries(self):
        # int() would truncate (0.5, 1) to the identity
        with pytest.raises(ValueError):
            Permutation((0.5, 1))
        with pytest.raises(ValueError):
            Permutation((1.0, 0.0))

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(0, 9))
    def test_integer_entries_accepted_floats_rejected(self, data, n):
        p = data.draw(st.permutations(range(n)))
        assert Permutation(tuple(p)).mapping == tuple(p)
        assert Permutation(tuple(np.asarray(p, dtype=np.int64))).mapping == tuple(p)
        if n:
            i = data.draw(st.integers(0, n - 1))
            bad = list(p)
            bad[i] = data.draw(st.floats(allow_nan=True, allow_infinity=True))
            with pytest.raises(ValueError):
                Permutation(tuple(bad))


class TestPairIndex:
    def test_round_trip_all(self):
        for n in (2, 3, 7, 12):
            for idx, (i, j) in enumerate(itertools.combinations(range(n), 2)):
                assert pair_index(i, j, n) == idx

    def test_vectorized_matches_scalar(self):
        for n in (2, 3, 7, 12, 57):
            lo, hi = pairs_from_indices(np.arange(n * (n - 1) // 2), n)
            assert (lo < hi).all()
            assert [pair_index(i, j, n) for i, j in zip(lo.tolist(), hi.tolist())] == list(range(len(lo)))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            pair_index(1, 1, 4)
        for idx in (-1, 6):
            with pytest.raises(ValueError, match="out of range"):
                pairs_from_indices(np.array([0, idx]), 4)


class TestRelabel:
    def test_identity(self):
        b = g(4, {(0, 1), (2, 3)})
        assert relabel(b, Permutation.identity(4)) == b

    def test_single_edge_pullback(self):
        # result[i][j] = B[pi(i)][pi(j)]: the edge {1,2} of B appears where
        # pi maps to it, here at {3,1} (1-based)
        b = g(3, {(0, 1)})
        pi = Permutation((1, 2, 0))
        assert relabel(b, pi).edges == frozenset({(0, 2)})
        dense = relabel(b, pi).to_dense()
        bd = b.to_dense()
        for i in range(3):
            for j in range(3):
                assert dense[i, j] == bd[pi(i), pi(j)]

    def test_inverse_round_trip(self):
        b = g(5, {(0, 1), (1, 4), (2, 3)})
        pi = Permutation((3, 0, 4, 1, 2))
        assert relabel(relabel(b, pi), pi.invert()) == b

    def test_weighted(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal((4, 4))
        w = np.triu(w, 1) + np.triu(w, 1).T
        wg = WeightedGraph(w)
        pi = Permutation((2, 3, 1, 0))
        out = relabel(wg, pi)
        for i in range(4):
            for j in range(4):
                assert out.weight[i, j] == w[pi(i), pi(j)]

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            relabel(g(3, set()), Permutation.identity(4))

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(3, 8))
    def test_composition_action(self, data, n):
        pi = Permutation(tuple(data.draw(st.permutations(range(n)))))
        tau = Permutation(tuple(data.draw(st.permutations(range(n)))))
        edges = data.draw(
            st.sets(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda e: e[0] != e[1]
                ),
                max_size=8,
            )
        )
        b = g(n, {canonical_pair(*e) for e in edges})
        assert relabel(b, pi.compose(tau)) == relabel(relabel(b, pi), tau)
        assert relabel(b, pi).edge_count == b.edge_count


class TestIntersect:
    def test_idempotent_and_commutative(self):
        a = g(4, {(0, 1), (0, 2)})
        b = g(4, {(0, 1), (1, 2)})
        assert intersect(a, a) == a
        assert intersect(a, b) == intersect(b, a) == g(4, {(0, 1)})

    def test_with_empty(self):
        a = g(4, {(0, 1), (0, 2)})
        assert intersect(a, BinaryGraph.empty(4)) == BinaryGraph.empty(4)

    def test_associative(self):
        a = g(5, {(0, 1), (0, 2), (3, 4)})
        b = g(5, {(0, 1), (1, 2), (3, 4)})
        c = g(5, {(0, 1), (3, 4), (2, 4)})
        assert intersect(intersect(a, b), c) == intersect(a, intersect(b, c))

    def test_weighted_product(self):
        w1 = WeightedGraph(np.array([[0.0, 2.0], [2.0, 0.0]]))
        w2 = WeightedGraph(np.array([[0.0, -3.0], [-3.0, 0.0]]))
        assert intersect(w1, w2).weight[0, 1] == -6.0


class TestValidation:
    def test_no_self_loops(self):
        with pytest.raises(ValueError):
            BinaryGraph(3, frozenset({(1, 1)}))

    def test_canonicalizes_pairs(self):
        assert BinaryGraph(3, frozenset({(2, 0)})).edges == frozenset({(0, 2)})

    @pytest.mark.parametrize("edge", [(0.5, 1.9), ("1", 2), (0, 2.0), (None, 1)])
    def test_rejects_non_integer_vertices(self, edge):
        # int() would truncate (0.5, 1.9) to (0, 1) and parse '1' as 1
        with pytest.raises(ValueError, match="integer"):
            BinaryGraph(3, frozenset({edge}))

    @pytest.mark.parametrize("edge", [(True, 2), (0, False)])
    def test_rejects_bool_vertices(self, edge):
        # operator.index takes True as 1
        with pytest.raises(ValueError, match="integer"):
            BinaryGraph(3, [edge])

    def test_accepts_numpy_integer_vertices(self):
        g = BinaryGraph(3, frozenset({(np.int64(2), np.int8(0))}))
        assert g.edges == frozenset({(0, 2)})
        assert all(type(v) is int for e in g.edges for v in e)

    def test_weighted_graph_symmetry(self):
        with pytest.raises(ValueError):
            WeightedGraph(np.array([[0.0, 1.0], [2.0, 0.0]]))

    @pytest.mark.parametrize(
        "w",
        [
            np.array([[0, 1 + 2j], [1 + 2j, 0]]),
            np.array([["0", "1"], ["1", "0"]]),
            np.array([[False, True], [True, False]]),
            np.array([["0", "1"], ["1", "0"]], dtype=object),
            [[0, None], [None, 0]],
        ],
        ids=["complex", "str", "bool", "object-str", "list-none"],
    )
    def test_weighted_graph_refuses_non_real_dtypes(self, w):
        # once converted, the imaginary part is dropped and strings are parsed
        with pytest.raises(ValueError, match="real numbers, got dtype"):
            WeightedGraph(w)

    @pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint16, np.float16, np.float32, np.float64])
    def test_weighted_graph_takes_integer_and_float_dtypes(self, dtype):
        w = np.array([[0, 1, 2], [1, 0, 3], [2, 3, 0]], dtype=dtype)
        wg = WeightedGraph(w)
        assert wg.weight.dtype == np.float64 and np.array_equal(wg.weight, w.astype(np.float64))
        assert np.array_equal(WeightedGraph(w.tolist()).weight, wg.weight)

    def test_weighted_graph_mirrors_upper_triangle(self):
        w = np.array([[1e-10, 1.0, 2.0], [1.0 + 1e-9, 0.0, 3.0], [2.0, 3.0 - 1e-9, -1e-10]])
        wg = WeightedGraph(w)
        assert np.array_equal(wg.weight, wg.weight.T)
        assert np.array_equal(wg.weight, np.triu(w, 1) + np.triu(w, 1).T)

    def test_weighted_graph_exact_checks_keep_the_tolerance(self):
        w = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
        assert np.array_equal(WeightedGraph(w).weight, w)
        near = w.copy()
        near[1, 0] *= 1 + 5e-9
        assert np.array_equal(WeightedGraph(near).weight, w)  # within np.allclose: mirrored
        far = w.copy()
        far[1, 0] *= 1 + 1e-3
        with pytest.raises(ValueError, match="symmetric"):
            WeightedGraph(far)
        nan = w.copy()
        nan[0, 2] = nan[2, 0] = np.nan
        with pytest.raises(ValueError, match="must be finite"):
            WeightedGraph(nan)
        nan_diag = w.copy()
        nan_diag[1, 1] = np.nan  # NaN != NaN, so a symmetry test first would name the wrong fault
        with pytest.raises(ValueError, match="must be finite"):
            WeightedGraph(nan_diag)
        for value in (np.inf, -np.inf):
            inf = w.copy()
            inf[0, 2] = inf[2, 0] = value  # symmetric, so only the finiteness test rejects it
            with pytest.raises(ValueError, match="must be finite"):
                WeightedGraph(inf)
        diag = w.copy()
        diag[1, 1] = 1e-10
        assert np.array_equal(WeightedGraph(diag).weight, w)  # within np.allclose: zeroed
        diag[1, 1] = 1e-3
        with pytest.raises(ValueError, match="zero diagonal"):
            WeightedGraph(diag)

    def test_weighted_graph_readonly(self):
        wg = WeightedGraph(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            wg.weight[0, 1] = 5.0


# The frozen-set implementations that the array representation replaced, kept as oracles.


def dense_oracle(g):
    a = np.zeros((g.n, g.n))
    for i, j in g.edges:
        a[i, j] = a[j, i] = 1
    return a


def has_edge_oracle(g, i, j):
    return canonical_pair(i, j) in g.edges


def relabel_oracle(g, pi):
    inv = pi.invert()
    return frozenset(canonical_pair(inv(u), inv(v)) for u, v in g.edges)


def intersect_oracle(a, b):
    return a.edges & b.edges


def statistic_given_pi_oracle(a, b, pi):
    pm = pi.mapping
    return float(sum(1 for i, j in a.edges if has_edge_oracle(b, pm[i], pm[j])))


def invert_oracle(pi):
    inv = [0] * pi.n
    for i, v in enumerate(pi.mapping):
        inv[v] = i
    return tuple(inv)


@st.composite
def graph_pairs_and_permutation(draw):
    n = draw(st.integers(0, 12))
    pairs = list(itertools.combinations(range(n), 2))
    edge_sets = st.sets(st.sampled_from(pairs)) if pairs else st.just(set())
    a, b = BinaryGraph(n, draw(edge_sets)), BinaryGraph(n, draw(edge_sets))
    pi = Permutation(tuple(draw(st.permutations(range(n)))))
    return a, b, pi


class TestArrayAgainstSetOracle:
    @settings(max_examples=200, deadline=None)
    @given(graph_pairs_and_permutation())
    def test_operations_agree(self, graphs):
        a, b, pi = graphs
        n = a.n
        assert np.array_equal(a.to_dense(), dense_oracle(a))
        for i, j in itertools.product(range(-1, n + 1), repeat=2):
            assert a.has_edge(i, j) is has_edge_oracle(a, i, j)
        assert relabel(a, pi).edges == relabel_oracle(a, pi)
        assert intersect(a, b).edges == intersect_oracle(a, b)
        assert statistic_given_pi(a, b, pi) == statistic_given_pi_oracle(a, b, pi)

    @settings(max_examples=200, deadline=None)
    @given(graph_pairs_and_permutation())
    def test_index_is_the_sorted_pair_indices(self, graphs):
        a, _, pi = graphs
        assert a.index.tolist() == sorted(pair_index(i, j, a.n) for i, j in a.edges)
        assert a.index.dtype == np.int64 and not a.index.flags.writeable
        assert a.edge_count == len(a.edges)
        shuffled = BinaryGraph.from_indices(a.n, a.index[::-1].copy())
        assert shuffled == a and hash(shuffled) == hash(a) and shuffled.edges == a.edges
        assert BinaryGraph(a.n, set(a.edges)) == a and hash(BinaryGraph(a.n, set(a.edges))) == hash(a)
        moved = map_pair_indices(a.index, a.n, pi.array)
        assert sorted(moved.tolist()) == sorted(
            pair_index(pi(i), pi(j), a.n) for i, j in a.edges
        )
        # relabel defers its sort; the value matches the eager, validated build
        eager = BinaryGraph.from_indices(a.n, map_pair_indices(a.index, a.n, pi.invert().array))
        lazy = relabel(a, pi)
        assert lazy.edge_count == a.edge_count
        assert lazy == eager and hash(lazy) == hash(eager) and not lazy.index.flags.writeable

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 12).flatmap(lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))))
    def test_permutation_array_invert_compose(self, perms):
        pi, tau = Permutation(tuple(perms[0])), Permutation(tuple(perms[1]))
        assert pi.array.tolist() == list(pi.mapping) and pi.array.dtype == np.int64
        assert not pi.array.flags.writeable
        assert all(type(v) is int for v in pi.mapping)
        assert pi.invert().mapping == invert_oracle(pi)
        assert pi.compose(tau).mapping == tuple(pi.mapping[tau.mapping[i]] for i in range(pi.n))


class TestBinaryGraphValue:
    def test_from_indices_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            BinaryGraph.from_indices(4, [0, 3, 0])

    @pytest.mark.parametrize("idx", [[-1], [6], [0, 6], [2**40]])
    def test_from_indices_rejects_out_of_range(self, idx):
        with pytest.raises(ValueError, match="out of range"):
            BinaryGraph.from_indices(4, idx)

    @pytest.mark.parametrize("idx", [[0.0, 1.0], [[0, 1]], ["1"]])
    def test_from_indices_rejects_non_integer_or_nested(self, idx):
        with pytest.raises(ValueError, match="integer"):
            BinaryGraph.from_indices(4, idx)

    @pytest.mark.parametrize("make", [lambda: BinaryGraph(-3), lambda: BinaryGraph.from_indices(-1, [])])
    def test_rejects_negative_vertex_count(self, make):
        with pytest.raises(ValueError, match="number of vertices must be >= 0"):
            make()

    @pytest.mark.parametrize("n", [3.0, np.float64(3), True, np.True_, "3", None])
    @pytest.mark.parametrize("make", [BinaryGraph, lambda n: BinaryGraph.from_indices(n, [0])])
    def test_rejects_non_integer_vertex_count(self, make, n):
        with pytest.raises(ValueError, match="vertices n must be an integer"):
            make(n)

    def test_numpy_integer_vertex_count_is_an_int(self):
        g = BinaryGraph.from_indices(np.int64(3), [0])
        assert type(g.n) is int and g == BinaryGraph(3, [(0, 1)])

    def test_from_indices_sorts_and_copies(self):
        idx = np.array([5, 0, 3])
        g = BinaryGraph.from_indices(4, idx)
        idx[0] = 1
        assert g.index.tolist() == [0, 3, 5]
        assert g.edges == frozenset({(0, 1), (1, 2), (2, 3)})

    def test_equal_graphs_equal_hashes(self):
        a = BinaryGraph(5, [(0, 4), (2, 1)])
        b = BinaryGraph.from_indices(5, [pair_index(1, 2, 5), pair_index(0, 4, 5)])
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != BinaryGraph(6, [(0, 4), (1, 2)])
        assert a != BinaryGraph(5, [(0, 4)])
        assert a != a.edges

    def test_immutable_and_picklable(self):
        g = BinaryGraph(4, [(0, 1), (2, 3)])
        with pytest.raises(AttributeError):
            g.n = 5
        with pytest.raises(ValueError):
            g.index[0] = 1
        assert pickle.loads(pickle.dumps(g)) == g

    def test_empty_and_complete(self):
        assert BinaryGraph.empty(5).edge_count == 0 and BinaryGraph.empty(1).edges == frozenset()
        assert BinaryGraph.complete(5).edges == frozenset(itertools.combinations(range(5), 2))


class TestFileFormats:
    def test_binary_round_trip(self, tmp_path):
        b = g(5, {(0, 4), (1, 2)})
        path = tmp_path / "g.txt"
        write_binary_graph(b, path)
        assert path.read_text().splitlines()[0] == "5"
        assert read_binary_graph(path) == b

    def test_weighted_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        w = rng.standard_normal((4, 4))
        w = np.triu(w, 1) + np.triu(w, 1).T
        path = tmp_path / "w.txt"
        write_weighted_graph(WeightedGraph(w), path)
        assert np.allclose(read_weighted_graph(path).weight, w)

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(1, 9))
    def test_binary_round_trip_property(self, tmp_path_factory, data, n):
        edges = data.draw(st.sets(st.sampled_from(list(itertools.combinations(range(n), 2))))) if n > 1 else set()
        b = g(n, edges)
        path = tmp_path_factory.mktemp("rt") / "g.txt"
        write_binary_graph(b, path)
        assert read_binary_graph(path) == b

    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.integers(1, 6))
    def test_weighted_round_trip_property(self, tmp_path_factory, data, n):
        vals = data.draw(
            st.lists(st.floats(-1e6, 1e6), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)
        )
        w = np.zeros((n, n))
        w[np.triu_indices(n, 1)] = vals
        w = w + w.T
        path = tmp_path_factory.mktemp("rt") / "w.txt"
        write_weighted_graph(WeightedGraph(w), path)
        assert np.array_equal(read_weighted_graph(path).weight, w)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda n: st.permutations(range(n))))
    def test_permutation_round_trip_property(self, tmp_path_factory, p):
        pi = Permutation(tuple(p))
        path = tmp_path_factory.mktemp("rt") / "pi.txt"
        write_permutation(pi, path)
        assert read_permutation(path) == pi

    @pytest.mark.parametrize(
        "text, line",
        [
            ("4\n1 2\n\n2 1\n", 4),  # the same edge written twice
            ("4\n1 2\n3 4 1\n", 3),  # three tokens
            ("4\n1 2\n3\n", 3),  # one token
            ("4\n1 2\n1 x\n", 3),  # a vertex that is not an integer
            ("", 1),  # an empty file
            ("abc\n1 2\n", 1),  # a header that is not an integer
            ("-3\n", 1),  # a negative number of vertices
            ("3\n1 5\n", 2),  # a vertex outside 1..n
            ("3\n2 2\n", 2),  # a self-loop
        ],
    )
    def test_binary_reader_rejects_with_line_number(self, tmp_path, text, line):
        path = tmp_path / "g.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"g.txt:{line}:"):
            read_binary_graph(path)

    @pytest.mark.parametrize(
        "text, fault",
        [("3\n1 2\n1 5\n", "vertex outside 1..3 in edge '1 5'"), ("3\n2 2\n", "self-loop in edge '2 2'")],
    )
    def test_binary_reader_names_the_edge_as_written(self, tmp_path, text, fault):
        path = tmp_path / "g.txt"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            read_binary_graph(path)
        assert str(err.value) == f"{path}:{text.count(chr(10))}: {fault}"

    @pytest.mark.parametrize(
        "text, line",
        [
            ("2\n0,1\n1,0\n0,0\n", 4),  # an extra row
            ("2\n0,1\n", 2),  # a missing row
            ("2\n0,1\n1,0,0\n", 3),  # a long row
            ("2\n0\n1,0\n", 2),  # a short row
            ("2\n0,x\n1,0\n", 2),  # a weight that is not a number
            ("\n \n", 1),  # blank lines only
            ("abc\n", 1),  # a header that is not an integer
            ("-3\n", 1),  # a negative number of vertices
        ],
    )
    def test_weighted_reader_rejects_with_line_number(self, tmp_path, text, line):
        path = tmp_path / "w.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"w.txt:{line}:"):
            read_weighted_graph(path)

    def test_permutation_round_trip(self, tmp_path):
        pi = Permutation((2, 0, 3, 1))
        path = tmp_path / "pi.txt"
        write_permutation(pi, path)
        assert path.read_text().strip() == "3 1 4 2"
        assert read_permutation(path) == pi

    @pytest.mark.parametrize(
        "text, where, message",
        [
            ("1 x 2\n", "pi.txt:1:", "expected a vertex number, got 'x'"),
            ("2 1\n3 0.5\n", "pi.txt:2:", "expected a vertex number, got '0.5'"),
            ("1 1 2\n", "pi.txt:", "mapping is not a bijection"),
            ("1 4\n", "pi.txt:", "mapping is not a bijection"),
            ("", "pi.txt:1:", "empty file"),
        ],
    )
    def test_permutation_reader_names_the_file(self, tmp_path, text, where, message):
        path = tmp_path / "pi.txt"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            read_permutation(path)
        assert str(err.value).startswith(f"{path}:") and where in str(err.value)
        assert message in str(err.value)


def _edge_perm_codes_loop(n):
    """Reference oracle: the per-permutation Python loop over edges and pair_index."""
    pairs = list(itertools.combinations(range(n), 2))
    m = len(pairs)
    perms = permutation_table(n)
    codes = np.arange(1 << m, dtype=np.int64)
    bit = [(codes >> e) & 1 for e in range(m)]
    out = np.empty((len(perms), 1 << m), dtype=np.int64)
    for t, pm in enumerate(perms):
        acc = np.zeros(1 << m, dtype=np.int64)
        for e, (i, j) in enumerate(pairs):
            src = pair_index(int(pm[i]), int(pm[j]), n)
            acc |= bit[src] << e
        out[t] = acc
    return out


class TestPermutationWalk:
    @pytest.mark.parametrize("n", range(0, 7))
    def test_table_is_lexicographic(self, n):
        table = permutation_table(n)
        assert table.shape == (math.factorial(n), n) and table.dtype == np.int8
        assert [tuple(r) for r in table.tolist()] == list(itertools.permutations(range(n)))
        assert permutation_table(n) is table
        with pytest.raises(ValueError):
            table[0, :1] = 0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_edge_code_maps_match_loop(self, n):
        maps = edge_code_maps(n)
        assert maps.dtype == np.int64
        np.testing.assert_array_equal(maps, _edge_perm_codes_loop(n))

    def test_table_refuses_past_ten_before_building(self, monkeypatch):
        def no_table(*args, **kwargs):
            raise AssertionError("a table was built")

        monkeypatch.setattr(np, "fromiter", no_table)  # 13! * 13 int8 entries would be about 81 GB
        for n in (11, 13):
            with pytest.raises(ExactLimitError, match=f"supports n <= 10, got n={n}"):
                permutation_table(n)

    def test_edge_code_maps_refuse_n5(self):
        with pytest.raises(ExactLimitError):
            edge_code_maps(5)

    @pytest.mark.parametrize("m", [0, 1, 6, 10])
    def test_code_edge_counts(self, m):
        counts = code_edge_counts(m)
        assert counts.dtype == np.int64
        assert counts.tolist() == [bin(c).count("1") for c in range(1 << m)]
