"""Adjacency construction, global connections, and the renormalized Laplacian."""

import math

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dagam.errors import ConfigError, GraphError, LayoutError
from dagam.graph import (
    ElectrodeLayout,
    apply_global_connections,
    build_adjacency,
    renormalized_laplacian,
)
from dagam.layouts import CHANNELS_62, DEFAULT_GLOBAL_PAIRS, build_62_channel_layout


def two_channel_layout(d=1.0):
    return ElectrodeLayout(("A", "B"), np.array([[0.0, 0.0, 0.0], [d, 0.0, 0.0]]))


class TestBuildAdjacency:
    def test_clamp_forced_when_sigma_dominates(self):
        adj = build_adjacency(two_channel_layout(d=2.0), sigma=5.0)
        assert adj.matrix[0, 1] == 1.0  # min(1, 5/4)

    def test_direct_formula(self):
        adj = build_adjacency(two_channel_layout(d=5.0), sigma=5.0)
        assert adj.matrix[0, 1] == pytest.approx(0.2)

    def test_coincident_electrodes_name_the_pair(self):
        layout = ElectrodeLayout(("A", "B"), np.zeros((2, 3)))
        with pytest.raises(LayoutError, match="'A'.*'B'"):
            build_adjacency(layout, sigma=5.0)

    def test_electrodes_with_a_subnormal_squared_distance_get_full_weight(self):
        layout = ElectrodeLayout(("A", "B"), np.array([[0.0, 0.0, 0.0], [1e-159, 0.0, 0.0]]))
        np.testing.assert_array_equal(build_adjacency(layout, sigma=1.0).matrix, [[0.0, 1.0], [1.0, 0.0]])

    def test_diagonal_zero_and_symmetric(self):
        adj = build_adjacency(build_62_channel_layout(), sigma=5.0)
        assert np.array_equal(adj.matrix, adj.matrix.T)
        assert (np.diag(adj.matrix) == 0).all()

    # d_ij and d_ji are computed from p_i - p_j and p_j - p_i, which IEEE
    # subtraction makes exact negatives, so no symmetrizing step is needed.
    @settings(max_examples=200, deadline=None)
    @given(
        positions=hnp.arrays(
            np.float64, st.tuples(st.integers(2, 12), st.just(3)), elements=st.floats(-1e3, 1e3)
        ),
        sigma=st.floats(1e-3, 1e3),
    )
    def test_exactly_symmetric_over_random_layouts(self, positions, sigma):
        layout = ElectrodeLayout(tuple(f"c{i}" for i in range(len(positions))), positions)
        try:
            adj = build_adjacency(layout, sigma)
        except LayoutError:
            reject()  # coincident electrodes
        assert np.array_equal(adj.matrix, adj.matrix.T)

    def test_offdiagonal_entries_in_unit_interval(self):
        for sigma in (0.5, 5.0, 50.0):
            adj = build_adjacency(build_62_channel_layout(), sigma=sigma)
            off = adj.matrix[~np.eye(len(adj.names), dtype=bool)]
            assert (off > 0).all() and (off <= 1).all()

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ConfigError):
            build_adjacency(two_channel_layout(), sigma=0.0)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(ConfigError, match="sigma"):
            build_adjacency(two_channel_layout(), sigma=sigma)


class TestGlobalConnections:
    def test_overwrites_symmetric_entries(self):
        adj = build_adjacency(build_62_channel_layout(), sigma=5.0)
        out = apply_global_connections(adj, [("F3", "F4")], -0.5)
        i, j = out.names.index("F3"), out.names.index("F4")
        assert out.matrix[i, j] == -0.5 and out.matrix[j, i] == -0.5
        mask = np.ones_like(adj.matrix, dtype=bool)
        mask[i, j] = mask[j, i] = False
        assert np.array_equal(out.matrix[mask], adj.matrix[mask])

    def test_empty_pair_list_is_identity(self):
        adj = build_adjacency(build_62_channel_layout(), sigma=5.0)
        out = apply_global_connections(adj, [], -1.0)
        assert np.array_equal(out.matrix, adj.matrix)

    def test_weight_zero_removes_connection(self):
        adj = build_adjacency(two_channel_layout(), sigma=5.0)
        out = apply_global_connections(adj, [("A", "B")], 0.0)
        assert out.matrix[0, 1] == 0.0

    def test_unknown_channel_rejected(self):
        adj = build_adjacency(two_channel_layout(), sigma=5.0)
        with pytest.raises(LayoutError):
            apply_global_connections(adj, [("A", "Q")], -1.0)

    def test_out_of_range_weight_rejected(self):
        adj = build_adjacency(two_channel_layout(), sigma=5.0)
        for weight in (0.1, -1.5):
            with pytest.raises(ConfigError):
                apply_global_connections(adj, [("A", "B")], weight)


class TestRenormalizedLaplacian:
    def test_zero_adjacency_gives_identity(self):
        lap = renormalized_laplacian(np.zeros((2, 2)))
        np.testing.assert_array_equal(lap, np.eye(2))

    def test_unit_edge_two_nodes(self):
        lap = renormalized_laplacian(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(lap, [[0.5, 0.5], [0.5, 0.5]])

    def test_negative_edge_uses_absolute_degree(self):
        lap = renormalized_laplacian(np.array([[0.0, -0.5], [-0.5, 0.0]]))
        np.testing.assert_allclose(lap, [[2 / 3, -1 / 3], [-1 / 3, 2 / 3]], atol=1e-15)

    def test_asymmetric_input_rejected(self):
        with pytest.raises(GraphError):
            renormalized_laplacian(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_nan_reported_as_non_finite(self):
        with pytest.raises(GraphError, match="finite"):
            renormalized_laplacian(np.full((2, 2), math.nan))

    def test_symmetric_inf_edge_rejected(self):
        a = np.array([[0.0, math.inf], [math.inf, 0.0]])
        with pytest.raises(GraphError, match=r"entry \(0, 1\) is inf"):
            renormalized_laplacian(a)

    def test_output_exactly_symmetric_on_full_montage(self):
        adj = apply_global_connections(
            build_adjacency(build_62_channel_layout(), sigma=5.0),
            list(DEFAULT_GLOBAL_PAIRS),
            -1.0,
        )
        lap = renormalized_laplacian(adj)
        assert np.array_equal(lap, lap.T)

    @pytest.mark.parametrize("seed", range(20))
    def test_eigenvalues_bounded_for_nonnegative_adjacency(self, seed):
        # Oracle: dense eigensolver on small random graphs.
        rng = np.random.default_rng(seed)
        n = rng.integers(2, 9)
        raw = rng.uniform(0.0, 1.0, (n, n))
        a = np.triu(raw, 1)
        a = a + a.T
        eigs = np.linalg.eigvalsh(renormalized_laplacian(a))
        assert (eigs > -1.0 + 1e-9).all()
        assert (eigs <= 1.0 + 1e-12).all()

    @pytest.mark.parametrize("seed", range(10))
    def test_channel_relabeling_conjugates_by_permutation(self, seed):
        rng = np.random.default_rng(seed)
        n = rng.integers(2, 9)
        raw = rng.uniform(0.0, 1.0, (n, n))
        a = np.triu(raw, 1)
        a = a + a.T
        perm = rng.permutation(n)
        p = np.eye(n)[perm]
        direct = renormalized_laplacian(p @ a @ p.T)
        conjugated = p @ renormalized_laplacian(a) @ p.T
        np.testing.assert_allclose(direct, conjugated, atol=1e-12)

    def test_zero_absolute_degree_detected(self):
        # A -1 self-loop cancels the +I contribution for an isolated node.
        a = np.array([[-1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(GraphError, match="row 0"):
            renormalized_laplacian(a)


class TestLayout:
    def test_builtin_montage_has_62_unique_channels(self):
        layout = build_62_channel_layout()
        assert len(layout) == 62
        assert layout.names == CHANNELS_62

    def test_default_global_pairs_exist_in_montage(self):
        layout = build_62_channel_layout()
        for left, right in DEFAULT_GLOBAL_PAIRS:
            assert left in layout.names and right in layout.names

    def test_left_right_mirror_symmetry(self):
        layout = build_62_channel_layout()
        pos = dict(zip(layout.names, layout.positions))
        flip = np.array([-1.0, 1.0, 1.0])
        # Interior electrodes and AF3/AF4 are mirrored exactly; the right ring
        # electrodes are placed on their own, so they agree to rounding.
        interior = [f"{row}{n}" for row in ("F", "FC", "C", "CP", "P") for n in (1, 3, 5)]
        for left in [*interior, "PO3", "PO5", "AF3"]:
            right = left[:-1] + str(int(left[-1]) + 1)
            np.testing.assert_array_equal(pos[left] * flip, pos[right], err_msg=left)
        ring = [("FP1", "FP2"), ("F7", "F8"), ("FT7", "FT8"), ("T7", "T8"), ("TP7", "TP8"),
                ("P7", "P8"), ("PO7", "PO8"), ("O1", "O2"), ("CB1", "CB2")]
        for left, right in ring:
            np.testing.assert_allclose(pos[left] * flip, pos[right], rtol=0, atol=1e-12, err_msg=left)

    def test_median_edge_weight_near_documented_calibration(self):
        adj = build_adjacency(build_62_channel_layout(), sigma=5.0)
        off = adj.matrix[~np.eye(62, dtype=bool)]
        assert 0.2 < np.median(off) < 0.45

    def test_duplicate_names_rejected(self):
        with pytest.raises(LayoutError, match="duplicate"):
            ElectrodeLayout(("A", "A"), np.zeros((2, 3)))
