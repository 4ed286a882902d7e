import json

import numpy as np
import pytest

from extrapolmv.cart import (
    TreeNode,
    TreeParams,
    export_tree,
    gini,
    grow_tree,
    import_tree,
    predict_tree,
    tree_splits,
)


def leaves(node):
    if node.is_leaf:
        return [node]
    return leaves(node.left) + leaves(node.right)


def depth(node):
    if node.is_leaf:
        return 0
    return 1 + max(depth(node.left), depth(node.right))


def predict_matrix(tree, X, names):
    return np.array([predict_tree(tree, dict(zip(names, row)))[0] for row in X])


# -- impurity -------------------------------------------------------------------


def test_gini_reference_points():
    assert gini(50, 50) == 0.5
    assert gini(10, 0) == 0.0
    assert gini(0, 7) == 0.0
    assert gini(0, 0) == 0.0


# -- growing --------------------------------------------------------------------


def test_constant_labels_single_leaf():
    X = np.linspace(0, 1, 30)[:, None]
    tree = grow_tree(X, np.zeros(30, dtype=int))
    assert tree.is_leaf
    assert tree.prediction == 0
    assert tree.fraction == 1.0


def test_one_dimensional_step():
    rng = np.random.default_rng(0)
    x = rng.uniform(-2, 2, size=80)
    y = (x > 0).astype(int)
    tree = grow_tree(x[:, None], y, TreeParams(min_leaf=5),
                     feature_names=["f"])
    assert not tree.is_leaf
    assert tree.left.is_leaf and tree.right.is_leaf
    # threshold at the midpoint of the straddling pair
    below = x[x <= 0].max()
    above = x[x > 0].min()
    assert tree.threshold == pytest.approx(0.5 * (below + above))
    assert np.all(predict_matrix(tree, x[:, None], ["f"]) == y)


def oracle_best_split(X, y, min_leaf):
    """Exhaustive (feature, midpoint) enumeration with the same tie rule."""
    n = y.size
    best = None
    for f in range(X.shape[1]):
        vals = np.unique(X[:, f])
        for a, b in zip(vals[:-1], vals[1:]):
            thresh = 0.5 * (a + b)
            left = X[:, f] < thresh
            nl, nr = left.sum(), n - left.sum()
            if nl < min_leaf or nr < min_leaf:
                continue
            g = gini(np.sum(y == 0), np.sum(y == 1)) \
                - nl / n * gini(np.sum(y[left] == 0), np.sum(y[left] == 1)) \
                - nr / n * gini(np.sum(y[~left] == 0), np.sum(y[~left] == 1))
            if best is None or g > best[0] + 1e-15:
                best = (g, f, thresh)
    return best


def test_two_dimensional_and_rule_matches_oracle():
    rng = np.random.default_rng(1)
    X = rng.uniform(-1, 1, size=(100, 2))
    y = ((X[:, 0] > 0) & (X[:, 1] > 0)).astype(int)
    params = TreeParams(min_leaf=5)
    tree = grow_tree(X, y, params, feature_names=["x1", "x2"])

    g, f, thresh = oracle_best_split(X, y, params.min_leaf)
    assert tree.feature == ["x1", "x2"][f]
    assert tree.threshold == pytest.approx(thresh)

    assert depth(tree) == 2
    used = {s[0] for s in tree_splits(tree, max_depth=2)}
    assert used == {"x1", "x2"}
    assert np.all(predict_matrix(tree, X, ["x1", "x2"]) == y)


def test_tie_between_duplicate_features_goes_to_lowest_index():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    X = np.column_stack([x, x])  # identical columns, identical gains
    y = np.array([0, 0, 1, 1])
    tree = grow_tree(X, y, TreeParams(min_leaf=1), feature_names=["a", "b"])
    assert tree.feature == "a"
    assert tree.threshold == 1.5


def test_min_gain_stops_splitting():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((60, 2))
    y = rng.integers(0, 2, size=60)
    big_gain = grow_tree(X, y, TreeParams(min_leaf=1, min_split_gain=0.49))
    assert big_gain.is_leaf  # random labels never decrease gini by ~0.5


def test_child_counts_sum_to_parent():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((200, 3))
    y = (X[:, 0] + 0.3 * rng.standard_normal(200) > 0).astype(int)
    tree = grow_tree(X, y, TreeParams(min_leaf=10))

    def walk(node):
        if node.is_leaf:
            return
        assert node.left.n0 + node.right.n0 == node.n0
        assert node.left.n1 + node.right.n1 == node.n1
        walk(node.left)
        walk(node.right)

    walk(tree)
    assert sum(leaf.fraction for leaf in leaves(tree)) == pytest.approx(1.0)


def test_every_split_has_positive_gain():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((150, 4))
    y = ((X[:, 1] > 0.2) | (X[:, 3] < -0.5)).astype(int)
    tree = grow_tree(X, y, TreeParams(min_leaf=5))

    def walk(node):
        if node.is_leaf:
            return
        parent = gini(node.n0, node.n1)
        nl = node.left.n0 + node.left.n1
        nr = node.right.n0 + node.right.n1
        child = (nl * gini(node.left.n0, node.left.n1)
                 + nr * gini(node.right.n0, node.right.n1)) / (nl + nr)
        assert parent - child >= 1e-4 - 1e-12
        walk(node.left)
        walk(node.right)

    walk(tree)


def test_grow_is_deterministic():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((300, 4))
    y = ((X[:, 0] > 0.1) & (X[:, 2] > -0.4)).astype(int)
    t1 = grow_tree(X, y, TreeParams(min_leaf=8))
    t2 = grow_tree(X, y, TreeParams(min_leaf=8))
    assert export_tree(t1) == export_tree(t2)


def test_planted_and_rule_recovered():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((800, 5))
    y = ((X[:, 1] > 0.5) & (X[:, 3] >= -0.2)).astype(int)
    names = [f"c{j}" for j in range(5)]
    tree = grow_tree(X, y, TreeParams(min_leaf=10), feature_names=names)
    used = {s[0] for s in tree_splits(tree, max_depth=2)}
    assert {"c1", "c3"} <= used
    acc = np.mean(predict_matrix(tree, X, names) == y)
    assert acc >= 0.9


def test_rejects_bad_inputs():
    with pytest.raises(ValueError, match="no rows"):
        grow_tree(np.empty((0, 2)), np.empty(0))
    with pytest.raises(ValueError, match="binary"):
        grow_tree(np.ones((5, 1)), np.array([0, 1, 2, 1, 0]))
    with pytest.raises(ValueError, match="align"):
        grow_tree(np.ones((5, 1)), np.zeros(4))
    with pytest.raises(ValueError, match="NaN"):
        grow_tree(np.array([[0.0], [np.nan], [1.0]]), np.array([0, 1, 1]))


# -- prediction -------------------------------------------------------------------


def test_single_leaf_prediction_constant():
    tree = grow_tree(np.arange(10.0)[:, None], np.ones(10, dtype=int))
    for v in (-100.0, 0.0, 100.0):
        assert predict_tree(tree, {"x1": v}) == (1, 1.0)


def test_predict_matches_json_path_walk():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((250, 3))
    y = ((X[:, 0] * X[:, 1] > 0) | (X[:, 2] > 1)).astype(int)
    names = ["a", "b", "c"]
    tree = grow_tree(X, y, TreeParams(min_leaf=5, max_depth=6),
                     feature_names=names)
    doc = json.loads(export_tree(tree))

    def walk(node, row):
        while "feature" in node:
            node = node["left"] if row[node["feature"]] < node["threshold"] \
                else node["right"]
        return node["prediction"], node["proportion"]

    for row in X[:60]:
        mapping = dict(zip(names, row))
        assert predict_tree(tree, mapping) == walk(doc, mapping)


def test_predict_missing_covariate_raises():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    tree = grow_tree(x[:, None], np.array([0, 0, 1, 1]),
                     TreeParams(min_leaf=1), feature_names=["width"])
    with pytest.raises(KeyError, match="width"):
        predict_tree(tree, {"height": 1.0})


# -- export -----------------------------------------------------------------------


def test_json_round_trip_idempotent():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((120, 2))
    y = (X[:, 0] > 0).astype(int)
    tree = grow_tree(X, y, TreeParams(min_leaf=5))
    doc = export_tree(tree, "json")
    again = export_tree(import_tree(doc), "json")
    assert doc == again


def test_single_leaf_text_output():
    tree = grow_tree(np.arange(8.0)[:, None], np.zeros(8, dtype=int))
    text = export_tree(tree, "text")
    assert "n0=8 n1=0" in text
    assert "records 100.0%" in text


def test_leaf_record_percentages_sum_to_hundred():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((500, 3))
    y = ((X[:, 0] > 0) & (X[:, 1] > 0)).astype(int)
    tree = grow_tree(X, y, TreeParams(min_leaf=20))
    text = export_tree(tree, "text")
    total = 0.0
    for line in text.splitlines():
        if line.strip().startswith("leaf"):
            total += float(line.rsplit("records ", 1)[1].rstrip("%"))
    assert total == pytest.approx(100.0, abs=0.1)


def test_unknown_format_rejected():
    tree = TreeNode(n0=1, n1=0, prediction=0, proportion=1.0, fraction=1.0)
    with pytest.raises(ValueError):
        export_tree(tree, "xml")
