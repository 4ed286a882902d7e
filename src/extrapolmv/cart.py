"""Binary classification tree over covariates (Gini splits).

Grown greedily: every (covariate, midpoint-threshold) pair is scored by
its Gini impurity decrease and the best one wins; ties go to the lowest
covariate index, then the smallest threshold. Rows with a value below
the threshold go left. Each covariate is argsorted once at the root; a
split partitions every such order with a stable boolean mask, so each
node sees its rows sorted by every covariate without sorting again. The
order of tied values does not matter: a split is only read where the
sorted value changes. There is no cost-complexity pruning; growth stops
on depth, leaf size or insufficient gain. Trees are immutable once grown
and safe to share.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


@dataclass
class TreeParams:
    """Stopping rules: depth, minimum rows per leaf, minimum Gini decrease."""

    max_depth: int = 5
    min_leaf: int = 20
    min_split_gain: float = 1e-4

    def __post_init__(self):
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        if self.min_leaf < 1:
            raise ValueError("min_leaf must be at least 1")
        if self.min_split_gain < 0:
            raise ValueError("min_split_gain cannot be negative")


@dataclass
class TreeNode:
    """One node; internal nodes carry a (feature, threshold) split.

    ``prediction`` is the majority class (ties predict 0), ``proportion``
    the share of the predicted class, ``fraction`` the share of all
    training records reaching this node.
    """

    n0: int
    n1: int
    prediction: int
    proportion: float
    fraction: float
    feature: str | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


def gini(n0: float, n1: float) -> float:
    """Gini impurity of a two-class count pair."""
    total = n0 + n1
    if total == 0:
        return 0.0
    p = n0 / total
    return 1.0 - p * p - (1.0 - p) * (1.0 - p)


def _best_split(X: np.ndarray, y: np.ndarray, orders: np.ndarray, params: TreeParams):
    """Best (feature_idx, threshold, gain) or None when nothing splittable.

    ``orders[f]`` lists the node's rows sorted by feature f, so each
    feature's candidate splits need no sort here. Splits are only read
    where the sorted value changes, where the rows before are exactly
    those at or below the value, in any order of ties.
    """
    n = orders.shape[1]
    c1 = float(y[orders[0]].sum())
    c0 = float(n - c1)
    parent = gini(c0, c1)
    best = None  # (gain, feat, thresh)
    for f, order in enumerate(orders):
        sv = X[order, f]
        sy = y[order]
        change = np.flatnonzero(sv[:-1] != sv[1:])
        if change.size == 0:
            continue
        cum1 = np.cumsum(sy)
        n_left = change + 1.0  # float counts: their squares cannot overflow
        n_right = n - n_left
        ok = (n_left >= params.min_leaf) & (n_right >= params.min_leaf)
        if not np.any(ok):
            continue
        left1 = cum1[change].astype(float)
        left0 = n_left - left1
        right1 = c1 - left1
        right0 = c0 - left0
        gl = 1.0 - (left0 ** 2 + left1 ** 2) / n_left ** 2
        gr = 1.0 - (right0 ** 2 + right1 ** 2) / n_right ** 2
        child = (n_left * gl + n_right * gr) / (n_left + n_right)
        gains = np.where(ok, parent - child, -np.inf)
        j = int(np.argmax(gains))
        if gains[j] == -np.inf:
            continue
        thresh = 0.5 * (sv[change[j]] + sv[change[j] + 1])
        # strict improvement required, so earlier features / smaller
        # thresholds win exact ties
        if best is None or gains[j] > best[0]:
            best = (float(gains[j]), f, float(thresh))
    return best


def _grow(X: np.ndarray, y: np.ndarray, orders: np.ndarray, names: list[str],
          params: TreeParams, depth: int, total: int) -> TreeNode:
    size = orders.shape[1]
    # without covariates the root, which holds every row, is the only node
    n1 = int(y[orders[0]].sum()) if len(orders) else int(y.sum())
    n0 = size - n1
    pred = 1 if n1 > n0 else 0
    prop = (n1 if pred == 1 else n0) / max(size, 1)
    node = TreeNode(n0=n0, n1=n1, prediction=pred, proportion=prop,
                    fraction=size / total)
    if n0 == 0 or n1 == 0 or depth >= params.max_depth \
            or size < 2 * params.min_leaf:
        return node
    best = _best_split(X, y, orders, params)
    if best is None or best[0] < params.min_split_gain:
        return node
    _gain, f, thresh = best
    # a stable partition of every order keeps each child's rows sorted
    go_left = (X[:, f] < thresh)[orders]
    node.feature = names[f]
    node.threshold = thresh
    node.left = _grow(X, y, orders[go_left].reshape(len(orders), -1), names, params,
                      depth + 1, total)
    node.right = _grow(X, y, orders[~go_left].reshape(len(orders), -1), names, params,
                       depth + 1, total)
    return node


def grow_tree(features: np.ndarray, labels: np.ndarray,
              params: TreeParams | None = None,
              feature_names: list[str] | None = None) -> TreeNode:
    """Grow a classification tree on a covariate matrix (no intercept).

    Labels must be binary 0/1 and features free of NaN. Deterministic:
    identical inputs give an identical tree.
    """
    X = np.asarray(features, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    y = np.asarray(labels)
    if X.shape[0] == 0:
        raise ValueError("no rows to grow a tree on")
    if np.isnan(X).any():
        raise ValueError("features must not hold NaN")
    if y.shape != (X.shape[0],):
        raise ValueError("labels must align with feature rows")
    uniq = np.unique(y)
    if not np.all(np.isin(uniq, (0, 1))):
        raise ValueError("labels must be binary 0/1")
    y = y.astype(int)
    if feature_names is None:
        feature_names = [f"x{j + 1}" for j in range(X.shape[1])]
    if len(feature_names) != X.shape[1]:
        raise ValueError("feature_names must match feature columns")
    params = params or TreeParams()
    # int32 row numbers halve the memory of every node's order arrays
    index = np.int32 if X.shape[0] < 2 ** 31 else np.intp
    orders = np.argsort(X.T, axis=1).astype(index)
    return _grow(X, y, orders, list(feature_names), params, depth=0, total=X.shape[0])


def predict_tree(t: TreeNode, row) -> tuple[int, float]:
    """Route one covariate mapping to a leaf; (prediction, proportion).

    ``row`` maps covariate name -> value; values below a node's threshold
    go left, values at or above it go right.
    """
    node = t
    while not node.is_leaf:
        if node.feature not in row:
            raise KeyError(f"row is missing covariate {node.feature!r}")
        node = node.left if row[node.feature] < node.threshold else node.right
    return node.prediction, node.proportion


def _to_dict(node: TreeNode) -> dict:
    out = {
        "n0": node.n0,
        "n1": node.n1,
        "prediction": node.prediction,
        "proportion": node.proportion,
        "fraction": node.fraction,
    }
    if not node.is_leaf:
        out["feature"] = node.feature
        out["threshold"] = node.threshold
        out["left"] = _to_dict(node.left)
        out["right"] = _to_dict(node.right)
    return out


def _from_dict(d: dict) -> TreeNode:
    if not isinstance(d, dict):
        raise ValueError(f"expected a tree node object, got {json.dumps(d)[:40]}")
    keys = ["n0", "n1", "prediction", "proportion", "fraction"]
    keys += ["threshold", "left", "right"] if "feature" in d else []
    absent = [key for key in keys if key not in d]
    if absent:
        raise ValueError(f"tree node without keys {absent}")
    node = TreeNode(n0=int(d["n0"]), n1=int(d["n1"]),
                    prediction=int(d["prediction"]),
                    proportion=float(d["proportion"]),
                    fraction=float(d["fraction"]))
    if "feature" in d:
        node.feature = d["feature"]
        node.threshold = float(d["threshold"])
        node.left = _from_dict(d["left"])
        node.right = _from_dict(d["right"])
    return node


def _render_text(node: TreeNode, lines: list[str], indent: int) -> None:
    pad = "  " * indent
    total = max(node.n0 + node.n1, 1)
    shares = f"n0={node.n0} n1={node.n1} ({100.0 * node.n0 / total:.1f}% / " \
             f"{100.0 * node.n1 / total:.1f}%)"
    if node.is_leaf:
        lines.append(f"{pad}leaf: class {node.prediction}  {shares}  "
                     f"records {100.0 * node.fraction:.1f}%")
    else:
        lines.append(f"{pad}[{node.feature} < {node.threshold!r}]  {shares}  "
                     f"records {100.0 * node.fraction:.1f}%")
        _render_text(node.left, lines, indent + 1)
        _render_text(node.right, lines, indent + 1)


def export_tree(t: TreeNode, fmt: str = "json") -> str:
    """Serialize a tree: "json" round-trips exactly, "text" is for reading."""
    if fmt == "json":
        return json.dumps(_to_dict(t), indent=1, sort_keys=True) + "\n"
    if fmt == "text":
        lines: list[str] = []
        _render_text(t, lines, 0)
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown export format {fmt!r}")


def import_tree(doc: str) -> TreeNode:
    """Inverse of export_tree(fmt="json")."""
    return _from_dict(json.loads(doc))


def tree_splits(t: TreeNode, max_depth: int = 2) -> list[tuple[str, float, int]]:
    """(feature, threshold, depth) for internal nodes down to max_depth."""
    out: list[tuple[str, float, int]] = []

    def walk(node: TreeNode, depth: int):
        if node.is_leaf or depth >= max_depth:
            return
        out.append((node.feature, node.threshold, depth))
        walk(node.left, depth + 1)
        walk(node.right, depth + 1)

    walk(t, 0)
    return out
