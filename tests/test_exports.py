import datetime as dt
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import cryptodynamics as cd
from cryptodynamics import exports
from cryptodynamics.dispersion import LINKAGES, Merge, dendrogram_to_tree


@settings(max_examples=60, deadline=None)
@given(w=st.integers(1, 14), method=st.sampled_from(LINKAGES),
       dated=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_dendrogram_json_matches_json_module(w, method, dated, seed):
    x = np.random.default_rng(seed).uniform(0.0, 1.0, w)
    dendro = cd.hierarchical_cluster(np.abs(x[:, None] - x[None, :]), method)
    dates = tuple(dt.date(2020, 1, 1) + dt.timedelta(days=k) for k in range(w))
    tree = dendrogram_to_tree(dendro, dates if dated else None)
    assert exports.json_text(tree) == json.dumps(tree, indent=2, sort_keys=True)


def test_json_text_matches_json_module_on_every_value_kind():
    obj = {"b": [1, -2.5, None, True, False, "é\n\"", float("nan")],
           "a": {"z": [], "y": {}, "x": [[{}], ["q"]], "w": (1, 2)},
           "c": 1e300}
    assert exports.json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)
    for scalar in (3, 0.1, "s", None, [], {}):
        assert exports.json_text(scalar) == json.dumps(scalar, indent=2)


def test_deep_dendrogram_writes_without_recursion(tmp_path):
    # a chain: each merge joins the previous cluster and the next leaf, so the
    # tree is w - 1 levels deep, past the json module's recursion limit
    w = 1500
    merges = [Merge(0, 0, 1, 0.0, 2)] + [
        Merge(k, w + k - 1, k + 1, float(k), k + 2) for k in range(1, w - 1)]
    path = tmp_path / "dendrogram.json"
    exports.write_dendrogram_json(cd.Dendrogram(w, merges), path)
    text = path.read_text()
    assert text.startswith('{\n  "children": [\n    {\n      "children": [\n')
    assert text.endswith('  "height": 1498.0,\n  "size": 1500\n}\n')
    assert text.count('"leaf": ') == w
    deepest = max(len(line) - len(line.lstrip(" ")) for line in text.splitlines())
    assert deepest == 2 * (2 * (w - 1) + 1)  # the keys of the two deepest leaves
