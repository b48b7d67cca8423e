import datetime as dt
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.cluster.hierarchy import is_valid_linkage

import cryptodynamics as cd
from cryptodynamics import exports
from cryptodynamics.dispersion import LINKAGES, Merge


def days(w):
    return tuple(dt.date(2020, 1, 1) + dt.timedelta(days=k) for k in range(w))


@settings(max_examples=60, deadline=None)
@given(w=st.integers(1, 14), method=st.sampled_from(LINKAGES),
       seed=st.integers(0, 2**32 - 1))
def test_dendrogram_json_is_the_linkage_matrix(tmp_path_factory, w, method, seed):
    x = np.random.default_rng(seed).uniform(0.0, 1.0, w)
    dendro = cd.hierarchical_cluster(np.abs(x[:, None] - x[None, :]), method)
    path = tmp_path_factory.mktemp("dendrogram") / "dendrogram.json"
    exports.write_dendrogram_json(dendro, path, days(w))
    data = json.loads(path.read_text())
    assert data["n_leaves"] == w
    assert data["dates"] == [d.isoformat() for d in days(w)]
    # float equality: every height must survive the round trip bit for bit
    assert data["merges"] == [[m.cluster_a, m.cluster_b, m.height, m.size]
                              for m in dendro.merges]
    if w > 1:
        assert is_valid_linkage(np.array(data["merges"], dtype=float))


def test_deep_dendrogram_writes_without_recursion(tmp_path):
    # a chain: each merge joins the previous cluster and the next leaf, the
    # deepest tree w leaves can form
    w = 1500
    merges = [Merge(0, 0, 1, 0.0, 2)] + [
        Merge(k, w + k - 1, k + 1, float(k), k + 2) for k in range(1, w - 1)]
    path = tmp_path / "dendrogram.json"
    exports.write_dendrogram_json(cd.Dendrogram(w, merges), path, days(w))
    data = json.loads(path.read_text())
    assert data["n_leaves"] == w and len(data["merges"]) == w - 1
    assert data["merges"][-1] == [2 * w - 3, w - 1, 1498.0, w]
    assert path.stat().st_size < 100 * (w - 1)


def test_dendrogram_json_needs_one_date_per_leaf(tmp_path):
    dendro = cd.hierarchical_cluster(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(cd.InputError, match="dates length"):
        exports.write_dendrogram_json(dendro, tmp_path / "d.json", days(3))
