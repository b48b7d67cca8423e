import datetime as dt
import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.cluster.hierarchy import is_valid_linkage

import cryptodynamics as cd
from cryptodynamics import cli, exports
from cryptodynamics.dispersion import LINKAGES

from test_dispersion import cluster


def days(w):
    return tuple(dt.date(2020, 1, 1) + dt.timedelta(days=k) for k in range(w))


@settings(max_examples=60, deadline=None)
@given(w=st.integers(1, 14), method=st.sampled_from(LINKAGES),
       seed=st.integers(0, 2**32 - 1))
def test_dendrogram_json_is_the_linkage_matrix(tmp_path_factory, w, method, seed):
    x = np.random.default_rng(seed).uniform(0.0, 1.0, w)
    dendro = cluster(np.abs(x[:, None] - x[None, :]), method)
    path = tmp_path_factory.mktemp("dendrogram") / "dendrogram.json"
    exports.write_dendrogram_json(dendro, path)
    data = json.loads(path.read_text())
    assert data["n_leaves"] == w
    assert data["dates"] == [d.isoformat() for d in dendro.dates]
    # float equality: every height must survive the round trip bit for bit
    assert data["merges"] == dendro.merges.tolist()
    assert all(type(v) is int for a, b, _, size in data["merges"] for v in (a, b, size))
    if w > 1:
        assert is_valid_linkage(np.array(data["merges"], dtype=float))


def test_deep_dendrogram_writes_without_recursion(tmp_path):
    # a chain: each merge joins the previous cluster and the next leaf, the
    # deepest tree w leaves can form
    w = 1500
    merges = np.array([[0, 1, 0.0, 2]] + [
        [w + k - 1, k + 1, float(k), k + 2] for k in range(1, w - 1)], dtype=float)
    path = tmp_path / "dendrogram.json"
    exports.write_dendrogram_json(cd.Dendrogram(days(w), merges), path)
    data = json.loads(path.read_text())
    assert data["n_leaves"] == w and len(data["merges"]) == w - 1
    assert data["merges"][-1] == [2 * w - 3, w - 1, 1498.0, w]
    assert path.stat().st_size < 100 * (w - 1)


def test_dendrogram_json_needs_one_date_per_leaf(tmp_path):
    # the leaves are the dendrogram's own dates, so merges for another
    # number of leaves are rejected before anything is written
    with pytest.raises(cd.InputError, match="linkage matrix"):
        cd.Dendrogram(days(3), [[0, 1, 1.0, 2]])
    dendro = cd.Dendrogram(days(2), [[0, 1, 1.0, 2]])
    data = json.loads(exports.write_dendrogram_json(dendro, tmp_path / "d.json").read_text())
    assert data["dates"] == ["2020-01-01", "2020-01-02"] and data["n_leaves"] == 2


def test_dendrogram_csv_writes_ids_and_sizes_as_integers(tmp_path, monkeypatch):
    # cli.cmd_dispersion writes dendrogram.csv; run it on a fixed dendrogram
    dendro = cd.Dendrogram(days(3), [[0, 1, 0.0625, 2], [2, 3, 1 / 3, 3]])
    monkeypatch.setattr(cli.dispersion, "hierarchical_cluster", lambda vol, method: dendro)
    monkeypatch.setattr(cli.dispersion, "variance_series", lambda vol: SimpleNamespace(
        dates=days(3), values=[1.0, 2.0, 3.0]))
    monkeypatch.setattr(cli.inconsistency, "rolling_volatility", lambda *args: None)
    cfg = SimpleNamespace(out_dir=tmp_path, linkage="average")
    written = list(cli.cmd_dispersion(cfg, None, 3, {}))
    path = tmp_path / "dendrogram.csv"
    assert path in written
    assert path.read_text().splitlines() == [
        "step,cluster_a,cluster_b,height,size",
        "0,0,1,0.0625,2",
        "1,2,3,0.333333333333,3",
    ]
    # every path a command yields is the one a writer was given
    csv_path, json_path = tmp_path / "a.csv", tmp_path / "b.json"
    assert exports.write_csv(csv_path, x=[1.0]) is csv_path
    assert exports.write_json(json_path, {"x": 1}) is json_path


def test_write_json_indents_by_two_and_sorts_keys(tmp_path):
    path = exports.write_json(tmp_path / "x.json", {"b": [1, 0.1], "a": {"d": None, "c": "é"}})
    assert path.read_bytes() == (b'{\n  "a": {\n    "c": "\\u00e9",\n    "d": null\n  },\n'
                                 b'  "b": [\n    1,\n    0.1\n  ]\n}\n')
