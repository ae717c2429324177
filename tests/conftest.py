import types

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from circgnn import circulant

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def no_projection_counts(monkeypatch):
    """Any ``np.bincount`` call in ``circulant`` fails: a projection must not reach its counts."""

    def bincount(*args, **kwargs):
        raise AssertionError("project_to_block_circulant reached np.bincount")

    numpy = types.ModuleType("numpy")
    numpy.__dict__.update(vars(np), bincount=bincount)
    monkeypatch.setattr(circulant, "np", numpy)


@pytest.fixture(scope="session")
def citation_scale_files(tmp_path_factory):
    """Synthetic fixture with the node/edge/feature counts of a well-known
    citation benchmark: 2708 nodes, 10556 arcs, 1433 binary features."""
    root = tmp_path_factory.mktemp("citation")
    edges = root / "edges.txt"
    feats = root / "features.csv"
    rng = np.random.default_rng(1433)
    num_nodes, num_edges, dim = 2708, 10556, 1433

    codes = rng.choice(num_nodes * num_nodes, size=3 * num_edges, replace=False)
    src, dst = codes // num_nodes, codes % num_nodes
    keep = src != dst
    pairs = np.column_stack([src[keep], dst[keep]])
    # drop any sampled copy of the sentinel arc, then append it so the top
    # node ID is guaranteed to appear
    sentinel = np.array([num_nodes - 1, 0])
    pairs = pairs[~np.all(pairs == sentinel, axis=1)][: num_edges - 1]
    pairs = np.vstack([pairs, sentinel])
    assert np.unique(pairs, axis=0).shape[0] == num_edges

    with open(edges, "w") as fh:
        fh.write("# synthetic citation-scale fixture\n")
        for s, d in pairs:
            fh.write(f"{s} {d}\n")
    sparse = rng.random((num_nodes, dim)) < 0.012
    with open(feats, "w") as fh:
        for row in sparse:
            fh.write(",".join("1" if v else "0" for v in row))
            fh.write("\n")
    return edges, feats
