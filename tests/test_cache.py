"""Every cached table belongs to ``dyadica.cache``: each one is listed
here with a call that reaches it, every array it hands out is read-only,
and a second run of the suites builds nothing."""

import contextlib
import dataclasses
import io

import numpy as np
import pytest
from scipy import sparse

from dyadica import build_family, cache, tlnorm
from dyadica.config import ExperimentConfig
from dyadica.czform import KernelSpec, _kernel_matrix
from dyadica.suites import run_suite, workspace

SMALL = """[ensemble]
count = 10
[probe]
members = 4
j_sweep = -5, -6
[sparse]
trials = 3
j_sweep = -6, -7
[testbench]
sample_count = 6
"""


def _tables(ws):
    """Table name -> a call that returns one of its entries."""
    basis, dictionary, root = ws.basis, ws.dictionary, ws.root
    N = basis.family.N
    kernel = KernelSpec(root, n=1, kind="convolution", eps_trunc=4 * root.cell_width)._kernel
    return {
        "wavelet.build_family": lambda: build_family(N),
        "wavelet.AtomBasis._template": lambda: basis._template(3, "wavelet"),
        "wavelet.AtomBasis.atoms": lambda: basis.atoms("scaling"),
        "wavelet.AtomFamily.layout": lambda: basis.atoms("wavelet").layout(root.J + 2),
        "tlnorm._recipe": lambda: tlnorm._recipe(N, True, 1),
        "tlnorm._sampled_row": lambda: tlnorm._sampled_row(N, 0, 8),
        "tlnorm._bump_row": lambda: tlnorm._bump_row(N, 0, 8),
        "tlnorm.TestDictionary._bump_template": lambda: dictionary._bump_template(1, root.J + 3),
        "tlnorm.TestDictionary._scale_operator": lambda: dictionary._scale_operator(root.J + 4),
        "tlnorm.TestDictionary.member_family": lambda: dictionary.member_family(2),
        "tlnorm.TestDictionary.bump_family": lambda: dictionary.bump_family(1, unit=True),
        "czform._kernel_matrix": lambda: _kernel_matrix(kernel, root, 4 * root.cell_width),
        "suites.workspace": lambda: workspace(1, 0, -6, 3, 4, 8),
        "suites.Workspace.probe_dictionary": lambda: ws.probe_dictionary(),
        "suites.Workspace.default_kernels": lambda: ws.default_kernels(1, ()),
    }


def _arrays(value):
    """Every array in a cached value, as ``cache`` walks it."""
    if isinstance(value, np.ndarray):
        return [value]
    if sparse.issparse(value):
        return [value.data, value.indices, value.indptr]
    if isinstance(value, (tuple, list)):
        return [arr for item in value for arr in _arrays(item)]
    if dataclasses.is_dataclass(value):
        return _arrays([getattr(value, f.name) for f in dataclasses.fields(value)])
    return []


def test_every_table_is_listed_and_hands_out_read_only_arrays():
    cache.clear()
    ws = workspace(1, 0, -6, 3, 4, 8)
    tables = _tables(ws)
    assert sorted(tables) == sorted(cache.counts())
    checked = 0
    for name, call in tables.items():
        before = cache.counts()
        value = call()
        after = cache.counts()
        assert after[name] != before[name], name  # the call reached its table
        for arr in _arrays(value):
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = arr[(0,) * arr.ndim]
            checked += 1
    assert checked > 20


def test_second_run_only_hits(tmp_path):
    cfg_path = tmp_path / "small.cfg"
    cfg_path.write_text(SMALL, encoding="utf-8")
    cfg = ExperimentConfig.from_file(cfg_path)
    cache.clear()
    with contextlib.redirect_stdout(io.StringIO()):
        run_suite([], cfg, str(tmp_path / "a"))
        first = cache.counts()
        run_suite([], cfg, str(tmp_path / "b"))
    second = cache.counts()
    for name, (hits, misses) in second.items():
        assert misses == first[name][1], name
    for name in ("suites.workspace", "suites.Workspace.default_kernels",
                 "czform._kernel_matrix"):
        assert second[name][0] > first[name][0] and first[name][1] > 0, name
