from __future__ import annotations

import json
from fractions import Fraction

import numpy as np
import pytest

from blaschkelab import (
    BlaschkeProduct,
    Permutation,
    cycle_projections,
    truncated_matrix,
    u_i_norm_check,
    zn_end_to_end,
    zn_projection,
)
from blaschkelab import znmodel
from blaschkelab.cli import main


def test_zn_projection_diagonal():
    p = zn_projection(2, 0, 4)
    assert np.array_equal(np.diag(p), np.array([1.0, 0.0, 1.0, 0.0]))
    assert np.array_equal(p, np.diag(np.diag(p)))


def test_zn_projections_resolve_identity():
    for n in (2, 3, 5):
        size = 4 * n
        total = sum(zn_projection(n, i, size) for i in range(n))
        assert np.array_equal(total, np.eye(size))


def test_zn_projection_commutes_exactly():
    for n, size_mult in ((2, 4), (3, 7)):
        b = BlaschkeProduct(0.0, [0.0] * n)
        size = n * size_mult
        m = truncated_matrix(b, size)
        for i in range(n):
            p = zn_projection(n, i, size)
            assert np.all(p @ m == m @ p)
            assert np.all(p @ m.conj().T == m.conj().T @ p)


def test_residue_index_out_of_range_is_refused():
    with pytest.raises(ValueError, match=r"residue index must satisfy 0 <= i < n"):
        zn_projection(3, 3, 5)
    with pytest.raises(ValueError, match=r"residue index must satisfy 0 <= i < n"):
        u_i_norm_check(3, -1, 0)


def test_u_i_norm_examples():
    lhs, rhs = u_i_norm_check(2, 0, 0)
    assert lhs == rhs == Fraction(2)
    lhs, rhs = u_i_norm_check(3, 2, 1)
    assert lhs == rhs == Fraction(1, 2)


def test_u_i_norm_grid_exact():
    for n in range(1, 7):
        for i in range(n):
            for k in range(11):
                lhs, rhs = u_i_norm_check(n, i, k)
                assert isinstance(lhs, Fraction)
                assert isinstance(rhs, Fraction)
                assert lhs == rhs == Fraction(n, n * k + i + 1)


def test_cycle_projections_rank_one():
    perm = Permutation((1, 2, 3, 0))
    projections = cycle_projections(perm)
    assert len(projections) == 4
    total = np.zeros((4, 4), dtype=complex)
    for p in projections:
        assert np.linalg.matrix_rank(p, tol=1e-10) == 1
        assert np.max(np.abs(p @ p - p)) < 1e-12
        assert np.max(np.abs(p - p.conj().T)) < 1e-12
        total += p
    assert np.max(np.abs(total - np.eye(4))) < 1e-12


def test_zn_end_to_end_reports_ok():
    for n in (1, 2, 5):
        report = zn_end_to_end(n)
        assert report["n"] == n
        assert report["ok"], report


def test_zn_fails_when_the_projections_stop_commuting(monkeypatch, capsys):
    # A strictly upper triangular term breaks both exact checks on the
    # truncated matrix; each is counted in `ok`, so `zn` exits 1.
    real = znmodel.truncated_matrix

    def skewed(b, size):
        return real(b, size) + np.triu(np.ones((size, size)), 1)

    monkeypatch.setattr(znmodel, "truncated_matrix", skewed)
    report = zn_end_to_end(3)
    assert report["zn_projection_commutes_exactly"] is False
    assert report["ok"] is False
    assert main(["zn", "--n", "3"]) == 1
    assert json.loads(capsys.readouterr().out)["ok"] is False


def test_zn_end_to_end_runs_the_pipeline_at_order_one(monkeypatch):
    # z has no branch value and no generator; its report still comes from
    # `analyze`, so a failing pipeline fails it.
    seen = []
    real = znmodel.analyze

    def spy(b, *args):
        seen.append((b.order, args))
        return real(b, *args)

    monkeypatch.setattr(znmodel, "analyze", spy)
    assert zn_end_to_end(1)["ok"]
    assert seen == [(1, ())]
