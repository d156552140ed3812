"""`tools/order_sweep.py`: the frozen outcomes of orders 6-12 and of the
compositions of orders 8-16, the orbits of the compositions and the
symmetries that keep them, and its flags."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from blaschkelab import BlaschkeProduct, analyze, build_cut_disc
from helpers import composition_draw, order_sweep_script as _load_script

_ROOT = Path(__file__).resolve().parents[1]


def test_order_sweep_outcomes_match_the_fixture():
    # Outcome (ok or the error class), group order and q of every draw at
    # orders 6-12.  A change to an entry is a change of behaviour: re-freeze
    # the fixture and record it.
    frozen = json.loads((_ROOT / "tests" / "fixtures" / "order_sweep.json").read_text())
    sweep = _load_script().sweep((6, 8, 10, 12))
    fields = ("order", "draw", "outcome", "group_order", "q")
    assert [{k: r[k] for k in fields} for r in sweep] == frozen
    assert len(frozen) == 60


_FROZEN_PAIRS = ((2, 4), (3, 4), (4, 4))


def test_composition_outcomes_match_the_fixture():
    # Outcome, group order, q and whether |G| = (d!)^c c! of three draws of
    # C2oD4, C3oD4 and C4oD4.
    frozen = json.loads((_ROOT / "tests" / "fixtures" / "composition_sweep.json").read_text())
    records = _load_script().composition_sweep(_FROZEN_PAIRS)
    fields = ("draw", "outcome", "group_order", "q", "wreath")
    assert [{"pair": list(r["pair"]), **{k: r[k] for k in fields}} for r in records] == frozen
    assert len(frozen) == 9


@pytest.mark.parametrize("pair", _FROZEN_PAIRS, ids=lambda p: f"C{p[0]}oD{p[1]}")
def test_composition_critical_points_match_the_exact_ones(pair):
    # The distance column of `--family composition`: the critical points of
    # C o D lie within 1e-10 of D's and of the fibers of D over C's, and
    # every one of those has a computed point as near.
    script = _load_script()
    for c_prod, d_prod in script.composition_factors(*pair, 3):
        b = script.compose(c_prod, d_prod)
        assert sum(p.multiplicity for p in b._critical_points()) == b.order - 1
        assert script.critical_error(b, c_prod, d_prod) <= 1e-10


@pytest.mark.parametrize("pair", _FROZEN_PAIRS, ids=lambda p: f"C{p[0]}oD{p[1]}")
def test_composition_orbits_are_the_components_of_b_z_equals_b_w(pair):
    # Over the base fiber z_1..z_n of B = C o D, the curve B(z) = B(w) has
    # the diagonal, the component D(z) = D(w) off it, and the rest.  Off the
    # diagonal, (i, j) lies in the "same block" orbit exactly when
    # D(z_i) = D(z_j); the minimal projections have ranks 1, c - 1 and
    # c (d - 1).
    c, d = pair
    for b, d_prod in _load_script().composition_products(c, d, 3):
        result = analyze(b)
        assert result.ok
        labels = result.commutant.orbitals
        images = d_prod(np.asarray(build_cut_disc(b).fiber0.points))
        same = np.abs(images[:, None] - images[None, :]) < 1e-6
        off = ~np.eye(b.order, dtype=bool)
        block = np.unique(labels[same & off])
        assert block.size == 1
        assert np.array_equal(labels[off] == block[0], same[off])
        assert np.unique(labels[off]).size == 2
        ranks = sorted(int(round(np.trace(p).real)) for p in result.projections)
        assert ranks == sorted((1, c - 1, c * (d - 1)))


_PHI = 0.7
_C = 0.2 - 0.1j
# Transforms that keep the monodromy group and the orbits on ordered pairs:
# B -> e^{i phi} B, B(z) -> B(e^{i phi} z) (zeros e^{-i phi} a), and
# B -> B o m with the disc automorphism m(z) = (z - c) / (1 - conj(c) z)
# (zeros (a + c) / (1 + conj(c) a)).  Each moves the exactly coincident
# branch values of a composition by rounding alone.
_TRANSFORMS = {
    "theta": lambda b: BlaschkeProduct(b.theta + _PHI, b.zeros),
    "rotation": lambda b: BlaschkeProduct(
        b.theta, [a * complex(np.exp(-1j * _PHI)) for a in b.zeros]
    ),
    "automorphism": lambda b: BlaschkeProduct(
        b.theta, [(a + _C) / (1.0 + _C.conjugate() * a) for a in b.zeros]
    ),
}


@pytest.mark.parametrize("transform", sorted(_TRANSFORMS))
@pytest.mark.parametrize("pair", _FROZEN_PAIRS, ids=lambda p: f"C{p[0]}oD{p[1]}")
def test_composition_group_and_orbits_survive_symmetries(pair, transform):
    # Draw 0 of each frozen pair: |G| is the wreath order (d!)^c c! and q = 3
    # before and after the transform, with the coincident branch values of
    # C's critical points merged again.
    c, d = pair
    b = composition_draw(c, d, 0)
    moved = _TRANSFORMS[transform](b)
    wreath = math.factorial(d) ** c * math.factorial(c)
    for product in (b, moved):
        result = analyze(product)
        assert result.ok
        assert (result.group_order, result.q_orbitals) == (wreath, 3)
    assert sorted(moved.branch_data().local_degrees) == sorted(b.branch_data().local_degrees)


def test_fine_dedup_keeps_the_equal_branch_values_of_c4od6_draw2_equal():
    # The 18 critical points over C's three critical values share their
    # branch value six by six.  Evaluated by P/Q those values were off by
    # up to 1.1e-12, which put pairs of them inside the band [1e-12, 1e-11)
    # of an absolute dedup tolerance of 1e-12; on the factored form, within
    # their rounding radii, they merge, and D's five critical points keep
    # five values of their own.
    b = _load_script().composition_products(4, 6, 3)[2][0]
    data = b.branch_data()
    assert sorted(data.local_degrees) == [(2,)] * 5 + [(2,) * 6] * 3


@pytest.mark.parametrize("pair", ["0x4", "4", "2x", "2x-4"])
def test_pairs_need_two_positive_orders(capsys, pair):
    with pytest.raises(SystemExit) as exc:
        _load_script().main(["--family", "composition", "--pairs", pair])
    assert exc.value.code == 2
    assert "is not CxD with positive orders" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_dedup_tol_needs_a_finite_positive_value(capsys, value):
    # Refused by argparse before any draw is analyzed: `--dedup-tol` is gone,
    # so the values it refused as not finite positive exit 2 as unrecognized.
    with pytest.raises(SystemExit) as exc:
        _load_script().main(["--orders", "6", "--draws", "1", "--dedup-tol", value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: --dedup-tol {value}" in capsys.readouterr().err


def test_dedup_tol_flag_is_gone(capsys):
    # Refused by argparse before any draw is analyzed: `analyze` takes no
    # tolerance to pass on.
    with pytest.raises(SystemExit) as exc:
        _load_script().main(["--orders", "6", "--draws", "1", "--dedup-tol", "1e-12"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --dedup-tol 1e-12" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-1"])
def test_draws_need_a_positive_count(capsys, value):
    # Refused by argparse in both families, before any draw is analyzed.
    for family in (["--orders", "6"], ["--family", "composition", "--pairs", "2x4"]):
        with pytest.raises(SystemExit) as exc:
            _load_script().main([*family, "--draws", value])
        assert exc.value.code == 2
        assert "is not a positive integer" in capsys.readouterr().err
