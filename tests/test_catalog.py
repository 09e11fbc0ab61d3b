"""Toroidal map presentations against the counting oracle: {3,6}_(s,t) has
v = s^2 + s*t + t^2 vertices, 3v edges, 2v faces, rotation order 6v and
full order 12v."""

import subprocess
import sys
from pathlib import Path

import pytest

from medial import catalog
from medial.catalog import (
    ChiralFormUnsupported,
    SchlafliType,
    ToroidalParams,
    coxeter_string,
    coxeter_string_rank3,
    simplex_toroidal_1296,
    toroidal_map,
    universal_locally_toroidal,
)
from medial.fpgroup import coset_enumeration, gen_word
from medial.permgroup import OverflowResult

CASES = [(1, 1), (2, 0), (3, 0), (2, 2)]


@pytest.mark.parametrize("s,t", CASES)
def test_toroidal_counts(s, t):
    params = ToroidalParams(s, t)
    v = params.v
    pres = toroidal_map(params)
    full = coset_enumeration(pres)
    assert full.num_cosets == 12 * v
    # Vertices, edges, faces: cosets of <r1,r2>, <r0,r2>, <r0,r1>.
    for sub, count in (((1, 2), v), ((0, 2), 3 * v), ((0, 1), 2 * v)):
        table = coset_enumeration(pres, [gen_word(i) for i in sub])
        assert table.num_cosets == count
    # Rotation subgroup <r0 r1, r1 r2> has index 2.
    rot = coset_enumeration(pres, [gen_word(0, 1), gen_word(1, 2)])
    assert rot.num_cosets == 2
    assert 12 * v // rot.num_cosets == 6 * v


@pytest.mark.parametrize("s,t", CASES)
def test_dual_family_same_order(s, t):
    pres = toroidal_map(ToroidalParams(s, t, family="6,3"))
    full = coset_enumeration(pres)
    assert full.num_cosets == 12 * (s * s + s * t + t * t)


def test_chiral_form_rejected():
    with pytest.raises(ChiralFormUnsupported):
        toroidal_map(ToroidalParams(2, 1))


def test_degenerate_params_rejected():
    with pytest.raises(ValueError):
        ToroidalParams(1, 0)
    with pytest.raises(ValueError):
        ToroidalParams(0, 0)


def test_normalization():
    assert ToroidalParams(0, 3).normalized() == ToroidalParams(3, 0)


def test_coxeter_333_simplex():
    table = coset_enumeration(coxeter_string(3, 3, 3))
    assert table.num_cosets == 120


def test_coxeter_rank3_hexagonal_quotient_is_infinite_guard():
    # [3,6] is infinite; a bounded enumeration must overflow.
    with pytest.raises(OverflowResult, match="coset limit 300 exceeded"):
        coset_enumeration(coxeter_string_rank3(3, 6), max_cosets=300)


def test_universal_smallest_instance():
    pres = universal_locally_toroidal(ToroidalParams(1, 1), ToroidalParams(1, 1))
    assert coset_enumeration(pres).num_cosets == 108


def test_simplex_toroidal_order_1296():
    table = coset_enumeration(simplex_toroidal_1296())
    assert table.num_cosets == 1296


def test_schlafli_validation():
    with pytest.raises(ValueError):
        SchlafliType(1, 3)
    assert str(SchlafliType(3, 6, 3)) == "{3,6,3}"


@pytest.mark.slow
def test_toroidal_word_search_accepts_the_frozen_words():
    # The search script, about 3 s.  It rejects a candidate word once its
    # enumeration overflows the coset limit.  The first (s,s) candidate is
    # the frozen word X_B.
    root = Path(__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "tools/find_toroidal_words.py"],
                         cwd=root, capture_output=True, text=True,
                         check=True).stdout
    assert "length 6 -> (0, 2, 0, 4, 2, 4)" in out
    candidates = [line.split() for line in out.splitlines()
                  if line.startswith("   t * s2")]
    assert len(candidates) == 2
    assert all(words[-1] == "accepted" for words in candidates)
    assert f"{catalog._TRANSLATION_SS} accepted" in out
