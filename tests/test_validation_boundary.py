"""The validation boundary: tables are checked where they enter, derived
tables are trusted, and self-checks raise InternalInconsistency even under
python -O."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from skewbrace.analysis import enumerate_operations
from skewbrace.braces import (
    SkewBrace,
    gamma,
    ideals,
    is_bi_skew,
    make_brace,
    quotient_brace,
    sub_brace,
    swap,
)
from skewbrace.catalog import group_by_name, groups_of_order
from skewbrace.errors import InternalInconsistency
from skewbrace.groups import (
    distinguished_subgroups,
    make_group,
    quotient,
    subgroup_group,
    subgroups,
)
from skewbrace.perms import regular_subgroups_in_holomorph, transport_operation

SRC = Path(__file__).resolve().parents[1] / "src"


def test_no_assert_statements_in_package():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((SRC / "skewbrace").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_gamma_self_check_raises():
    # A4 and C12 share no brace law, so gamma's endomorphism check fails
    with pytest.raises(InternalInconsistency):
        gamma(SkewBrace(group_by_name("A4"), group_by_name("C12")))


def test_gamma_self_check_survives_optimize():
    code = ("from skewbrace.braces import SkewBrace, gamma\n"
            "from skewbrace.catalog import group_by_name\n"
            "from skewbrace.errors import InternalInconsistency\n"
            "try:\n"
            "    gamma(SkewBrace(group_by_name('A4'), group_by_name('C12')))\n"
            "except InternalInconsistency:\n"
            "    print('raised')\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "raised"


def _revalidate(G):
    """Rebuild G through the public validating constructor."""
    H = make_group(G.table)
    assert H.table == G.table and H.inverse == G.inverse


def test_derived_tables_revalidate():
    """Every site that builds a table without checking it gives one that
    make_group and make_brace accept."""
    for order in range(1, 13):
        for G in groups_of_order(order):
            for N in distinguished_subgroups(G).normal:
                _revalidate(quotient(G, N)[0])
            for S in subgroups(G):
                _revalidate(subgroup_group(G, S)[0])
            if order <= 8:
                for R in regular_subgroups_in_holomorph(G):
                    _revalidate(transport_operation(R))
            for B in enumerate_operations(G):
                _revalidate(B.dot)
                derived = [B]
                for I in ideals(B):
                    derived += [quotient_brace(B, I), sub_brace(B, I)]
                if is_bi_skew(B):
                    derived.append(swap(B))
                for D in derived:
                    make_brace(D.dot.table, D.circ.table)
