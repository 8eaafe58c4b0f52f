"""Command-line surface: commands, exit codes, output determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import requires_heavy

from skewbrace import analysis
from skewbrace.catalog import cyclic, dihedral, group_by_name
from skewbrace.cli import main
from skewbrace.groups import opposite_group
from skewbrace.serialize import write_group


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnumerate:
    def test_c2(self, capsys):
        code, out, err = run(capsys, "enumerate", "C2")
        assert code == 0
        assert out.strip().endswith("total=1 cyclic_type=1 surjective=1")

    def test_q8_summary(self, capsys, tmp_path):
        out_path = tmp_path / "q8.json"
        code, out, err = run(capsys, "enumerate", "Q8",
                             "--out", str(out_path))
        assert code == 0
        assert "total=22 cyclic_type=6 surjective=16" in out
        records = json.loads(out_path.read_text())
        assert len(records) == 22

    def test_table_format(self, capsys):
        code, out, _ = run(capsys, "enumerate", "C6", "--format", "table")
        assert code == 0
        assert "type" in out and "C6" in out and "D3" in out

    def test_group_file_input(self, capsys, tmp_path):
        path = tmp_path / "c4.json"
        write_group(group_by_name("C4"), path)
        code, out, _ = run(capsys, "enumerate", str(path))
        assert code == 0 and "total=2" in out

    def test_unsupported_order_exit_2(self, capsys):
        for flags in ((), ("--enable-heavy-orders",)):
            code, out, err = run(capsys, "enumerate", "C16", *flags)
            assert code == 2 and err and not out, flags

    def test_unservable_order_exit_2(self, capsys, tmp_path):
        for G in (cyclic(30), dihedral(9)):
            path = tmp_path / f"{G.name}.json"
            write_group(G, path)
            for flags in ((), ("--enable-heavy-orders",)):
                code, out, err = run(capsys, "enumerate", str(path), *flags)
                assert code == 2 and err and not out, (G.name, flags)

    def test_unserved_order_refusal_names_no_flag(self, capsys, tmp_path):
        # order 16 is partly catalogued and order 18 not at all: the
        # catalog alone refuses them, so no message offers a flag
        path = tmp_path / "D9.json"
        write_group(dihedral(9), path)
        for spec in ("C4xC4", str(path)):
            for flags in ((), ("--enable-heavy-orders",)):
                code, out, err = run(capsys, "enumerate", spec, *flags)
                assert code == 2 and err and not out, (spec, flags)
                assert "--enable-heavy-orders" not in err, (spec, flags)

    @pytest.mark.parametrize("name, summary", [
        ("C27", "total=9 cyclic_type=9 surjective=9\n"),
        ("D4", "total=30 cyclic_type=2 surjective=1\n"),
    ], ids=("C27", "D4"))
    def test_inert_heavy_flag_changes_no_byte(self, capsys, name, summary):
        # the flag is accepted and ignored: same bytes, same exit code
        plain = run(capsys, "enumerate", name)
        assert plain[0] == 0 and plain[1].endswith(summary)
        assert run(capsys, "enumerate", name, "--enable-heavy-orders") == plain

    def test_heavy_gate_on_nonabelian_27(self, capsys, monkeypatch):
        # with no flag, a non-cyclic group of order 27 goes straight to
        # the census (stubbed here, so none runs)
        served = []

        def census(G):
            served.append(G.name)
            return ()
        monkeypatch.setattr(analysis, "enumerate_reports", census)
        code, out, err = run(capsys, "enumerate", "Heisenberg-27")
        assert (code, out, err) == (
            0, "[]\ntotal=0 cyclic_type=0 surjective=0\n", "")
        assert served == ["Heisenberg-27"]

    @requires_heavy
    def test_m27_served_without_flag(self, capsys):
        # the bytes `enumerate M27 --enable-heavy-orders` printed when the
        # flag lifted a cost gate
        code, out, err = run(capsys, "enumerate", "M27")
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "e464eaba309f9c0e49c8c89c4275ffd94e24508b716280eea7a2206ba7630ba9")
        assert run(capsys, "enumerate", "M27",
                   "--enable-heavy-orders") == (code, out, err)

    def test_unknown_group_exit_2(self, capsys):
        code, _, err = run(capsys, "enumerate", "NoSuchGroup")
        assert code == 2 and err

    def test_parse_error_exit_1(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "enumerate", str(path))
        assert code == 1 and err

    def test_byte_identical_runs(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "enumerate", "D4", "--out", str(p1))
        run(capsys, "enumerate", "D4", "--out", str(p2))
        assert p1.read_bytes() == p2.read_bytes()


class TestAnalyze:
    def test_classical_structure(self, capsys, tmp_path):
        path = tmp_path / "q8.json"
        write_group(group_by_name("Q8"), path)
        code, out, _ = run(capsys, "analyze", "Q8", str(path))
        assert code == 0
        record = json.loads(out)
        assert record["is_surjective"] is True
        assert record["gc_ratio"] == {"num": 1, "den": 1}

    def test_opposite_on_hamiltonian(self, capsys, tmp_path):
        path = tmp_path / "q8op.json"
        write_group(opposite_group(group_by_name("Q8")), path)
        code, out, _ = run(capsys, "analyze", "Q8", str(path))
        assert code == 0
        record = json.loads(out)
        assert len(record["image"]) == 6
        assert record["is_surjective"] is True

    def test_brace_law_violation_exit_3(self, capsys, tmp_path):
        # cyclic table with the involution relabeled to 1 is not
        # compatible with the standard cyclic table
        from skewbrace.groups import make_group
        bad = make_group([[0, 1, 2, 3], [1, 0, 3, 2],
                          [2, 3, 1, 0], [3, 2, 0, 1]])
        path = tmp_path / "bad.json"
        write_group(bad, path)
        code, out, err = run(capsys, "analyze", "C4", str(path))
        assert code == 3
        assert "law fails" in err

    def test_io_error_exit_1(self, capsys, tmp_path):
        code, _, err = run(capsys, "analyze", "C6",
                           str(tmp_path / "missing.json"))
        assert code == 2 or code == 1  # unknown spec resolves first


class TestVerify:
    def test_byott_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "byott")
        assert code == 0
        assert out.startswith("PASS byott")

    def test_bijection_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "bijection")
        assert code == 0
        assert "PASS bijection" in out

    def test_paper_numbers_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "paper-numbers")
        assert code == 0

    def test_childs_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "childs")
        assert code == 0

    def test_axioms_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "axioms")
        assert code == 0


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "skewbrace.cli", "enumerate", "C3"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "total=1" in proc.stdout

    def test_cold_c27_keeps_only_what_it_reads(self):
        """A cold `enumerate C27` holds Aut(N) for circ alone (every type
        is streamed into the cyclic scan), builds the order-27 catalog
        groups alone, and never loads OpenSSL for a fallback type name nor
        dataclasses, with the inspect it pulls in, for its records."""
        code = (
            "import contextlib, io, sys\n"
            "from skewbrace import catalog, cli, groups\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(['enumerate', 'C27'])\n"
            "auts, built = groups.automorphisms, catalog._entries\n"
            "held, orders = auts.cache_info(), built.cache_info()\n"
            "auts(catalog.group_by_name('C27'))\n"
            "print(code, '_hashlib' in sys.modules,\n"
            "      held.currsize, auts.cache_info().misses - held.misses,\n"
            "      orders.currsize, built.cache_info().misses - orders.misses,\n"
            "      'dataclasses' in sys.modules, 'inspect' in sys.modules)\n")
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "False", "1", "0", "1", "0",
                                       "False", "False"]
