"""Command-line surface: commands, exit codes, output determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import NOT_UTF8, requires_heavy

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

    def test_c27_stdout_pinned(self, capsys):
        # the report text and summary line of a cold `enumerate C27`
        code, out, err = run(capsys, "enumerate", "C27")
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "612203b2e318a8b615ae69332d6c689d1fbe61010658e3d8e88c30fdd90a5189")

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

    def test_not_utf8_file_exit_1(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(NOT_UTF8)
        code, out, err = run(capsys, "enumerate", str(path))
        assert code == 1 and out == ""
        assert err == f"error: {path} is not UTF-8 text\n"

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

    @pytest.mark.parametrize("flags, digest", [
        ((),
         "0b85feb371b99cb494dbcdd6cd4b88b186148ad17bd565a93c76bbf1df606626"),
        (("--format", "table"),
         "13e1cd2f1124499b7e23a2baa58bdfaa2f7e7106cb70baf93cbddd9b0cbedaef"),
    ], ids=("json", "table"))
    def test_out_file_holds_the_stdout_bytes(self, capsys, tmp_path,
                                            flags, digest):
        code, out, err = run(capsys, "analyze", "C6", "C6", *flags)
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        path = tmp_path / "report"
        assert run(capsys, "analyze", "C6", "C6", *flags,
                   "--out", str(path)) == (0, "", "")
        assert path.read_bytes() == out.encode()

    def test_io_error_exit_1(self, capsys, tmp_path):
        # a path that does not exist resolves as an unknown name: exit 2
        code, _, err = run(capsys, "analyze", "C6",
                           str(tmp_path / "missing.json"))
        assert code == 2 and "is neither a catalog name nor a file" in err
        # a file that cannot be read as a group: exit 1, one error line
        for content, message in (
                (b'{"order": 6, "table": [[0]]}', '"table" must have 6 rows'),
                (NOT_UTF8, "is not UTF-8")):
            path = tmp_path / "op.json"
            path.write_bytes(content)
            code, out, err = run(capsys, "analyze", "C6", str(path))
            assert code == 1 and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
            assert message in err and "Traceback" not in err


class TestVerify:
    def test_byott_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "byott")
        assert code == 0
        assert out.startswith("PASS byott")

    def test_bijection_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "bijection")
        assert code == 0
        assert out == "PASS bijection: oracle equivalence on 8 groups\n"

    def test_heavy_orders_option_refused(self, capsys):
        # the bijection suite checks orders 1-6 and takes no option; the
        # order-8 oracle is test_criterion_4_oracle_equivalence_order8
        with pytest.raises(SystemExit) as exc:
            main(["verify", "bijection", "--enable-heavy-orders"])
        assert exc.value.code == 2
        assert "--enable-heavy-orders" in capsys.readouterr().err

    def test_paper_numbers_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "paper-numbers")
        assert code == 0

    def test_childs_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "childs")
        assert code == 0

    def test_axioms_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "axioms")
        assert code == 0

    def test_all_stdout_pinned(self, capsys):
        # the five PASS lines of `verify all`, the verify-all workload of
        # bench/, byte for byte
        code, out, err = run(capsys, "verify", "all")
        assert code == 0 and err == ""
        assert out.count("PASS ") == 5
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "67689f00ce649b23e4e3a4de6fff3bee6878bfaa3d9c211e882ab79c0df32915")


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "skewbrace.cli", "enumerate", "C3"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "total=1" in proc.stdout

    def test_cold_c27_keeps_only_what_it_reads(self):
        """A cold `enumerate C27` lists Aut(N) for no table: every type is
        streamed into the cyclic scan, and the census reads each class's
        stabilizer off its class record, so no live table's facts hold
        the automorphism list.  It builds the order-27 catalog groups
        alone, and never loads OpenSSL for a fallback type name nor
        dataclasses, with the inspect it pulls in, for its records."""
        code = (
            "import contextlib, gc, io, sys\n"
            "from skewbrace import catalog, cli, groups\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(['enumerate', 'C27'])\n"
            "gc.collect()\n"
            "held = [facts for facts in list(groups._LIVE.values())\n"
            "        if '_automorphisms' in facts]\n"
            "built = catalog._entries\n"
            "orders = built.cache_info()\n"
            "print(code, '_hashlib' in sys.modules, len(held),\n"
            "      orders.currsize, built.cache_info().misses - orders.misses,\n"
            "      'dataclasses' in sys.modules, 'inspect' in sys.modules)\n")
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "False", "0", "1", "0",
                                       "False", "False"]
