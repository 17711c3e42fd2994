import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bitrades.cli import main
from bitrades.serialize import read_bitrade, write_bitrade

from conftest import NONSEP_CIRC, NONSEP_STAR, TWO_BY_THREE_CIRC, TWO_BY_THREE_STAR
from bitrades.core import make_bitrade

ROOT = Path(__file__).resolve().parent.parent

# a prime of 19 digits, and a cube root of unity modulo it
HUGE_PRIME = 1000000000000000003
HUGE_PRIME_CUBE_ROOT = 499999999500000001

TABLE_GOLDEN = """\
k   p3    pq                    alt         published  smallest known
3   27    21 (p=7,q=3,r=2)      12          21         12
5   125   55 (p=11,q=5,r=3)     2520        75         55
7   343   203 (p=29,q=7,r=7)    1814400     133        133
9   N/A   N/A                   3113510400  243        243
11  1331  737 (p=67,q=11,r=14)  16!/2       407        407
"""


class TestConstruct:
    def test_family_to_file(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        assert main(["construct", "--family", "alt:m=1", "-o", str(out)]) == 0
        captured = capsys.readouterr()
        assert "size=12" in captured.err
        assert "k=3" in captured.err
        bt = read_bitrade(out)
        assert bt.size == 12

    def test_group_triple_construct(self, tmp_path, capsys):
        out = tmp_path / "s3.json"
        code = main(["construct", "--group", "sym:3", "--a", "(1,2,3)",
                     "--b", "(1,2)", "--c", "(2,3)", "-o", str(out)])
        assert code == 0
        assert read_bitrade(out).size == 6

    @pytest.mark.parametrize("argv, summary", [
        (["--group", "sym:4", "--a", "(3,4)", "--b", "(2,3)", "--c", "(2,4,3)"],
         "size=24 rows=12 cols=12 syms=8 k=-"),
        (["--family", "zp2:p=3"], "size=9 rows=3 cols=3 syms=3 k=3"),
        (["--family", "pq:p=7,q=3,r=2"], "size=21 rows=7 cols=7 syms=7 k=3"),
    ])
    def test_summary_line(self, tmp_path, capsys, argv, summary):
        # k is the common order of a, b and c, or - when they differ
        assert main(["construct", *argv, "-o", str(tmp_path / "t.json")]) == 0
        assert capsys.readouterr().err == summary + "\n"

    def test_g1_violation_exits_2(self, capsys):
        code = main(["construct", "--group", "sym:3", "--a", "(1,2,3)",
                     "--b", "(1,2)", "--c", "(1,3)"])
        assert code == 2
        assert "G1" in capsys.readouterr().err

    @pytest.mark.parametrize("spec, shown", [
        ("alt:4", "alt:4"), ("gens:4:(1,2,3);(2,1,4)", "gens:4:(1,2,3);(1,4,2)")])
    @pytest.mark.parametrize("elements, message", [
        (("(1,2)", "(1,3)", "(1,2,3)"), "permutation (1,2) is not in {}"),
        (("()", "(1,2,3)", "(1,3,2)"), "nontrivial: element a must not be the identity"),
        (("(1,2,3)", "(1,2,3)", "(1,2,4)"),
         "G1: abc != identity (a=(1,2,3), b=(1,2,3), c=(1,2,4))"),
    ], ids=["non-member", "identity", "G1"])
    def test_a4_refusals_alike_for_tuples_and_codes(self, capsys, spec, shown,
                                                    elements, message):
        # alt:4 keeps image tuples, the gens: closure bytes codes
        argv = ["construct", "--group", spec]
        for name, element in zip("abc", elements):
            argv += [f"--{name}", element]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message.format(shown)}\n"

    def test_bad_family_parameter_exits_2(self, capsys):
        assert main(["construct", "--family", "p3:p=2"]) == 2
        assert "odd prime" in capsys.readouterr().err

    def test_resource_cap_exits_3(self, capsys):
        assert main(["construct", "--family", "alt:m=4"]) == 3
        assert "3113510400" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--family", f"zp2:p={HUGE_PRIME}", "--enum-cap", "10"],
        ["--family", f"pq:p={HUGE_PRIME},q=3,r=2", "--enum-cap", "10"],
        ["--family", f"pq:p={HUGE_PRIME},q=3,r={HUGE_PRIME_CUBE_ROOT}", "--enum-cap", "10"],
        ["--group", f"pq:{HUGE_PRIME},3,2", "--a", "(0,1)", "--b", "(1,0)", "--c", "(2,2)"],
        ["--family", f"zp2:p={10 ** 25}"],
    ], ids=["zp2", "pq-bad-r", "pq", "group-pq", "beyond-the-prime-test"])
    def test_huge_prime_parameter_exits_at_once(self, argv):
        # a separate process, so that a primality test that hangs fails
        # the test instead of the run
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                          env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "bitrades.cli", "construct", *argv],
                              capture_output=True, encoding="utf-8", timeout=20, env=env)
        assert proc.returncode in (2, 3), proc.stderr

    @pytest.mark.parametrize("m", [20000, 10 ** 8])
    def test_huge_alt_family_exits_3_at_once(self, capsys, m):
        # the size is compared against the cap without building (3m+1)!
        start = time.perf_counter()
        assert main(["construct", "--family", f"alt:m={m}"]) == 3
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            f"resource cap exceeded: alternating family instance m={m} has size "
            f"{3 * m + 1}!/2, above the enumeration cap (cap: 5000000)\n")

    @pytest.mark.parametrize("family, message", [
        ("pq:p=7,q=3,r=2,x=1", "family 'pq' has no parameter 'x' (it takes p, q, r)"),
        ("alt:m=1,m=2", "family parameter 'm' repeated in 'alt:m=1,m=2'"),
    ])
    def test_unknown_or_repeated_family_parameter_exits_2(self, capsys, family, message):
        assert main(["construct", "--family", family]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_degree_above_255_matches_degree_4(self, capsys):
        # gens:256 stores image tuples and multiplies by mul, gens:4 stores
        # bytes codes and translates them
        c = "(2,4,3)"  # (ab)^-1 for a = (1,2,3), b = (2,1,4)
        docs = []
        for n in (4, 256):
            argv = ["construct", "--group", f"gens:{n}:(1,2,3);(2,1,4)",
                    "--a", "(1,2,3)", "--b", "(2,1,4)", "--c", c]
            assert main(argv) == 0
            docs.append(json.loads(capsys.readouterr().out))
        assert [doc["provenance"].pop("group") for doc in docs] == [
            "gens:4:(1,2,3);(1,4,2)", "gens:256:(1,2,3);(1,4,2)"]
        assert docs[0] == docs[1]
        assert len(docs[0]["t_circ"]) == 12

    def test_byte_identical_runs(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        main(["construct", "--family", "pq:p=7,q=3,r=2", "-o", str(out1)])
        main(["construct", "--family", "pq:p=7,q=3,r=2", "-o", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_text_format(self, tmp_path):
        out = tmp_path / "grid.txt"
        main(["construct", "--family", "zp2:p=2", "--format", "text", "-o", str(out)])
        text = out.read_text()
        assert "∘" in text and "⋆" in text

    def test_output_to_a_directory_exits_2(self, tmp_path, capsys):
        assert main(["construct", "--family", "alt:m=1", "-o", str(tmp_path)]) == 2
        assert str(tmp_path) in capsys.readouterr().err

    def test_env_cap_respected(self, monkeypatch, capsys):
        monkeypatch.setenv("BITRADE_MAX_ELEMENTS", "10")
        assert main(["construct", "--family", "alt:m=1"]) == 3
        monkeypatch.delenv("BITRADE_MAX_ELEMENTS")

    # SHA-256 of construct's stdout, recorded while json.dumps still wrote
    # the document
    GOLDEN_DIGESTS = [
        (["--family", "zp2:p=3"],
         "debf1475cc5643b5f02ecbfeb1cea9823734796d058e91e1dc45f10d67a3e635"),
        (["--family", "p3:p=3"],
         "071c104a3c2ae390110aacd95724331394448a237b5d0e5a0a293c53f8c430f0"),
        (["--family", "pq:p=7,q=3,r=2"],
         "9c8983e1326dafccbee5a09290c4b218c1109972cf824f5e38ec16349562878b"),
        (["--family", "alt:m=1"],
         "b369d292d94452ffaab0c7e26f44d62dac421c439382db0a8a9b9bdcf9e1ba06"),
        (["--group", "sym:3", "--a", "(1,2,3)", "--b", "(1,2)", "--c", "(2,3)"],
         "b5b91833a250781962a2e870a84ed6fe6f56e590b4a8568ad74a3655478db97c"),
        (["--family", "pq:p=7,q=3,r=2", "--format", "text"],
         "65430fc35ffc506696cb0981c0af1ff17ad11894873865534fc11fe99957365c"),
    ]

    @pytest.mark.parametrize("argv, digest", GOLDEN_DIGESTS,
                             ids=[" ".join(argv) for argv, _ in GOLDEN_DIGESTS])
    def test_golden_bytes(self, tmp_path, capsys, argv, digest):
        assert main(["construct"] + argv) == 0
        stdout = capsys.readouterr().out.encode("utf-8")
        assert hashlib.sha256(stdout).hexdigest() == digest
        out = tmp_path / "out"
        assert main(["construct"] + argv + ["-o", str(out)]) == 0
        assert out.read_bytes() == stdout


class TestVerify:
    @pytest.fixture
    def sample_path(self, tmp_path):
        path = tmp_path / "sample.json"
        write_bitrade(make_bitrade(TWO_BY_THREE_CIRC, TWO_BY_THREE_STAR), path)
        return str(path)

    def test_valid_bitrade(self, sample_path, capsys):
        assert main(["verify", sample_path, "--checks", "bitrade,separated"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["bitrade"]["value"] == "yes"
        assert report["separated"]["value"] == "yes"

    def test_family_output_passes_all_checks(self, tmp_path, capsys):
        out = tmp_path / "p3.json"
        main(["construct", "--family", "p3:p=3", "-o", str(out)])
        code = main(["verify", str(out), "--checks",
                     "thin,orthogonal,primary,homogeneous"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["thin"]["value"] == "yes"
        assert report["orthogonal"]["value"] == "yes"
        assert report["primary"]["value"] == "yes"
        assert report["homogeneous_k"]["value"] == 3

    def test_equal_squares_fail_r1(self, tmp_path, capsys):
        doc = {"t_circ": [list(t) for t in TWO_BY_THREE_CIRC],
               "t_star": [list(t) for t in TWO_BY_THREE_CIRC]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 1
        assert "R1" in capsys.readouterr().err

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("{]")
        assert main(["verify", str(path)]) == 2

    @pytest.mark.parametrize("doc", [
        {"t_circ": [[["a"], "c", "s"]], "t_star": [["a", "c", "s"]]},
        {"rows": [{"r": 1}], "t_circ": [["a", "c", "s"]], "t_star": [["a", "c", "s"]]},
    ])
    def test_non_scalar_label_exits_2(self, tmp_path, capsys, doc):
        path = tmp_path / "nested.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 2
        assert "is not a scalar" in capsys.readouterr().err

    def test_missing_file_exits_2(self):
        assert main(["verify", "/no/such/file.json"]) == 2

    def test_directory_exits_2(self, tmp_path, capsys):
        assert main(["verify", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path) in err

    def test_unknown_check_exits_2(self, sample_path, capsys):
        assert main(["verify", sample_path, "--checks", "nonsense"]) == 2
        assert "nonsense" in capsys.readouterr().err

    def test_unknown_check_exits_2_before_the_document_is_read(self, tmp_path, capsys):
        path = tmp_path / "r1.json"
        path.write_text(json.dumps({"t_circ": [["r", "c", "s"]], "t_star": [["r", "c", "s"]]}))
        assert main(["verify", str(path), "--checks", "nonsense"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "nonsense" in captured.err

    def test_enum_cap_is_not_an_option(self, sample_path, capsys):
        # verify builds no group, so it takes no enumeration cap
        with pytest.raises(SystemExit) as exc:
            main(["verify", sample_path, "--enum-cap", "5"])
        assert exc.value.code == 2
        assert "--enum-cap" in capsys.readouterr().err

    def test_property_failure_exits_1(self, tmp_path, capsys):
        out = tmp_path / "z.json"
        main(["construct", "--family", "zp2:p=3", "-o", str(out)])
        assert main(["verify", str(out), "--checks", "orthogonal"]) == 1

    def test_oracle_cap_warns_and_passes(self, tmp_path, capsys):
        out = tmp_path / "p3.json"
        main(["construct", "--family", "p3:p=3", "-o", str(out)])
        code = main(["verify", str(out), "--checks", "minimal", "--oracle-cap", "10"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines()[-1] == \
            "warning: minimal undecided: 27 cells above --oracle-cap 10"
        assert json.loads(captured.out)["minimal"]["value"] == "unknown"

    def test_primary_cap_warning_names_the_cap(self, tmp_path, capsys):
        # the orbit method cannot decide non-separated input, and the
        # definitional search stops at the primary cap
        out = tmp_path / "nonsep.json"
        write_bitrade(make_bitrade(NONSEP_CIRC, NONSEP_STAR), str(out))
        assert main(["verify", str(out), "--checks", "primary",
                     "--primary-cap", "10"]) == 0
        captured = capsys.readouterr()
        assert captured.err == "warning: primary undecided: 11 cells above --primary-cap 10\n"
        assert json.loads(captured.out)["primary"]["value"] == "unknown"


class TestSearch:
    def test_golden_stdout(self, capsys):
        # recorded from the version that decided G3 by closure and hashed the
        # sorted label document
        golden = Path(__file__).resolve().parent / "golden" / "search_alt4_all_checks.jsonl"
        assert main(["search", "--group", "alt:4",
                     "--checks", "thin,orthogonal,primary,minimal"]) == 0
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")

    @pytest.mark.parametrize("spec, name", [
        ("sym:4", "search_sym4"),
        ("p3:3", "search_p3_3"),
        ("pq:7,3,2", "search_pq_7_3_2"),
        ("gens:5:(1,2,3,4,5);(2,5)(3,4)", "search_dihedral5"),
    ])
    def test_golden_stdout_of_other_groups(self, capsys, spec, name):
        # recorded from the version that built every record's cosets anew;
        # the benchmark's digests cover alternating groups only
        golden = Path(__file__).resolve().parent / "golden" / f"{name}.jsonl"
        assert main(["search", "--group", spec]) == 0
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")

    def test_s3_search(self, capsys):
        assert main(["search", "--group", "sym:3"]) == 0
        captured = capsys.readouterr()
        lines = [json.loads(line) for line in captured.out.splitlines()]
        assert len(lines) == 18
        assert all(line["group"] == "sym:3" for line in lines)

    def test_cyc2_empty(self, capsys):
        assert main(["search", "--group", "cyc:2"]) == 0
        assert capsys.readouterr().out == ""

    def test_search_cap_exits_3(self, capsys):
        assert main(["search", "--group", "sym:5", "--search-cap", "100"]) == 3

    def test_unknown_check_exits_2_before_any_record(self, capsys):
        # cyc:2 admits no triple, so only an up-front check sees the name
        assert main(["search", "--group", "cyc:2", "--checks", "bogus"]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_empty_checks_list_records_without_properties(self, capsys):
        assert main(["search", "--group", "sym:3", "--checks", ""]) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(records) == 18
        assert all(record["properties"] == {} for record in records)

    def test_format_is_not_an_option(self, capsys):
        # search writes JSON lines only
        with pytest.raises(SystemExit) as exc:
            main(["search", "--group", "sym:3", "--format", "text"])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err

    def test_enum_cap_above_default(self, monkeypatch, capsys):
        # the library default is what an unpassed cap falls back to
        monkeypatch.setattr("bitrades.groups.DEFAULT_MAX_ELEMENTS", 10)
        assert main(["search", "--group", "alt:4", "--enum-cap", "100"]) == 0
        assert "102 triples found" in capsys.readouterr().err

    def test_gens_spec(self, capsys):
        assert main(["search", "--group", "gens:4:(1,2,3,4);(1,3)"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines  # the dihedral group admits triples

    def test_degree_above_255_matches_degree_4(self, capsys):
        # the same listing from the tuple store (gens:256) as from the bytes
        # codes (gens:4), apart from the group's spec
        listings = []
        for n in (4, 256):
            spec = f"gens:{n}:(1,2,3,4);(1,2)"
            argv = ["search", "--group", spec, "--search-cap", "30",
                    "--checks", "thin,orthogonal,primary"]
            assert main(argv) == 0
            out = capsys.readouterr().out
            assert [json.loads(line)["group"] for line in out.splitlines()] == [spec] * 480
            listings.append(out.replace(json.dumps(spec), '"S4"'))
        assert listings[0] == listings[1]

    def test_bracketed_product_spec(self, capsys):
        assert main(["search", "--group", "prod:[prod:cyc:2,cyc:2],cyc:3"]) == 0
        assert "triples found in prod:[prod:cyc:2,cyc:2],cyc:3" in capsys.readouterr().err
        assert main(["search", "--group", "prod:[pq:7,3,2,cyc:3"]) == 2
        assert "unbalanced brackets" in capsys.readouterr().err


class TestTable:
    def test_default_matches_golden(self, capsys):
        assert main(["table"]) == 0
        assert capsys.readouterr().out == TABLE_GOLDEN

    def test_json_format(self, capsys):
        assert main(["table", "--k", "3", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        row = doc["rows"][0]
        assert row["p3"] == 27
        assert row["pq"] == {"size": 21, "p": 7, "q": 3, "r": 2}
        assert row["alt"] == 12

    def test_recompute_cap_names_the_family_instance(self, capsys):
        # the alternating cell is refused by its formula size, before any
        # closure is built
        assert main(["table", "--k", "5", "--recompute", "--enum-cap", "1000"]) == 3
        assert capsys.readouterr().err == (
            "resource cap exceeded: alternating family instance m=2 has size "
            "7!/2 = 2520, above the enumeration cap (cap: 1000)\n")

    def test_recompute_marks_verified(self, capsys):
        assert main(["table", "--k", "3", "--recompute"]) == 0
        out = capsys.readouterr().out
        assert "27 *" in out and "12 *" in out
        assert "rebuilt and verified" in out
