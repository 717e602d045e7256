import json
import random

import pytest

from indeflll.cli import (
    EXIT_INPUT,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    _int_nth_root,
    format_matrix_json,
    format_matrix_text,
    main,
    parse_matrix_json,
    parse_matrix_text,
)
from indeflll.errors import ParseError
from indeflll.generators import gen_random_symmetric
from test_gram import count_products


def test_text_round_trip():
    rows = gen_random_symmetric(6, 30, 4).rows
    rows = [[int(x) for x in r] for r in rows]
    assert parse_matrix_text(format_matrix_text(rows)) == rows


def test_json_round_trip():
    rows = gen_random_symmetric(5, 20, 9).rows
    rows = [[int(x) for x in r] for r in rows]
    assert parse_matrix_json(format_matrix_json(rows)) == rows


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError, match="row 1"):
        parse_matrix_text("x\n1")
    with pytest.raises(ParseError, match="row 3, column 2"):
        parse_matrix_text("2\n1 0\n0 nope")
    with pytest.raises(ParseError, match=r"\(1, 2\)"):
        parse_matrix_text("2\n1 5\n4 1")
    with pytest.raises(ParseError, match="rows"):
        parse_matrix_text("3\n1 0 0\n0 1 0")


def test_text_reads_ascii_integers_only():
    # int() alone reads 1_0 as 10 and the Arabic-Indic digits as 3 and 2
    with pytest.raises(ParseError, match="row 2, column 1"):
        parse_matrix_text("2\n1_0 3\n3 3")
    with pytest.raises(ParseError, match="row 3, column 2"):
        parse_matrix_text("2\n10 3\n3 \u0663")
    with pytest.raises(ParseError, match="row 1"):
        parse_matrix_text("\u0662\n1 0\n0 1")
    assert parse_matrix_text("2\n+10 -3\n-3 03") == [[10, -3], [-3, 3]]


def test_cli_refuses_non_ascii_rationals(tmp_path, capsys):
    f = tmp_path / "id.txt"
    f.write_text("2\n1 0\n0 1\n")
    assert main(["reduce", str(f), "--gamma0", "9_9/1_00"]) == EXIT_INPUT
    assert "9_9/1_00" in capsys.readouterr().err
    assert main(["qform", "reduce", "1", "0", "-\u0662"]) == EXIT_INPUT


def test_cli_integer_options_read_ascii_only(tmp_path, capsys):
    # argparse's type=int alone would read the dimension 3 and the seed 10
    f = tmp_path / "r.txt"
    for argv in (["gen", "--kind", "random", "--dim", "\u0663", "--seed", "1", "--out", str(f)],
                 ["gen", "--kind", "random", "--dim", "3", "--seed", "1_0", "--out", str(f)],
                 ["qform", "reduce", "1", "0", "-2", "--max-extra", "\u0662"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid" in capsys.readouterr().err
    assert not f.exists()
    assert main(["gen", "--kind", "random", "--dim", "+3", "--seed", "010", "--out", str(f)]) == EXIT_OK
    assert len(parse_matrix_text(f.read_text())) == 3


def test_json_refuses_booleans():
    # bool is a subclass of int, so true/false would pass as 1/0
    with pytest.raises(ParseError, match="row 2, column 1"):
        parse_matrix_json('{"dim": 2, "rows": [[1, 0], [false, 1]]}')
    with pytest.raises(ParseError, match="row 1, column 1"):
        parse_matrix_json('{"dim": 2, "rows": [[true, false], [false, true]]}')
    with pytest.raises(ParseError, match='"dim"'):
        parse_matrix_json('{"dim": true, "rows": [[1]]}')


def test_cli_gen_and_reduce_identity(tmp_path, capsys):
    f = tmp_path / "id.txt"
    f.write_text("3\n1 0 0\n0 1 0\n0 0 1\n")
    out = tmp_path / "red.txt"
    code = main(["reduce", str(f), "--out", str(out)])
    assert code == EXIT_OK
    assert parse_matrix_text(out.read_text()) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    report = capsys.readouterr().out
    assert "rank" in report and "3" in report


def test_cli_reduce_bad_file(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("2\n1 2\n3 4\n")
    assert main(["reduce", str(f)]) == EXIT_INPUT
    assert "symmetric" in capsys.readouterr().err


def test_cli_refuses_rows_past_the_dimension(tmp_path, capsys):
    # a file longer than its declared dimension is refused, not truncated
    f = tmp_path / "long.txt"
    f.write_text("2\n1 0\n0 1\n5 5 5\n")
    assert main(["analyze", str(f)]) == EXIT_INPUT
    assert "row 4" in capsys.readouterr().err
    # rows are the file's own lines, blank lines included
    with pytest.raises(ParseError, match="row 5"):
        parse_matrix_text("2\n1 0\n\n0 1\n7\n8\n")
    with pytest.raises(ParseError, match="row 3, column 2"):
        parse_matrix_text("2\n\n1 x\n0 1\n")
    assert parse_matrix_text("2\n1 0\n0 1\n\n  \n") == [[1, 0], [0, 1]]


def test_cli_gen_worstcase_reproduces(tmp_path):
    f = tmp_path / "wc.txt"
    assert main(["gen", "--kind", "worstcase", "--d", "5", "--out", str(f)]) == EXIT_OK
    rows = parse_matrix_text(f.read_text())
    assert rows[0][0] == 32768 and rows[9][9] == -4374


def test_cli_gen_hyperbolic_stack(tmp_path):
    f = tmp_path / "hs.txt"
    assert main(["gen", "--kind", "hyperbolic-stack", "--n", "1", "--alpha", "1",
                 "--out", str(f)]) == EXIT_OK
    assert parse_matrix_text(f.read_text()) == [[1, 0, 0], [0, 0, 1], [0, 1, 0]]


def test_cli_gen_random_in_range(tmp_path):
    f = tmp_path / "r.txt"
    assert main(["gen", "--kind", "random", "--dim", "10", "--bound", "100",
                 "--seed", "1", "--out", str(f)]) == EXIT_OK
    rows = parse_matrix_text(f.read_text())
    assert len(rows) == 10
    assert all(abs(x) <= 100 for row in rows for x in row)


def test_cli_reduce_verify_round_trip(tmp_path, capsys):
    g = tmp_path / "g.txt"
    assert main(["gen", "--kind", "random", "--dim", "6", "--bound", "60",
                 "--seed", "11", "--out", str(g)]) == EXIT_OK
    red = tmp_path / "red.txt"
    u = tmp_path / "u.txt"
    assert main(["reduce", str(g), "--out", str(red), "--emit-unimodular", str(u)]) == EXIT_OK
    capsys.readouterr()
    assert main(["verify", str(g), str(u), str(red)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "FAIL" not in out

    # tampering with the transform must fail verification
    rows = parse_matrix_text(u.read_text(), require_symmetric=False)
    rows[0][0] += 1
    u.write_text(format_matrix_text(rows))
    assert main(["verify", str(g), str(u), str(red)]) == EXIT_VERIFY_FAILED
    assert "FAIL" in capsys.readouterr().out


def test_cli_verify_identity(tmp_path, capsys):
    f = tmp_path / "id.txt"
    f.write_text("2\n1 0\n0 1\n")
    assert main(["verify", str(f), str(f), str(f)]) == EXIT_OK


def test_cli_verify_refuses_a_congruent_transform_that_is_not_unimodular(tmp_path, capsys):
    # U = 2I is congruent to G' = 4G; at full rank the Gram determinants
    # refuse it, below full rank det U itself
    for g_text, red_text, note in (("2\n1 2\n2 -3\n", "2\n4 8\n8 -12\n", "det(U)^2 = 16"),
                                   ("2\n1 0\n0 0\n", "2\n4 0\n0 0\n", "det = 4")):
        g, u, red = tmp_path / "g.txt", tmp_path / "u.txt", tmp_path / "red.txt"
        g.write_text(g_text)
        u.write_text("2\n2 0\n0 2\n")
        red.write_text(red_text)
        assert main(["verify", str(g), str(u), str(red)]) == EXIT_VERIFY_FAILED
        out = capsys.readouterr().out
        assert "ok   congruence" in out
        assert f"FAIL unimodular |det U| = 1  ({note})" in out


def test_cli_verify_skips_the_checks_it_cannot_run(tmp_path, capsys):
    # U is unimodular but not congruent (G = G' = diag(1, -1)), or congruent
    # but not unimodular: the block, tail and bound checks are not run
    later = ("adjacent blocks reduced", "tail rows exactly zero", "quality bound")
    for g_text, u_text, red_text, reason in (("2\n1 0\n0 -1\n", "2\n1 1\n0 1\n", "2\n1 0\n0 -1\n", "congruence"),
                                             ("2\n1 0\n0 0\n", "2\n2 0\n0 2\n", "2\n4 0\n0 0\n", "unimodularity")):
        g, u, red = tmp_path / "g.txt", tmp_path / "u.txt", tmp_path / "red.txt"
        g.write_text(g_text)
        u.write_text(u_text)
        red.write_text(red_text)
        assert main(["verify", str(g), str(u), str(red)]) == EXIT_VERIFY_FAILED
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 5 and lines[0].startswith("FAIL" if reason == "congruence" else "ok")
        assert lines[2:] == [f"skip {name}  (not checked: {reason} failed)" for name in later]


def test_cli_verify_tail_uses_input_rank(tmp_path, capsys):
    # rank 1 input: the nonzero second row of G' is a tail row
    g = tmp_path / "g.txt"
    g.write_text("2\n0 0\n0 1\n")
    u = tmp_path / "u.txt"
    u.write_text("2\n1 0\n0 1\n")
    assert main(["verify", str(g), str(u), str(g)]) == EXIT_VERIFY_FAILED
    assert "FAIL tail rows exactly zero" in capsys.readouterr().out


def test_cli_verify_reports_unreduced_block(tmp_path, capsys):
    g = tmp_path / "g.txt"
    g.write_text("2\n1 0\n0 1\n")
    u = tmp_path / "u.txt"
    u.write_text("2\n1 1\n0 1\n")
    red = tmp_path / "red.txt"
    red.write_text("2\n1 1\n1 2\n")
    assert main(["verify", str(g), str(u), str(red)]) == EXIT_VERIFY_FAILED
    out = capsys.readouterr().out
    assert "FAIL adjacent blocks reduced  (block at positions 1, 2)" in out
    assert "ok   tail rows exactly zero" in out


def test_cli_analyze(tmp_path, capsys):
    f = tmp_path / "g.txt"
    f.write_text("2\n1 1\n1 1\n")
    assert main(["analyze", str(f)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "rank" in out and "1" in out


def test_cli_analyze_structured(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("INDEFLLL_REPORT", "structured")
    f = tmp_path / "g.txt"
    f.write_text("2\n2 0\n0 -3\n")
    assert main(["analyze", str(f)]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["signature"] == 0 and doc["rank"] == 2
    f.write_text("2\n1 1\n1 1\n")
    assert main(["analyze", str(f)]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert (doc["rank"], doc["kernel_dim"], doc["nondeg_det"]) == (1, 1, "1")


def test_int_nth_root_brackets_large_radicands():
    rng = random.Random(3)
    for n in [2**2001 - 1, 2**2000, 3**1300] + [rng.getrandbits(2000) | 1 << 1999 for _ in range(20)]:
        for k in (1, 2, 3, 7, 16):
            x = _int_nth_root(n, k)
            assert x**k <= n < (x + 1) ** k


def test_cli_analyze_large_determinant(tmp_path, capsys, monkeypatch):
    # |det| has 2002 bits: the root needs integer arithmetic throughout
    monkeypatch.setenv("INDEFLLL_REPORT", "structured")
    a, b = 2**1000 + 1, 2**1001 + 3
    f = tmp_path / "g.txt"
    f.write_text(f"2\n{a} 0\n0 {-b}\n")
    assert main(["analyze", str(f)]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    root = doc["det_root_floor"]
    assert doc["nondeg_det"] == str(-a * b) and root**2 <= a * b < (root + 1) ** 2
    whole, frac = doc["det_root_approx"].split(".")
    assert int(whole) == root and len(frac) == 2
    f.write_text("2\n2 0\n0 -3\n")
    assert main(["analyze", str(f)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["det_root_approx"] == "2.45"


def test_cli_compare_isotropic_baseline(tmp_path, capsys):
    f = tmp_path / "h.txt"
    f.write_text("2\n0 1\n1 0\n")
    assert main(["compare", str(f)]) == EXIT_OK
    out = capsys.readouterr().out
    # the reason stands once, on its own line; the failed row holds "-"
    assert out.count("isotropic") == 1
    assert "baseline failed: isotropic GSO vector encountered at position 1\n" in out
    baseline = next(line for line in out.splitlines() if line.startswith("baseline "))
    assert baseline.split() == ["baseline"] + ["-"] * 7
    assert "no-sign" in out and "sign" in out


def test_cli_certificates_form_each_product_once(tmp_path, capsys, monkeypatch):
    """`verify` and `compare` form U^T G U once per transform: the bound's
    congruence check takes over the product just formed."""
    g = tmp_path / "g.txt"
    g.write_text(format_matrix_text(gen_random_symmetric(6, 40, 11).rows))
    red, u = tmp_path / "red.txt", tmp_path / "u.txt"
    assert main(["reduce", str(g), "--out", str(red), "--emit-unimodular", str(u)]) == EXIT_OK
    calls = count_products(monkeypatch)
    assert main(["verify", str(g), str(u), str(red)]) == EXIT_OK
    assert calls[0] == 1
    calls[0] = 0
    assert main(["compare", str(g)]) == EXIT_OK
    assert "failed" not in capsys.readouterr().out
    assert calls[0] == 3


def test_cli_compare_identity_all_agree(tmp_path, capsys):
    f = tmp_path / "id.txt"
    f.write_text("3\n1 0 0\n0 1 0\n0 0 1\n")
    assert main(["compare", str(f), "--report", "structured"]) == EXIT_OK
    docs = json.loads(capsys.readouterr().out)
    assert len(docs) == 3
    assert all(doc["first_entry"] == "1" for doc in docs)


def test_cli_qform_trajectory(capsys):
    assert main(["qform", "reduce", "1", "0", "-2", "--max-extra", "2"]) == EXIT_OK
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0].startswith("form (1, 0, -2)")
    assert len(out) == 4  # header + reduced form + two cycle steps
    assert "(1, 2, -1)" in out[1]


def test_cli_qform_rational_coeffs(capsys):
    assert main(["qform", "reduce", "4", "4", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "(0, 0, 1)" in out


def test_cli_missing_file(capsys):
    assert main(["reduce", "/nonexistent/file.txt"]) == EXIT_INPUT


def test_cli_reduce_reports_lambda_row_sources(tmp_path, capsys, monkeypatch):
    """The structured report counts the lambda rows the clean-ups built
    and those they took from a carry, by source, and together they are
    one per clean-up run."""
    from indeflll import reducer as red

    cleanups = [0]
    cleanup = red.cleanup_size_reduce

    def counted(*args):
        cleanups[0] += 1
        return cleanup(*args)

    monkeypatch.setattr(red, "cleanup_size_reduce", counted)
    f = tmp_path / "g.txt"
    f.write_text(format_matrix_text(gen_random_symmetric(10, 20, 3).rows))
    assert main(["reduce", str(f), "--out", str(tmp_path / "r.txt"), "--report", "structured"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    carried = [doc[f"rows_carried_{source}"] for source in red.CARRY_SOURCES]
    assert doc["rows_built"] + sum(carried) == cleanups[0]
    assert doc["rows_built"] > 0 and min(carried) > 0, (doc["rows_built"], carried)


def test_cli_reduce_reports_gso_positions(tmp_path, capsys):
    from indeflll.analysis import verify_theorem_bound
    from indeflll.reducer import reduce

    g = gen_random_symmetric(5, 20, 8)
    f = tmp_path / "g.txt"
    f.write_text(format_matrix_text(g.rows))
    assert main(["reduce", str(f), "--out", str(tmp_path / "r.txt"), "--report", "structured"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    res = reduce(g)
    stats = res.stats
    assert doc["gso_positions"] == stats.gso_positions > 0
    assert doc["walk_steps"] == stats.walk_steps > 0
    assert doc["u_bits"] == stats.u_bits > 0 and doc["g_bits"] == stats.g_bits > 0
    assert doc["excess_definite_blocks"] == verify_theorem_bound(res, g).excess_definite
