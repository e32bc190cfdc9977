"""CLI dispatch, exit codes, output stability, and witness round trips."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from ringsieve.cli import dispatch
from ringsieve.orders import format_order_text
from ringsieve.rings import format_ring_text
from ringsieve.catalog import order_z2i, socle_plane_ring


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = dispatch(argv)
    return code, out.getvalue(), err.getvalue()


def test_verify_theorem2_true_exits_zero():
    code, out, _ = run_cli(["verify-theorem2", "catalog:Z12"])
    assert code == 0
    assert "satisfied_all_triples=true" in out


def test_verify_theorem2_rmax_four():
    for ring, code, verdict in [("catalog:Zn:60", 0, "true"), ("catalog:F2xy", 2, "false")]:
        got = run_cli(["--format", "machine", "verify-theorem2", ring, "--rmax", "4"])
        assert got[:2] == (code, f"record=verdict satisfied_all_triples={verdict}\n")


def test_verify_theorem2_rmax_fifteen():
    # 7,726,160 multisets of 15 of Z/60's 12 ideals, one antichain of four
    got = run_cli(["--format", "machine", "verify-theorem2", "catalog:Zn:60", "--rmax", "15"])
    assert got == (0, "record=verdict satisfied_all_triples=true\n", "")


def test_verify_theorem2_rmax_past_the_multiset_count():
    # the cap bounds the antichains the walk scans, not the multisets of
    # r_max ideals (13,037,895 of 16 of Z/60's 12 ideals)
    for rmax in ("16", "30"):
        got = run_cli(["--format", "machine", "verify-theorem2", "catalog:Zn:60", "--rmax", rmax])
        assert got == (0, "record=verdict satisfied_all_triples=true\n", "")
    got = run_cli(["--format", "machine", "--tuple-cap", "22", "verify-theorem2",
                   "catalog:socle2:5", "--rmax", "6"])
    assert got == (2, "record=verdict satisfied_all_triples=false\n", "")


GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", GOLDEN["cases"], ids=lambda case: case["argv"])
def test_golden_output(case, tmp_path):
    # byte for byte the output of the version that built every factor ring
    # (probe: that classified O/nO for every n); FILE is
    # Z/3 x F2[x,y]/(x,y)^2 x Z/4, whose middle factor is not a chain, and
    # ORDER is Z[t]/(t^2), whose discriminant is 0
    files = {"FILE": tmp_path / "three.ring", "ORDER": tmp_path / "dual.order"}
    files["FILE"].write_text(GOLDEN["ring_file"], encoding="utf-8")
    files["ORDER"].write_text(GOLDEN["order_file"], encoding="utf-8")
    argv = [str(files.get(arg, arg)) for arg in case["argv"].split()]
    assert run_cli(argv) == (case["exit"], case["stdout"], "")


def test_counterexample_prints_witness_and_exits_two():
    code, out, _ = run_cli(["counterexample", "catalog:F2xy"])
    assert code == 2
    assert "union_shifted=3" in out
    assert "union_baseline=4" in out


def test_counterexample_on_chain_product_exits_zero():
    code, out, _ = run_cli(["counterexample", "catalog:Z12"])
    assert code == 0
    assert "witness=none" in out


def test_sieve_min_prints_fraction():
    code, out, _ = run_cli(["sieve-min", "--moduli", "2,3"])
    assert code == 0
    assert "min=2/3" in out.splitlines()


def test_sieve_density():
    code, out, _ = run_cli(["sieve", "--prog", "0:2", "--prog", "0:3"])
    assert code == 0
    assert "density=2/3" in out


def test_classify_exit_codes():
    code, _, _ = run_cli(["classify", "catalog:Z12"])
    assert code == 0
    code, out, _ = run_cli(["classify", "catalog:C1"])
    assert code == 2
    assert "chain_local_product=false" in out


def test_rogers_check_and_feedback_loop():
    args = [
        "rogers-check",
        "catalog:F2xy",
        "--ideal", "0 1 0",
        "--ideal", "0 0 1",
        "--ideal", "0 1 1",
    ]
    code, out, _ = run_cli(args)
    assert code == 2
    shifts = next(l.split("=", 1)[1] for l in out.splitlines() if l.startswith("shifts="))
    code2, out2, _ = run_cli(args + ["--shifts", shifts])
    assert code2 == 2
    assert "satisfied=false" in out2
    assert "minimum=3" in out2


def test_counterexample_witness_feeds_back():
    code, out, _ = run_cli(["counterexample", "catalog:C1"])
    assert code == 2
    fields = dict(l.split("=", 1) for l in out.splitlines())
    args = ["rogers-check", "catalog:C1"]
    for key in ("ideal_1", "ideal_2", "ideal_3"):
        args += ["--ideal", fields[key]]
    args += ["--shifts", fields["shifts"]]
    code2, out2, _ = run_cli(args)
    assert code2 == 2
    assert "satisfied=false" in out2


def test_probe_witness_feeds_back_through_order_check():
    code, out, _ = run_cli(["probe", "catalog:Z2i", "--bound", "4"])
    assert code == 2
    fields = dict(l.split("=", 1) for l in out.splitlines())
    assert fields["conductor"] == "4"
    args = ["order-check", "catalog:Z2i"]
    for key in ("ideal_1", "ideal_2", "ideal_3"):
        args += ["--ideal", fields[key]]
    args += ["--shifts", fields["shifts"]]
    code2, out2, _ = run_cli(args)
    assert code2 == 2
    assert "satisfied=false" in out2


def test_probe_clean_order_exits_zero():
    code, out, _ = run_cli(["probe", "catalog:Zi", "--bound", "6"])
    assert code == 0
    assert "witness=none" in out


def test_probe_past_the_carrier_bound_ends_in_the_same_error(tmp_path):
    # the scan skips n that cannot fail, but still stops at the first n
    # whose quotient O/nO has more than 4096 elements
    path = tmp_path / "z.order"
    path.write_text("order 1\n", encoding="utf-8")
    for argv, size in [(["probe", "catalog:Zi", "--bound", "100"], 4225),
                       (["probe", str(path), "--bound", str(10 ** 12)], 4097)]:
        assert run_cli(argv) == (1, "", f"error: carrier size {size} exceeds bound 4096\n")


def test_probe_and_order_check_read_the_global_carrier_bound(tmp_path):
    # Z[11i] first fails at conductor 121, whose quotient has 14,641 elements
    path = tmp_path / "z11i.order"
    path.write_text("order 2\nmul 2 2 -121 0\n", encoding="utf-8")
    assert run_cli(["probe", str(path), "--bound", "130"]) == (
        1, "", "error: carrier size 4225 exceeds bound 4096\n")
    code, out, _ = run_cli(["--carrier-bound", "20000", "probe", str(path), "--bound", "130"])
    assert code == 2
    fields = dict(l.split("=", 1) for l in out.splitlines())
    assert (fields["conductor"], fields["quotient_order"]) == ("121", "14641")
    args = ["order-check", str(path), "--shifts", fields["shifts"]]
    for key in ("ideal_1", "ideal_2", "ideal_3"):
        args += ["--ideal", fields[key]]
    code, out, _ = run_cli(args)
    assert code == 2
    assert "satisfied=false" in out
    assert f"minimum={fields['union_shifted']}" in out


def test_order_check_key_example_machine_format():
    code, out, _ = run_cli([
        "--format", "machine",
        "order-check", "catalog:Z2i",
        "--ideal", "2 0",
        "--ideal", "0 1",
        "--ideal", "2 1; 4 0",
    ])
    assert code == 2
    assert out.count("\n") == 1
    line = out.strip()
    assert line.startswith("record=report")
    assert "quotient_order=8" in line
    assert "baseline=4" in line and "minimum=3" in line


def test_machine_format_single_line_per_record():
    code, out, _ = run_cli(["--format", "machine", "classify", "catalog:Z12"])
    assert code == 0
    lines = out.strip().splitlines()
    assert all(l.startswith("record=") for l in lines)
    assert len(lines) == 3  # verdict + two factors


def test_usage_errors_exit_one():
    code, _, err = run_cli(["rogers-check", "catalog:Z12"])
    assert code == 1 and "error" in err
    code, _, err = run_cli(["validate", "catalog:nosuch"])
    assert code == 1
    code, _, err = run_cli(["order-check", "catalog:Z12", "--ideal", "1 0"])
    assert code == 1  # ring where an order is expected


@pytest.mark.parametrize(
    "argv, text",
    [
        (["validate", "{file}"], "ring\n"),
        (["classify", "{file}"], "ring 1 6\nmul 1\none 1\n"),
        (["probe", "{file}", "--bound", "3"], "order\n"),
        (["--workers", "0", "sieve-min", "--moduli", "2,3"], None),
        (["--carrier-bound", "0", "validate", "catalog:Z12"], None),
        (["--tuple-cap", "0", "sieve-min", "--moduli", "2,3"], None),
        (["--workers", "x", "sieve-min", "--moduli", "2,3"], None),
        (["sieve-min"], None),
        (["nosuch", "catalog:Z12"], None),
        (["--carrier-bound", "10000000000", "validate", "{file}"],
         "ring 1 3100000000\nmul 1 1 1\none 1\n"),
        # F5[x,y]/(x,y)^2 has six minimal ideals: 22 antichains of four or more
        (["--tuple-cap", "21", "verify-theorem2", "catalog:socle2:5", "--rmax", "6"], None),
    ],
    ids=["ring-header", "mul-line", "order-header", "workers", "carrier-bound", "tuple-cap",
         "workers-not-int", "missing-moduli", "unknown-command", "int64-modulus",
         "rmax-past-tuple-cap"],
)
def test_malformed_input_ends_in_error_line(tmp_path, argv, text):
    path = tmp_path / "input.txt"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    code, out, err = run_cli([a.replace("{file}", str(path)) for a in argv])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        run_cli(["--help"])
    assert exc.value.code == 0


def test_validate_from_file(tmp_path):
    path = tmp_path / "ring.txt"
    path.write_text(format_ring_text(socle_plane_ring(2)), encoding="utf-8")
    code, out, _ = run_cli(["validate", str(path)])
    assert code == 0
    assert "order=8" in out and "valid=true" in out


def test_order_from_file(tmp_path):
    path = tmp_path / "order.txt"
    path.write_text(format_order_text(order_z2i()), encoding="utf-8")
    code, out, _ = run_cli(["probe", str(path), "--bound", "4"])
    assert code == 2


def test_ideals_listing():
    code, out, _ = run_cli(["ideals", "catalog:Zn:12"])
    assert code == 0
    assert "count=6" in out


def test_byte_identical_across_workers_and_runs():
    commands = [
        ["verify-theorem2", "catalog:Z12"],
        ["counterexample", "catalog:F2xy"],
        ["sieve-min", "--moduli", "2,3"],
        ["rogers-check", "catalog:F2xy", "--ideal", "0 1 0", "--ideal", "0 0 1",
         "--ideal", "0 1 1"],
        ["order-check", "catalog:Z2i", "--ideal", "2 0", "--ideal", "0 1",
         "--ideal", "2 1; 4 0"],
    ]
    for cmd in commands:
        outputs = set()
        for workers in ("1", "4"):
            for _ in range(2):
                _, out, _ = run_cli(["--workers", workers] + cmd)
                outputs.add(out)
        assert len(outputs) == 1, cmd
