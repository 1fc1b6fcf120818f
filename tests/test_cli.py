from __future__ import annotations

import ast
import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import mgonal
from mgonal import Density, GuyReport, deserialize_tree
from mgonal.cli import CONFORMANCE_EXIT, RESOURCE_EXIT, USAGE_EXIT, main


def expect_usage_error(argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == USAGE_EXIT


def test_no_command_is_a_usage_error():
    expect_usage_error([])


def test_tree_writes_a_loadable_document(tmp_path, capsys):
    out = tmp_path / "tree.json"
    assert main(["tree", "--m", "3", "--depth", "8", "--bound", "2000",
                 "--out", str(out)]) == 0
    tree = deserialize_tree(out.read_text())
    assert len(tree.nodes) == 18
    assert tree.gamma_estimate == 8
    summary = capsys.readouterr().out
    assert "nodes=18" in summary
    assert "max_truant=8" in summary
    assert "complete=true" in summary


def test_tree_stdout_contains_json_then_summary(capsys):
    assert main(["tree", "--m", "3", "--depth", "2", "--bound", "100"]) == 0
    out = capsys.readouterr().out
    doc_line, summary_line = out.splitlines()
    assert json.loads(doc_line)["m"] == 3
    assert summary_line.startswith("tree m=3 depth=2 bound=100:")


def test_tree_usage_errors():
    expect_usage_error(["tree", "--m", "2"])
    expect_usage_error(["tree", "--m", "3", "--depth", "0"])


def test_tree_node_cap_maps_to_resource_exit(capsys):
    assert main(["tree", "--m", "5", "--depth", "6", "--bound", "2000",
                 "--node-cap", "10"]) == RESOURCE_EXIT
    assert "resource cap" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["tree", "gamma"])
@pytest.mark.parametrize("cap", ["0", "-1"])
def test_a_node_cap_below_one_is_a_usage_error(command, cap, capsys):
    expect_usage_error([command, "--m", "3", "--bound", "2000", "--node-cap", cap])
    out, err = capsys.readouterr()
    assert out == "" and "node_cap must be >= 1" in err


@pytest.mark.parametrize(
    "argv", [["tree", "--m", "5"], ["guy", "--m", "10", "--ell", "5"]], ids=["tree", "guy"]
)
def test_a_closed_stdout_ends_the_output_quietly(argv):
    # stdout is a pipe whose read end is already closed, as after `| head`
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(mgonal.__file__).resolve().parents[1])
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "mgonal.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src},
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr.decode()) == (0, "")


@pytest.mark.parametrize(
    "argv",
    [["tree", "--m", "3", "--bound", "100"], ["density", "--gram", "1,1,1,1", "--p", "3", "--h", "8"]],
    ids=["tree", "density"],
)
def test_an_unopenable_out_path_is_a_usage_error(argv, tmp_path, capsys):
    path = tmp_path / "no such directory" / "out"
    expect_usage_error([*argv, "--out", str(path)])
    assert f"cannot open --out {path}: No such file or directory" in capsys.readouterr().err
    assert not path.parent.exists()


def test_gamma_empirical_line(capsys):
    assert main(["gamma", "--m", "3", "--bound", "2000"]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("gamma_3 = 8 (empirical for bound 2000;")


def test_gamma_lower_bound_line_when_capped(capsys):
    assert main(["gamma", "--m", "14", "--bound", "2000", "--depth-cap", "4"]) == 0
    line = capsys.readouterr().out.strip()
    assert re.match(r"gamma_14 >= \d+ \(lower bound;", line)


def test_gamma_lower_bound_line_when_the_node_cap_stops_the_tree(capsys):
    # 13 of the 18 nodes: node (1, 1, 3) has only one of its six children
    assert main(["gamma", "--m", "3", "--bound", "2000", "--node-cap", "13"]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("gamma_3 >= 8 (lower bound; tree incomplete at")


def test_density_closed_form_csv(capsys):
    assert main(["density", "--gram", "1,1,1", "--N", "3", "--c", "1",
                 "--p", "3", "--h", "1..12"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("p,gram,N,c,h_num")
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 12
    admissible_h = [int(r[4]) for r in rows if r[6] == "closed_form"]
    assert admissible_h == [3, 11]
    for r in rows:
        if r[6] == "closed_form":
            assert (r[7], r[8], r[11]) == ("1", "3", "true")
        else:
            assert (r[6], r[11]) == ("not_admissible", "skipped")


def test_density_oracle_cross_check_passes(capsys):
    assert main(["density", "--gram", "1,1,1,1", "--p", "3", "--h", "8,16",
                 "--strict"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split(",") for line in lines[1:]]
    assert all(r[11] == "true" for r in rows)
    for r in rows:
        assert r[6] == "yang_odd"
        assert (r[7], r[8]) == (r[9], r[10])  # oracle columns echo the value


def test_density_no_oracle_skips_the_reference_columns(capsys):
    assert main(["density", "--gram", "1,1,1,1", "--p", "3", "--h", "8",
                 "--no-oracle"]) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert row[6] == "yang_odd"
    assert (row[9], row[10], row[11]) == ("", "", "true")


def test_density_strict_failure_exits_two(monkeypatch, capsys):
    import mgonal.localdensity as ld

    bogus = Density(Fraction(0), "oracle", t=1, stabilized=False)
    monkeypatch.setattr(ld, "siegel_count_density", lambda *a, **k: bogus)
    assert main(["density", "--gram", "1,1,1,1", "--p", "3", "--h", "8",
                 "--strict"]) == CONFORMANCE_EXIT
    rows = capsys.readouterr().out.splitlines()[1:]
    assert rows[0].endswith("false")


def test_density_usage_errors():
    expect_usage_error(["density", "--gram", "1,1,1,1", "--p", "4", "--h", "8"])
    expect_usage_error(["density", "--gram", "1,1,1", "--p", "3", "--h", "8"])
    expect_usage_error(["density", "--gram", "1,1", "--N", "3", "--c", "3",
                        "--p", "3"])
    expect_usage_error(["density", "--gram", "1,1,1,1", "--p", "3",
                        "--h", "9..8"])
    # gcd 2: local_density refuses it, the CLI has no check of its own
    expect_usage_error(["density", "--gram", "2,4,6,8", "--p", "3", "--h", "8"])


def test_guy_pass(capsys):
    assert main(["guy", "--m", "10", "--ell", "5"]) == 0
    assert "misses exactly {5}: PASS" in capsys.readouterr().out


def test_guy_fail_exits_two(monkeypatch, capsys):
    import mgonal.constructions as constructions

    report = GuyReport(10, 5, 100, (5, 7), False)
    monkeypatch.setattr(constructions, "verify_guy", lambda gf, bound: report)
    assert main(["guy", "--m", "10", "--ell", "5", "--bound", "100"]) == CONFORMANCE_EXIT
    assert "FAIL" in capsys.readouterr().out


def test_guy_usage_errors():
    expect_usage_error(["guy", "--m", "5", "--ell", "1"])
    expect_usage_error(["guy", "--m", "10", "--ell", "5", "--bound", "3"])


def test_tau_reports_the_closed_value(capsys):
    assert main(["tau", "--p", "3", "--t", "2", "--N", "3", "--c", "1"]) == 0
    line = capsys.readouterr().out
    assert "closed value 0" in line
    err = float(line.rsplit("= ", 1)[1].rstrip(")\n"))
    assert err < 1e-9


def test_tau_off_conductor_has_no_closed_value(capsys):
    assert main(["tau", "--p", "3", "--t", "1", "--N", "5"]) == 0
    assert "closed value" not in capsys.readouterr().out


def test_tau_with_a_huge_exponent_hits_the_modulus_cap(capsys):
    assert main(["tau", "--p", "7", "--t", "10000", "--N", "7"]) == RESOURCE_EXIT
    assert capsys.readouterr().err == (
        "resource cap exceeded: modulus 7^10000 exceeds cap 262144\n"
    )


def test_tau_usage_error_for_non_unit_alpha():
    expect_usage_error(["tau", "--p", "3", "--t", "1", "--alpha", "3", "--N", "3"])


# ---------------------------------------------------------------------------
# byte-level pins: sha256 of stdout and of stderr, and the exit code

EMPTY_SHA256 = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
CLI_GOLDEN = [
    (["gamma", "--m", "13", "--bound", "20000"],
     "65564f9373755714f6eef3c6c454c70a3e889c5fd813d1141077943c4a6c9781", EMPTY_SHA256, 0),
    (["guy", "--m", "30", "--ell", "26", "--bound", "100000"],
     "9b841e3d2c17f73faf978edddc8cf48d3189bbf5422de1cf548e0f50f16fe94c", EMPTY_SHA256, 0),
    (["density", "--gram", "1,1,1,2,3,5", "--p", "2,3,5,7", "--h", "8,24,88", "--strict"],
     "f7c668933ae59d158580fbe915aec1ab9675be6b218ffcec252c1c83cae838a9", EMPTY_SHA256, 0),
    (["density", "--gram", "1,1,1,256", "--p", "2", "--h", "8"],
     EMPTY_SHA256, "5e98a514f9eb1e99d299dc6172c7552217fa7612614e1cf68917b3ff0cb7e241",
     RESOURCE_EXIT),
    (["tree", "--m", "5", "--bound", "2000"],
     "244268e4733dd4424f286740671affc64b0aa828bcd7c434599e74f8a3501ffb", EMPTY_SHA256, 0),
    (["tau", "--p", "3", "--t", "2", "--N", "3", "--c", "1"],
     "eb9c0cc0b83b0dd413130eb5e136cf012aa6abcac74d9890dbec533e4fed9915", EMPTY_SHA256, 0),
    (["gamma", "--m", "3", "--bound", "2000", "--node-cap", "13"],
     "abc31a7e8cc48b9945fd90806b07ac6ee3f3485b6a7c3d00689fcda0e15c5d81", EMPTY_SHA256, 0),
    (["gamma", "--m", "15", "--bound", "20000", "--node-cap", "3000"],
     "2db543b4b8eb85ea9b563a444b9a975b412606b3a1dfe10f157d3e0182795a53", EMPTY_SHA256, 0),
    (["gamma", "--m", "8", "--bound", "100000"],
     "5f7658abd3e1eb26b2a81384f3209a09e176b4508dbef86baa000fa56c8fafae", EMPTY_SHA256, 0),
    # folds of 1e6-bit sets
    (["tree", "--m", "5", "--depth", "3", "--bound", "1000000"],
     "07bc42cb83586c7e66fccbad8129d5a9671e40d809d984792072daf176bedb07", EMPTY_SHA256, 0),
]


@pytest.mark.parametrize(
    "argv, out_sha256, err_sha256, code", CLI_GOLDEN,
    ids=[" ".join(argv) for argv, *_ in CLI_GOLDEN],
)
def test_cli_output_is_pinned_byte_for_byte(argv, out_sha256, err_sha256, code, capsys):
    try:
        got = main(argv)
    except SystemExit as exc:
        got = exc.code
    out, err = capsys.readouterr()
    digests = [hashlib.sha256(text.encode()).hexdigest() for text in (out, err)]
    assert (digests, got) == ([out_sha256, err_sha256], code)


def test_the_package_imports_only_the_standard_library():
    # Every absolute import in the package, function-level ones included;
    # the relative ones stay inside mgonal.
    imported = set()
    for path in Path(mgonal.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update((alias.name, path.name) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add((node.module, path.name))
    assert imported
    outside = {(name, where) for name, where in imported
               if name.partition(".")[0] not in sys.stdlib_module_names}
    assert not outside


# ---------------------------------------------------------------------------
# lazy imports: the package and each command load only what they use

PUBLIC_NAMES = {  # the package's public API, listed here apart from its own table
    "ConformanceRow", "Density", "EscalatorNode", "EscalatorTree", "GuyForm", "GuyReport",
    "InternalConsistencyError", "JordanDecomposition", "PolygonalForm", "RepresentationSet",
    "ResourceCapError", "ShiftedDiagonalLattice", "TreeParseError", "WrongDispatchError",
    "admissible", "build_tree", "classify_universality_pattern", "conformance_csv",
    "density_p_dividing_N", "deserialize_tree", "extend_set", "guy_form", "guy_report_csv",
    "h_of_ell", "jordan_decompose", "lattice_from_form", "local_density",
    "lower_bound_witness", "polygonal_value", "polygonal_values_up_to",
    "representation_count", "represented_set", "represents_equivalence_check",
    "serialize_tree", "shift_fraction", "siegel_count_density", "stabilization_threshold",
    "tau_gauss_sum", "tau_lemma_value", "truant", "verify_case_bounds", "verify_guy",
    "verify_guy_grid", "walk_summary", "yang_density_odd", "yang_density_two",
}


@pytest.mark.parametrize(
    "argv, loaded, not_loaded",
    [
        (None, ["mgonal"], ["json"]),  # and no mgonal.* submodule, checked below
        (["gamma", "--m", "3", "--bound", "2000"], ["mgonal.escalator"],
         ["mgonal.localdensity", "mgonal.lattice", "mgonal.constructions", "fractions", "json"]),
        (["tree", "--m", "3", "--bound", "100"], ["mgonal.escalator", "json"],
         ["mgonal.localdensity", "mgonal.lattice", "mgonal.constructions", "fractions"]),
        (["guy", "--m", "10", "--ell", "5"], ["mgonal.constructions"],
         ["mgonal.escalator", "mgonal.localdensity", "mgonal.lattice", "json"]),
        (["density", "--gram", "1,1,1,1", "--p", "3", "--h", "8"], ["mgonal.localdensity"],
         ["mgonal.escalator", "mgonal.constructions", "json"]),
        (["tau", "--p", "3", "--t", "2", "--N", "3", "--c", "1"], ["mgonal.localdensity"],
         ["mgonal.escalator", "mgonal.constructions", "json"]),
    ],
    ids=["import", "gamma", "tree", "guy", "density", "tau"],
)
def test_each_command_loads_only_the_modules_it_runs(argv, loaded, not_loaded):
    # a fresh interpreter: this one has every module loaded already
    if argv is None:
        code = "import mgonal"
    else:
        code = f"from mgonal.cli import main; assert main({argv!r}) == 0"
    code += "\nimport sys; print(*sorted(sys.modules))"
    src = str(Path(mgonal.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True,
    )
    modules = set(proc.stdout.splitlines()[-1].split())
    if argv is None:
        assert not {m for m in modules if m.startswith("mgonal.")}
    assert set(loaded) <= modules
    assert not set(not_loaded) & modules
    # dataclasses would pull in inspect, dis, tokenize and ast at every start
    assert not {"dataclasses", "inspect"} & modules


def test_every_export_is_the_object_its_module_defines(monkeypatch):
    assert set(mgonal.__all__) == PUBLIC_NAMES
    for name in mgonal.__all__:
        monkeypatch.delattr(mgonal, name)  # so the lookup below runs the package hook
        value = getattr(mgonal, name)
        assert value.__module__.startswith("mgonal.")
        assert value is getattr(sys.modules[value.__module__], name), name
        assert vars(mgonal)[name] is value  # cached for later lookups


def test_the_lazy_package_namespace(monkeypatch):
    assert set(mgonal.__all__) <= set(dir(mgonal))
    assert "__all__" in dir(mgonal) and "__version__" in dir(mgonal)
    namespace = {}
    exec("from mgonal import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(mgonal.__all__)
    monkeypatch.delattr(mgonal, "lattice")
    assert mgonal.lattice is sys.modules["mgonal.lattice"]
    with pytest.raises(AttributeError, match=r"^module 'mgonal' has no attribute 'no_such_name'$"):
        mgonal.no_such_name
    assert not hasattr(mgonal, "_check_int")
