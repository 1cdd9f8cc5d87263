import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fermichain
from fermichain import cli, exact, numerics
from fermichain.cli import main, reproduce_catalog
from fermichain.profiles import Krawtchouk, make_builtin


def _write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _read_csv(path):
    header, names, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            header.append(line)
        elif names is None:
            names = line.split(",")
        else:
            rows.append(line.split(","))
    return header, names, rows


def test_spectrum_task(tmp_path):
    cfgfile = _write_config(tmp_path, {
        "profile": {"family": "homogeneous", "parameters": {"J": 1.0, "B": 0.0},
                    "N": 10},
    })
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfgfile, "--out", str(out)]) == 0
    header, names, rows = _read_csv(out / "spectrum.csv")
    assert names == ["k", "energy"]
    assert len(rows) == 10
    assert any("version" in h for h in header)
    energies = [float(r[1]) for r in rows]
    expect = -2 * np.cos(np.pi * np.arange(1, 11) / 11)
    assert np.abs(np.array(energies) - expect).max() < 1e-10


def test_spectrum_energies_are_eigenvalues_only(tmp_path):
    # The spectrum task skips the eigenvectors: its energies are exactly
    # exact.eigenvalues, written with enough digits to round-trip.
    record = {"family": "rainbow", "parameters": {"h": 1.0}, "N": 200}
    cfgfile = _write_config(tmp_path, {"profile": record})
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfgfile, "--out", str(out)]) == 0
    _, _, rows = _read_csv(out / "spectrum.csv")
    lat, _ = fermichain.profiles.from_config(record)
    assert np.array_equal([float(r[1]) for r in rows], fermichain.exact.eigenvalues(lat))


def test_density_task_and_regions(tmp_path):
    cfgfile = _write_config(tmp_path, {
        "profile": {"family": "rainbow", "parameters": {"h": 1.0}, "N": 80},
        "fillings": [0.125],
    })
    out = tmp_path / "out"
    assert main(["density", "--config", cfgfile, "--out", str(out)]) == 0
    _, names, rows = _read_csv(out / "density_M10.csv")
    assert names == ["site", "x", "density_exact", "density_wkb"]
    assert len(rows) == 80
    wkb_col = np.array([float(r[3]) for r in rows])
    assert wkb_col.min() >= 0.0 and wkb_col.max() <= 1.0


def test_compare_task_reports_bulk_error(tmp_path):
    cfgfile = _write_config(tmp_path, {
        "profile": {"family": "krawtchouk", "parameters": {"q": 0.25}, "N": 400},
        "fillings": [0.125, 0.5, 0.875],
    })
    out = tmp_path / "out"
    assert main(["compare", "--config", cfgfile, "--out", str(out)]) == 0
    _, names, rows = _read_csv(out / "compare_report.csv")
    i = names.index("bulk_sup_error")
    for row in rows:
        assert float(row[i]) < 0.05


def test_compare_series_are_the_density_arrays(tmp_path):
    cfgfile = _write_config(tmp_path, {
        "profile": {"family": "krawtchouk", "parameters": {"q": 0.25}, "N": 200},
        "fillings": [0.125, 0.5],
    })
    for task in ("density", "compare"):
        assert main([task, "--config", cfgfile, "--out", str(tmp_path / task),
                     "--deterministic"]) == 0
    for M in (25, 100):
        _, d_names, d_rows = _read_csv(tmp_path / "density" / f"density_M{M}.csv")
        _, c_names, c_rows = _read_csv(tmp_path / "compare" / f"compare_series_M{M}.csv")
        assert c_names == ["x", "density_exact", "density_wkb"]
        assert [r[1:] for r in d_rows] == c_rows


def test_compare_report_errors_are_those_of_its_series(tmp_path):
    N = 200
    cfgfile = _write_config(tmp_path, {
        "profile": {"family": "krawtchouk", "parameters": {"q": 0.25}, "N": N},
        "fillings": [0.125, 0.5, 0.875],
    })
    out = tmp_path / "out"
    assert main(["compare", "--config", cfgfile, "--out", str(out)]) == 0
    header, names, rows = _read_csv(out / "compare_report.csv")
    margin = int(np.ceil(N / 20))
    assert margin == 10 and f"# bulk_margin_sites: {margin}" in header
    assert names == ["M", "filling", "sup_error", "mean_abs_error", "bulk_sup_error"]
    assert [int(r[0]) for r in rows] == [25, 100, 175]
    for row in rows:
        series_header, _, series = _read_csv(out / f"compare_series_M{row[0]}.csv")
        assert f"# bulk_margin_sites: {margin}" in series_header
        values = np.array(series, dtype=float)
        err = np.abs(values[:, 1] - values[:, 2])
        assert float(row[1]) == int(row[0]) / N
        assert float(row[2]) == err.max()
        assert float(row[3]) == err.mean()
        assert float(row[4]) == err[margin:N - margin].max()
        assert 0 <= float(row[4]) <= float(row[2])


def test_compare_deterministic_outputs_byte_identical(tmp_path):
    cfgfile = _write_config(tmp_path, {
        "profile": {"family": "rainbow", "parameters": {"h": 1.0}, "N": 200},
        "fillings": [0.125, 0.4],
    })
    outs = tmp_path / "a", tmp_path / "b"
    for out in outs:
        assert main(["compare", "--config", cfgfile, "--out", str(out),
                     "--deterministic"]) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == ["compare_report.csv", "compare_series_M25.csv",
                     "compare_series_M80.csv"]
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_compare_diagonalizes_once(tmp_path, monkeypatch):
    calls = []
    diagonalize = exact.diagonalize

    def counting(lat):
        calls.append(lat)
        return diagonalize(lat)

    monkeypatch.setattr(exact, "diagonalize", counting)
    cfgfile = _write_config(tmp_path, {
        "profile": {"family": "rainbow", "parameters": {"h": 1.0}, "N": 40},
        "fillings": [0.125, 0.25, 0.4],
    })
    assert main(["compare", "--config", cfgfile, "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


def test_deterministic_outputs_byte_identical(tmp_path):
    cfgfile = _write_config(tmp_path, {
        "profile": {"family": "cosine", "parameters": {"J0": 0.5}, "N": 40},
        "fillings": [0.5],
    })
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["density", "--config", cfgfile, "--out", str(out),
                     "--deterministic"]) == 0
    assert (out1 / "density_M20.csv").read_bytes() == \
        (out2 / "density_M20.csv").read_bytes()


def test_json_format(tmp_path):
    cfgfile = _write_config(tmp_path, {
        "profile": {"family": "homogeneous", "parameters": {"J": 1.0, "B": 0.0},
                    "N": 6},
    })
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfgfile, "--out", str(out),
                 "--format", "json"]) == 0
    payload = json.loads((out / "spectrum.json").read_text())
    assert payload["meta"]["config"]["task"] == "spectrum"
    assert len(payload["columns"]["energy"]) == 6


def test_wells_and_frequencies_tasks(tmp_path):
    profile = {"family": "asymmetric_cosine",
               "parameters": {"J0": 0.75, "b": 5.0, "r": 2}, "N": 400}
    out = tmp_path / "out"
    cfgfile = _write_config(tmp_path, {"profile": profile, "mode_index": 199})
    assert main(["wells", "--config", cfgfile, "--out", str(out)]) == 0
    _, names, rows = _read_csv(out / "wells.csv")
    assert len(rows) == 3
    cfgfile = _write_config(tmp_path, {"profile": profile, "mode_index": 199,
                                       "mode_band": [179, 219]}, "freq.json")
    assert main(["frequencies", "--config", cfgfile, "--out", str(out)]) == 0
    _, names, rows = _read_csv(out / "localization_counts.csv")
    counts = [int(r[1]) for r in rows]
    assert counts == [8, 22, 10]


def test_custom_profile_expressions(tmp_path):
    cfgfile = _write_config(tmp_path, {
        "profile": {"expressions": {"J": "exp(x)", "B": "2*exp(x)"},
                    "N": 50, "lattice_spacing": 0.02},
        "fillings": [0.3],
    })
    out = tmp_path / "out"
    assert main(["density", "--config", cfgfile, "--out", str(out)]) == 0
    assert (out / "density_M15.csv").exists()


# --- error paths -------------------------------------------------------------

def test_missing_config_file(tmp_path, capsys):
    assert main(["spectrum", "--config", str(tmp_path / "nope.json")]) == 1
    assert "config error" in capsys.readouterr().err


def test_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["spectrum", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_task_mismatch(tmp_path):
    cfgfile = _write_config(tmp_path, {
        "task": "density",
        "profile": {"family": "homogeneous", "parameters": {}, "N": 6},
    })
    assert main(["spectrum", "--config", cfgfile]) == 1


def test_bad_family_parameters(tmp_path):
    cfgfile = _write_config(tmp_path, {
        "profile": {"family": "krawtchouk", "parameters": {"q": 2.0}, "N": 10},
    })
    assert main(["spectrum", "--config", cfgfile]) == 1


def test_numerical_error_exit_code(tmp_path, capsys):
    # Envelope at an energy outside the spectrum: empty decomposition.
    cfgfile = _write_config(tmp_path, {
        "profile": {"family": "homogeneous", "parameters": {"J": 1.0, "B": 0.0},
                    "N": 20},
        "energy": 9.0,
    })
    assert main(["envelope", "--config", cfgfile, "--out", str(tmp_path / "o")]) == 2
    assert "numerical error" in capsys.readouterr().err


def test_overflowing_band_gap_is_numerical_error(tmp_path, capsys):
    # 4J^2 overflows: every WKB result would read 1/v = 0.
    cfgfile = _write_config(tmp_path, {
        "profile": {"family": "homogeneous", "parameters": {"J": 1e200}, "N": 20},
        "energy": 0.0,
    })
    assert main(["envelope", "--config", cfgfile, "--out", str(tmp_path / "o")]) == 2
    assert "numerical error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("task", ["wells", "frequencies", "envelope"])
def test_well_without_weight_is_numerical_error(tmp_path, capsys, task):
    # J underflows to 0 everywhere but at l/2: the one well has A^-2 = 0.
    cfgfile = _write_config(tmp_path, {
        "profile": {"family": "rainbow", "parameters": {"h": 1e308}, "N": 40},
        "energy": 0.0,
    })
    assert main([task, "--config", cfgfile, "--out", str(tmp_path / "o")]) == 2
    assert "numerical error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_unwritable_output_is_io_error(tmp_path, capsys):
    cfgfile = _write_config(tmp_path, {
        "profile": {"family": "homogeneous", "parameters": {"J": 1.0, "B": 0.0},
                    "N": 6},
    })
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["spectrum", "--config", cfgfile, "--out", str(taken)]) == 3
    assert "i/o error" in capsys.readouterr().err


@pytest.mark.parametrize("task, params", [
    ("density", {"fillings": [0.0]}),
    ("compare", {"fillings": [0.0]}),
    ("density", {"fillings": [1.5]}),
    ("density", {"M": [41]}),
    ("wells", {"mode_index": 400}),
    ("envelope", {"mode_index": 400}),
    ("frequencies", {"mode_index": 400}),
    ("envelope", {"mode_index": -1}),
    ("envelope", {"energy": 0.0, "mode_index": 40}),
    ("envelope", {"energy": 0.5, "mode_index": 5}),
    ("wells", {"energy": 0.5, "mode_index": 5}),
    ("frequencies", {"energy": 0.5, "mode_index": 5}),
    ("frequencies", {"mode_index": 20, "mode_band": [10, 41]}),
    ("density", {"fillings": ["a"]}),
    ("density", {"fillings": 0.5}),
    ("density", {"fillings": [float("nan")]}),
    ("compare", {"fillings": [float("inf")]}),
    ("density", {"M": [2.5]}),
    ("density", {"M": [True]}),
    ("envelope", {"mode_index": None}),
    ("envelope", {"mode_index": "3"}),
    ("wells", {"mode_index": True}),
    ("wells", {"mode_index": 3.0}),
    ("envelope", {"energy": "0.5"}),
    ("wells", {"energy": None}),
    ("frequencies", {"mode_index": 20, "mode_band": [10, "20"]}),
    ("frequencies", {"mode_index": 20, "mode_band": [10]}),
    ("frequencies", {"mode_index": 20, "mode_band": 5}),
    ("filling-curve", {"energies": ["a"]}),
    ("filling-curve", {"energy_grid": "x"}),
    ("filling-curve", {"energy_grid": {"count": "a"}}),
    ("filling-curve", {"energy_grid": {"min": None}}),
    ("density", {"fillings": [0.5], "M": [5]}),
    ("filling-curve", {"energies": [0.0], "energy_grid": {"count": 3}}),
    ("filling-curve", {"energy_grd": {"count": 3}}),
    ("filling-curve", {"energy_grid": {"cnt": 3}}),
    ("wells", {"energy": 0.0, "mode_band": [0, 5]}),
    ("filling-curve", {"energies": []}),
    ("filling-curve", {"energy_grid": {"count": 10**13}}),
    ("density", {"fillings": [1e308]}),
    ("density", {"fillings": [-1e308]}),
    ("compare", {"fillings": [1e308]}),
    ("compare", {"fillings": [-1e308]}),
    ("filling-curve", {"energy_grid": {"min": -1e308, "max": 1e308, "count": 3}}),
], ids=["density-empty", "compare-empty", "density-overfull", "density-M-above-N",
        "wells-mode-above-N", "envelope-mode-above-N", "frequencies-mode-above-N",
        "envelope-negative-mode", "envelope-energy-and-bad-mode",
        "envelope-energy-and-mode", "wells-energy-and-mode",
        "frequencies-energy-and-mode",
        "frequencies-band-above-N", "density-filling-string",
        "density-fillings-not-list", "density-filling-nan", "compare-filling-inf",
        "density-M-float", "density-M-bool", "envelope-mode-null",
        "envelope-mode-string", "wells-mode-bool", "wells-mode-float",
        "envelope-energy-string", "wells-energy-null", "frequencies-band-string",
        "frequencies-band-one-int", "frequencies-band-scalar",
        "filling-curve-energy-string", "filling-curve-grid-not-object",
        "filling-curve-count-string", "filling-curve-min-null",
        "density-fillings-and-M", "filling-curve-energies-and-grid",
        "filling-curve-grid-misspelt", "filling-curve-grid-unknown-key",
        "wells-mode-band", "filling-curve-energies-empty",
        "filling-curve-count-beyond-memory", "density-filling-overflows",
        "density-filling-overflows-below", "compare-filling-overflows",
        "compare-filling-overflows-below", "filling-curve-span-overflows"])
def test_out_of_range_input_is_config_error(tmp_path, capsys, task, params):
    cfgfile = _write_config(tmp_path, {
        "profile": {"family": "homogeneous", "parameters": {"J": 1.0, "B": 0.0},
                    "N": 40},
        **params,
    })
    assert main([task, "--config", cfgfile, "--out", str(tmp_path / "o")]) == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


_HOMOGENEOUS = {"family": "homogeneous", "parameters": {"J": 1.0, "B": 0.0}, "N": 40}


def _expressions(J):
    return {"expressions": {"J": J, "B": "0"}, "N": 40}


# Profiles past memory (10**13 sites is 72.8 TiB, refused at allocation) or
# past the float range, in N, in a parameter or in the length N * a.
_OVERSIZED_PROFILES = [
    ("spectrum", {"profile": {**_HOMOGENEOUS, "N": 10**13}}),
    ("spectrum", {"profile": {**_HOMOGENEOUS, "N": 10**400}}),
    ("spectrum", {"profile": {"family": "asymmetric_cosine", "N": 40,
                              "parameters": {"r": 10**400}}}),
    ("density", {"profile": {**_HOMOGENEOUS, "lattice_spacing": 1e308},
                 "fillings": [0.5]}),
    ("density", {"profile": {"family": "rainbow", "parameters": {"h": 1.0}, "N": 40,
                             "lattice_spacing": 1e307}, "fillings": [0.5]}),
    ("density", {"profile": {**_expressions("1"), "lattice_spacing": 1e307},
                 "fillings": [0.5]}),
    ("spectrum", {"profile": {"arrays": {"J": [1.0], "B": [0.0, 0.0]},
                              "lattice_spacing": 1e308}}),
]


@pytest.mark.parametrize("task, config", [
    ("spectrum", {"profile": {**_HOMOGENEOUS, "N": 10.7}}),
    ("spectrum", {"profile": {**_HOMOGENEOUS, "N": "abc"}}),
    ("spectrum", {"profile": {**_HOMOGENEOUS, "N": [3]}}),
    ("spectrum", {"profile": {**_HOMOGENEOUS, "lattice_spacing": "x"}}),
    ("spectrum", {"profile": {**_HOMOGENEOUS, "family": ["cosine"]}}),
    ("spectrum", {"profile": {**_HOMOGENEOUS, "parameters": {"J": True}}}),
    ("spectrum", {"profile": {**_HOMOGENEOUS, "parameters": {"J": "x"}}}),
    ("spectrum", {"profile": {**_HOMOGENEOUS, "parameters": {"B": "x"}}}),
    ("spectrum", {"profile": {**_HOMOGENEOUS, "parameters": {"J": [1, 2]}}}),
    ("spectrum", {"profile": {"family": "krawtchouk", "N": 40,
                              "parameters": {"q": 0.25, "rescaled": "no"}}}),
    ("spectrum", {"profile": {"family": "asymmetric_cosine", "N": 40,
                              "parameters": {"b": "x"}}}),
    ("spectrum", {"profile": {"arrays": {"J": [1.0, "a"], "B": [0.0, 0.0, 0.0]}}}),
    ("spectrum", {"profile": 5}),
    ("spectrum", {"profile": {"path": 5}}),
    ("reproduce", {"targets": 5}),
    ("reproduce", {"targets": [["rainbow-density"]]}),
    ("spectrum", {"profile": _expressions("(" * 300 + "x" + ")" * 300)}),
    ("spectrum", {"profile": _expressions("-" * 300 + "x")}),
    ("spectrum", {"profile": _expressions("+".join(["x"] * 3000))}),
    ("density", {"profile": {**_HOMOGENEOUS, "N": 200, "parameters": {"J": -1.0}},
                 "M": [50]}),
    ("density", {"profile": {"expressions": {"J": "1.5-x", "B": "0"}, "N": 200,
                             "lattice_spacing": 0.01}, "M": [60]}),
    ("density", {"profile": {"expressions": {"J": "1", "B": "sqrt(1.995-x)"}, "N": 200,
                             "lattice_spacing": 0.01}, "M": [60]}),
    ("compare", {"profile": {**_HOMOGENEOUS, "N": 2}, "M": [1]}),
    ("reproduce", {"targets": ["homogeneous-density"], "figure": "homogeneous-density"}),
    ("reproduce", {"targets": []}),
    ("reproduce", {"profile": _HOMOGENEOUS, "targets": ["homogeneous-density"]}),
    ("spectrum", {"profile": {**_HOMOGENEOUS, "lattice_spcing": 2.0}}),
    ("spectrum", {"profile": {**_HOMOGENEOUS,
                              "arrays": {"J": [1.0, 1.0], "B": [0.0, 0.0, 0.0]}}}),
    ("spectrum", {"profile": {"arrays": {"J": [1.0, 1.0], "B": [0.0, 0.0, 0.0]},
                              "expressions": {"J": "1", "B": "0"}}}),
    *_OVERSIZED_PROFILES,
], ids=["N-float", "N-string", "N-list", "spacing-string", "family-list",
        "parameter-bool", "J-string", "B-string", "J-list", "rescaled-string",
        "b-string", "array-entry-string", "profile-scalar", "path-scalar",
        "targets-scalar", "targets-nested-list", "expression-300-parentheses",
        "expression-300-signs", "expression-3000-terms", "J-negative",
        "expression-J-negative", "expression-B-undefined", "compare-without-bulk",
        "targets-and-figure", "targets-empty", "reproduce-with-profile",
        "profile-key-misspelt", "family-and-arrays", "arrays-and-expressions",
        "N-beyond-memory", "N-beyond-float", "r-beyond-float", "family-length-inf",
        "rainbow-length-inf", "expression-length-inf", "arrays-length-inf"])
def test_malformed_profile_or_targets_is_config_error(tmp_path, capsys, task, config):
    cfgfile = _write_config(tmp_path, config)
    assert main([task, "--config", cfgfile, "--out", str(tmp_path / "o")]) == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_oversized_input_prints_no_traceback_or_warning(tmp_path):
    # A fresh interpreter, so stderr is what a user sees: Python warnings
    # and tracebacks are not intercepted as they are inside pytest.
    cases = [*_OVERSIZED_PROFILES,
             ("filling-curve", {"profile": _HOMOGENEOUS,
                                "energy_grid": {"count": 10**13}}),
             ("density", {"profile": _HOMOGENEOUS, "fillings": [1e308]}),
             ("compare", {"profile": _HOMOGENEOUS, "fillings": [-1e308]}),
             ("filling-curve", {"profile": _HOMOGENEOUS,
                                "energy_grid": {"min": -1e308, "max": 1e308,
                                                "count": 3}})]
    argvs = [[task, "--config", _write_config(tmp_path, config, f"c{i}.json"),
              "--out", str(tmp_path / "o")] for i, (task, config) in enumerate(cases)]
    script = ("import json, sys\nfrom fermichain.cli import main\n"
              "print([main(a) for a in json.loads(sys.argv[1])])")
    package_root = str(Path(fermichain.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.stdout.strip() == str([1] * len(cases))
    lines = done.stderr.splitlines()
    assert len(lines) == len(cases)
    assert all(line.startswith("config error: ") for line in lines)
    assert "Traceback" not in done.stderr and "Warning" not in done.stderr
    assert not (tmp_path / "o").exists()


def test_profile_path_record_holds_only_the_path(tmp_path, capsys):
    profile_file = tmp_path / "profile.json"
    profile_file.write_text(json.dumps(_HOMOGENEOUS))
    cfgfile = _write_config(tmp_path, {"profile": {"path": str(profile_file),
                                                   "family": "homogeneous"}})
    assert main(["spectrum", "--config", cfgfile, "--out", str(tmp_path / "o")]) == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_catalog_jobs_pass_the_config_rule(tmp_path):
    # Catalog jobs reach their runners without _load_config.
    assert set(cli._TASK_PARAMETERS) == set(cli.RUNNERS)
    args = argparse.Namespace(out=str(tmp_path / "o"), format="csv", deterministic=True)
    for jobs in cli._TARGETS.values():
        for job in jobs:
            args.config = _write_config(tmp_path, {"profile": job.profile, **job.params})
            cli._load_config(job.task, args)
            fermichain.profiles.from_config(job.profile)


def test_density_needs_continuum(tmp_path):
    cfgfile = _write_config(tmp_path, {
        "profile": {"arrays": {"J": [1.0, 1.0], "B": [0.0, 0.0, 0.0]}},
        "fillings": [0.5],
    })
    assert main(["density", "--config", cfgfile, "--out", str(tmp_path / "o")]) == 1


# --- reproduce ---------------------------------------------------------------

def test_catalog_has_all_targets():
    cat = reproduce_catalog()
    assert len(cat) >= 9
    assert "rainbow-density" in cat and "asymmetric-cosine-frequencies" in cat


def test_unknown_target_rejected(tmp_path):
    cfgfile = _write_config(tmp_path, {"targets": ["no-such-figure"]})
    assert main(["reproduce", "--config", cfgfile, "--out", str(tmp_path / "o")]) == 1


def test_reproduce_single_target(tmp_path):
    cfgfile = _write_config(tmp_path, {"targets": ["homogeneous-density"]})
    out = tmp_path / "out"
    assert main(["reproduce", "--config", cfgfile, "--out", str(out),
                 "--deterministic"]) == 0
    files = sorted(p.name for p in (out / "homogeneous-density").iterdir())
    assert files == ["density_M100.csv", "density_M200.csv"]
    _, names, _ = _read_csv(out / "homogeneous-density" / "density_M200.csv")
    assert "density_exact" in names and "density_wkb" in names


def test_profile_from_file_path(tmp_path):
    profile_file = tmp_path / "profile.json"
    profile_file.write_text(json.dumps(
        {"family": "homogeneous", "parameters": {"J": 1.0, "B": 0.0}, "N": 8}))
    cfgfile = _write_config(tmp_path, {"profile": {"path": str(profile_file)}})
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfgfile, "--out", str(out)]) == 0
    _, _, rows = _read_csv(out / "spectrum.csv")
    assert len(rows) == 8
    cfgfile = _write_config(tmp_path, {"profile": {"path": str(tmp_path / "x.json")}})
    assert main(["spectrum", "--config", cfgfile, "--out", str(out)]) == 1


def test_reproduce_figure_alias(tmp_path):
    cfgfile = _write_config(tmp_path, {"figure": "rainbow-density"})
    out = tmp_path / "out"
    assert main(["reproduce", "--config", cfgfile, "--out", str(out),
                 "--deterministic"]) == 0
    _, names, _ = _read_csv(out / "rainbow-density" / "density_M50.csv")
    assert "density_exact" in names and "density_wkb" in names


def test_output_header_echoes_tolerances(tmp_path):
    cfgfile = _write_config(tmp_path, {
        "profile": {"family": "homogeneous", "parameters": {"J": 1.0, "B": 0.0},
                    "N": 6},
    })
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfgfile, "--out", str(out)]) == 0
    header, _, _ = _read_csv(out / "spectrum.csv")
    assert any("tolerances" in h for h in header)
    assert any("config" in h for h in header)


def test_header_tolerances_are_the_numerics_constants(tmp_path):
    cfgfile = _write_config(tmp_path, {
        "profile": {"family": "homogeneous", "parameters": {"J": 1.0, "B": 0.0},
                    "N": 6},
    })
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfgfile, "--out", str(out),
                 "--format", "json"]) == 0
    meta = json.loads((out / "spectrum.json").read_text())["meta"]
    assert meta["tolerances"] == {
        "quadrature": {"abs": numerics.QUAD_ABS_TOL, "rel": numerics.QUAD_REL_TOL},
        "root": {"abs": numerics.ROOT_ABS_TOL, "rel": numerics.ROOT_REL_TOL},
    }
    assert numerics.ROOT_REL_TOL == 4 * np.finfo(float).eps


def test_output_header_carries_package_version(tmp_path):
    cfgfile = _write_config(tmp_path, {
        "profile": {"family": "homogeneous", "parameters": {"J": 1.0, "B": 0.0},
                    "N": 6},
    })
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfgfile, "--out", str(out)]) == 0
    header, _, _ = _read_csv(out / "spectrum.csv")
    assert f"# version: fermichain {fermichain.__version__}" in header


def test_reproduce_full_catalog_runs_fast(tmp_path):
    # Every target must finish end-to-end at N = 400 in well under a
    # minute; the whole catalog takes a few seconds in practice.
    import time

    from fermichain.cli import REPRODUCE_TARGETS, RunConfig

    expected = {
        "homogeneous-density": {"density_M100", "density_M200"},
        "krawtchouk-density": {"density_M50", "density_M200", "density_M350"},
        "krawtchouk-envelopes": {"envelope_nu0_125", "envelope_nu0_5",
                                 "envelope_nu0_875"},
        "rainbow-filling": {"filling_curve_h1", "filling_closed_h1",
                            "filling_curve_h10", "filling_closed_h10"},
        "rainbow-density": {"density_M50", "density_M160"},
        "rainbow-envelopes": {"envelope_mode50", "envelope_mode160"},
        "cosine-density": {"density_M40", "density_M160", "density_M240",
                           "density_M360"},
        "cosine-filling": {"filling_curve", "numax"},
        "asymmetric-cosine-density": {"density_M84", "density_M189", "density_M308"},
        "asymmetric-cosine-frequencies": {"frequencies", "localization_counts",
                                          "critical_fillings"},
    }
    assert sorted(REPRODUCE_TARGETS) == sorted(expected)
    out = tmp_path / "out"
    cfg = RunConfig(task="reproduce", profile={}, params={},
                    out_dir=out, fmt="csv", deterministic=True)
    for name, runner in REPRODUCE_TARGETS.items():
        t0 = time.perf_counter()
        paths = runner(cfg)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60, f"{name} took {elapsed:.1f}s"
        assert paths and all(p.exists() for p in paths), name
        assert sorted(p.name for p in (out / name).iterdir()) == \
            sorted(f"{stem}.csv" for stem in expected[name]), name
        assert len(paths) == len(expected[name]), name
        # both exact and WKB series somewhere in each target's output
        text = "".join(p.read_text() for p in paths)
        assert "exact" in text and ("wkb" in text or "envelope" in text), name
