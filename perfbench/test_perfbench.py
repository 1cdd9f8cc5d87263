"""Tests of the benchmark itself: seeded op lists, the checkers, the tracer.

Each checker is fed a correct result and a perturbed one; the perturbed
one must count as failed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from fermichain import analytic, cli, exact, profiles, wkb  # noqa: E402


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_same_op_list(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    assert cls(7, tmp_path).op_list_hash() == cls(7, tmp_path).op_list_hash()
    assert cls(7, tmp_path).op_list_hash() != cls(8, tmp_path).op_list_hash()


def test_rounds_are_balanced(tmp_path):
    el = workloads.ExactLarge(3, tmp_path)
    for k in range(3):
        combos = {(op["kind"], op["family"], op["N"]) for op in el.round(k)}
        assert len(combos) == len(el.round(k)) == 30
    ws = workloads.WkbSweep(3, tmp_path).round(0)
    kinds = [op["kind"] for op in ws]
    assert kinds.count("filling") == kinds.count("wells") == kinds.count("density") == 48
    assert kinds.count("invert") == kinds.count("wavefunction") == 12
    # each energy's three ops run back to back, filling first
    for i, op in enumerate(ws):
        if op["kind"] == "filling":
            assert [o["kind"] for o in ws[i:i + 3]] == ["filling", "wells", "density"]
            assert len({o["t"] for o in ws[i:i + 3]}) == 1


def test_spectrum_check_catches_shift():
    N = 60
    e, _ = analytic.homogeneous_spectrum(1.0, 0.0, N)
    fields = np.zeros(N)
    assert checks.check_spectrum("homogeneous", e, fields, e) == []
    assert checks.check_spectrum("homogeneous", e + 1e-6, fields, e)
    k = np.arange(N) / N
    lat, _ = profiles.make_builtin(profiles.Krawtchouk(0.25), N)
    got = exact.diagonalize(lat).energies
    assert checks.check_spectrum("krawtchouk", got, lat.fields, k) == []
    shifted = got.copy()
    shifted[N // 2] += 1e-6
    assert checks.check_spectrum("krawtchouk", shifted, lat.fields, k)


def test_density_check_catches_scaling():
    N, M = 80, 30
    rho = analytic.homogeneous_density_exact(1.0, 0.0, N, M)
    wkb_rho = np.clip(rho, 0, 1)
    assert checks.check_density(M, rho, wkb_rho, rho) == []
    assert checks.check_density(M, rho * (1 + 1e-6), wkb_rho, rho)
    assert checks.check_density(M, rho, wkb_rho + 0.7, rho)


def test_entanglement_check_catches_offset():
    lat, _ = profiles.make_builtin(profiles.Rainbow(1.0), 60)
    s = exact.diagonalize(lat)
    C = exact.correlation_matrix(s, exact.filled_state(s, 20))
    s1 = exact.entanglement_entropy(C, (0, 25))
    s2 = exact.entanglement_entropy(C, (25, 60))
    tr = float(np.trace(C.entries))
    assert checks.check_entanglement(20, tr, s1, s2) == []
    assert checks.check_entanglement(20, tr, s1 + 1e-6, s2)
    assert checks.check_entanglement(20, tr + 1e-6, s1, s2)


def test_wkb_checks_catch_perturbations():
    _, kraw = profiles.make_builtin(profiles.Krawtchouk(0.25), 200)
    nu = wkb.filling_fraction(kraw, 0.3)
    assert checks.check_filling("krawtchouk", 0.3, nu) == []
    assert checks.check_filling("krawtchouk", 0.3, nu + 1e-6)
    _, rain = profiles.make_builtin(profiles.Rainbow(1.0), 200)
    nu = wkb.filling_fraction(rain, -0.4)
    mirror = wkb.filling_fraction(rain, 0.4)
    closed = analytic.rainbow_filling(1.0, -0.4)
    assert checks.check_filling("rainbow", -0.4, nu, mirror, closed) == []
    assert checks.check_filling("rainbow", -0.4, nu + 1e-6, mirror, closed)
    assert checks.check_filling("rainbow", -0.4, nu, mirror + 1e-6, None)

    wd = wkb.wells(rain, -0.4)
    f = wkb.well_frequencies(wd)
    assert checks.check_wells(len(wd.wells), f) == []
    assert checks.check_wells(len(wd.wells), f * (1 + 1e-9))
    assert checks.check_wells(0, np.array([]))

    e = wkb.invert_filling(rain, 0.3)
    assert checks.check_inversion(0.3, wkb.filling_fraction(rain, e)) == []
    assert checks.check_inversion(0.3, wkb.filling_fraction(rain, e + 1e-4))

    assert checks.check_profile_density(np.array([0.0, 0.5, 1.0])) == []
    assert checks.check_profile_density(np.array([0.2, 1.01]))

    grid = np.arange(1, 201, dtype=float)
    x, psi = wkb.wkb_wavefunction(rain, -0.4, wd, grid)
    x2, env = wkb.envelope(rain, -0.4, wd, grid)
    assert checks.check_wavefunction(x, psi, x2, env) == []
    assert checks.check_wavefunction(x, psi, x2, env * 0.9)


def test_kernel_check_flags_known_defect_families_only():
    assert checks.check_kernel("homogeneous", 0.25, 0.251) == ([], False)
    fails, known = checks.check_kernel("rainbow", 0.2157, 0.2537)
    assert fails and known
    fails, known = checks.check_kernel("homogeneous", 0.2157, 0.2537)
    assert fails and not known
    fails, known = checks.check_kernel("rainbow", float("nan"), 0.25)
    assert fails and not known


def test_catalog_reference_matches_and_catches_perturbation(tmp_path):
    ref = json.loads(workloads.REFERENCE.read_text())
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"targets": ["krawtchouk-envelopes"]}))
    assert cli.main(["reproduce", "--config", str(cfg), "--out", str(tmp_path),
                     "--deterministic"]) == 0
    target = tmp_path / "krawtchouk-envelopes"
    assert checks.check_catalog_target(target, ref["krawtchouk-envelopes"]) == []
    cols = checks.read_table(target / "envelope_nu0_5.csv")
    table_ref = ref["krawtchouk-envelopes"]["envelope_nu0_5.csv"]
    assert checks.check_table("t", cols, table_ref) == []
    bumped = {**cols, "envelope_plus": cols["envelope_plus"] * (1 + 1e-6)}
    assert checks.check_table("t", bumped, table_ref)
    bumped = {**cols, "mode_exact": cols["mode_exact"] + 1e-8}
    assert checks.check_table("t", bumped, table_ref)
    (target / "envelope_nu0_5.csv").unlink()
    assert checks.check_catalog_target(target, ref["krawtchouk-envelopes"])


def test_tracer_self_times_sum_to_root_time_and_uninstall_restores():
    import fermichain

    _, cont = profiles.make_builtin(profiles.AsymmetricCosine(), 100)
    originals = (wkb.integrate, wkb.filling_fraction, cli.RUNNERS["density"])
    tr = tracing.Tracer()
    tr.install(fermichain)
    try:
        tr.op = 1
        e = wkb.invert_filling(cont, 0.4)
        tr.op = -1
        wkb.filling_fraction(cont, e)          # outside an op: not recorded
    finally:
        tr.uninstall()
    assert (wkb.integrate, wkb.filling_fraction, cli.RUNNERS["density"]) == originals
    s = tr.summary(first_op=1)
    calls, ms, _ = s.stats("wkb.invert_filling")
    assert calls == 1
    ff_calls = s.stats("wkb.filling_fraction")[0]
    assert ff_calls == s.child_calls("wkb.invert_filling", "wkb.filling_fraction") > 10
    total_self = sum(s.layer_self_ms(layer) for layer in tracing.LAYERS)
    assert total_self == pytest.approx(1e3 * s.root_time, rel=1e-9)
    assert ms == pytest.approx(1e3 * s.root_time, rel=1e-9)


def test_traced_run_emits_every_per_layer_metric():
    import fermichain

    tr = tracing.Tracer()
    tr.install(fermichain)
    tr.uninstall()
    rec = {"s": 1.0, "hits": 2, "misses": 1, "files": 0, "bytes": 0}
    produced = worker.layer_metrics(tr, [rec], [rec])
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in produced]
    assert missing == []


def test_failures_next_to_critical_energies_are_known_defects(tmp_path):
    ws = workloads.WkbSweep(1, tmp_path)
    ws.setup(sys.modules["fermichain"])
    kraw = ws.pairs[("krawtchouk", 400)]
    asym = ws.pairs[("asymmetric_cosine", 400)]
    op = {"profile": "krawtchouk", "N": 400, "kind": "wells", "t": 0.0}
    assert ws.known_defect(op, (*kraw, 0.2495))     # turning point at the chain end
    assert ws.known_defect(op, (*kraw, 0.7508))
    assert not ws.known_defect(op, (*kraw, 0.3))
    op = {**op, "profile": "asymmetric_cosine"}
    assert ws.known_defect(op, (*asym, 4.805441))   # tangent turning points
    assert not ws.known_defect(op, (*asym, 4.7))
    assert not ws.known_defect({**op, "kind": "invert"}, (*asym, None))
