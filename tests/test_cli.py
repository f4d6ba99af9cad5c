import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from realclock_qm import cli
from realclock_qm.cli import RunResult, main, write_csv
from realclock_qm.config import CONFIG_SCHEMA, apply_override, derive_rng, validate_config
from realclock_qm import ConfigError, fundamental_decay_factor


def run_cli(*args):
    return main(list(args))


def write_config(tmp_path, name, document):
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return str(path)


def read_rows(path):
    lines = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        if "," not in line:
            continue
        cells = line.split(",")
        if cells == header or not all(_is_float(c) for c in cells):
            break  # second table
        rows.append([float(c) for c in cells])
    return header, rows


def _is_float(cell):
    try:
        float(cell)
        return True
    except ValueError:
        return False


EVOLVE_DOC = {
    "command": "evolve",
    "system": {"preset": "qubit", "omega": 1.0},
    "initial_state": {"preset": "plus"},
    "clock": {"kind": "expansion", "sigma": 0.25},
    "evolution": {"step": 1e-3, "t_final": 1.0},
    "seed": 3,
}

COMMENSURATE = {
    "couplings": [0.3 * k for k in range(1, 7)],
    "alphas": [[1 / math.sqrt(2), 0.0]] * 6,
    "betas": [[1 / math.sqrt(2), 0.0]] * 6,
    "system_amplitudes": [[1 / math.sqrt(2), 0.0], [1 / math.sqrt(2), 0.0]],
}


class TestEvolveCommand:
    def test_unitary_run_keeps_purity(self, tmp_path):
        doc = dict(EVOLVE_DOC, clock={"kind": "ideal"})
        cfg = write_config(tmp_path, "c.json", doc)
        out = tmp_path / "out.csv"
        assert run_cli("evolve", "--config", cfg, "--out", str(out)) == 0
        header, rows = read_rows(out)
        purity = header.index("purity")
        assert all(abs(r[purity] - 1.0) <= 1e-9 for r in rows)

    def test_constant_sigma_endpoint(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", EVOLVE_DOC)
        out = tmp_path / "out.csv"
        assert run_cli("evolve", "--config", cfg, "--out", str(out)) == 0
        header, rows = read_rows(out)
        re_i = header.index("re_rho_0_1")
        im_i = header.index("im_rho_0_1")
        final = math.hypot(rows[-1][re_i], rows[-1][im_i])
        assert abs(final - 0.5 * math.exp(-0.25)) <= 1e-8

    def test_malformed_config_names_key(self, tmp_path, capsys):
        doc = dict(EVOLVE_DOC, clock={"kind": "sundial"})
        cfg = write_config(tmp_path, "c.json", doc)
        assert run_cli("evolve", "--config", cfg, "--out", str(tmp_path / "o.csv")) == 2
        assert "clock" in capsys.readouterr().err

    def test_numeric_failure_exit_code(self, tmp_path):
        doc = dict(EVOLVE_DOC, evolution={"step": 0.2, "t_final": 1.0},
                   system={"preset": "qubit", "omega": 10.0})
        cfg = write_config(tmp_path, "c.json", doc)
        assert run_cli("evolve", "--config", cfg, "--out", str(tmp_path / "o.csv")) == 3

    def test_io_failure_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", EVOLVE_DOC)
        missing = tmp_path / "no" / "such" / "dir" / "o.csv"
        assert run_cli("evolve", "--config", cfg, "--out", str(missing)) == 4

    @pytest.mark.parametrize("override", [
        "system.omega=NaN", "evolution.step=NaN", "evolution.t_final=Infinity",
    ])
    def test_non_finite_override_is_config_error(self, tmp_path, capsys, override):
        cfg = write_config(tmp_path, "c.json", EVOLVE_DOC)
        out = tmp_path / "o.csv"
        assert run_cli("evolve", "--config", cfg, "--out", str(out), "--set", override) == 2
        err = capsys.readouterr().err
        assert override.split("=")[0] in err and len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_set_override(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", EVOLVE_DOC)
        out = tmp_path / "o.csv"
        assert run_cli("evolve", "--config", cfg, "--out", str(out),
                       "--set", "clock.sigma=0.5", "--set", "evolution.t_final=2.0") == 0
        header, rows = read_rows(out)
        assert rows[-1][0] == pytest.approx(2.0)
        re_i, im_i = header.index("re_rho_0_1"), header.index("im_rho_0_1")
        final = math.hypot(rows[-1][re_i], rows[-1][im_i])
        assert abs(final - 0.5 * math.exp(-0.5 * 2.0)) <= 1e-8


class TestZurekCommand:
    def _doc(self, **extra):
        zurek = dict(COMMENSURATE, horizon=3 * math.pi / 0.3, n_samples=2001,
                     t_planck=0.05, **extra)
        return {"command": "zurek", "zurek": zurek, "seed": 1}

    def test_initial_row_full_coherence(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", self._doc())
        out = tmp_path / "o.csv"
        assert run_cli("zurek", "--config", cfg, "--out", str(out)) == 0
        header, rows = read_rows(out)
        assert rows[0][header.index("abs_z_ideal")] == pytest.approx(1.0)
        assert rows[0][header.index("abs_z_realclock")] == pytest.approx(1.0)

    def test_recurrence_table(self, tmp_path):
        doc = self._doc(recurrence={"threshold": 0.9, "modes": ["ideal", "realclock"],
                                    "n_samples": 20001})
        cfg = write_config(tmp_path, "c.json", doc)
        out = tmp_path / "o.csv"
        assert run_cli("zurek", "--config", cfg, "--out", str(out)) == 0
        text = out.read_text()
        assert "# table: exceedances" in text
        exc_lines = [l for l in text.splitlines() if l.startswith("ideal,")]
        t_star = math.pi / 0.3
        times = [float(l.split(",")[1]) for l in exc_lines]
        values = [float(l.split(",")[2]) for l in exc_lines]
        best = min(range(len(times)), key=lambda i: abs(times[i] - t_star))
        assert abs(times[best] - t_star) <= 1e-4
        assert values[best] >= 1.0 - 1e-9
        # the real-clock recurrence is suppressed below 0.5
        assert not any(l.startswith("realclock,") for l in text.splitlines())

    def test_brute_force_verification_runs(self, tmp_path):
        doc = self._doc(verify_brute_force=True)
        doc["zurek"]["n_samples"] = 101
        cfg = write_config(tmp_path, "c.json", doc)
        assert run_cli("zurek", "--config", cfg, "--out", str(tmp_path / "o.csv")) == 0

    def test_recurrence_table_is_byte_deterministic(self, tmp_path):
        doc = self._doc(recurrence={"threshold": 0.3, "modes": ["ideal", "realclock"],
                                    "n_samples": 20001})
        doc["zurek"]["t_planck"] = 0.01
        cfg = write_config(tmp_path, "c.json", doc)
        out = tmp_path / "o.csv"
        assert run_cli("zurek", "--config", cfg, "--out", str(out)) == 0
        first = out.read_bytes()
        lines = first.decode().splitlines()
        assert any(l.startswith("ideal,") for l in lines)
        assert any(l.startswith("realclock,") for l in lines)
        assert run_cli("zurek", "--config", cfg, "--out", str(out)) == 0
        assert out.read_bytes() == first

    def test_brute_force_over_atom_limit_is_numeric_failure(self, tmp_path, capsys):
        doc = {"command": "zurek",
               "zurek": {"random_bath": {"n_atoms": 15, "coupling_low": 0.1,
                                         "coupling_high": 1.0},
                         "horizon": 10.0, "n_samples": 101, "t_planck": 0.05,
                         "verify_brute_force": True}}
        cfg = write_config(tmp_path, "c.json", doc)
        out = tmp_path / "o.csv"
        assert run_cli("zurek", "--config", cfg, "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("numeric failure:") and "14 atoms" in err
        assert not out.exists()

    def test_random_bath_is_seed_deterministic(self, tmp_path):
        doc = {"command": "zurek",
               "zurek": {"random_bath": {"n_atoms": 5, "coupling_low": 0.1,
                                         "coupling_high": 1.5},
                         "horizon": 10.0, "n_samples": 101, "t_planck": 0.05}}
        cfg = write_config(tmp_path, "c.json", doc)
        out = tmp_path / "o.csv"
        assert run_cli("zurek", "--config", cfg, "--out", str(out), "--seed", "9") == 0
        first = out.read_bytes()
        assert run_cli("zurek", "--config", cfg, "--out", str(out), "--seed", "9") == 0
        assert out.read_bytes() == first


class TestCondprobCommand:
    def test_analytic_mode_matches_smeared_column(self, tmp_path):
        doc = {
            "command": "condprob",
            "system": {"preset": "qubit", "omega": 1.0},
            "initial_state": {"preset": "plus"},
            "clock": {"kind": "gaussian", "width": 0.7},
            "evolution": {"grid": {"t_min": -4.0, "t_max": 10.0, "n_points": 2001}},
            "condprob": {
                "mode": "analytic",
                "observable": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]],
                "queries": [
                    {"o_center": 1.0, "o_halfwidth": 0.5, "t_center": 3.0, "t_halfwidth": 0.01},
                    {"o_center": -1.0, "o_halfwidth": 0.5, "t_center": 2.0, "t_halfwidth": 0.01},
                ],
            },
        }
        cfg = write_config(tmp_path, "c.json", doc)
        out = tmp_path / "o.csv"
        assert run_cli("condprob", "--config", cfg, "--out", str(out)) == 0
        header, rows = read_rows(out)
        p, s = header.index("probability"), header.index("smeared_probability")
        for row in rows:
            assert abs(row[p] - row[s]) <= 1e-8
            assert -1e-8 <= row[p] <= 1 + 1e-8

    def test_observable_dimension_is_config_error(self, tmp_path, capsys):
        cfg = str(Path(__file__).resolve().parents[1] / "configs" / "condprob_analytic.json")
        eye3 = [[[1.0, 0.0] if i == j else [0.0, 0.0] for j in range(3)] for i in range(3)]
        out = tmp_path / "o.csv"
        code = run_cli("condprob", "--config", cfg, "--out", str(out),
                       "--set", f"condprob.observable={json.dumps(eye3)}")
        assert code == 2
        assert ("config key 'condprob.observable': dimension 3 does not match system 2"
                in capsys.readouterr().err)
        assert not out.exists()


class TestClockLimitsCommand:
    def test_report_row(self, tmp_path):
        doc = {"command": "clock-limits",
               "limits": {"omega": 1.0, "duration": 1.0, "t_planck": 1.0, "mass": 4.0}}
        cfg = write_config(tmp_path, "c.json", doc)
        out = tmp_path / "o.csv"
        assert run_cli("clock-limits", "--config", cfg, "--out", str(out)) == 0
        header, rows = read_rows(out)
        row = dict(zip(header, rows[0]))
        assert row["exponent"] == pytest.approx(1.0)
        assert row["decay_factor"] == pytest.approx(math.exp(-1.0))
        assert row["half_coherence_time"] == pytest.approx(math.log(2) ** 1.5)
        assert row["salecker_wigner_error"] == pytest.approx(0.5)

    def test_zero_frequency_never_decoheres(self, tmp_path):
        doc = {"command": "clock-limits",
               "limits": {"omega": 0.0, "duration": 1.0, "t_planck": 1.0}}
        cfg = write_config(tmp_path, "c.json", doc)
        out = tmp_path / "o.csv"
        assert run_cli("clock-limits", "--config", cfg, "--out", str(out)) == 0
        header, rows = read_rows(out)
        row = dict(zip(header, rows[0]))
        assert row["half_coherence_time"] == math.inf
        assert row["no_decoherence"] == 1.0
        assert row["decay_factor"] == 1.0


class TestSweepCommand:
    def _sweep_doc(self, n):
        return {
            "command": "sweep",
            "sweep": {"key": "system.omega", "min": 1.0, "max": 10.0, "n": n},
            "run": {
                "command": "evolve",
                "system": {"preset": "qubit", "omega": 1.0},
                "initial_state": {"preset": "plus"},
                "clock": {"kind": "fundamental", "t_planck": 0.01, "t_max": 20.0},
                "evolution": {"step": 0.01, "t_final": 8.0},
            },
            "seed": 5,
        }

    def test_decay_column_matches_closed_form(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", self._sweep_doc(10))
        out = tmp_path / "o.csv"
        assert run_cli("sweep", "--config", cfg, "--out", str(out)) == 0
        header, rows = read_rows(out)
        a, r = header.index("axis_value"), header.index("final_offdiag_ratio")
        for row in rows:
            assert row[r] == pytest.approx(
                fundamental_decay_factor(row[a], 8.0, 0.01), abs=1e-12
            )

    def test_degenerate_sweep_equals_single_run(self, tmp_path):
        from realclock_qm.cli import RUNNERS, summarize

        sweep_doc = self._sweep_doc(1)
        cfg = write_config(tmp_path, "c.json", sweep_doc)
        out = tmp_path / "o.csv"
        assert run_cli("sweep", "--config", cfg, "--out", str(out)) == 0
        header, rows = read_rows(out)

        single = dict(sweep_doc["run"], seed=5)
        single["system"] = dict(single["system"], omega=1.0)
        summary = summarize("evolve", RUNNERS["evolve"](single))
        assert rows[0][1:] == summary  # bit-exact float equality

    def test_worker_pools_agree(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, "c.json", self._sweep_doc(6))
        out = tmp_path / "o.csv"
        assert run_cli("sweep", "--config", cfg, "--out", str(out)) == 0
        serial = out.read_bytes()
        monkeypatch.setenv("REALCLOCK_QM_WORKERS", "4")
        assert run_cli("sweep", "--config", cfg, "--out", str(out)) == 0
        assert out.read_bytes() == serial

    @pytest.mark.parametrize("workers", ["1.5", "0", "many"])
    def test_bad_worker_count_is_config_error(self, tmp_path, monkeypatch, capsys, workers):
        cfg = write_config(tmp_path, "c.json", self._sweep_doc(2))
        out = tmp_path / "o.csv"
        monkeypatch.setenv("REALCLOCK_QM_WORKERS", workers)
        assert run_cli("sweep", "--config", cfg, "--out", str(out)) == 2
        assert "REALCLOCK_QM_WORKERS" in capsys.readouterr().err
        assert not out.exists()

    def test_child_failure_reports_axis_value(self, tmp_path, capsys):
        doc = {
            "command": "sweep",
            "sweep": {"key": "system.omega", "min": 1.0, "max": 100.0, "n": 3},
            "run": dict(EVOLVE_DOC, evolution={"step": 0.01, "t_final": 1.0}),
        }
        cfg = write_config(tmp_path, "c.json", doc)
        assert run_cli("sweep", "--config", cfg, "--out", str(tmp_path / "o.csv")) == 3
        assert "system.omega=" in capsys.readouterr().err

    @pytest.mark.parametrize("run, column, expected", [
        (dict(EVOLVE_DOC, initial_state={"preset": "basis0"}), "final_offdiag_ratio", math.nan),
        ({"command": "clock-limits", "limits": {"omega": 1.0, "duration": 1.0, "t_planck": 1.0}},
         "half_coherence_time", math.inf),
    ])
    def test_undefined_and_unbounded_summaries_are_written(self, tmp_path, run, column,
                                                           expected):
        # a state with no coherence has no offdiagonal ratio, and omega = 0
        # never reaches half coherence; both are written, not refused
        key = "system.omega" if run["command"] == "evolve" else "limits.omega"
        doc = {"command": "sweep", "sweep": {"key": key, "min": -1.0, "max": 1.0, "n": 3},
               "run": run}
        cfg = write_config(tmp_path, "c.json", doc)
        out = tmp_path / "o.csv"
        assert run_cli("sweep", "--config", cfg, "--out", str(out)) == 0
        header, rows = read_rows(out)
        assert len(rows) == 3
        middle = rows[1][header.index(column)]
        assert middle == expected or (math.isnan(expected) and math.isnan(middle))

    def test_sigma_sweep_reduces_to_unitary(self, tmp_path):
        doc = {
            "command": "sweep",
            "sweep": {"key": "clock.sigma", "min": 0.0, "max": 0.0, "n": 1},
            "run": dict(EVOLVE_DOC),
        }
        cfg = write_config(tmp_path, "c.json", doc)
        out = tmp_path / "o.csv"
        assert run_cli("sweep", "--config", cfg, "--out", str(out)) == 0
        header, rows = read_rows(out)
        assert rows[0][header.index("final_purity")] == pytest.approx(1.0, abs=1e-9)
        assert rows[0][header.index("final_offdiag_ratio")] == pytest.approx(1.0, abs=1e-9)


class TestDeterminismAndFormats:
    def test_repeated_run_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", EVOLVE_DOC)
        out = tmp_path / "o.csv"
        assert run_cli("evolve", "--config", cfg, "--out", str(out)) == 0
        first = out.read_bytes()
        assert run_cli("evolve", "--config", cfg, "--out", str(out)) == 0
        assert out.read_bytes() == first
        assert b"\r" not in first  # LF endings only

    def test_config_embedded_in_output(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", EVOLVE_DOC)
        out = tmp_path / "o.csv"
        run_cli("evolve", "--config", cfg, "--out", str(out))
        config_line = [l for l in out.read_text().splitlines() if l.startswith("# config:")]
        embedded = json.loads(config_line[0].removeprefix("# config: "))
        assert embedded["system"] == EVOLVE_DOC["system"]
        assert embedded["seed"] == 3

    def test_json_format_mirrors_rows(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", EVOLVE_DOC)
        out_csv = tmp_path / "o.csv"
        out_json = tmp_path / "o.json"
        run_cli("evolve", "--config", cfg, "--out", str(out_csv))
        run_cli("evolve", "--config", cfg, "--out", str(out_json), "--format", "json")
        header, rows = read_rows(out_csv)
        payload = json.loads(out_json.read_text())
        assert payload["columns"] == header
        assert len(payload["rows"]) == len(rows)
        assert payload["rows"][0]["purity"] == pytest.approx(rows[0][header.index("purity")])
        assert payload["config"]["system"] == EVOLVE_DOC["system"]

    def test_command_mismatch_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", EVOLVE_DOC)
        assert run_cli("zurek", "--config", cfg, "--out", str(tmp_path / "o.csv")) == 2

    def test_unknown_key_rejected_by_schema(self, tmp_path):
        doc = dict(EVOLVE_DOC, typo_section={"x": 1})
        cfg = write_config(tmp_path, "c.json", doc)
        assert run_cli("evolve", "--config", cfg, "--out", str(tmp_path / "o.csv")) == 2


class TestConfigHelpers:
    def test_schema_is_valid_jsonschema(self):
        import jsonschema

        jsonschema.Draft202012Validator.check_schema(CONFIG_SCHEMA)

    def test_apply_override_parses_json_values(self):
        doc = {}
        apply_override(doc, "a.b.c=2.5")
        apply_override(doc, "a.name=plain-string")
        assert doc == {"a": {"b": {"c": 2.5}, "name": "plain-string"}}

    def test_apply_override_requires_assignment(self):
        with pytest.raises(ConfigError):
            apply_override({}, "no-equals-sign")

    def test_derive_rng_splits_streams(self):
        a = derive_rng(7, "zurek_bath").normal(size=4)
        b = derive_rng(7, "zurek_bath").normal(size=4)
        c = derive_rng(7, "other").normal(size=4)
        assert np.allclose(a, b)
        assert not np.allclose(a, c)

    @pytest.mark.parametrize("document", [
        {"command": "evolve", "clock": {"kind": "bogus"}},
        {"command": "evolve", "evolution": {"step": -1.0}},
        {"command": "evolve", "system": {"values": []}},
        {"command": "bogus", "typo": 1},
    ])
    def test_validate_config_reports_jsonschema_best_match(self, document):
        import jsonschema

        with pytest.raises(jsonschema.ValidationError) as expected:
            jsonschema.validate(document, CONFIG_SCHEMA)
        with pytest.raises(ConfigError) as got:
            validate_config(document)
        assert expected.value.message in str(got.value)

    @pytest.mark.parametrize("value, path", [
        (float("nan"), "system.omega"),
        (float("inf"), "system.omega"),
        ([1.0, float("-inf")], "system.values.1"),
    ])
    def test_validate_config_rejects_non_finite(self, value, path):
        key = path.split(".")[1]
        with pytest.raises(ConfigError, match=f"'{path}': must be a finite number"):
            validate_config({"command": "evolve", "system": {"preset": "diag", key: value}})

    def test_cli_import_does_not_load_scipy(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        subprocess.run(
            [sys.executable, "-c",
             "import realclock_qm.cli, sys; assert 'scipy' not in sys.modules"],
            env=env, check=True,
        )

    def test_cli_import_loads_neither_jsonschema_nor_process_pool(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        loaded = subprocess.run(
            [sys.executable, "-c",
             "import realclock_qm.cli, sys; print(' '.join(m for m in sys.modules "
             "if m.split('.')[0] == 'jsonschema' or m == 'concurrent.futures.process'))"],
            env=env, check=True, capture_output=True, text=True,
        ).stdout.split()
        assert loaded == []

    def test_validate_config_names_offending_key(self):
        with pytest.raises(ConfigError, match="clock.kind"):
            validate_config({"command": "evolve", "clock": {"kind": "bogus"}})


def test_unexpected_exception_is_one_line_numeric_failure(tmp_path, capsys, monkeypatch):
    def broken(document):
        raise ValueError("planted failure")

    monkeypatch.setitem(cli.RUNNERS, "evolve", broken)
    cfg = write_config(tmp_path, "c.json", EVOLVE_DOC)
    out = tmp_path / "o.csv"
    assert run_cli("evolve", "--config", cfg, "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert err == "numeric failure: ValueError: planted failure\n"
    assert not out.exists()


@pytest.mark.parametrize("command, document", [
    ("evolve", EVOLVE_DOC),
    ("zurek", {"command": "zurek", "seed": 1,
               "zurek": dict(COMMENSURATE, horizon=3 * math.pi / 0.3, n_samples=2001,
                             t_planck=0.01,
                             recurrence={"threshold": 0.3, "n_samples": 2001})}),
])
def test_json_output_of_array_rows_equals_list_rows(tmp_path, command, document):
    cfg = write_config(tmp_path, "c.json", document)
    out = tmp_path / "o.json"
    assert run_cli(command, "--config", cfg, "--out", str(out), "--format", "json") == 0
    resolved = json.loads(out.read_text())["config"]
    result = cli.RUNNERS[command](resolved)
    assert isinstance(result.rows, np.ndarray)
    as_lists = RunResult(columns=result.columns, rows=result.rows.tolist(),
                         tables=result.tables)
    reference = tmp_path / "reference.json"
    cli.write_json(str(reference), resolved, as_lists)
    assert out.read_bytes() == reference.read_bytes()


def test_write_csv_matches_per_cell_formatter(tmp_path):
    def format_cell(value):  # the writer's former per-cell rule
        if isinstance(value, str):
            return value
        return f"{float(value):.16e}"

    edge = [-0.0, 5e-324, 1.7976931348623157e308, float("nan"), float("inf"),
            -float("inf"), 7, True, np.float64(-2.5e-300)]
    columns = [f"c{i}" for i in range(len(edge))]
    rows = [edge, [float(i) / 3.0 for i in range(len(edge))]]
    table_rows = [["ideal", 1.5, np.float64(0.1)], ["realclock", -0.0, 2],
                  ["ideal", 5e-324, float("nan")]]
    result = RunResult(columns=columns, rows=rows,
                       tables=[("mixed", ["mode", "t", "abs_z"], table_rows),
                               ("empty", ["a", "b"], [])])
    document = {"command": "zurek", "seed": 0}

    expected = ["# realclock-qm output", "# config: " + json.dumps(document, sort_keys=True),
                ",".join(columns)]
    expected += [",".join(format_cell(v) for v in row) for row in rows]
    for name, cols, trows in result.tables:
        expected += ["", f"# table: {name}", ",".join(cols)]
        expected += [",".join(format_cell(v) for v in row) for row in trows]
    out = tmp_path / "o.csv"
    write_csv(str(out), document, result)
    assert out.read_bytes() == ("\n".join(expected) + "\n").encode()
