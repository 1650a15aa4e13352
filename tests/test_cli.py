import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from relsim import aodv
from relsim.cli import (
    CSV_HEADER,
    main,
    summarize,
    summary_rows,
    sweep_records,
    t_quantile,
    write_csv,
)
from relsim.metrics import RunCollector
from relsim.runner import RunRecord
from relsim.scenario import SCHEMES, ScenarioConfig


def _record(scheme="proposed", blackholes=0, seed=1, **kwargs):
    values = dict(
        scenario="t", scheme=scheme, blackholes=blackholes, seed=seed,
        throughput_pct=100.0, loss_pct=0.0, delay_s=0.01, mrr=1.0,
        vet_msgs=8, untrusted_paths=0, starved_flows=0,
    )
    values.update(kwargs)
    return RunRecord(**values)


SMALL = dict(nodes=16, flows=3, duration=10.0, seed=7, radio_range=300.0,
             area_side=600.0)


def test_single_record_writes_header_plus_row(tmp_path):
    out = tmp_path / "one.csv"
    write_csv([_record()], out)
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2
    assert lines[1].startswith("t,proposed,0,1,100.000000,0.000000,")


def test_write_csv_is_byte_deterministic(tmp_path):
    records = [_record(seed=s) for s in (3, 1, 2)]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(records, a)
    write_csv(records, b)
    assert a.read_bytes() == b.read_bytes()


def test_rows_sorted_by_scheme_blackholes_seed(tmp_path):
    import random

    records = [
        _record(scheme=sch, blackholes=b, seed=s)
        for sch in ("undefended", "baseline", "proposed")
        for b in (2, 0, 1)
        for s in (5, 3)
    ]
    random.Random(4).shuffle(records)
    out = tmp_path / "sorted.csv"
    write_csv(records, out)
    rows = out.read_text().splitlines()[1:]
    keys = [(r.split(",")[1], int(r.split(",")[2]), int(r.split(",")[3])) for r in rows]
    assert keys == sorted(keys)


def test_empty_records_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_csv([], tmp_path / "nope.csv")


def test_sweep_covers_every_triple_once():
    base = ScenarioConfig(**SMALL).validate()
    records = sweep_records(base, [0, 1, 2], [7, 8], ["undefended", "proposed"])
    assert len(records) == 3 * 2 * 2
    triples = {(r.scheme, r.blackholes, r.seed) for r in records}
    assert len(triples) == len(records)


def test_summary_means_recomputable_from_rows():
    records = [
        _record(seed=1, throughput_pct=90.0, delay_s=0.010),
        _record(seed=2, throughput_pct=100.0, delay_s=0.030),
    ]
    summary = summarize(records)
    mean, half = summary[("proposed", 0)]["throughput_pct"]
    assert mean == 95.0
    assert half > 0.0
    mean_delay, _ = summary[("proposed", 0)]["delay_s"]
    assert abs(mean_delay - 0.020) < 1e-12


def test_summary_excludes_nan_and_failed_runs():
    records = [
        _record(seed=1, delay_s=0.010),
        _record(seed=2, delay_s=math.nan),
        _record(seed=3, failed=True),
    ]
    summary = summarize(records)
    mean, _ = summary[("proposed", 0)]["delay_s"]
    assert mean == 0.010


def test_summary_rows_appended_after_data(tmp_path):
    records = [_record(seed=s) for s in (1, 2)]
    out = tmp_path / "sum.csv"
    write_csv(records, out, summaries=summary_rows(records))
    lines = out.read_text().splitlines()
    assert lines[-2].startswith("summary_mean,proposed,0,2,")
    assert lines[-1].startswith("summary_ci95,proposed,0,2,")


def test_cli_run_roundtrip(tmp_path, capsys):
    out = tmp_path / "run.csv"
    args = ["run", "--out", str(out)]
    for key, value in SMALL.items():
        args += [f"--{key}", str(value)]
    assert main(args) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == CSV_HEADER
    assert out.read_text().splitlines()[0] == CSV_HEADER


def test_cli_rejects_bad_config(capsys):
    assert main(["run", "--nodes", "1"]) == 1
    assert "config error" in capsys.readouterr().err


def test_cli_run_rejects_more_nodes_than_rng_streams_before_any_run(capsys, monkeypatch):
    monkeypatch.setattr("relsim.cli.run_scenario", lambda cfg: pytest.fail("a run started"))
    assert main(["run", "--nodes", "65537"]) == 1
    assert "config error: nodes: at most 65536" in capsys.readouterr().err


@pytest.mark.parametrize("key, raw", [("duration", "inf"), ("duration", "nan"),
                                      ("packet_rate", "nan"), ("duration", "1e308"),
                                      ("packet_rate", "1e308"), ("link_delay_ms", "1e306"),
                                      ("link_jitter_ms", "1e306")])
def test_cli_run_rejects_non_finite_floats(key, raw, capsys):
    args = ["run", "--nodes", "10", "--area_side", "300", "--flows", "1", f"--{key}", raw]
    assert main(args) == 1
    assert f"config error: {key}: must be finite" in capsys.readouterr().err


def test_cli_run_rejects_sub_microsecond_link_delay(capsys):
    args = ["run", "--nodes", "10", "--area_side", "300", "--flows", "1"]
    assert main([*args, "--link_delay_ms", "0.0004"]) == 1
    assert "config error: link_delay_ms: must be at least 1 microsecond" in capsys.readouterr().err
    assert main([*args, "--link_jitter_ms", "0.0004"]) == 1
    err = capsys.readouterr().err
    assert "config error: link_jitter_ms: must be 0 or at least 1 microsecond" in err


def test_cli_rejects_unknown_scheme_in_list(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["compare", "--schemes", "proposed,wizardry", "--out", str(out)]) == 1


@pytest.mark.parametrize(
    "command", [["compare"], ["sweep", "--max-blackholes", "1"]], ids=["compare", "sweep"]
)
def test_cli_rejects_duplicate_scheme_in_list(tmp_path, capsys, command):
    """A repeated scheme would run every config twice and count each run
    twice in its summary group."""
    out = tmp_path / "x.csv"
    args = [*command, "--nodes", "12", "--area_side", "300", "--flows", "2",
            "--duration", "2", "--seeds", "2", "--schemes", "proposed,baseline,proposed",
            "--out", str(out)]
    assert main(args) == 1
    assert "config error: scheme: duplicate scheme 'proposed'" in capsys.readouterr().err
    assert not out.exists()


def test_cli_run_failure_exit_code(tmp_path, capsys):
    args = ["run", "--nodes", "12", "--flows", "20", "--blackholes", "8",
            "--duration", "5", "--seed", "1"]
    assert main(args) == 2


def test_cli_run_failure_writes_its_nan_row_to_out(tmp_path, capsys):
    """A failed run writes the header and its nan row to --out, as sweep
    and compare do, and still exits 2: three nodes 100 km apart never
    connect."""
    out = tmp_path / "out.csv"
    assert main(["run", "--nodes", "3", "--area_side", "100000", "--out", str(out)]) == 2
    assert "run failed: no connected topology" in capsys.readouterr().err
    header, row = out.read_text().splitlines()
    assert header == CSV_HEADER
    assert row.split(",")[1:] == ["proposed", "0", "1", *["nan"] * 4, "0", "0", "0"]


def _exit_code(args: list[str]) -> int:
    """The status ``relsim`` exits with: ``main``'s return value, or the
    code of the ``SystemExit`` that argparse raises."""
    try:
        return main(args)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("args, message", [
    (["sweep", "--seeds", "abc"], "argument --seeds: invalid int value: 'abc'"),
    (["run", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
    (["run", "--scheme", "nope"], "config error: scheme: must be one of"),
], ids=["bad-int", "unknown-flag", "unknown-scheme"])
def test_cli_usage_errors_exit_1(args, message, tmp_path, capsys, monkeypatch):
    """A usage error is a configuration error, exit 1, not the run-failure
    code 2 argparse would use; an unknown scheme is reported by
    ``ScenarioConfig.validate`` like any other bad key, and -h exits 0."""
    monkeypatch.setattr("relsim.cli.run_scenario", lambda cfg: pytest.fail("a run started"))
    out = tmp_path / "x.csv"
    assert _exit_code([*args, "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()
    assert _exit_code([args[0], "-h"]) == 0


def test_sweep_isolates_failed_runs_and_exits_2(tmp_path, capsys, monkeypatch):
    """With black-hole drops left uncounted the ledger check fails each run
    that loses data to a hole; those runs become nan rows, every other row
    is still written, and the sweep exits 2."""
    monkeypatch.setattr(RunCollector, "on_blackhole_drop", lambda self, pkt: None)
    out = tmp_path / "sweep.csv"
    args = ["sweep", "--max-blackholes", "2", "--nodes", "20", "--duration", "5",
            "--seeds", "2", "--out", str(out)]
    assert main(args) == 2
    warned = {
        re.search(r"scheme=(\w+) blackholes=(\d+) seed=(\d+)", line).groups()
        for line in capsys.readouterr().err.splitlines()
        if line.startswith("warning: run failed")
    }
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]
            if not line.startswith("summary")]
    assert len(rows) == 3 * 3 * 2
    nan_rows = {tuple(row[1:4]) for row in rows if row[4] == "nan"}
    # only the undefended scheme routes data into the holes on these seeds
    assert warned == nan_rows == {
        ("undefended", str(holes), str(seed)) for holes in (1, 2) for seed in (1, 2)
    }


def test_sweep_isolates_a_crashing_run_and_exits_2(tmp_path, capsys, monkeypatch):
    """A run that raises something other than ``SimulationError`` becomes
    one failed nan row with an ``internal error`` warning; every other row
    is still written, and the sweep exits 2."""
    handle_rreq = aodv.handle_rreq

    def crashing(node, pkt):
        if (node.sim.cfg.scheme, node.sim.cfg.seed) == ("proposed", 8):
            raise KeyError("lost table")
        handle_rreq(node, pkt)

    monkeypatch.setattr(aodv, "handle_rreq", crashing)
    out = tmp_path / "sweep.csv"
    args = ["sweep", "--max-blackholes", "0", "--nodes", "20", "--duration", "5",
            "--seed", "7", "--seeds", "2", "--out", str(out)]
    assert main(args) == 2
    warnings = [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("warning: run failed")]
    assert warnings == [
        "warning: run failed (scheme=proposed blackholes=0 seed=8): "
        "internal error: KeyError: 'lost table'"
    ]
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]
            if not line.startswith("summary")]
    assert sorted(tuple(row[1:4]) for row in rows) == [
        (scheme, "0", str(seed)) for scheme in sorted(SCHEMES) for seed in (7, 8)
    ]
    assert [tuple(row[1:4]) for row in rows if row[4] == "nan"] == [("proposed", "0", "8")]


@pytest.mark.parametrize("name, content", [
    ("missing.cfg", None), (".", None), ("latin1.cfg", "# caf\xe9\n".encode("latin-1")),
])
def test_cli_unreadable_config_file_is_a_config_error(name, content, tmp_path, capsys):
    """A missing file, a directory and a non-UTF-8 file each exit 1 naming
    the file."""
    path = tmp_path / name
    if content is not None:
        path.write_bytes(content)
    assert main(["run", "--config", str(path)]) == 1
    assert f"config error: {path}: cannot read" in capsys.readouterr().err


def test_cli_config_file_with_a_repeated_key_is_a_config_error(tmp_path, capsys, monkeypatch):
    """A second ``seed`` line would silently override the first: the file
    is rejected before any run."""
    monkeypatch.setattr("relsim.cli.run_scenario", lambda cfg: pytest.fail("a run started"))
    path = tmp_path / "twice.cfg"
    path.write_text("seed = 3\n# the same key again\nseed = 5\n")
    assert main(["run", "--config", str(path)]) == 1
    assert "config error: line 3: duplicate key 'seed'" in capsys.readouterr().err


def test_cli_sweep_rejects_an_impossible_grid_before_any_run(tmp_path, capsys, monkeypatch):
    """Ten nodes cannot host 20 black holes: the sweep stops at once.  Nor
    can they host 2**62, a grid too large to build before it is checked."""
    monkeypatch.setattr("relsim.cli.run_scenario", lambda cfg: pytest.fail("a run started"))
    out = tmp_path / "x.csv"
    for max_blackholes in (20, 2**62):
        args = ["sweep", "--nodes", "10", "--max-blackholes", str(max_blackholes),
                "--seeds", "1", "--out", str(out)]
        assert main(args) == 1
        assert "config error: blackholes" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("target", ["missing/x.csv", "."])
def test_cli_unwritable_out_is_a_config_error_before_any_run(
    command, target, tmp_path, capsys, monkeypatch
):
    """A missing parent directory or a directory as --out stops at once."""
    monkeypatch.setattr("relsim.cli.run_scenario", lambda cfg: pytest.fail("a run started"))
    args = [command, "--nodes", "12", "--area_side", "400", "--duration", "2",
            "--out", str(tmp_path / target)]
    if command == "sweep":
        args += ["--max-blackholes", "0", "--seeds", "1"]
    assert main(args) == 1
    assert "config error: --out: cannot write" in capsys.readouterr().err


def test_cli_config_file_loading(tmp_path, capsys):
    cfg_file = tmp_path / "scenario.cfg"
    cfg_file.write_text(
        "nodes = 16\nflows = 3\nduration = 10\nseed = 7\n"
        "radio_range = 300\narea_side = 600\n"
    )
    assert main(["run", "--config", str(cfg_file)]) == 0


def test_cli_compare_writes_summaries(tmp_path):
    out = tmp_path / "cmp.csv"
    args = ["compare", "--seeds", "2", "--schemes", "undefended,proposed",
            "--blackholes", "2", "--out", str(out)]
    for key, value in SMALL.items():
        if key == "seed":
            continue
        args += [f"--{key}", str(value)]
    assert main(args) == 0
    text = out.read_text()
    assert "summary_mean" in text and "summary_ci95" in text
    data_rows = [
        line for line in text.splitlines()[1:] if not line.startswith("summary")
    ]
    assert len(data_rows) == 4  # 2 schemes x 2 seeds at one attack size


@pytest.mark.parametrize("seed", ["18446744073709551616", "-18446744073709551616"])
def test_cli_run_rejects_seed_outside_64_bits(seed, capsys):
    assert main(["run", "--seed", seed]) == 1
    assert "config error: seed" in capsys.readouterr().err


def test_cli_sweep_rejects_seed_range_past_64_bits(tmp_path, capsys):
    out = tmp_path / "x.csv"
    last = str(2**64 - 1)
    assert main(["sweep", "--seed", last, "--seeds", "2", "--out", str(out)]) == 1
    assert "config error: seed" in capsys.readouterr().err
    assert not out.exists()


# df 1..200 densely, then a sample of large df: the CDF series is O(df)
T_QUANTILE_DFS = list(range(1, 201)) + [250, 500, 1000, 2000, 5000, 10_000]


def test_t_quantile_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    for df in T_QUANTILE_DFS:
        for p in (0.9, 0.95, 0.975, 0.995):
            expected = float(stats.t.ppf(p, df))
            assert t_quantile(p, df) == pytest.approx(expected, rel=1e-12), (p, df)


def test_t_quantile_known_values():
    # Cauchy (df 1) has a closed form; large df tends to the normal quantile
    assert t_quantile(0.975, 1) == pytest.approx(math.tan(math.pi * 0.475), rel=1e-12)
    assert t_quantile(0.5, 7) == 0.0
    assert t_quantile(0.025, 9) == pytest.approx(-t_quantile(0.975, 9), rel=1e-12)


def test_cli_import_does_not_load_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import relsim.cli, sys; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)}, timeout=60,
    )
    assert out.stdout.strip() == "False"
