"""A dump is a function of the run, not of the process that wrote it.

The runtime issues every id a dump carries - task ids from its own counter,
app ids by submission order - so the same cell run twice in one interpreter
saves the same bytes, whatever ran before it.
"""

import json

import pytest

from repro.cli import main

#: a timing-only API batch cell, the faulty Jetson DAG cell (every incident
#: kind) and a ``block`` serve cell that holds apps (held admission rows)
CELLS = {
    "api-batch": ["run", "--apps", "PD:2,TX:2", "--mode", "api", "--timing-only"],
    "jetson-faulty-dag": [
        "run", "--platform", "jetson", "--scheduler", "etf", "--mode", "dag", "--timing-only",
        "--apps", "PD:4,TX:4", "--fault-rate", "200", "--fault-kinds", "transient,hang,slowdown",
    ],
    "serve-block": [
        "serve", "--duration", "0.2", "--arrival", "poisson:rate=400", "--admission", "block",
        "--max-in-system", "4", "--queue-cap", "8", "--apps", "PD:1,TX:1",
    ],
}


@pytest.mark.parametrize("name", CELLS)
def test_a_cell_run_twice_in_one_process_saves_the_same_bytes(name, tmp_path, capsys):
    dumps = []
    for i in range(2):
        path = tmp_path / f"{i}.json"
        assert main([*CELLS[name], "--logbook", str(path)]) == 0
        dumps.append(path.read_bytes())
    capsys.readouterr()
    assert dumps[0] == dumps[1]
    dump = json.loads(dumps[0])
    tids = sorted(row["tid"] for row in dump["tasks"])
    assert tids[0] == 0
    assert [row["app_id"] for row in dump["apps"]] == list(range(len(dump["apps"])))
    if name == "jetson-faulty-dag":
        assert {row["kind"] for row in dump["incidents"]} >= {"retry", "stale"}
    if name == "serve-block":
        assert any(row["held"] for row in dump["admissions"])
