import argparse

import pytest

from surfnitsche.cli import build_parser, run


def parse_report(capsys):
    captured = capsys.readouterr()
    values = {}
    for line in captured.out.splitlines():
        if " = " in line:
            key, _, value = line.partition(" = ")
            values[key.strip()] = value.strip()
    return values, captured


class TestSolveCommand:
    def test_flat_patch(self, capsys):
        status = run(["solve", "--problem", "flat-square", "--k", "1", "--n-div", "4"])
        values, _ = parse_report(capsys)
        assert status == 0
        assert float(values["max_nodal_error"]) < 1e-10

    def test_writes_artifacts(self, tmp_path, capsys):
        vtk = tmp_path / "out.vtk"
        prefix = tmp_path / "system"
        status = run(
            [
                "solve",
                "--problem",
                "torus-simple",
                "--k",
                "1",
                "--n-div",
                "4",
                "--vtk",
                str(vtk),
                "--matrix-out",
                str(prefix),
            ]
        )
        assert status == 0
        assert vtk.exists()
        assert (tmp_path / "system_matrix.mtx").exists()
        assert (tmp_path / "system_rhs.mtx").exists()


class TestConvergenceCommand:
    def test_csv_deterministic(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            status = run(
                [
                    "convergence",
                    "--problem",
                    "flat-square",
                    "--k",
                    "1",
                    "--levels",
                    "3",
                    "--base-divisions",
                    "2",
                    "--csv",
                    str(path),
                ]
            )
            assert status == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        header = paths[0].read_text().splitlines()[0]
        assert header == "k,level,h,dof,energy_error,l2_error,eoc_energy,eoc_l2"


class TestMeshReportCommand:
    def test_boundary_nodes_corrected(self, capsys, tmp_path):
        out = tmp_path / "report.txt"
        status = run(
            ["mesh-report", "--problem", "torus", "--k", "3", "--n-div", "8", "--out", str(out)]
        )
        values, _ = parse_report(capsys)
        assert status == 0
        assert float(values["max_boundary_node_dist"]) < 1e-10
        assert float(values["min_scaled_jacobian"]) > 0.05
        assert out.read_text().startswith("n_div = 8")


def test_environment_not_read(capsys, monkeypatch):
    monkeypatch.setenv("SURFNITSCHE_N_DIV", "6")
    status = run(["solve", "--problem", "flat-square", "--k", "1"])
    values, _ = parse_report(capsys)
    assert status == 0
    assert values["dof"] == "81"  # (8+1)^2 vertices of the default --n-div 8


def test_parser_options_pinned():
    # every option of every subcommand; a new run parameter must be added here
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    common = ["-h", "--help", "--problem", "--k", "--node-placement"]
    expected = {
        "solve": common + ["--n-div", "--vtk", "--matrix-out", "--beta"],
        "convergence": common + ["--levels", "--base-divisions", "--csv", "--beta"],
        "mesh-report": common + ["--n-div", "--out"],
    }
    options = {
        name: [flag for action in sub._actions for flag in action.option_strings]
        for name, sub in commands.choices.items()
    }
    assert options == expected


class TestFailureReporting:
    def test_mesh_failure_exit_code(self, capsys):
        status = run(
            [
                "mesh-report",
                "--problem",
                "torus",
                "--k",
                "2",
                "--n-div",
                "8",
                "--node-placement",
                "facet-linear",
            ]
        )
        captured = capsys.readouterr()
        assert status == 1
        assert "error:" in captured.err

    def test_invalid_beta_exit_code(self, capsys):
        status = run(
            ["solve", "--problem", "flat-square", "--k", "1", "--n-div", "2", "--beta", "-3"]
        )
        captured = capsys.readouterr()
        assert status == 1
        assert "error:" in captured.err

    @pytest.mark.filterwarnings("error")
    def test_non_finite_beta_names_beta(self, capsys):
        # 1e155 and 1e308 are finite, but the squared norm of the rhs overflows
        for beta in ("nan", "1e155", "1e308"):
            status = run(
                ["solve", "--problem", "flat-square", "--k", "1", "--n-div", "2", "--beta", beta]
            )
            lines = capsys.readouterr().err.splitlines()
            assert status == 1
            assert len(lines) == 1
            assert lines[0].startswith("error:")
            assert "beta" in lines[0]


UNKNOWN_OPTIONS = [
    ["mesh-report", "--beta", "1"],
    ["mesh-report", "--rel-tol", "0.1"],
    ["solve", "--rel-tol", "0", "--problem", "flat-square", "--n-div", "2"],
    ["convergence", "--rel-tol", "0.1"],
] + [
    [command, flag, "4"]
    for command in ("solve", "convergence", "mesh-report")
    for flag in ("--quad-degree", "--edge-quad-degree")
]


@pytest.mark.parametrize(
    "argv", UNKNOWN_OPTIONS, ids=[f"{a[0]}:{a[1].lstrip('-')}" for a in UNKNOWN_OPTIONS]
)
def test_option_not_read_is_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run(argv)
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


BAD_INPUT = {
    "n-div-1": ["solve", "--n-div", "1"],
    "k-4": ["solve", "--k", "4"],
    "flat-k-4": ["solve", "--problem", "flat-square", "--k", "4"],
    "levels-2": ["convergence", "--problem", "flat-square", "--levels", "2"],
}


class TestBadInput:
    @pytest.mark.parametrize("case", list(BAD_INPUT))
    def test_clean_error(self, case, capsys):
        status = run(BAD_INPUT[case])
        captured = capsys.readouterr()
        assert status == 1
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err
