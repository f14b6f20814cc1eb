"""The ``repro serve`` / ``repro query`` CLI and packaging entry points."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import build_parser, main
from repro.service.server import BackgroundService


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    cache_dir = str(tmp_path_factory.mktemp("cli-service-cache"))
    with BackgroundService(cache_dir=cache_dir) as svc:
        yield svc


class TestParsing:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.port == 8642
        assert args.batch_window_ms is None

    def test_serve_flags(self):
        args = build_parser().parse_args(
            [
                "serve", "--port", "0", "--batch-window-ms", "2.5",
                "--pack-rows", "5000", "--mem-entries", "128",
                "--cache-dir", "/tmp/c",
                "--port-file", "/tmp/p",
            ]
        )
        assert args.batch_window_ms == 2.5
        assert args.pack_rows == 5000
        assert args.port_file == "/tmp/p"

    def test_query_defaults(self):
        args = build_parser().parse_args(["query"])
        assert args.command == "query"
        assert args.pattern == "PDMV"
        assert args.platform == "hera"

    @pytest.mark.parametrize(
        "flags",
        [
            ["serve", "--batch-window-ms", "-1"],
            ["serve", "--pack-rows", "0"],
            ["serve", "--mem-entries", "0"],
            ["serve", "--burst-rows", "16"],
            ["serve", "--port", "-2"],
        ],
    )
    def test_serve_validation(self, flags):
        with pytest.raises(SystemExit):
            main(flags)


class TestQuery:
    def test_query_is_bit_identical_to_simulate_cli(
        self, service, tmp_path
    ):
        """The acceptance golden: service == solo CLI, via both CLIs."""
        svc_json = tmp_path / "svc.json"
        cli_json = tmp_path / "cli.json"
        common = [
            "--pattern", "PDMV", "--platform", "hera",
            "--patterns", "6", "--runs", "3", "--seed", "20160601",
        ]
        assert main(
            ["query", "--port", str(service.port), *common,
             "--json", str(svc_json)]
        ) == 0
        assert main(
            ["simulate", *common, "--json", str(cli_json)]
        ) == 0
        svc_row = json.loads(svc_json.read_text())[0]
        cli_row = json.loads(cli_json.read_text())[0]
        assert svc_row["engine"] == cli_row["engine"] == "fast"
        for field in (
            "predicted",
            "simulated",
            "ci95_low",
            "ci95_high",
            "disk_ckpts_per_hour",
            "mem_ckpts_per_hour",
            "verifs_per_hour",
            "disk_recoveries_per_day",
            "mem_recoveries_per_day",
        ):
            assert svc_row[field] == cli_row[field], field

    def test_query_points_file_mixed_batch(self, service, tmp_path):
        points_file = tmp_path / "points.json"
        points_file.write_text(
            json.dumps(
                [
                    {
                        "kind": "PDMV",
                        "platform": "hera",
                        "n_patterns": 4,
                        "n_runs": 2,
                        "seed": 7,
                    },
                    {
                        "kind": "PD",
                        "platform": "atlas",
                        "engine": "analytic",
                    },
                ]
            )
        )
        out = tmp_path / "out.json"
        assert main(
            ["query", "--port", str(service.port),
             "--points", str(points_file), "--json", str(out)]
        ) == 0
        rows = json.loads(out.read_text())
        assert [r["engine"] for r in rows] == ["fast", "analytic"]

    def test_query_health_and_stats(self, service, capsys):
        assert main(
            ["query", "--port", str(service.port), "--health"]
        ) == 0
        health = json.loads(capsys.readouterr().out)
        assert health["status"] == "ok"
        assert main(
            ["query", "--port", str(service.port), "--stats"]
        ) == 0
        stats = json.loads(capsys.readouterr().out)
        assert "counters" in stats

    def test_query_table_output(self, service, capsys):
        assert main(
            ["query", "--port", str(service.port), "--pattern", "PD",
             "--platform", "hera", "--patterns", "4", "--runs", "2",
             "--seed", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "PD on hera" in out
        assert "simulated" in out

    def test_query_unreachable_daemon_exits_with_message(self):
        import socket

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        with pytest.raises(SystemExit, match="service error"):
            main(["query", "--port", str(free_port), "--health"])

    def test_query_missing_points_file(self, service):
        with pytest.raises(SystemExit, match="cannot load points file"):
            main(
                ["query", "--port", str(service.port),
                 "--points", "/nonexistent/points.json"]
            )


class TestJobsCli:
    """submit / jobs / results: the daemon-side campaign verbs."""

    COMMON = [
        "--scenario", "family_comparison", "--set", "platform=hera",
        "--patterns", "2", "--runs", "2",
    ]

    @staticmethod
    def _expected_rows(seed):
        from repro.campaign.executor import run_campaign
        from repro.campaign.report import rows_from_records
        from repro.campaign.spec import CampaignSpec

        spec = CampaignSpec(
            name="family_comparison",
            scenario="family_comparison",
            params={"platform": "hera"},
            n_patterns=2,
            n_runs=2,
            seed=seed,
        )
        return rows_from_records(run_campaign(spec).records)

    def test_submit_parsing(self):
        args = build_parser().parse_args(
            ["submit", "--scenario", "family_comparison",
             "--set", "platform=hera", "--set", 'kinds=["PD"]',
             "--client", "alice", "--wait"]
        )
        assert args.command == "submit"
        assert args.params == ["platform=hera", 'kinds=["PD"]']
        assert args.client == "alice" and args.wait

    def test_results_parsing(self):
        args = build_parser().parse_args(
            ["results", "--job", "jabc", "--offset", "4", "--no-follow"]
        )
        assert (args.job, args.offset, args.no_follow) == ("jabc", 4, True)

    def test_submit_requires_spec_or_scenario(self):
        with pytest.raises(SystemExit, match="requires --spec or --scenario"):
            main(["submit"])

    def test_submit_unknown_scenario_rejected_before_dialing(self):
        # No daemon is running on the default port: the spec must be
        # rejected locally, before any connection attempt.
        with pytest.raises(SystemExit, match="unknown scenario"):
            main(["submit", "--scenario", "no-such-scenario"])

    def test_submit_wait_matches_local_campaign(
        self, service, tmp_path, capsys
    ):
        """--wait streams records identical to a local campaign run."""
        out = tmp_path / "rows.json"
        assert main(
            ["submit", "--port", str(service.port), *self.COMMON,
             "--seed", "5", "--wait", "--json", str(out)]
        ) == 0
        captured = capsys.readouterr()
        assert "submitted job" in captured.err
        assert json.loads(out.read_text()) == self._expected_rows(5)

    def test_submit_poll_stream_roundtrip(
        self, service, tmp_path, capsys
    ):
        """Fire-and-forget submit, poll via jobs, fetch via results."""
        import time

        assert main(
            ["submit", "--port", str(service.port), *self.COMMON,
             "--seed", "6", "--client", "alice"]
        ) == 0
        captured = capsys.readouterr()
        job_id = captured.out.strip()
        assert job_id.startswith("j") and len(job_id) == 13

        deadline = time.monotonic() + 60
        while True:
            assert main(
                ["jobs", "--port", str(service.port), "--job", job_id]
            ) == 0
            doc = json.loads(capsys.readouterr().out)
            if doc["state"] in ("done", "failed", "cancelled"):
                break
            assert time.monotonic() < deadline, "job never finished"
            time.sleep(0.05)
        assert doc["state"] == "done"

        assert main(
            ["jobs", "--port", str(service.port), "--client", "alice"]
        ) == 0
        listing = capsys.readouterr().out
        assert job_id in listing and "alice" in listing

        out = tmp_path / "rows.json"
        assert main(
            ["results", "--port", str(service.port), "--job", job_id,
             "--no-follow", "--json", str(out)]
        ) == 0
        assert json.loads(out.read_text()) == self._expected_rows(6)

    def test_jobs_cancel_is_idempotent_from_the_cli(
        self, service, capsys
    ):
        assert main(
            ["submit", "--port", str(service.port), *self.COMMON,
             "--seed", "5"]
        ) == 0
        job_id = capsys.readouterr().out.strip()
        assert main(
            ["jobs", "--port", str(service.port), "--cancel", job_id]
        ) == 0
        assert f"job {job_id} is now " in capsys.readouterr().err

    def test_results_unknown_job_exits_with_message(self, service):
        with pytest.raises(SystemExit, match="service error"):
            main(
                ["results", "--port", str(service.port),
                 "--job", "jdeadbeef0000", "--no-follow"]
            )


class TestServeDaemon:
    def test_serve_daemon_subprocess_roundtrip(self, tmp_path):
        """``repro serve`` as a real process: the CI smoke in miniature."""
        import time

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.join(root, "src"),
                          env.get("PYTHONPATH", "")])
        )
        port_file = tmp_path / "port"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--port-file", str(port_file),
             "--cache-dir", str(tmp_path / "cache")],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if port_file.exists() and port_file.read_text().strip():
                    break
                time.sleep(0.1)
            else:
                pytest.fail("daemon never published its port")
            port = int(port_file.read_text())
            out = tmp_path / "rows.json"
            assert main(
                ["query", "--port", str(port), "--pattern", "PD",
                 "--platform", "hera", "--patterns", "4", "--runs", "2",
                 "--seed", "9", "--json", str(out)]
            ) == 0
            assert json.loads(out.read_text())[0]["engine"] == "fast"
        finally:
            proc.terminate()
            proc.wait(timeout=30)


class TestPackaging:
    def test_python_dash_m_repro(self):
        """``python -m repro`` reaches the CLI (satellite packaging fix)."""
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.join(root, "src"),
                          env.get("PYTHONPATH", "")])
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0
        for command in ("serve", "query", "campaign", "simulate"):
            assert command in proc.stdout

    def test_cli_import_leaves_scipy_unloaded(self):
        """scipy loads only for the numeric cross-checks that need it."""
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.join(root, "src"),
                          env.get("PYTHONPATH", "")])
        )
        script = (
            "import sys\n"
            "import repro.cli, repro.service.server\n"
            "from repro.campaign.executor import evaluate_point\n"
            "from repro.campaign.spec import ScenarioPoint, "
            "platform_to_dict\n"
            "from repro.platforms.catalog import hera\n"
            "evaluate_point(ScenarioPoint(mode='simulate', kind='PDMV',\n"
            "    platform=platform_to_dict(hera()), n_patterns=4,\n"
            "    n_runs=2, seed=9))\n"
            "print([m for m in sys.modules\n"
            "       if m.split('.')[0] == 'scipy'])\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_console_script_entry_declared(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        setup_py = open(os.path.join(root, "setup.py")).read()
        assert "console_scripts" in setup_py
        assert "repro=repro.cli:main" in setup_py
