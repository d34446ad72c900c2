"""The golden reports (tests/golden): every fixed-seed case's `report`
section, fixtures and CSV table equal the recorded ones, byte for byte
under the recorded numpy, scipy and BLAS build, and structurally
otherwise."""

import json
from pathlib import Path

import numpy as np
import pytest

from golden import regen
from rpentropy import positivity

GOLDEN = Path(regen.__file__).parent
SAME_BUILD = regen.same_build()


def check(got, text, same_build):
    if same_build:
        assert regen.encode(got) == text
    else:
        assert regen.differences(got, json.loads(text)) == []


@pytest.mark.parametrize("name", list(regen.CASES))
def test_report_equals_its_golden(tmp_path, name):
    check(regen.run_case(name, tmp_path), (GOLDEN / f"{name}.json").read_text(), SAME_BUILD)


@pytest.mark.parametrize("name", regen.POOLED)
def test_report_at_two_jobs_equals_its_golden(tmp_path, name):
    # the plan is several blocks, so the pool's worker runs some of them;
    # the report is the --jobs 1 golden all the same
    got = regen.run_case(name, tmp_path, jobs=2)
    assert 2 in positivity._POOL and got["argv"][-2:] == ["--jobs", "2"]
    got["argv"][-1] = "1"
    check(got, (GOLDEN / f"{name}.json").read_text(), SAME_BUILD)


def show_config_without_mode():
    """numpy < 1.26: `show_config` prints and takes no `mode`."""


@pytest.mark.parametrize("show_config", [show_config_without_mode, lambda mode: {}])
def test_a_build_that_cannot_name_its_blas_compares_structurally(monkeypatch, show_config):
    monkeypatch.setattr(np, "show_config", show_config)
    assert regen.fingerprint()["blas"] is None
    assert not regen.same_build()
    text = (GOLDEN / "detb-seed7.json").read_text()
    got = json.loads(text)
    got["report"]["results"]["min_slack"] *= 1 + 1e-9  # roundoff: not the recorded bytes
    assert regen.encode(got) != text
    check(got, text, regen.same_build())


def test_structural_comparison():
    want = json.loads((GOLDEN / "detb-seed7.json").read_text())
    assert regen.differences(want, want) == []
    got = json.loads(json.dumps(want))
    results = got["report"]["results"]
    results["min_slack"] *= 1 + 1e-9  # roundoff passes
    results["fixtures"] = ["0123456789abcdef.json"]  # a content hash is not compared
    assert regen.differences(got, want) == []
    results["min_slack"] *= 1 + 1e-5
    results["min_slack_trial"] += 1
    results["slack_quantiles"]["q200"] = 1.0
    assert regen.differences(got, want) == [
        "/report/results/min_slack: {!r} -> {!r}".format(
            want["report"]["results"]["min_slack"], results["min_slack"]),
        "/report/results/min_slack_trial: 132 -> 133",
        "/report/results/slack_quantiles: keys ['q200'] differ"]
    got["fixtures"][0]["violation"]["trial"] = 132.0
    assert "/fixtures/0/violation/trial: int -> float" in regen.differences(got, want)


def test_structural_comparison_of_a_csv_table():
    # a table's cells compare as floats within REL and ABS, its names exactly
    want = json.loads((GOLDEN / "cft.json").read_text())
    got = json.loads(json.dumps(want))
    x, slack = got["csv"][1].split(",")
    got["csv"][1] = f"{x},{float(slack) * (1 + 1e-9)!r}"
    assert regen.encode(got) != regen.encode(want) and regen.differences(got, want) == []
    moved = float(slack) * (1 + 1e-5)
    got["csv"][1] = f"{x},{moved!r}"
    got["csv"][0] = "x,slack"
    assert regen.differences(got, want) == ["/csv/0/1: 'derivative_slack' -> 'slack'",
                                            f"/csv/1/1: {float(slack)!r} -> {moved!r}"]
