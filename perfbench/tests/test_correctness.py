"""The output checks catch a one-byte change and a wrong served profile."""

import sys

import pytest

from common import SRC, Tally
from verify import check_output, check_profile, digest, parse_blocks

TEXT_A = "col  value\n---  -----\nx    1.000"
TEXT_B = "line one\nline two"


def render(blocks):
    """What ``repro all`` prints for ``[(id, title, text), ...]``."""
    return "".join(f"\n== {title} ({eid}) ==\n{text}\n" for eid, title, text in blocks)


REFERENCE = {
    "scale": 0.05,
    "experiments": {"table-a": digest(TEXT_A), "fig-b": digest(TEXT_B), "table-clock": None},
}
GOOD = render([
    ("fig-b", "Figure (with parentheses)", TEXT_B),
    ("table-a", "Table A", TEXT_A),
    ("table-clock", "Wall clock", "speedup 1.93x"),
])


def test_parse_blocks_recovers_each_experiments_text():
    blocks = parse_blocks(GOOD, REFERENCE["experiments"])
    assert blocks == {"table-a": TEXT_A, "fig-b": TEXT_B, "table-clock": "speedup 1.93x"}


def test_clean_output_passes():
    assert check_output(GOOD, REFERENCE) == (3, 0, [])


@pytest.mark.parametrize("offset", [0, 7, len(TEXT_A) - 1])
def test_one_byte_change_is_caught(offset):
    changed = TEXT_A[:offset] + ("#" if TEXT_A[offset] != "#" else "$") + TEXT_A[offset + 1:]
    output = GOOD.replace(TEXT_A, changed)
    attempted, failed, problems = check_output(output, REFERENCE)
    assert (attempted, failed) == (3, 1)
    assert "table-a" in problems[0]


def test_missing_experiment_counts_as_failed():
    output = render([("table-a", "Table A", TEXT_A)])
    attempted, failed, _ = check_output(output, REFERENCE)
    assert (attempted, failed) == (3, 2)


def test_wall_clock_experiment_text_is_not_compared():
    output = GOOD.replace("speedup 1.93x", "speedup 2.07x")
    assert check_output(output, REFERENCE)[1] == 0


def test_crashed_repeat_fails_every_experiment():
    import paper
    from common import ChildRun

    crashed = paper.Repeat(ChildRun(1, 0.0, 1.0, 10.0, 1.0), None, GOOD)
    tally = Tally()
    paper.check_repeat(tally, crashed, REFERENCE, "plain-1")
    assert (tally.attempted, tally.failed) == (3, 3)


def _fold(events, name="perfbench"):
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro.core.profile import ProfileDatabase

    db = ProfileDatabase(name=name)
    for site, value in events:
        db.record(site, value)
    return db.to_json() + "\n"


def _events():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro.core.sites import Site, SiteKind

    sites = [Site(SiteKind.LOAD, "prog", "main", str(pc)) for pc in range(4)]
    return [(sites[i % 4], (i * 7) % 5) for i in range(200)]


def test_served_profile_check_accepts_identical_fold():
    events = _events()
    assert check_profile(_fold(events), _fold(events)) == []


def test_served_profile_check_catches_one_changed_event():
    events = _events()
    served = list(events)
    site, value = served[123]
    served[123] = (site, value + 1)
    problems = check_profile(_fold(served), _fold(events))
    assert len(problems) == 1 and "differs" in problems[0]


def test_served_profile_check_catches_reordered_events():
    events = _events()
    served = events[1:] + events[:1]
    assert check_profile(_fold(served), _fold(events))


def test_reference_recorded_at_another_scale_is_refused(monkeypatch, tmp_path):
    import paper
    from common import BenchError, HostDiagnostics

    monkeypatch.setattr(paper, "load_reference", lambda: dict(REFERENCE, scale=paper.SCALE * 2))
    with pytest.raises(BenchError, match="scale"):
        paper.PaperRunner(tmp_path, 1, HostDiagnostics())


def test_committed_reference_matches_the_benchmark_scale():
    import paper
    from verify import load_reference

    assert load_reference()["scale"] == paper.SCALE


def test_obs_mode_runs_the_programs_own_tracing(monkeypatch):
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import paper_child

    calls = []
    monkeypatch.setattr(paper_child, "main", lambda argv: calls.append(argv) or 0)
    assert paper_child.MODES["obs"]("m.json", "0.05") == {"code": 0}
    assert paper_child.MODES["plain"]("m.json", "0.05") == {"code": 0}
    assert calls == [
        ["all", "--scale", "0.05", "--trace", "m.json.trace.jsonl",
         "--metrics", "m.json.metrics.json"],
        ["all", "--scale", "0.05"],
    ]
