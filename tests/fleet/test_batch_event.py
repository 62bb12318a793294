"""The ``fleet.batch`` codec: ``BatchReport.to_event`` / ``from_event``.

Replay's byte-exact fingerprint rests on this round trip: a report
written to the journal and parsed back must carry the same ids in the
same order, the same energy categories in the same order, and the same
float bits, so :meth:`DeviceResult.from_reports` folds it to the same
totals as the live reports.
"""

import json

from hypothesis import example, given
from hypothesis import strategies as st

from repro.baselines.base import BatchReport
from repro.fleet import DeviceResult

ids = st.lists(st.text(max_size=6), max_size=5)
joules = st.one_of(
    # -0.0 and subnormals are in range; bounded so sums stay finite.
    st.floats(min_value=-1e300, max_value=1e300),
    st.integers(min_value=-(2**64), max_value=2**64),
)
reports = st.builds(
    BatchReport,
    scheme=st.just(""),
    n_images=st.integers(min_value=0, max_value=2**40),
    uploaded_ids=ids,
    eliminated_cross_batch=ids,
    eliminated_in_batch=ids,
    sent_bytes=st.integers(min_value=0, max_value=2**62),
    energy_by_category=st.dictionaries(st.text(max_size=8), joules, max_size=6),
    halted=st.booleans(),
)
EDGE = BatchReport(
    scheme="",
    n_images=3,
    uploaded_ids=["b", "a"],
    eliminated_cross_batch=["c"],
    sent_bytes=2**53 + 1,
    energy_by_category={"upload": -0.0, "afe": 5e-324, "cbrd": 2**60, "aiu": 0.1},
)


def through_the_journal(report, round_no):
    """What replay parses: the payload after a JSON write and read."""
    text = json.dumps(report.to_event(round_no))
    return BatchReport.from_event(json.loads(text))


@given(report=reports, round_no=st.integers(min_value=0, max_value=10**6))
@example(report=EDGE, round_no=0)
def test_from_event_returns_the_journalled_fields_exactly(report, round_no):
    parsed = through_the_journal(report, round_no)
    # json.dumps spells each float by repr (-0.0 and subnormals kept),
    # keeps int and float apart and keeps key order: equal text means
    # equal ids, id order, energy key order and float bits.
    assert json.dumps(parsed.to_event(round_no)) == json.dumps(
        report.to_event(round_no)
    )
    assert list(parsed.energy_by_category) == list(report.energy_by_category)
    assert repr(parsed.total_energy_joules) == repr(report.total_energy_joules)


@given(batches=st.lists(reports, max_size=4))
@example(batches=[EDGE, EDGE])
def test_folding_parsed_reports_equals_folding_live_ones(batches):
    parsed = [
        through_the_journal(report, round_no)
        for round_no, report in enumerate(batches)
    ]
    live = DeviceResult.from_reports("dev-00", batches)
    replayed = DeviceResult.from_reports("dev-00", parsed)
    assert replayed == live
    assert json.dumps(replayed.decision_record()) == json.dumps(
        live.decision_record()
    )
