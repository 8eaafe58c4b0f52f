"""Report bytes pinned by the seed-0 digests of bench/pinned.json.

Each digest is the sha256 of reports_to_text(enumerate_reports(G)) for a
catalog target G, recorded from the program's own output.  The file is
read, never written.  M27 is a non-cyclic order-27 census and runs only
in the heavy tier.
"""

import hashlib
import json
from pathlib import Path

import pytest
from conftest import requires_heavy

from skewbrace.analysis import enumerate_reports
from skewbrace.catalog import group_by_name
from skewbrace.serialize import reports_to_text

PINNED = json.loads(
    (Path(__file__).resolve().parent.parent / "bench" / "pinned.json")
    .read_text(encoding="utf-8"))["targets"]

CHEAP = sorted(name for name, want in PINNED.items()
               if want["order"] <= 15 or name == "C27")


def report_digest(name: str) -> str:
    text = reports_to_text(enumerate_reports(group_by_name(name)))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_cheap_targets_cover_orders_1_to_15_and_c27():
    assert len(CHEAP) == 29 and set(PINNED) - set(CHEAP) == {"M27"}


@pytest.mark.parametrize("name", CHEAP)
def test_report_bytes_pinned(name):
    assert report_digest(name) == PINNED[name]["sha256"]


@requires_heavy
def test_report_bytes_pinned_m27():
    assert report_digest("M27") == PINNED["M27"]["sha256"]
