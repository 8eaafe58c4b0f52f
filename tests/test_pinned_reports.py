"""Report bytes pinned by the seed-0 digests of bench/pinned.json.

Each digest is the sha256 of reports_to_text(enumerate_reports(G)) for a
catalog target G, recorded from the program's own output.  The file is
read, never written.  M27 is a non-cyclic order-27 census and runs only
in the heavy tier, with the other three non-cyclic order-27 targets,
whose digests bench/pinned.json does not hold and are kept here.
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

# the order-27 targets outside bench/pinned.json
ORDER_27 = {
    "C9xC3":
        "4ab4a388da055de564a41f89348b0166c45bc2265f2f282f073f3e0c0bafb187",
    "C3xC3xC3":
        "1ae1a666ac771ad8a8b78c79f3615458605293f43b48b320875a96f23a20276c",
    "Heisenberg-27":
        "c059a5f14ffa015af31d869e1d12bec73c30fcdfc58724cec72add1ce53a7987",
}

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


@requires_heavy
@pytest.mark.parametrize("name", sorted(ORDER_27))
def test_report_bytes_pinned_order_27(name):
    assert report_digest(name) == ORDER_27[name]
