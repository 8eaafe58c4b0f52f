import os

import pytest

from skewbrace import analysis, groups, perms

HEAVY = os.environ.get("SKEWBRACE_HEAVY") == "1"

requires_heavy = pytest.mark.skipif(
    not HEAVY, reason="set SKEWBRACE_HEAVY=1 to run the expensive checks")

# a group file whose one byte outside ASCII is Latin-1, not UTF-8
NOT_UTF8 = '{"order": 1, "table": [[0]], "by": "Gödel"}'.encode("latin-1")


@pytest.fixture
def fresh_census():
    """Reset the census caches of skewbrace.analysis before and after the
    test body, so it neither reads nor leaves a classification."""
    analysis._enumerate_classes.cache_clear()
    analysis._classify.cache_clear()
    yield
    analysis._enumerate_classes.cache_clear()
    analysis._classify.cache_clear()


def fresh_group(table, name=None):
    """A group on table with a new store of its own, outside the registry:
    every fact it is asked for is recomputed from the table."""
    return groups._handle(groups._Facts(table=tuple(map(tuple, table))), name)


def refuse_searches(monkeypatch, *names):
    """Make the named regular-subgroup searches of skewbrace.perms fail the
    test if run, also where skewbrace.analysis imported them."""
    def refuse(N):
        pytest.fail(f"a search of Hol({N.name}) was run")
    for name in names:
        monkeypatch.setattr(perms, name, refuse)
        monkeypatch.setattr(analysis, name, refuse)


def not_bi_skew_on_c6():
    """The one operation on C6 that is not bi-skew (its type is D3), as a
    brace: the witness for every refusal of a brace that is not bi-skew."""
    from skewbrace.braces import is_bi_skew
    from skewbrace.catalog import group_by_name, type_name

    (B,) = [B for B in analysis.enumerate_operations(group_by_name("C6"))
            if not is_bi_skew(B)]
    assert type_name(B.dot) == "D3"
    return B


def transport_table(table, images):
    """The table relabeled along the bijection images, as row tuples, by
    its definition out[images[a]][images[b]] = images[table[a][b]]: the
    reference for the census's one flat relabel routine,
    groups._relabeler."""
    n = len(images)
    out = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[images[a]][images[b]] = images[table[a][b]]
    return tuple(map(tuple, out))


def flat(table) -> bytes:
    """A table of row tuples as the census keys it: flat row-major bytes."""
    return b"".join(map(bytes, table))
