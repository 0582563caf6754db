"""Unit tests for the run-correlation ids."""

from repro.obs import RUN_ID_LENGTH, is_run_id, new_run_id


class TestRunId:
    def test_shape_and_alphabet(self):
        rid = new_run_id()
        assert len(rid) == RUN_ID_LENGTH == 26
        assert is_run_id(rid)
        assert set(rid) <= set("0123456789ABCDEFGHJKMNPQRSTVWXYZ")

    def test_is_run_id_rejects_wrong_shapes(self):
        assert not is_run_id("")
        assert not is_run_id("short")
        assert not is_run_id("l" * 26)  # 'l' is not in the Crockford alphabet
        assert not is_run_id(new_run_id().lower())

    def test_timestamp_prefix_orders_lexicographically(self):
        early = new_run_id(timestamp_ms=1_000)
        late = new_run_id(timestamp_ms=2_000_000_000_000)
        assert early[:10] < late[:10]

    def test_same_timestamp_same_prefix(self):
        a = new_run_id(timestamp_ms=123456789)
        b = new_run_id(timestamp_ms=123456789)
        assert a[:10] == b[:10]
        assert a[10:] != b[10:]  # random tail differs

    def test_unique(self):
        ids = {new_run_id() for _ in range(200)}
        assert len(ids) == 200
