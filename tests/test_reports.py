import pytest

from ffnet.reports import atomic_write


class TestAtomicWrite:
    @pytest.mark.parametrize("fault", [OSError("disk full"), KeyboardInterrupt()],
                             ids=["os_error", "interrupt"])
    def test_a_failed_write_leaves_the_target_and_no_temp_file(self, tmp_path, fault):
        """A writer that fails after writing part of its bytes leaves the old
        file byte for byte, and its temp file is removed; the fault propagates."""
        target = tmp_path / "summary.json"
        target.write_bytes(b"earlier run\n")

        def write(handle):
            handle.write(b"half of a new")
            raise fault

        with pytest.raises(type(fault)):
            atomic_write(target, write)
        assert target.read_bytes() == b"earlier run\n"
        assert [path.name for path in tmp_path.iterdir()] == ["summary.json"]
