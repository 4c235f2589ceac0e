"""Atomic publication (:mod:`repro.atomic`): a reader sees the old file
or the new one, never a partial one, and a failed write leaves no
temporary file behind."""

import os

import pytest

from repro.atomic import replacing, write_atomic


def test_write_replaces_the_whole_file(tmp_path):
    path = str(tmp_path / "doc.json")
    write_atomic(path, "old")
    write_atomic(path, b"new")
    with open(path, "rb") as fh:
        assert fh.read() == b"new"
    assert os.listdir(tmp_path) == ["doc.json"]


def test_failed_write_keeps_the_old_file_and_no_temporary(tmp_path):
    path = str(tmp_path / "doc.json")
    write_atomic(path, "old")
    with pytest.raises(RuntimeError, match="writer died"):
        with replacing(path) as tmp:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write("partial")
            raise RuntimeError("writer died")
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == "old"
    assert os.listdir(tmp_path) == ["doc.json"]
