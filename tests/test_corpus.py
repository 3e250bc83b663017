import os
import random
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import warmstart
from warmstart.corpus import (
    WINDOW_RECORDS,
    CorpusError,
    SequenceStoreReader,
    StoreFormatError,
    chunk_corpus,
    default_index_path,
    store_count,
    store_head,
    store_writer,
    write_store,
)


class TestChunkCorpus:
    def test_exact_division(self):
        seqs = list(chunk_corpus([list(range(1024))], seq_len=512))
        assert [len(s) for s in seqs] == [512, 512]
        assert seqs[0] == list(range(512))
        assert seqs[1] == list(range(512, 1024))

    def test_tail_kept_when_long_enough(self):
        seqs = list(chunk_corpus([list(range(600))], seq_len=512, min_tail=16))
        assert [len(s) for s in seqs] == [512, 88]

    def test_short_tail_dropped(self):
        assert list(chunk_corpus([list(range(8))], seq_len=512, min_tail=16)) == []

    def test_min_tail_two_keeps_every_tail_that_can_be_masked(self):
        seqs = list(chunk_corpus([list(range(6)), list(range(5)), [7]], seq_len=4, min_tail=2))
        assert [len(s) for s in seqs] == [4, 2, 4]

    def test_empty_documents_yield_nothing(self):
        assert list(chunk_corpus([[], []], seq_len=4, min_tail=2)) == []

    def test_no_cross_document_sequences(self):
        # every id carries its doc ordinal, so a mixed sequence would show
        docs = [[d] * n for d, n in enumerate([10, 3, 17])]
        for seq in chunk_corpus(docs, seq_len=4, min_tail=2):
            assert len(set(seq)) == 1

    def test_invalid_params(self):
        with pytest.raises(CorpusError):
            list(chunk_corpus([[1, 2]], seq_len=1))
        with pytest.raises(CorpusError):
            list(chunk_corpus([[1, 2]], seq_len=4, min_tail=5))

    @pytest.mark.parametrize("min_tail", [0, 1])
    def test_a_tail_minimum_below_two_is_rejected(self, min_tail):
        # a one-id sequence cannot be masked, so no store may hold one
        with pytest.raises(CorpusError) as e:
            list(chunk_corpus([[1, 2, 3]], seq_len=2, min_tail=min_tail))
        assert str(e.value) == f"min_tail must be in [2, 2], got {min_tail}"

    @settings(max_examples=100)
    @given(
        docs=st.lists(
            st.lists(st.integers(min_value=0, max_value=1000), max_size=40),
            max_size=6,
        ),
        seq_len=st.integers(min_value=2, max_value=16),
        min_tail=st.integers(min_value=2, max_value=16),
    )
    def test_conservation(self, docs, seq_len, min_tail):
        if min_tail > seq_len:
            min_tail = seq_len
        seqs = list(chunk_corpus(docs, seq_len=seq_len, min_tail=min_tail))
        expected = 0
        for doc in docs:
            full = (len(doc) // seq_len) * seq_len
            tail = len(doc) - full
            expected += full + (tail if tail >= min_tail else 0)
        assert sum(len(s) for s in seqs) == expected
        for s in seqs:
            assert 2 <= min_tail <= len(s) <= seq_len


class TestStore:
    def _write(self, tmp_path, id_lists):
        path = tmp_path / "c.seqs"
        write_store(id_lists, path)
        return path

    def test_round_trip_middle(self, tmp_path):
        path = self._write(tmp_path, [[1, 2, 3], [4, 5], [6]])
        assert SequenceStoreReader(path).read(1) == [4, 5]

    def test_index_out_of_range(self, tmp_path):
        path = self._write(tmp_path, [[1], [2], [3]])
        with pytest.raises(IndexError) as e:
            SequenceStoreReader(path).read(3)
        assert str(e.value) == "sequence index 3 out of range (count=3)"

    @pytest.mark.parametrize("indices", [[0, 1, 2], [1, 2], [2, 0, 2], []])
    def test_gather_is_the_reads_concatenated(self, tmp_path, indices):
        reader = SequenceStoreReader(self._write(tmp_path, [[1, 2, 3], [4, 5], [6]]))
        ids, lengths = reader.gather(indices)
        assert ids.tolist() == [t for i in indices for t in reader.read(i)]
        assert lengths.tolist() == [len(reader.read(i)) for i in indices]

    @pytest.mark.parametrize("index", [-1, 3])
    def test_gather_out_of_range(self, tmp_path, index):
        reader = SequenceStoreReader(self._write(tmp_path, [[1], [2], [3]]))
        with pytest.raises(IndexError) as e:
            reader.gather([0, index, 5])
        assert str(e.value) == f"sequence index {index} out of range (count=3)"

    @pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps")
    @pytest.mark.parametrize("index", [True, False], ids=["index", "walk"])
    def test_an_open_reader_keeps_no_mapping_of_the_store(self, tmp_path, index):
        path = self._write(tmp_path, [[1, 2, 3], [4, 5], [6]])
        if not index:
            Path(default_index_path(path)).unlink()
        reader = SequenceStoreReader(path)
        with open("/proc/self/maps") as f:
            assert str(path.resolve()) not in f.read()
        assert reader.lengths() == [3, 2, 1]

    def test_empty_store_readable(self, tmp_path):
        path = self._write(tmp_path, [])
        reader = SequenceStoreReader(path)
        assert reader.count == 0
        assert list(reader) == []

    def test_iteration_order(self, tmp_path):
        id_lists = [[1, 2], [3], [4, 5, 6]]
        path = self._write(tmp_path, id_lists)
        assert list(SequenceStoreReader(path)) == id_lists

    def test_scan_fallback_without_index(self, tmp_path):
        path = self._write(tmp_path, [[7, 8], [9]])
        default_idx = tmp_path / "c.seqs.idx"
        default_idx.unlink()
        reader = SequenceStoreReader(path)
        assert reader.read(1) == [9]

    def test_corrupt_magic(self, tmp_path):
        path = tmp_path / "c.seqs"
        path.write_bytes(b"XXXX" + b"\x00" * 12)
        with pytest.raises(StoreFormatError):
            SequenceStoreReader(path)

    def test_wrong_version(self, tmp_path):
        import struct

        path = tmp_path / "c.seqs"
        path.write_bytes(b"SEQS" + struct.pack("<IQ", 7, 0))
        with pytest.raises(StoreFormatError):
            SequenceStoreReader(path)

    def test_index_count_mismatch_detected(self, tmp_path):
        import struct

        path = self._write(tmp_path, [[1], [2]])
        idx = tmp_path / "c.seqs.idx"
        idx.write_bytes(b"SEQI" + struct.pack("<IQ", 1, 1) + struct.pack("<Q", 16))
        with pytest.raises(StoreFormatError):
            SequenceStoreReader(path)

    def test_empty_sequence_rejected(self, tmp_path):
        with pytest.raises(CorpusError):
            write_store([[]], tmp_path / "c.seqs")

    def test_lengths(self, tmp_path):
        path = self._write(tmp_path, [[1, 2], [3], [4, 5, 6]])
        assert SequenceStoreReader(path).lengths() == [2, 1, 3]

    def test_random_round_trips(self, tmp_path):
        rng = random.Random(42)
        for trial in range(50):
            id_lists = [
                [rng.randrange(2**31) for _ in range(rng.randrange(1, 20))]
                for _ in range(rng.randrange(0, 12))
            ]
            path = tmp_path / f"t{trial}.seqs"
            write_store(id_lists, path)
            reader = SequenceStoreReader(path)
            assert list(reader) == id_lists
            for i, ids in enumerate(id_lists):
                assert reader.read(i) == ids

    @pytest.mark.parametrize("offsets", [
        (16, 20, 32),  # read(1) would return [9]
        (16, 33, 44),  # not on a word boundary
        (20, 32, 44),  # not starting at the first record
        (16, 32, 4000),  # past the end of the file
        (16, 2**63 + 32, 44),  # negative as int64, so it would index from the end
    ])
    def test_same_count_stale_index_rejected(self, tmp_path, offsets):
        path = self._write(tmp_path, [[1, 9, 4], [5, 6], [7]])
        idx = tmp_path / "c.seqs.idx"
        assert idx.read_bytes()[16:] == struct.pack("<3Q", 16, 32, 44)
        idx.write_bytes(b"SEQI" + struct.pack("<IQ3Q", 1, 3, *offsets))
        with pytest.raises(StoreFormatError, match="stale index"):
            SequenceStoreReader(path)

    def test_index_of_a_store_cut_short_rejected(self, tmp_path):
        path = self._write(tmp_path, [[1, 9, 4], [5, 6], [7]])
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(StoreFormatError, match="stale index"):
            SequenceStoreReader(path)

    def test_index_and_walk_agree(self, tmp_path):
        id_lists = [[1, 9, 4], [5, 6], [7], list(range(40))]
        path = self._write(tmp_path, id_lists)
        indexed = SequenceStoreReader(path)
        (tmp_path / "c.seqs.idx").unlink()
        walked = SequenceStoreReader(path)
        assert indexed.lengths() == walked.lengths() == [3, 2, 1, 40]
        assert list(indexed) == list(walked) == id_lists

    def test_index_cut_short_is_a_truncated_index(self, tmp_path):
        path = self._write(tmp_path, [[1, 9, 4], [5, 6], [7]])
        idx = tmp_path / "c.seqs.idx"
        idx.write_bytes(idx.read_bytes()[:-8])
        with pytest.raises(StoreFormatError) as e:
            SequenceStoreReader(path)
        assert str(e.value) == f"{idx}: truncated index"

    def test_header_count_past_the_records_is_a_truncated_store(self, tmp_path):
        path = self._write(tmp_path, [[1, 2], [3]])
        (tmp_path / "c.seqs.idx").unlink()
        path.write_bytes(b"SEQS" + struct.pack("<IQ", 1, 3) + path.read_bytes()[16:])
        with pytest.raises(StoreFormatError) as e:
            SequenceStoreReader(path).lengths()
        assert str(e.value) == f"{path}: truncated store"

    def test_header_count_is_bounded_by_the_file_size(self, tmp_path):
        # Two records take 20 bytes after the header: room for 5 length prefixes at most.
        path = self._write(tmp_path, [[1, 2], [3]])
        records = path.read_bytes()[16:]
        path.write_bytes(b"SEQS" + struct.pack("<IQ", 1, 5) + records)
        assert store_count(path) == 5
        path.write_bytes(b"SEQS" + struct.pack("<IQ", 1, 6) + records)
        for read_count in (store_count, SequenceStoreReader):  # the index is never read
            with pytest.raises(StoreFormatError) as e:
                read_count(path)
            assert str(e.value) == f"{path}: truncated store"

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_store_count_of_a_pipe_reads_the_header_alone(self):
        r, w = os.pipe()
        os.write(w, b"SEQS" + struct.pack("<IQ", 1, 7))
        os.close(w)
        try:
            assert store_count(f"/dev/fd/{r}") == 7
        finally:
            os.close(r)

    def test_store_cut_after_opening_changed_while_open(self, tmp_path):
        path = self._write(tmp_path, [[1, 2], [3]])
        reader = SequenceStoreReader(path)
        os.truncate(path, 16)  # the index offsets were read when it opened
        with pytest.raises(StoreFormatError) as e:
            reader.gather([0])
        assert str(e.value) == f"{path}: store changed while open"

    def test_failed_write_leaves_old_files(self, tmp_path):
        path = self._write(tmp_path, [[1, 2], [3]])
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def seqs():
            yield [4, 5]
            raise RuntimeError("source failed")

        with pytest.raises(RuntimeError):
            write_store(seqs(), path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_chunks_of_numpy_documents_are_stored(self, tmp_path):
        path = tmp_path / "c.seqs"
        docs = [np.arange(3, 9, dtype=np.uint32)]
        assert write_store(chunk_corpus(docs, seq_len=4, min_tail=2), path) == 2
        assert list(SequenceStoreReader(path)) == [[3, 4, 5, 6], [7, 8]]

    def test_rewrite_is_byte_identical(self, tmp_path):
        id_lists = [[1, 2, 3], [4], [5, 6]]
        p1 = self._write(tmp_path, id_lists)
        first = p1.read_bytes()
        reread = list(SequenceStoreReader(p1))
        p2 = tmp_path / "again.seqs"
        write_store(reread, p2)
        assert p2.read_bytes() == first


ID_LISTS = [[1, 2, 3], [4], [5, 6], [2**32 - 1, 0], list(range(7, 40))]


def packed(ids) -> bytes:
    return struct.pack(f"<{len(ids)}I", *ids)


def u4_views(id_lists) -> list:
    """Each id list as a view of one flat `<u4` array, as a corrupted run
    hands them to the store writer."""
    flat = np.array([t for ids in id_lists for t in ids], dtype="<u4")
    return np.split(flat, np.cumsum([len(ids) for ids in id_lists])[:-1])


def store_files(path) -> tuple[bytes, bytes]:
    return Path(path).read_bytes(), Path(default_index_path(path)).read_bytes()


class TestStoreWriter:
    """append takes rows as u32 buffers of any kind, and writes what
    write_store writes for the same id lists."""

    @pytest.mark.parametrize("kind", ["bytes", "views", "mixed"])
    def test_buffers_write_the_store_of_write_store(self, tmp_path, kind):
        write_store(ID_LISTS, tmp_path / "ref.seqs")
        views = u4_views(ID_LISTS)
        assert all(isinstance(v, np.ndarray) and v.base is not None for v in views)
        rows = {"bytes": lambda: (packed(ids) for ids in ID_LISTS),
                "views": lambda: iter(views),
                "mixed": lambda: (packed(ids) if i % 2 else view
                                  for i, (ids, view) in enumerate(zip(ID_LISTS, views)))}[kind]()
        path = tmp_path / "c.seqs"
        with store_writer(path) as append:
            assert append(rows) == len(ID_LISTS)
        assert store_files(path) == store_files(tmp_path / "ref.seqs")
        assert list(SequenceStoreReader(path)) == ID_LISTS

    def test_each_append_returns_the_count_so_far(self, tmp_path):
        write_store(ID_LISTS, tmp_path / "ref.seqs")
        views = u4_views(ID_LISTS)
        path = tmp_path / "c.seqs"
        with store_writer(path) as append:
            assert append(views[:2]) == 2
            assert append([]) == 2
            assert append(packed(ids) for ids in ID_LISTS[2:]) == len(ID_LISTS)
        assert store_files(path) == store_files(tmp_path / "ref.seqs")

    @pytest.mark.parametrize("bad", [b"", b"\x01" * 6, np.zeros(0, "<u4"), np.zeros(3, "<u2")],
                             ids=["empty", "6 bytes", "empty view", "6-byte view"])
    @pytest.mark.parametrize("at", [0, 2, len(ID_LISTS)])
    def test_a_bad_row_anywhere_fails_and_leaves_no_files(self, tmp_path, bad, at):
        rows = [packed(ids) for ids in ID_LISTS]
        rows.insert(at, bad)
        size = memoryview(bad).nbytes
        with pytest.raises(CorpusError, match=f"^cannot store a sequence of {size} bytes$"):
            with store_writer(tmp_path / "c.seqs") as append:
                append(iter(rows))
        assert list(tmp_path.iterdir()) == []


def test_store_cut_mid_payload_is_rejected_when_it_opens(tmp_path):
    path = tmp_path / "c.seqs"
    write_store([[1, 2], [3, 4, 5]], path)
    path.write_bytes(path.read_bytes()[:-6])  # the last sequence loses 1.5 ids
    (tmp_path / "c.seqs.idx").unlink()
    with pytest.raises(StoreFormatError) as e:
        SequenceStoreReader(path)
    assert str(e.value) == f"{path}: truncated sequence 1"


HEAD_RECORDS = [[1, 9, 4], [5, 6], [7], [8, 8], [2, 3, 4, 5], [6]]  # at 16, 32, 44, 52, 64, 84


def _set_offset(idx: Path, record: int, offset: int) -> None:
    data = bytearray(idx.read_bytes())
    data[16 + 8 * record : 24 + 8 * record] = struct.pack("<Q", offset)
    idx.write_bytes(data)


def _cut_unindexed(path: Path, size: int, idx: Path) -> None:
    idx.unlink()
    path.write_bytes(path.read_bytes()[:size])


# Each fault of a store of HEAD_RECORDS, and the first record it is found at
# (None: found whatever is read).
HEAD_FAULTS = {
    "bad magic": (lambda path, idx: path.write_bytes(b"XXXX" + path.read_bytes()[4:]), None),
    "header count past the records": (lambda path, idx: path.write_bytes(
        b"SEQS" + struct.pack("<IQ", 1, 20) + path.read_bytes()[16:]), None),
    "index count": (lambda path, idx: idx.write_bytes(
        b"SEQI" + struct.pack("<IQ", 1, 5) + idx.read_bytes()[16:]), None),
    "index cut short": (lambda path, idx: idx.write_bytes(idx.read_bytes()[:-8]), None),
    "stale offset": (lambda path, idx: _set_offset(idx, 2, 48), 2),
    "offset past the end": (lambda path, idx: _set_offset(idx, 5, 4000), 5),
    "indexed store cut short": (lambda path, idx: path.write_bytes(path.read_bytes()[:-4]), 5),
    "unindexed store cut inside a record": (lambda path, idx: _cut_unindexed(path, 50, idx), 2),
    "unindexed store cut before a prefix": (lambda path, idx: _cut_unindexed(path, 64, idx), 4),
}


@pytest.mark.parametrize("fault", sorted(HEAD_FAULTS))
def test_store_head_checks_its_records_as_the_reader_does(tmp_path, fault):
    path = tmp_path / "c.seqs"
    write_store(HEAD_RECORDS, path)
    spoil, found_at = HEAD_FAULTS[fault]
    spoil(path, Path(default_index_path(path)))
    with pytest.raises(StoreFormatError) as opened:
        SequenceStoreReader(path)
    for n in range(len(HEAD_RECORDS) + 2):
        if found_at is None or n > found_at:
            with pytest.raises(StoreFormatError) as head:
                store_head(path, n)
            assert str(head.value) == str(opened.value)
        else:
            assert store_head(path, n) == [tuple(ids) for ids in HEAD_RECORDS[:n]]


@pytest.mark.parametrize("index", [True, False], ids=["index", "walk"])
@pytest.mark.parametrize("records", [HEAD_RECORDS, []])
def test_store_head_is_the_first_records_the_reader_reads(tmp_path, index, records):
    path = tmp_path / "c.seqs"
    write_store(records, path)
    if not index:
        Path(default_index_path(path)).unlink()
    whole = [tuple(ids) for ids in SequenceStoreReader(path)]
    assert [store_head(path, n) for n in range(8)] == [whole[:n] for n in range(8)]


WINDOW_STORE = [[1 + i % 7] * (1 + i % 3) for i in range(WINDOW_RECORDS + 3)]


def _window_offsets(path: Path) -> tuple[int, ...]:
    data = Path(default_index_path(path)).read_bytes()
    return struct.unpack_from(f"<{len(WINDOW_STORE)}Q", data, 16)


def _cut_at(path: Path, extra: int, unindexed: bool) -> None:
    """Cut the store `extra` bytes into record WINDOW_RECORDS."""
    size = _window_offsets(path)[WINDOW_RECORDS] + extra
    if unindexed:
        Path(default_index_path(path)).unlink()
    path.write_bytes(path.read_bytes()[:size])


# Faults at record WINDOW_RECORDS, the first of the second window of prefixes.
WINDOW_FAULTS = {
    "none, indexed": lambda path: None,
    "none, unindexed": lambda path: Path(default_index_path(path)).unlink(),
    "stale offset": lambda path: _set_offset(Path(default_index_path(path)), WINDOW_RECORDS,
                                             _window_offsets(path)[WINDOW_RECORDS] + 4),
    "indexed store cut inside a record": lambda path: _cut_at(path, 6, False),
    "unindexed store cut inside a record": lambda path: _cut_at(path, 6, True),
    "unindexed store cut before a prefix": lambda path: _cut_at(path, 0, True),
}


@pytest.mark.parametrize("fault", WINDOW_FAULTS)
def test_store_head_and_the_reader_agree_across_a_window_of_prefixes(tmp_path, fault):
    path = tmp_path / "c.seqs"
    write_store(WINDOW_STORE, path)
    WINDOW_FAULTS[fault](path)
    head = [tuple(ids) for ids in WINDOW_STORE]
    assert store_head(path, WINDOW_RECORDS) == head[:WINDOW_RECORDS]
    if fault.startswith("none"):
        assert store_head(path, len(head) + 1) == [tuple(ids) for ids in SequenceStoreReader(path)]
        assert store_head(path, len(head)) == head
        return
    with pytest.raises(StoreFormatError) as opened:
        SequenceStoreReader(path)
    for n in (WINDOW_RECORDS + 1, len(head)):
        with pytest.raises(StoreFormatError) as walked:
            store_head(path, n)
        assert str(walked.value) == str(opened.value)


# Opens a store, reads its lengths, gathers every sequence 16 at a time in
# store order and then in length order, and prints how far that raised the
# process's peak RSS (VmHWM), in bytes.
PEAK_CHILD = """
import sys
import numpy  # loaded before the baseline, so only store pages count
from warmstart.corpus import SequenceStoreReader

def peak():
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) * 1024 for line in f if line.startswith("VmHWM:"))

before = peak()
reader = SequenceStoreReader(sys.argv[1])
lengths = reader.lengths()
for order in (range(reader.count), sorted(range(reader.count), key=lengths.__getitem__)):
    for lo in range(0, reader.count, 16):
        reader.gather(order[lo : lo + 16])
print(peak() - before)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_reading_a_whole_store_keeps_few_pages_resident(tmp_path):
    path = tmp_path / "big.seqs"
    rng = random.Random(3)
    ids = list(range(1, 513))
    write_store((ids[: rng.randrange(100, 513)] for _ in range(40_000)), path)
    size = path.stat().st_size
    assert size > 45 * 2**20
    src = str(Path(warmstart.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", PEAK_CHILD, str(path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < size / 4


# Opens a store, gathers every sequence 4,096 at a time in store order, and
# prints how far that raised the process's peak RSS (VmHWM), in bytes.
OPEN_CHILD = """
import sys
import numpy  # loaded before the baseline, so only the reader's arrays count
from warmstart.corpus import SequenceStoreReader

def peak():
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) * 1024 for line in f if line.startswith("VmHWM:"))

before = peak()
reader = SequenceStoreReader(sys.argv[1])
for lo in range(0, reader.count, 4096):
    reader.gather(range(lo, min(lo + 4096, reader.count)))
print(peak() - before)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
@pytest.mark.parametrize("index", [True, False], ids=["index", "walk"])
def test_an_open_reader_holds_one_offset_per_sequence(tmp_path, index):
    """The reader's offset table takes 8 bytes a sequence, read from the
    index or walked; nothing else may grow with the count by more than 4
    bytes a sequence."""
    count = 1_000_000
    path = tmp_path / "short.seqs"
    with store_writer(path) as append:
        append(np.arange(4 * count, dtype="<u4").reshape(count, 4))
    if not index:
        Path(default_index_path(path)).unlink()
    src = str(Path(warmstart.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", OPEN_CHILD, str(path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) <= 12 * count
