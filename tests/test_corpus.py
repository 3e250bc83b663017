import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warmstart.corpus import (
    CorpusError,
    SequenceStoreReader,
    StoreFormatError,
    TokenSequence,
    chunk_corpus,
    default_index_path,
    read_store,
    write_store,
)


class TestChunkCorpus:
    def test_exact_division(self):
        seqs = list(chunk_corpus([list(range(1024))], seq_len=512))
        assert [len(s) for s in seqs] == [512, 512]
        assert seqs[0].ids == list(range(512))
        assert seqs[1].ids == list(range(512, 1024))

    def test_tail_kept_when_long_enough(self):
        seqs = list(chunk_corpus([list(range(600))], seq_len=512, min_tail=16))
        assert [len(s) for s in seqs] == [512, 88]

    def test_short_tail_dropped(self):
        assert list(chunk_corpus([list(range(8))], seq_len=512, min_tail=16)) == []

    def test_min_tail_zero_keeps_everything(self):
        seqs = list(chunk_corpus([list(range(5))], seq_len=4, min_tail=0))
        assert [len(s) for s in seqs] == [4, 1]

    def test_empty_documents_yield_nothing(self):
        assert list(chunk_corpus([[], []], seq_len=4, min_tail=1)) == []

    def test_no_cross_document_sequences(self):
        # every id carries its doc ordinal, so a mixed sequence would show
        docs = [[d] * n for d, n in enumerate([10, 3, 17])]
        for seq in chunk_corpus(docs, seq_len=4, min_tail=1):
            assert len(set(seq.ids)) == 1
            assert seq.ids[0] == seq.source_doc

    def test_seq_index_is_global(self):
        docs = [list(range(10)), list(range(9))]
        seqs = list(chunk_corpus(docs, seq_len=4, min_tail=1))
        assert [s.seq_index for s in seqs] == list(range(len(seqs)))

    def test_invalid_params(self):
        with pytest.raises(CorpusError):
            list(chunk_corpus([[1, 2]], seq_len=1))
        with pytest.raises(CorpusError):
            list(chunk_corpus([[1, 2]], seq_len=4, min_tail=5))

    @settings(max_examples=100)
    @given(
        docs=st.lists(
            st.lists(st.integers(min_value=0, max_value=1000), max_size=40),
            max_size=6,
        ),
        seq_len=st.integers(min_value=2, max_value=16),
        min_tail=st.integers(min_value=0, max_value=16),
    )
    def test_conservation(self, docs, seq_len, min_tail):
        if min_tail > seq_len:
            min_tail = seq_len
        seqs = list(chunk_corpus(docs, seq_len=seq_len, min_tail=min_tail))
        expected = 0
        for doc in docs:
            full = (len(doc) // seq_len) * seq_len
            tail = len(doc) - full
            expected += full + (tail if tail >= min_tail and tail > 0 else 0)
        assert sum(len(s) for s in seqs) == expected
        for s in seqs:
            assert 1 <= len(s) <= seq_len


class TestStore:
    def _write(self, tmp_path, id_lists):
        path = tmp_path / "c.seqs"
        write_store((TokenSequence(ids=list(ids)) for ids in id_lists), path)
        return path

    def test_round_trip_middle(self, tmp_path):
        path = self._write(tmp_path, [[1, 2, 3], [4, 5], [6]])
        assert read_store(path, 1).ids == [4, 5]

    def test_index_out_of_range(self, tmp_path):
        path = self._write(tmp_path, [[1], [2], [3]])
        with pytest.raises(IndexError):
            read_store(path, 3)

    @pytest.mark.parametrize("indices", [[0, 1, 2], [1, 2], [2, 0, 2], []])
    def test_gather_is_the_reads_concatenated(self, tmp_path, indices):
        reader = SequenceStoreReader(self._write(tmp_path, [[1, 2, 3], [4, 5], [6]]))
        ids, lengths = reader.gather(indices)
        assert ids.tolist() == [t for i in indices for t in reader.read(i).ids]
        assert lengths.tolist() == [len(reader.read(i)) for i in indices]

    def test_reads_after_release_are_unchanged(self, tmp_path):
        reader = SequenceStoreReader(self._write(tmp_path, [[1, 2, 3], [4, 5], [6]]))
        ids, _ = reader.gather([2, 0])
        reader.release()
        assert ids.tolist() == [6, 1, 2, 3]
        assert reader.gather([2, 0])[0].tolist() == [6, 1, 2, 3]
        assert [s.ids for s in reader] == [[1, 2, 3], [4, 5], [6]]

    @pytest.mark.parametrize("index", [-1, 3])
    def test_gather_out_of_range(self, tmp_path, index):
        reader = SequenceStoreReader(self._write(tmp_path, [[1], [2], [3]]))
        with pytest.raises(IndexError):
            reader.gather([0, index])

    def test_empty_store_readable(self, tmp_path):
        path = self._write(tmp_path, [])
        reader = SequenceStoreReader(path)
        assert reader.count == 0
        assert list(reader) == []

    def test_iteration_order(self, tmp_path):
        id_lists = [[1, 2], [3], [4, 5, 6]]
        path = self._write(tmp_path, id_lists)
        assert [s.ids for s in SequenceStoreReader(path)] == id_lists

    def test_scan_fallback_without_index(self, tmp_path):
        path = self._write(tmp_path, [[7, 8], [9]])
        default_idx = tmp_path / "c.seqs.idx"
        default_idx.unlink()
        reader = SequenceStoreReader(path)
        assert reader.read(1).ids == [9]

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
            write_store([TokenSequence(ids=[])], tmp_path / "c.seqs")

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
            write_store((TokenSequence(ids=ids) for ids in id_lists), path)
            reader = SequenceStoreReader(path)
            assert [s.ids for s in reader] == id_lists
            for i, ids in enumerate(id_lists):
                assert reader.read(i).ids == ids

    @pytest.mark.parametrize("offsets", [
        (16, 20, 32),  # read(1) would return [9]
        (16, 33, 44),  # not on a word boundary
        (20, 32, 44),  # not starting at the first record
        (16, 32, 4000),  # past the end of the file
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
        assert [s.ids for s in indexed] == [s.ids for s in walked] == id_lists

    def test_failed_write_leaves_old_files(self, tmp_path):
        path = self._write(tmp_path, [[1, 2], [3]])
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def seqs():
            yield TokenSequence(ids=[4, 5])
            raise RuntimeError("source failed")

        with pytest.raises(RuntimeError):
            write_store(seqs(), path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_rewrite_is_byte_identical(self, tmp_path):
        id_lists = [[1, 2, 3], [4], [5, 6]]
        p1 = self._write(tmp_path, id_lists)
        first = p1.read_bytes()
        reread = [s.ids for s in SequenceStoreReader(p1)]
        p2 = tmp_path / "again.seqs"
        write_store((TokenSequence(ids=ids) for ids in reread), p2)
        assert p2.read_bytes() == first


@pytest.mark.parametrize("access", ["lengths", "iterate", "read without index"])
def test_store_cut_mid_payload_is_rejected(tmp_path, access):
    path = tmp_path / "c.seqs"
    write_store((TokenSequence(ids=ids) for ids in [[1, 2], [3, 4, 5]]), path)
    path.write_bytes(path.read_bytes()[:-6])  # the last sequence loses 1.5 ids
    (tmp_path / "c.seqs.idx").unlink()
    reader = SequenceStoreReader(path)
    with pytest.raises(StoreFormatError, match="truncated"):
        if access == "lengths":
            reader.lengths()
        elif access == "iterate":
            list(reader)
        else:
            reader.read(0)
