"""Pinned outputs of every subcommand on the small CLI fixtures.

Each digest is the SHA-256 of one subcommand's stdout or of one file it
wrote; they were computed before the CLI options moved into declarative
tables (the big-corpus ones before prepare-corpus tokenized on workers),
so a refactor that changes any byte of any artifact fails here. The
sample-* ids were re-pinned once, deliberately, when version 0.2.0 changed
the mask stream to SHAKE-128 keys; lengths and reports did not change. The
sample-*-binary files were re-pinned when version 0.4.0 wrote the inputs and
targets as one store of record pairs.
Temporary directory paths are replaced by `<tmp>` before stdout is hashed.
The option set each subcommand's parser accepts is pinned the same way.
"""

import argparse
import contextlib
import hashlib
import io
import random

import numpy as np
import pytest

from warmstart.cli import build_parser, main
from warmstart.corpus import write_store
from warmstart.transplant import EmbeddingMatrix, write_embeddings

from conftest import write_vocab_file
from test_cli import VOCAB_TOKENS, WORDS, _isolate_run_log  # noqa: F401 (autouse fixture)

TGT_TOKENS = ["<pad>", "</s>", "<unk>", "▁rød", "▁blå", "<s2>", "<s1>", "<s0>"]
RETRY_TGT_TOKENS = [
    "<pad>", "</s>", "<unk>", "▁rød", "▁blå", "▁hus", "▁42", "sun", "<s2>", "<s1>", "<s0>",
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def collect_digests(tmp) -> dict[str, str]:
    """Run every subcommand on the fixtures under `tmp` and digest its output."""
    vocab = write_vocab_file(tmp / "vocab.txt", VOCAB_TOKENS)
    emb = tmp / "src.embt"
    rng = np.random.default_rng(21)
    write_embeddings(
        EmbeddingMatrix(rng.standard_normal((len(VOCAB_TOKENS), 4), dtype=np.float32)), emb
    )
    corpus = tmp / "corpus"
    corpus.mkdir()
    (corpus / "a.txt").write_text(
        " ".join(WORDS[(i * 5 + 3) % len(WORDS)] for i in range(20)), encoding="utf-8"
    )
    (corpus / "b.txt").write_text(" ".join(WORDS[:8] + ["red"]), encoding="utf-8")
    single = tmp / "single.txt"
    single.write_text("red blue green\n\nsun moon salt iron pine red blue", encoding="utf-8")

    digests: dict[str, str] = {}
    run = _runner(tmp, digests)

    store = tmp / "corpus.seqs"
    run("prepare-corpus", [
        "prepare-corpus", "--vocab", vocab, "--in", corpus, "--out", store,
        "--seq-len", 8, "--min-tail", 2, "--sentinel-count", 3,
    ], [store, tmp / "corpus.seqs.idx"])
    single_store = tmp / "single.seqs"
    run("prepare-corpus-file", [
        "prepare-corpus", "--vocab", vocab, "--in", single, "--out", single_store,
        "--seq-len", 4, "--min-tail", 2, "--sentinel-count", 3,
    ], [single_store])
    run("stats", ["stats", "--store", store])
    _prepare_big_corpus(tmp, vocab, run)

    base = [
        "sample-batches", "--store", store, "--vocab", vocab, "--seed", 5,
        "--micro-batch", 2, "--effective-batch", 8, "--sentinel-count", 3,
    ]
    for epoch in (0, 1):
        text, report = tmp / f"e{epoch}.tsv", tmp / f"e{epoch}.eff"
        run(f"sample-text-e{epoch}", [
            *base, "--epoch", epoch, "--out", text, "--report", report,
        ], [text, report])
        out = tmp / f"bin{epoch}"
        run(f"sample-binary-e{epoch}", [
            *base, "--epoch", epoch, "--format", "binary", "--out", out,
        ], [out, tmp / f"bin{epoch}.idx"])
    run("sample-stdout-iid-sorted", [
        *base, "--mode", "iid", "--rate", 0.3, "--sort-by-length",
    ])
    _sample_big_store(tmp, vocab, run)

    out = tmp / "identity.embt"
    run("transplant-identity", [
        "transplant", "--src-emb", emb, "--src-vocab", vocab, "--tgt-vocab", vocab,
        "--out", out, "--report", tmp / "identity.json", "--sentinel-count", 3,
    ], [out, tmp / "identity.json"])
    tgt = write_vocab_file(tmp / "tgt.txt", TGT_TOKENS)
    dict_file = tmp / "dict.tsv"
    dict_file.write_text("rød\tred\nblå\tblue\n", encoding="utf-8")
    out, cache = tmp / "dict.embt", tmp / "cache.tsv"
    run("transplant-dict", [
        "transplant", "--src-emb", emb, "--src-vocab", vocab, "--tgt-vocab", tgt,
        "--out", out, "--provider", "dict", "--dict-file", dict_file,
        "--cache", cache, "--report", tmp / "dict.json", "--sentinel-count", 3,
    ], [out, cache, tmp / "dict.json"])
    retry_tgt = write_vocab_file(tmp / "retry-tgt.txt", RETRY_TGT_TOKENS)
    retry_argv = [
        "transplant", "--src-emb", emb, "--src-vocab", vocab, "--tgt-vocab", retry_tgt,
        "--out", out, "--provider", "dict", "--dict-file", dict_file,
        "--cache", cache, "--sentinel-count", 3,
    ]
    run("transplant-dict-grow", retry_argv, [out, cache])
    dict_file.write_text("rød\tred\nblå\tblue\nhus\tpine\n", encoding="utf-8")
    run("transplant-dict-retry", [*retry_argv, "--retry-failed"], [out, cache])

    run("lr-curve-stdout", ["lr-curve", "--total", 20000, "--stride", 2500])
    run("lr-curve-rsqrt", [
        "lr-curve", "--total", 300, "--warmup", 40, "--shape", "rsqrt",
        "--peak", 0.01, "--stride", 7,
    ])
    curve = tmp / "curve.csv"
    run("lr-curve-derived", [
        "lr-curve", "--store", store, "--epochs", 10, "--effective-batch", 2,
        "--warmup", 5, "--stride", 7, "--out", curve,
    ], [curve])

    run("memplan-estimate", ["memplan", "--params", 1000, "--precision", "fp16"])
    run("memplan-offload", ["memplan", "--params", 123456789, "--offload", "--precision", "bf16"])
    run("memplan-hardware", [
        "memplan", "--params", 60000000, "--gpus", 2, "--gpu-mem", 40, "--ram", 512, "--nvlink",
    ])
    run("memplan-no-fit", [
        "memplan", "--params", 770000000, "--gpus", 1, "--gpu-mem", "0.5", "--ram", 8,
    ])
    return digests


def _runner(tmp, digests):
    def run(name, argv, files=()):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main([str(a) for a in argv])
        assert code == 0, f"{name} exited {code}"
        digests[f"{name}:stdout"] = _sha(buf.getvalue().replace(str(tmp), "<tmp>").encode())
        for f in files:
            digests[f"{name}:{f.name}"] = _sha(f.read_bytes())

    return run


def write_big_store(path, count=320):
    """Sequences of 2 to 40 regular ids: enough micro-batches of 2 to make
    several runs for workers, and lengths that vary for --sort-by-length."""
    rng = random.Random(8)
    write_store(([rng.randint(3, 10) for _ in range(rng.randint(2, 40))] for _ in range(count)),
                path)
    return path


def _sample_big_store(tmp, vocab, run):
    store = write_big_store(tmp / "big.seqs")
    base = [
        "sample-batches", "--store", store, "--vocab", vocab, "--seed", 9,
        "--micro-batch", 2, "--effective-batch", 8, "--sentinel-count", 3,
    ]
    text, report = tmp / "big.tsv", tmp / "big.eff"
    run("sample-big-text", [*base, "--out", text, "--report", report], [text, report])
    run("sample-big-stdout", base)
    out = tmp / "bigbin"
    run("sample-big-binary", [*base, "--format", "binary", "--out", out],
        [out, tmp / "bigbin.idx"])
    run("sample-big-sorted", [*base, "--sort-by-length", "--report", report], [report])


def write_big_corpus(tmp):
    """About 1.1 MB of text in 14 documents of 0 to 275 KB, enough for
    several groups of tokenizing work, as a directory of *.txt files and as
    one file of the same documents in blank-line-separated blocks. Words are
    vocabulary words and unknown strings, some non-ASCII, between runs of
    spaces, tabs and single newlines."""
    rng = random.Random(12)
    unknown = ["".join(rng.choice("abdeilmnoprstuzø") for _ in range(rng.randint(1, 9)))
               for _ in range(3000)]
    corpus = tmp / "big-corpus"
    corpus.mkdir()
    docs = []
    for d, kib in enumerate([40, 0, 130, 90, 300, 5, 250, 1, 60, 120, 80, 20, 70, 33]):
        parts = []
        for _ in range(kib * 1024 // 6):
            parts.append(rng.choice(WORDS) if rng.random() < 0.8 else rng.choice(unknown))
            parts.append(rng.choice([" "] * 12 + ["\n", "\t", "  ", " \n "]))
        docs.append("".join(parts))
        (corpus / f"doc{d:02d}.txt").write_text(docs[-1], encoding="utf-8")
    single = tmp / "big-corpus.txt"
    single.write_text("\n\n".join(docs), encoding="utf-8")
    return corpus, single


def _prepare_big_corpus(tmp, vocab, run):
    corpus, single = write_big_corpus(tmp)
    for name, source in (("prepare-big-dir", corpus), ("prepare-big-file", single)):
        store = tmp / f"{name}.seqs"
        run(name, [
            "prepare-corpus", "--vocab", vocab, "--in", source, "--out", store,
            "--seq-len", 64, "--min-tail", 5, "--sentinel-count", 3,
        ], [store, tmp / f"{name}.seqs.idx"])


GOLDEN = {
    'prepare-corpus:stdout': '097f754a45b0e61d0c619b5f7ca5f60fbf1afe0a764310d02f381422b1b219c6',
    'prepare-corpus:corpus.seqs': 'c348c85930b98887d4b58782778987f05795f5bc32f7c01715043a03869bdede',
    'prepare-corpus:corpus.seqs.idx': '572e55c46e7f7c3d09fff213e6a055fadadfdc9d1c19f6d8e96962a101163e6a',
    'prepare-corpus-file:stdout': '7fc08c9c863633f2c362d712c1da1291b33d63a612e36eaedbc42dea1dccae65',
    'prepare-corpus-file:single.seqs': '6e79e8482e2774f2a13b75015e6bf40e617a353eee0f0355f5719c3fdf21e74c',
    'stats:stdout': 'c3348ba5e70b35e44e059dd27ca22a38ea745caa8db6e06bb0a50d6a2bd30240',
    'prepare-big-dir:stdout': '54928242de1e49e8df887e43dd31d9e114a38ed3692dc403edb59e519d9ee580',
    'prepare-big-dir:prepare-big-dir.seqs': '5b5fb9c3bac7799da354df3561d40cfff2f74471c8e3b638ea52513882b592a0',
    'prepare-big-dir:prepare-big-dir.seqs.idx': 'fcd308d3ac10dc665d8c3e3ff9a692397bc5263ebfc6f840aa60098e7c7cb622',
    'prepare-big-file:stdout': '54928242de1e49e8df887e43dd31d9e114a38ed3692dc403edb59e519d9ee580',
    'prepare-big-file:prepare-big-file.seqs': '5b5fb9c3bac7799da354df3561d40cfff2f74471c8e3b638ea52513882b592a0',
    'prepare-big-file:prepare-big-file.seqs.idx': 'fcd308d3ac10dc665d8c3e3ff9a692397bc5263ebfc6f840aa60098e7c7cb622',
    'sample-text-e0:stdout': '863696cfe8def6edf89512220267f6a6ec78e6157493dc15ef91089469b61c95',
    'sample-text-e0:e0.tsv': '408e65eafd3956167a4c89fc7502c0f8906de17039271dc09cad7373076ae793',
    'sample-text-e0:e0.eff': '83cc16c2fb0a879a949832b8a2b681ce0bb459c761d0e0c4aea8eaf165235449',
    'sample-binary-e0:stdout': '863696cfe8def6edf89512220267f6a6ec78e6157493dc15ef91089469b61c95',
    'sample-binary-e0:bin0': '51d8878956dae05d0f980864fd606968debc27e20fc0b697fb5fddb9d748c3b5',
    'sample-binary-e0:bin0.idx': '8ca7ddbf0d72cdfb36ea6a4b63ba27502b0655fd9407d966ce7c6acc0992bce6',
    'sample-text-e1:stdout': '1c1e8ae30686851584688e00d34d70449a5d213a0f28ad0c60e7c82ac4922ab7',
    'sample-text-e1:e1.tsv': '32128c1a6d3dba21648d42d2a86f7400a23075217c700611c65ebb24727f2792',
    'sample-text-e1:e1.eff': '83cc16c2fb0a879a949832b8a2b681ce0bb459c761d0e0c4aea8eaf165235449',
    'sample-binary-e1:stdout': '1c1e8ae30686851584688e00d34d70449a5d213a0f28ad0c60e7c82ac4922ab7',
    'sample-binary-e1:bin1': 'f0fb44076d59e9a6e1eac636a93cc0b5e15227b84f010d14fbd090b588343f54',
    'sample-binary-e1:bin1.idx': '8ca7ddbf0d72cdfb36ea6a4b63ba27502b0655fd9407d966ce7c6acc0992bce6',
    'sample-stdout-iid-sorted:stdout': '724321dd7cc3f81f162d6f20dd63256559b122396a34be698429bc3f45fe241e',
    'sample-big-text:stdout': '3afa6663d66c0a649720dc074cd6b4374bbfb7ea860b9a761443eed8ab7def10',
    'sample-big-text:big.tsv': '22e25914c020cf5820bc2bca614a0ee6df732f60d9e73a567e27df656635c0ec',
    'sample-big-text:big.eff': '51f4d0ebfe1eeef4339a8bad9f0969296e901f50fdcc4857c7cf0e16b147f151',
    'sample-big-stdout:stdout': 'ef50c34b76cbd1c3160be6823d8d87bcca8bd8a7239240a18669fcc236b72eca',
    'sample-big-binary:stdout': '3afa6663d66c0a649720dc074cd6b4374bbfb7ea860b9a761443eed8ab7def10',
    'sample-big-binary:bigbin': 'b4c118af289cd40a4cea626f652f88957938237e7cff652007779572c6ee4b1b',
    'sample-big-binary:bigbin.idx': '61ccb0ec67e64edc2f218a383206d01683608e8c110f51ce2ad1696e9b98fe92',
    'sample-big-sorted:stdout': 'a39e5dd1e4bf6ca9cde5387ab3e5ae8a387104755aa94355ba20fd71239538ac',
    'sample-big-sorted:big.eff': 'b775544635a1c88e9b3a96be348a4d5b681a3ba993a60467d7f491785def797e',
    'transplant-identity:stdout': '79e6ed72815a1ed79c318c977d4d471fe01f8843f6c1036c21e7969794ef4cee',
    'transplant-identity:identity.embt': '2ad3e549b834a6b4f3ec9b76d6e942a34f85bcd21a3fad097e0f14e249d0d4eb',
    'transplant-identity:identity.json': 'f4b71c596a1ac458379df28884440aca7a505aa1d618b9e65c7e6e98557374a1',
    'transplant-dict:stdout': 'f9fe60050f8853940ae54b9dc482db8c25b80d9a6ec0fbd801b0c34b32efffe4',
    'transplant-dict:dict.embt': '488d6213b38795a85be39f387bd64572ffec083a3f2c710cb9e23051c60c7f61',
    'transplant-dict:cache.tsv': '67c46c7e99c6679cc2057aed0edecd711c5a8cc1b9dcc750600d85349c5c994f',
    'transplant-dict:dict.json': '154d64aae0e4e9ab2abd1ecfdcca1a32efdee0398de64ad08bf88aa968381ce1',
    'transplant-dict-grow:stdout': '80bc322a1ba0ef43ea6892eaa2f1895fa1ace60b5326ef86f75b88b6fda44514',
    'transplant-dict-grow:dict.embt': '95c8cec5c0dab2801b233cf3e9ed0f0a602132eef8aac5eaa9bbeaa152c8312c',
    'transplant-dict-grow:cache.tsv': '24f5e7c3eaf2eea64e1dc36350e817f06fcf0acea33731b06cefa6330f21070f',
    'transplant-dict-retry:stdout': '3fe22b05380dc52b778ecfe7ae4db4e15687e2eb3459f462596fb2c89494f4b4',
    'transplant-dict-retry:dict.embt': '5d5c9b3c4f69d1d4fd50e8d0ab5dee769a58fd59c5bb3e3955cf1f8ed758046f',
    'transplant-dict-retry:cache.tsv': 'b66fa93da59c2f0697246188d8c3a02b8c557bc9657820cc834cc01b90624e99',
    'lr-curve-stdout:stdout': '7b50a06cfa0c588de361892a7419469edffe93be2abb1de30bc4962aa1889bef',
    'lr-curve-rsqrt:stdout': 'ced2e1c8c117759e1ea6927a2dc2420f8e7ce921ace946e06ee749bdfa51389c',
    'lr-curve-derived:stdout': '43cfbc6cd7adfbe409eafd5d0e895a3a1bbc688a9502a42796b7ac4cd4be4ff6',
    'lr-curve-derived:curve.csv': '527c9aed65c8178866974077ee026ca4647ea69b08a121c18b747e2b9e9cbef3',
    'memplan-estimate:stdout': '365153a4d4e916f25877d6e3edf3b7a0f5f46a77cbad17ded80e7548a814aa9b',
    'memplan-offload:stdout': '985b953ebb529f551345dd22299c9cf5240b327e61a76128ca20df13f24c14c3',
    'memplan-hardware:stdout': 'b3c181896432cc133669fc99262ce5c4675b5e35dfd1f0c7f479cf82e8e55db2',
    'memplan-no-fit:stdout': '009f5d716a8c8740f11f6871cca993c3ae57b1b79e814a94179bf18c280e1c37',
}


def parser_options() -> dict[str, dict[str, tuple]]:
    """Per subcommand: option string -> (config key, choices, takes a value)."""
    parser = build_parser()
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    out = {}
    for name, sub in subs.choices.items():
        out[name] = {
            flag: (a.dest, tuple(a.choices) if a.choices else None, a.nargs != 0)
            for a in sub._actions
            for flag in a.option_strings
        }
    return out


PARSER_OPTIONS = {'transplant': {'-h': ('help', None, False),
                '--help': ('help', None, False),
                '--config': ('config', None, True),
                '--seed': ('seed', None, True),
                '--run-log': ('run_log', None, True),
                '--pad-id': ('pad_id', None, True),
                '--eos-id': ('eos_id', None, True),
                '--unk-id': ('unk_id', None, True),
                '--sentinel-count': ('sentinel_count', None, True),
                '--boundary-marker': ('boundary_marker', None, True),
                '--src-emb': ('src_emb', None, True),
                '--src-vocab': ('src_vocab', None, True),
                '--tgt-vocab': ('tgt_vocab', None, True),
                '--out': ('out', None, True),
                '--report': ('report', None, True),
                '--cache': ('cache', None, True),
                '--provider': ('provider', ('dict', 'remote', 'identity'), True),
                '--dict-file': ('dict_file', None, True),
                '--remote-url': ('remote_url', None, True),
                '--source-lang': ('source_lang', None, True),
                '--target-lang': ('target_lang', None, True),
                '--retry-failed': ('retry_failed', None, False),
                '--rate-limit': ('rate_limit', None, True),
                '--timeout-ms': ('timeout_ms', None, True)},
 'prepare-corpus': {'-h': ('help', None, False),
                    '--help': ('help', None, False),
                    '--config': ('config', None, True),
                    '--seed': ('seed', None, True),
                    '--run-log': ('run_log', None, True),
                    '--pad-id': ('pad_id', None, True),
                    '--eos-id': ('eos_id', None, True),
                    '--unk-id': ('unk_id', None, True),
                    '--sentinel-count': ('sentinel_count', None, True),
                    '--boundary-marker': ('boundary_marker', None, True),
                    '--vocab': ('vocab', None, True),
                    '--in': ('input', None, True),
                    '--out': ('out', None, True),
                    '--seq-len': ('seq_len', None, True),
                    '--min-tail': ('min_tail', None, True)},
 'sample-batches': {'-h': ('help', None, False),
                    '--help': ('help', None, False),
                    '--config': ('config', None, True),
                    '--seed': ('seed', None, True),
                    '--run-log': ('run_log', None, True),
                    '--pad-id': ('pad_id', None, True),
                    '--eos-id': ('eos_id', None, True),
                    '--unk-id': ('unk_id', None, True),
                    '--sentinel-count': ('sentinel_count', None, True),
                    '--boundary-marker': ('boundary_marker', None, True),
                    '--store': ('store', None, True),
                    '--vocab': ('vocab', None, True),
                    '--epoch': ('epoch', None, True),
                    '--mode': ('mode', ('span', 'iid'), True),
                    '--rate': ('rate', None, True),
                    '--mean-span': ('mean_span', None, True),
                    '--micro-batch': ('micro_batch', None, True),
                    '--effective-batch': ('effective_batch', None, True),
                    '--sort-by-length': ('sort_by_length', None, False),
                    '--format': ('format', ('text', 'binary'), True),
                    '--out': ('out', None, True),
                    '--report': ('report', None, True)},
 'lr-curve': {'-h': ('help', None, False),
              '--help': ('help', None, False),
              '--config': ('config', None, True),
              '--seed': ('seed', None, True),
              '--run-log': ('run_log', None, True),
              '--peak': ('peak', None, True),
              '--warmup': ('warmup', None, True),
              '--total': ('total', None, True),
              '--shape': ('shape', ('linear', 'rsqrt'), True),
              '--stride': ('stride', None, True),
              '--store': ('store', None, True),
              '--epochs': ('epochs', None, True),
              '--effective-batch': ('effective_batch', None, True),
              '--out': ('out', None, True)},
 'memplan': {'-h': ('help', None, False),
             '--help': ('help', None, False),
             '--config': ('config', None, True),
             '--seed': ('seed', None, True),
             '--run-log': ('run_log', None, True),
             '--params': ('params', None, True),
             '--precision': ('precision', ('fp32', 'fp16', 'bf16'), True),
             '--offload': ('offload', None, False),
             '--gpus': ('gpus', None, True),
             '--gpu-mem': ('gpu_mem', None, True),
             '--ram': ('ram', None, True),
             '--nvlink': ('nvlink', None, False)},
 'stats': {'-h': ('help', None, False),
           '--help': ('help', None, False),
           '--config': ('config', None, True),
           '--seed': ('seed', None, True),
           '--run-log': ('run_log', None, True),
           '--store': ('store', None, True)}}


def test_every_artifact_and_stdout_matches_the_pinned_digest(tmp_path):
    digests = collect_digests(tmp_path)
    assert sorted(digests) == sorted(GOLDEN)
    changed = [name for name in GOLDEN if digests[name] != GOLDEN[name]]
    assert not changed, f"outputs differ from the pinned digests: {changed}"


@pytest.mark.parametrize("workers", ["1", "2"])
def test_big_corpus_stores_match_the_pinned_digests_at_one_and_two_workers(
    tmp_path, monkeypatch, workers
):
    monkeypatch.setenv("WARMSTART_WORKERS", workers)
    digests: dict[str, str] = {}
    vocab = write_vocab_file(tmp_path / "vocab.txt", VOCAB_TOKENS)
    _prepare_big_corpus(tmp_path, vocab, _runner(tmp_path, digests))
    assert digests == {k: v for k, v in GOLDEN.items() if k.startswith("prepare-big-")}


@pytest.mark.parametrize("workers", ["1", "2"])
def test_big_store_batches_match_the_pinned_digests_at_one_and_two_workers(
    tmp_path, monkeypatch, workers
):
    monkeypatch.setenv("WARMSTART_WORKERS", workers)
    digests: dict[str, str] = {}
    vocab = write_vocab_file(tmp_path / "vocab.txt", VOCAB_TOKENS)
    _sample_big_store(tmp_path, vocab, _runner(tmp_path, digests))
    assert digests == {k: v for k, v in GOLDEN.items() if k.startswith("sample-big-")}


def test_option_strings_config_keys_and_choices_are_pinned():
    assert parser_options() == PARSER_OPTIONS
