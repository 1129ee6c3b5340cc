"""CLI surface: subcommand wiring, parquet-in → parquet-out, predicate
pushdown via --blocks-subset. Runs in-process (the CLI guards ray.init)."""
import glob
import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from prclz_ray import cli

TMP = "/tmp/prclz_ray_test_cli"


def test_synth_blocks_complexity_roundtrip():
    shutil.rmtree(TMP, ignore_errors=True)
    cli.main(["synth", "--out", TMP, "--n-pages", "200"])
    assert pq.read_table(f"{TMP}/regions.parquet").num_rows == 12

    cli.main(["blocks", "--regions", f"{TMP}/regions.parquet",
              "--lines", f"{TMP}/lines.parquet", "--out", f"{TMP}/blocks"])
    blocks = pq.read_table(glob.glob(f"{TMP}/blocks/**/*.parquet",
                                     recursive=True))
    assert blocks.num_rows == 192  # 12 regions × 4×4 grid cells

    cli.main(["complexity", "--blocks", f"{TMP}/blocks",
              "--buildings", f"{TMP}/buildings.parquet",
              "--out", f"{TMP}/complexity",
              "--blocks-subset", "SYNA.1.1_1_0,SYNA.1.1_1_3"])
    comp = pq.read_table(glob.glob(f"{TMP}/complexity/**/*.parquet",
                                   recursive=True))
    assert comp.num_rows == 2
    assert set(comp["block_id"].to_pylist()) == {"SYNA.1.1_1_0",
                                                 "SYNA.1.1_1_3"}

    # --overwrite guard: second run without it skips (no exception)
    cli.main(["blocks", "--regions", f"{TMP}/regions.parquet",
              "--lines", f"{TMP}/lines.parquet", "--out", f"{TMP}/blocks"])


def test_complexity_resume(capsys):
    """--resume: second run skips every committed block; a cleared manifest
    entry is the only thing that triggers recompute."""
    import json
    import os
    shutil.rmtree(TMP + "_res", ignore_errors=True)
    t = TMP + "_res"
    cli.main(["synth", "--out", t, "--n-pages", "200"])
    args = ["complexity", "--blocks", f"{t}/blocks_in",
            "--buildings", f"{t}/buildings.parquet",
            "--out", f"{t}/complexity", "--resume",
            "--blocks-subset", "SYNA.1.1_1_0,SYNA.1.1_1_3"]
    cli.main(["blocks", "--regions", f"{t}/regions.parquet",
              "--lines", f"{t}/lines.parquet", "--out", f"{t}/blocks_in"])
    capsys.readouterr()
    cli.main(args)
    first = capsys.readouterr().out
    assert "2 partitions written, 0 skipped" in first
    cli.main(args)  # identical rerun: everything committed already
    second = capsys.readouterr().out
    assert "0 partitions written, 2 skipped, 0 rows" in second
    from prclz_ray.runtime import checkpoint
    out = checkpoint.read_resumable(f"{t}/complexity").to_pandas()
    assert set(out["block_id"]) == {"SYNA.1.1_1_0", "SYNA.1.1_1_3"}
    # dropping one manifest entry resurrects exactly that block
    mp = checkpoint.manifest_path(f"{t}/complexity")
    lines = [json.loads(l) for l in open(mp)]
    with open(mp, "w") as f:
        for rec in lines:
            if rec["key"] != "SYNA.1.1_1_0":
                f.write(json.dumps(rec) + "\n")
    cli.main(args)
    third = capsys.readouterr().out
    assert "1 partitions written, 1 skipped" in third


def test_cli_corpus_pipeline(tmp_path):
    import pyarrow.parquet as pq
    import pyarrow as pa
    from prclz_ray.cli import main
    docs = pa.table({
        "doc_id": pa.array(range(6), type=pa.int64()),
        "text": pa.array(["the quick brown fox jumps high"] * 3
                         + ["le chien brun dort", "x y z", "a b c d"]),
    })
    src = tmp_path / "docs.parquet"
    pq.write_table(docs, src)
    out = tmp_path / "corpus_out"
    main(["corpus", "--docs", str(src), "--out", str(out),
          "--dedup", "exact"])
    got = pq.read_table(str(out))
    # exact dedup: 3 identical texts collapse to min doc_id
    assert got.num_rows == 4
    cols = set(got.column_names)
    for c in ("text_norm", "lang_pred", "q_score", "tokens_ws",
              "top_word_frac", "n_email", "text_redacted", "fingerprint"):
        assert c in cols, c
    kept = sorted(got.column("doc_id").to_pylist())
    assert kept == [0, 3, 4, 5]


def test_cli_corpus_sample_ppm(tmp_path):
    import pyarrow.parquet as pq
    import pyarrow as pa
    from prclz_ray.cli import main
    from prclz_ray.stages.relational import SAMPLE_MIX
    docs = pa.table({
        "doc_id": pa.array(range(200), type=pa.int64()),
        "text": pa.array([f"doc number {i} words here" for i in range(200)]),
    })
    src = tmp_path / "docs.parquet"
    pq.write_table(docs, src)
    out = tmp_path / "sampled_out"
    main(["corpus", "--docs", str(src), "--out", str(out),
          "--stages", "tokens", "--sample-ppm", "300000"])
    got = pq.read_table(str(out))
    kept = set(got["doc_id"].to_pylist())
    expect = {i for i in range(200)
              if ((i + 1) * SAMPLE_MIX % (1 << 64)) % 1_000_000 < 300_000}
    assert kept == expect and 0 < len(kept) < 200


def test_cli_corpus_resume(tmp_path, capsys):
    import json
    import pyarrow.parquet as pq
    import pyarrow as pa
    from prclz_ray.cli import main
    from prclz_ray.runtime.checkpoint import manifest_path, read_resumable
    docs = pa.table({
        "doc_id": pa.array(range(300), type=pa.int64()),
        "text": pa.array([f"body of document {i} with words" for i in range(300)]),
    })
    src = tmp_path / "docs.parquet"
    pq.write_table(docs, src)
    out = str(tmp_path / "resumable_out")
    args = ["corpus", "--docs", str(src), "--out", out,
            "--stages", "tokens", "--resume", "--resume-parts", "8"]
    main(args)
    first = capsys.readouterr().out
    assert "8 partitions written, 0 skipped" in first
    assert read_resumable(out).count() == 300
    # rerun: everything committed -> all partitions skip before compute
    main(args)
    second = capsys.readouterr().out
    assert "0 partitions written, 8 skipped" in second
    assert read_resumable(out).count() == 300
    # drop one partition from the manifest -> only it recomputes
    mp = manifest_path(out)
    recs = [json.loads(l) for l in open(mp)]
    victim = recs[0]["key"]
    with open(mp, "w") as f:
        for r in recs:
            if r["key"] != victim:
                f.write(json.dumps(r) + "\n")
    main(args)
    third = capsys.readouterr().out
    assert "1 partitions written, 7 skipped" in third
    assert read_resumable(out).count() == 300
    # dedup + resume is refused (global operator)
    import pytest
    with pytest.raises(SystemExit):
        main(args + ["--dedup", "exact"])


def test_cli_corpus_filter(tmp_path):
    import pyarrow.parquet as pq
    import pyarrow as pa
    from prclz_ray.cli import main
    docs = pa.table({
        "doc_id": pa.array(range(3), type=pa.int64()),
        "text": pa.array([
            "the quick brown fox and the dog ran for it in a field of "
            "green grass that is very nice to see today and tomorrow",
            "short",                       # too short -> dropped
            "spam " * 30,                  # top-word dominated -> dropped
        ]),
    })
    src = tmp_path / "docs.parquet"
    pq.write_table(docs, src)
    out = tmp_path / "filtered_out"
    main(["corpus", "--docs", str(src), "--out", str(out),
          "--stages", "langid,tokens,repetition", "--filter"])
    got = pq.read_table(str(out))
    assert got.column("doc_id").to_pylist() == [0]
    # --filter without the prerequisite stages is refused
    import pytest
    with pytest.raises(SystemExit):
        main(["corpus", "--docs", str(src), "--out", str(out) + "2",
              "--stages", "tokens", "--filter"])


def test_cli_corpus_mix_and_split(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from prclz_ray.cli import main
    n = 300
    docs = pa.table({
        "doc_id": pa.array(range(n), type=pa.int64()),
        "lang": pa.array(["en"] * 200 + ["de"] * 60 + ["fr"] * 40),
        "text": pa.array(["the quick brown fox jumps again"] * n),
    })
    src = tmp_path / "docs.parquet"
    pq.write_table(docs, src)
    out = tmp_path / "mix_out"
    main(["corpus", "--docs", str(src), "--out", str(out),
          "--stages", "tokens",
          "--mix", "en:0.5,de:0.3,fr:0.2",
          "--split", "train:800000,val:100000,test:100000"])
    got = pq.read_table(str(out)).to_pandas()
    # mixture: fr binds (40/0.2 = 200 target): kept ~fully; en downsampled
    counts = got.lang.value_counts()
    assert counts["fr"] >= 36
    assert counts["en"] < 150
    # split column exhaustive + deterministic labels
    assert set(got.split.unique()) <= {"train", "val", "test"}
    assert (got.groupby("split").size() > 0).all()
    # re-run produces the identical mix+split (pure hash filters)
    out2 = tmp_path / "mix_out2"
    main(["corpus", "--docs", str(src), "--out", str(out2),
          "--stages", "tokens",
          "--mix", "en:0.5,de:0.3,fr:0.2",
          "--split", "train:800000,val:100000,test:100000"])
    got2 = pq.read_table(str(out2)).to_pandas()
    a = got.sort_values("doc_id").reset_index(drop=True)
    b = got2.sort_values("doc_id").reset_index(drop=True)
    assert a.doc_id.tolist() == b.doc_id.tolist()
    assert a.split.tolist() == b.split.tolist()


def test_cli_query_verb_runs_registry_pipeline(tmp_path, capsys):
    from prclz_ray.cli import main

    main(["query", "--list"])
    listed = capsys.readouterr().out
    assert "q1_pricing_summary\tsql-oracle" in listed

    out = tmp_path / "q_out"
    main(["query", "orders_status_counts",
          "--sf-dir", "/root/testdata/sf0.001", "--out", str(out)])
    import pyarrow.parquet as pq
    got = pq.read_table(str(out)).to_pandas()
    assert set(got["o_orderstatus"]) == {"F", "O", "P"}
    assert got["n"].sum() == 1500


@pytest.fixture(scope="module")
def stage_inputs(tmp_path_factory):
    """Synth tables, their blocks and the parcels of two blocks: the
    inputs of every ``--resume`` command."""
    d = str(tmp_path_factory.mktemp("resume_inputs"))
    cli.main(["synth", "--out", d, "--n-pages", "200"])
    cli.main(["blocks", "--regions", f"{d}/regions.parquet",
              "--lines", f"{d}/lines.parquet", "--out", f"{d}/blocks"])
    cli.main(["parcels", "--blocks", f"{d}/blocks",
              "--buildings", f"{d}/buildings.parquet",
              "--out", f"{d}/parcels", "--blocks-subset", _SUBSET])
    pq.write_table(pa.table({
        "doc_id": pa.array(range(60), type=pa.int64()),
        "text": pa.array([f"document {i} says hello" for i in range(60)])}),
        f"{d}/docs.parquet")
    return d


_SUBSET = "SYNA.1.1_1_0,SYNA.1.1_1_3"


def _resume_args(cmd, d, out):
    """``(argv, rewritten input)`` of a ``--resume`` run of ``cmd``."""
    if cmd == "corpus":
        return (["corpus", "--docs", f"{d}/docs.parquet", "--out", out,
                 "--stages", "tokens", "--resume", "--resume-parts", "4"],
                f"{d}/docs.parquet")
    args = [cmd, "--blocks", f"{d}/blocks", "--buildings",
            f"{d}/buildings.parquet", "--out", out, "--resume"]
    if cmd == "reblock":
        args += ["--parcels", f"{d}/parcels"]
    return args + ["--blocks-subset", _SUBSET], f"{d}/buildings.parquet"


@pytest.mark.parametrize("cmd", ["parcels", "complexity", "reblock",
                                 "corpus"])
def test_resume_refuses_changed_input(cmd, stage_inputs, tmp_path):
    """One output directory holds one (input, flags) run: after an input
    file is rewritten, ``--resume`` raises instead of keeping the rows
    committed from the old input."""
    d = str(tmp_path / "in")
    shutil.copytree(stage_inputs, d)
    args, victim = _resume_args(cmd, d, str(tmp_path / "out"))
    cli.main(args)
    # another flag that shapes the rows is another run
    with pytest.raises(ValueError, match="different input"):
        cli.main(args + ["--resume-parts", "5"] if cmd == "corpus"
                 else args[:-1] + ["SYNA.1.1_1_0"])
    t = pq.read_table(victim)
    pq.write_table(t.slice(0, t.num_rows - 1), victim)
    with pytest.raises(ValueError, match="different input"):
        cli.main(args)


@pytest.mark.parametrize("cmd", ["parcels", "complexity", "reblock",
                                 "corpus"])
def test_sealed_resume_rerun_executes_nothing(cmd, stage_inputs, tmp_path,
                                              capsys, monkeypatch):
    from test_flagship_write import _count_executions

    from prclz_ray.runtime import checkpoint
    out = str(tmp_path / "out")
    args, _ = _resume_args(cmd, stage_inputs, out)
    cli.main(args)
    n = len(checkpoint.committed_keys(out))
    assert f"{n} partitions written, 0 skipped" in capsys.readouterr().out
    assert os.path.exists(os.path.join(out, checkpoint.SEAL))
    runs = _count_executions(monkeypatch)
    cli.main(args)
    assert runs == []
    monkeypatch.undo()
    assert f"0 partitions written, {n} skipped, 0 rows" \
        in capsys.readouterr().out
