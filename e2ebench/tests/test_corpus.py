"""Fresh corpora: deterministic, disjoint, loadable."""

from corpus import RESERVED_SEEDS, SEED_BASE, build_corpus, derive_seed
from repro.records.loader import load_records
from repro.synth.packs import STYLE_PACKS


def texts(corpus):
    return [record.raw_text for record in corpus.records]


def bodies(corpus):
    """Note text without the Patient line, which build_corpus rewrites."""
    return {record.raw_text.split("\n", 1)[1] for record in corpus.records}


def test_same_seed_same_corpus():
    a = build_corpus(3, "batch-0", 2)
    b = build_corpus(3, "batch-0", 2)
    assert texts(a) == texts(b)
    assert {k: g.to_dict() for k, g in a.gold.items()} == {
        k: g.to_dict() for k, g in b.gold.items()
    }


def test_roles_and_seeds_are_disjoint():
    base = build_corpus(3, "batch-0", 2)
    for other in (
        build_corpus(4, "batch-0", 2),
        build_corpus(3, "batch-1", 2),
        build_corpus(3, "serve-r10", 2),
    ):
        assert not bodies(base) & bodies(other)
        assert not set(base.gold) & set(other.gold)


def test_derived_seeds_avoid_every_used_seed():
    packs = [pack.name for pack in STYLE_PACKS]
    seeds = {
        derive_seed(seed, role, pack)
        for seed in (*RESERVED_SEEDS, 99)
        for role in ("train", "batch-0", "serve-r20")
        for pack in packs
    }
    assert len(seeds) == len(RESERVED_SEEDS | {99}) * 3 * len(packs)
    assert all(seed >= SEED_BASE for seed in seeds)
    assert not seeds & RESERVED_SEEDS


def test_mixed_corpus_covers_every_pack_equally():
    corpus = build_corpus(5, "batch-0", 3)
    counts = {}
    for name in corpus.packs.values():
        counts[name] = counts.get(name, 0) + 1
    assert counts == {pack.name: 3 for pack in STYLE_PACKS}
    assert len(corpus.records) == 3 * len(STYLE_PACKS)


def test_written_files_keep_order_and_unique_ids(tmp_path):
    corpus = build_corpus(5, "batch-0", 3)
    gold_path = corpus.write(tmp_path / "notes")
    loaded = list(load_records(tmp_path / "notes"))
    ids = [record.patient_id for record in corpus.records]
    assert [record.patient_id for record in loaded] == ids
    assert len(set(ids)) == len(ids)
    assert gold_path.parent == tmp_path
    assert sorted(corpus.gold) == sorted(ids)
    for record in corpus.records:
        assert corpus.gold[record.patient_id].patient_id == (
            record.patient_id
        )


def test_shuffle_mixes_packs():
    corpus = build_corpus(5, "batch-0", 4)
    order = [corpus.packs[r.patient_id] for r in corpus.records]
    assert order != sorted(order, key=[p.name for p in STYLE_PACKS].index)


def test_single_pack_corpus():
    corpus = build_corpus(5, "batch-0", 7, packs=("consistent",))
    assert set(corpus.packs.values()) == {"consistent"}
    assert len(corpus.records) == 7
