//! Persistence round-trips through the handle-based index: fragments
//! written with `persist::write_fragments` and read back must rebuild
//! engines — single *and* sharded — whose searches are byte-identical
//! to the originals. The columnar arenas (catalog columns, posting
//! arenas, group columns) are all derived from the fragment stream, so
//! this pins the whole save → ship → serve path the paper's hours-long
//! crawls motivate. The arena image of a maintained engine is pinned
//! too: it ships only live postings, in the compacted layout.

use dash::core::crawl::reference;
use dash::core::persist::{
    read_fragments, read_sharded_fragments, write_fragments, write_sharded_fragments,
};
use dash::core::{
    DashConfig, DashEngine, Fragment, IndexDelta, IngestSource, SearchRequest, ShardedEngine,
};
use dash::mapreduce::WorkflowStats;
use dash::relation::{Record, Value};
use dash::webapp::fooddb;
use dash_tpch::{generate, Scale, TpchConfig};

#[test]
fn fooddb_roundtrip_preserves_all_search_results() {
    let db = fooddb::database();
    let app = fooddb::search_application().unwrap();
    let fragments = reference::fragments(&app, &db).unwrap();

    let mut buf = Vec::new();
    write_fragments(&mut buf, &fragments).unwrap();
    let loaded = read_fragments(buf.as_slice()).unwrap();
    assert_eq!(loaded, fragments);

    let original =
        DashEngine::from_fragments(app.clone(), &fragments, WorkflowStats::new()).unwrap();
    let restored = DashEngine::from_fragments(app, &loaded, WorkflowStats::new()).unwrap();
    assert_eq!(original.fragment_count(), restored.fragment_count());
    for (keywords, k, s) in [
        (vec!["burger"], 2, 20u64),
        (vec!["burger", "fries"], 5, 1),
        (vec!["american"], 10, 1),
        (vec!["thai"], 3, 100),
    ] {
        let request = SearchRequest::new(&keywords).k(k).min_size(s);
        assert_eq!(original.search(&request), restored.search(&request));
    }
}

#[test]
fn tpch_q2_roundtrip_preserves_index_and_search() {
    let mut config = TpchConfig::new(Scale::Custom(1));
    config.base_customers = 40;
    config.base_parts = 50;
    let db = generate(&config);
    let app = dash_tpch::q2_application(&db).expect("Q2 analyzes");
    let fragments = reference::fragments(&app, &db).expect("crawl");
    assert!(!fragments.is_empty());

    let mut buf = Vec::new();
    write_fragments(&mut buf, &fragments).unwrap();
    let loaded = read_fragments(buf.as_slice()).unwrap();
    assert_eq!(loaded, fragments);

    let original =
        DashEngine::from_fragments(app.clone(), &fragments, WorkflowStats::new()).unwrap();
    let restored = DashEngine::from_fragments(app, &loaded, WorkflowStats::new()).unwrap();
    // The rebuilt columnar arenas carry identical statistics...
    assert_eq!(
        original.index().inverted.posting_count(),
        restored.index().inverted.posting_count()
    );
    assert_eq!(
        original.index().graph.edge_count(),
        restored.index().graph.edge_count()
    );
    assert_eq!(
        original.index().inverted.keywords_by_df(),
        restored.index().inverted.keywords_by_df()
    );
    // ...and identical search behavior across keyword temperatures.
    let ranked = original.index().inverted.keywords_by_df();
    for idx in [0, ranked.len() / 2, ranked.len() - 1] {
        let word = ranked[idx].0;
        for s in [1u64, 100, 1000] {
            let request = SearchRequest::new(&[word]).k(10).min_size(s);
            assert_eq!(
                original.search(&request),
                restored.search(&request),
                "{word} s={s}"
            );
        }
    }
}

#[test]
fn sharded_engine_from_persisted_fragments_matches_original() {
    // The serving-tier story: crawl once, persist, load on a serving
    // node, shard there — results must match the crawl-side engine.
    let db = fooddb::database();
    let app = fooddb::search_application().unwrap();
    let fragments = reference::fragments(&app, &db).unwrap();
    let crawl_side =
        DashEngine::from_fragments(app.clone(), &fragments, WorkflowStats::new()).unwrap();

    let mut buf = Vec::new();
    write_fragments(&mut buf, &fragments).unwrap();
    let loaded = read_fragments(buf.as_slice()).unwrap();

    for shards in [1, 2, 4] {
        let serving = ShardedEngine::builder(app.clone())
            .shards(shards)
            .source(IngestSource::Fragments(&loaded))
            .build()
            .unwrap();
        for (keywords, k, s) in [
            (vec!["burger"], 2, 20u64),
            (vec!["burger", "fries"], 5, 1),
            (vec!["american"], 10, 1),
        ] {
            let request = SearchRequest::new(&keywords).k(k).min_size(s);
            assert_eq!(
                serving.search(&request),
                crawl_side.search(&request),
                "shards={shards} keywords={keywords:?}"
            );
        }
    }
}

#[test]
fn maintained_sharded_engine_roundtrips_per_shard_without_repartitioning() {
    // A maintained engine's partition has drifted from what a fresh
    // `partition()` would choose (the new Mexican group landed wherever
    // the static routing table put it). The per-shard dump must
    // preserve that drifted partition exactly — same shard sizes, same
    // byte-identical searches — instead of re-balancing on load.
    let mut db = fooddb::database();
    let app = fooddb::search_application().unwrap();
    let mut engine = ShardedEngine::builder(app.clone())
        .shards(3)
        .source(IngestSource::Crawl {
            db: &db,
            config: &DashConfig::default(),
        })
        .build()
        .unwrap();
    for (rid, budget) in [(120i64, 7i64), (121, 9), (122, 13)] {
        let record = Record::new(vec![
            Value::Int(rid),
            Value::str("Taqueria"),
            Value::str("Mexican"),
            Value::Int(budget),
            Value::str("4.2"),
        ]);
        db.table_mut("restaurant")
            .unwrap()
            .insert(record.clone())
            .unwrap();
        engine.apply_insert(&db, "restaurant", &record).unwrap();
    }

    let dumped = engine.dump_shards();
    let mut buf = Vec::new();
    write_sharded_fragments(&mut buf, &dumped).unwrap();
    let loaded = read_sharded_fragments(buf.as_slice()).unwrap();
    assert_eq!(loaded, dumped);

    let restored = ShardedEngine::builder(app.clone())
        .source(IngestSource::ShardDumps(&loaded))
        .build()
        .unwrap();
    assert_eq!(restored.shard_count(), engine.shard_count());
    assert_eq!(restored.shard_sizes(), engine.shard_sizes());
    assert_eq!(restored.fragment_count(), engine.fragment_count());
    for (keywords, k, s) in [
        (vec!["burger"], 2, 20u64),
        (vec!["taqueria"], 5, 1),
        (vec!["burger", "fries"], 5, 1),
        (vec!["american"], 10, 1),
    ] {
        let request = SearchRequest::new(&keywords).k(k).min_size(s);
        assert_eq!(
            restored.search(&request),
            engine.search(&request),
            "keywords={keywords:?}"
        );
    }
}

#[test]
fn roundtrip_then_incremental_maintenance_matches_rebuild() {
    // Persistence composes with maintenance: load, mutate, and the
    // index must behave like one rebuilt from the mutated set.
    let db = fooddb::database();
    let app = fooddb::search_application().unwrap();
    let fragments = reference::fragments(&app, &db).unwrap();

    let mut buf = Vec::new();
    write_fragments(&mut buf, &fragments).unwrap();
    let loaded = read_fragments(buf.as_slice()).unwrap();

    let mut engine =
        DashEngine::from_fragments(app.clone(), &loaded, WorkflowStats::new()).unwrap();
    let removed = loaded[0].id.clone();
    assert!(engine.index_mut().remove_fragment(&removed));
    let remaining: Vec<_> = loaded[1..].to_vec();
    let rebuilt = DashEngine::from_fragments(app, &remaining, WorkflowStats::new()).unwrap();
    for keywords in [vec!["burger"], vec!["american"], vec!["thai"]] {
        let request = SearchRequest::new(&keywords).k(10).min_size(1);
        assert_eq!(
            engine.search(&request),
            rebuilt.search(&request),
            "{keywords:?}"
        );
    }
}

/// The posting count an arena image declares: the sum of every shard's
/// TF-section count. After the 8-byte magic, each section is framed as
/// tag (u32), reserved (u32), payload length (u64), payload, checksum
/// (u64); a TF payload starts with its posting count (u64).
fn image_posting_count(image: &[u8]) -> usize {
    const SEC_TF: u32 = 0x13;
    let u64_at = |at: usize| u64::from_le_bytes(image[at..at + 8].try_into().unwrap()) as usize;
    let mut at = 8;
    let mut total = 0;
    while at < image.len() {
        let tag = u32::from_le_bytes(image[at..at + 4].try_into().unwrap());
        let len = u64_at(at + 8);
        if tag == SEC_TF {
            total += u64_at(at + 16);
        }
        at += 16 + len + 8;
    }
    total
}

#[test]
fn churned_engine_image_ships_no_dead_slots() {
    // Maintenance leaves dead arena slots behind (grown lists move to
    // the arena's end). An image must not carry them: it declares
    // exactly the live postings, reloads to identical searches, and
    // equals the image of a fork, whose arenas are compacted copies.
    let mut config = TpchConfig::new(Scale::Custom(1));
    config.base_customers = 40;
    config.base_parts = 50;
    let db = generate(&config);
    let app = dash_tpch::q2_application(&db).expect("Q2 analyzes");
    let fragments = reference::fragments(&app, &db).expect("crawl");
    let mut single =
        DashEngine::from_fragments(app.clone(), &fragments, WorkflowStats::new()).unwrap();
    let mut sharded = ShardedEngine::builder(app.clone())
        .shards(2)
        .source(IngestSource::Fragments(&fragments))
        .build()
        .unwrap();
    let hot = single.index().inverted.keywords_by_df()[0].0.to_string();

    // Churn: re-add fragments with the hottest keyword bumped (its list
    // grows and moves), remove others (their lists shrink in place).
    let mut truth: Vec<Fragment> = fragments.clone();
    let step = fragments.len() / 12;
    for (i, fragment) in fragments.iter().step_by(step).enumerate() {
        let delta = if i % 3 == 2 {
            truth.retain(|f| f.id != fragment.id);
            IndexDelta::removing(vec![fragment.id.clone()])
        } else {
            let mut occurrences = fragment.keyword_occurrences.clone();
            *occurrences.entry(hot.clone()).or_insert(0) += 1;
            occurrences.insert(format!("churn{i}"), 1);
            let fresh = Fragment::new(fragment.id.clone(), occurrences, fragment.record_count);
            truth.retain(|f| f.id != fragment.id);
            truth.push(fresh.clone());
            IndexDelta::new(vec![fragment.id.clone()], vec![fresh])
        };
        single.index_mut().apply(&delta);
        sharded.apply_delta(delta);
    }
    let inverted = &single.index().inverted;
    assert!(
        inverted.arena_slots() > inverted.posting_count(),
        "the churn must leave dead slots for the image to drop"
    );

    let mut image = Vec::new();
    sharded.write_image(&mut image).unwrap();
    let live: usize = truth.iter().map(|f| f.keyword_occurrences.len()).sum();
    assert_eq!(inverted.posting_count(), live);
    assert_eq!(image_posting_count(&image), live);

    let loaded = ShardedEngine::builder(app.clone())
        .source(IngestSource::Image(&image))
        .build()
        .unwrap();
    let rebuilt = DashEngine::from_fragments(app, &truth, WorkflowStats::new()).unwrap();
    for keywords in [
        vec![hot.as_str()],
        vec!["churn0"],
        vec![hot.as_str(), "churn4"],
    ] {
        for s in [1u64, 100] {
            let request = SearchRequest::new(&keywords).k(10).min_size(s);
            let expected = rebuilt.search(&request);
            assert_eq!(sharded.search(&request), expected, "{keywords:?} s={s}");
            assert_eq!(loaded.search(&request), expected, "{keywords:?} s={s}");
        }
    }

    let mut compacted = Vec::new();
    sharded.fork().write_image(&mut compacted).unwrap();
    assert!(image == compacted, "image differs from a compacted copy's");
}
