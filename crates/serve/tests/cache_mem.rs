//! A daemon that loads a cache directory and then prunes most of what
//! it loaded keeps no more of `cache.json` than the lines of the entries
//! it still holds: an entry that survives pruning does not pin the file.
//!
//! This binary installs the counting `#[global_allocator]` and holds one
//! test, so no other test allocates while it measures.

use rowpoly_batch::cache::CACHE_FILE;
use rowpoly_batch::{check_sources, BatchOptions, FileInput};
use rowpoly_obs::mem;
use rowpoly_obs::CountingAlloc;
use rowpoly_serve::{ServeConfig, ServeEngine};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// `n` independent definitions, one group each.
fn defs(prefix: &str, n: usize) -> String {
    (0..n)
        .map(|k| format!("def {prefix}{k} r = @{{a{k} = #b r}} r\n"))
        .collect()
}

#[test]
fn an_entry_that_survives_pruning_holds_only_its_line() {
    assert!(mem::installed(), "counting allocator must be installed");
    let dir = std::env::temp_dir().join(format!("rowpoly-serve-cache-mem-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let old = defs("old", 600);
    let cold = check_sources(
        vec![FileInput {
            path: "old.rp".to_string(),
            source: old.clone(),
        }],
        &BatchOptions {
            use_cache: true,
            cache_dir: dir.clone(),
            ..BatchOptions::in_memory(1)
        },
    );
    assert!(cold.ok());
    let file_len = std::fs::metadata(dir.join(CACHE_FILE)).unwrap().len() as i64;

    // The document's first definition is cached, so its group is a disk
    // hit that stamps its entry; the first of its 40 new groups then
    // overflows the byte bound, and pruning evicts every loaded entry
    // but that one.
    let doc = format!("{}\n{}", old.lines().next().unwrap(), defs("new", 40));
    let _session = mem::accounting_session();
    let mut held = Vec::new();
    for cache_dir in [None, Some(dir.clone())] {
        let loads = cache_dir.is_some();
        let before = mem::live_bytes();
        let mut engine = ServeEngine::new(ServeConfig {
            cache_dir,
            memo_max_bytes: 32 << 10,
            ..ServeConfig::default()
        });
        engine.set_workers(1);
        let update = engine.open("a.rp", doc.clone(), 1);
        assert!(update.ok);
        assert_eq!(update.stats.verdict_disk_hits, u64::from(loads));
        held.push(mem::live_bytes() - before);
        drop(engine);
    }
    let _ = std::fs::remove_dir_all(&dir);
    let extra = held[1] - held[0];
    assert!(
        extra < file_len / 4,
        "the engine that loaded a {file_len}-byte cache holds {extra} bytes more"
    );
}
