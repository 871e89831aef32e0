//! Cache-correctness and determinism tests for the batch engine.
//!
//! These exercise the persistent cache through the public
//! `check_sources` entry point: warm runs must be byte-identical to
//! cold ones, edits must invalidate exactly the definitions whose
//! *consumed content* changed, and a damaged cache directory must be
//! treated as empty, never as an error.

use std::path::PathBuf;

use rowpoly_batch::{cache, check_sources, BatchOptions, BatchReport, FileInput};

/// A unique temp cache directory per test, cleaned up on drop.
struct TempCache {
    dir: PathBuf,
}

impl TempCache {
    fn new(tag: &str) -> TempCache {
        let dir =
            std::env::temp_dir().join(format!("rowpoly-batch-it-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempCache { dir }
    }

    fn options(&self, jobs: usize) -> BatchOptions {
        BatchOptions {
            use_cache: true,
            cache_dir: self.dir.clone(),
            ..BatchOptions::in_memory(jobs)
        }
    }
}

impl Drop for TempCache {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn file(path: &str, source: &str) -> FileInput {
    FileInput {
        path: path.to_string(),
        source: source.to_string(),
    }
}

fn check(sources: &[(&str, &str)], options: &BatchOptions) -> BatchReport {
    check_sources(sources.iter().map(|(p, s)| file(p, s)).collect(), options)
}

/// Every `.rp` file in the repository's `programs/` corpus.
fn corpus() -> Vec<FileInput> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../programs");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&root)
        .expect("programs/ exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "rp"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "corpus is empty");
    files
        .into_iter()
        .map(|p| FileInput {
            path: p.file_name().unwrap().to_string_lossy().into_owned(),
            source: std::fs::read_to_string(&p).expect("readable program"),
        })
        .collect()
}

#[test]
fn warm_run_is_byte_identical_and_hits() {
    let tmp = TempCache::new("warm");
    let sources = [
        ("a.rp", "def inc x = x + 1\ndef two = inc 1"),
        ("b.rp", "def tag r = @{t = 1} r\ndef use = #t (tag {})"),
    ];
    let cold = check(&sources, &tmp.options(2));
    assert!(cold.ok());
    assert_eq!(cold.stats.cache_hits, 0);

    assert_eq!(record_lines(&tmp).len(), 2, "one record per file");

    // Every file is served from its record: no parse, one hit per
    // group, and the same report, text and JSON, scheduling aside.
    let warm = check(&sources, &tmp.options(2));
    assert_eq!(warm.render(), cold.render());
    assert_eq!(without_timing(&warm), without_timing(&cold));
    assert_eq!(warm.stats.files_parsed, 0);
    assert_eq!(warm.stats.cache_hits, cold.stats.cache_misses);
    assert_eq!(warm.stats.cache_misses, 0);
}

#[test]
fn jobs_do_not_change_the_report() {
    let sources = [
        ("m.rp", "def f x = x + 1\ndef g = f 2\ndef bad = #nope {}"),
        ("n.rp", "def h r = @{a = 1} r\ndef k = #a (h {})"),
    ];
    let serial = check(&sources, &BatchOptions::in_memory(1));
    let parallel = check(&sources, &BatchOptions::in_memory(8));
    assert_eq!(serial.render(), parallel.render());
}

#[test]
fn editing_a_def_invalidates_only_its_consumers() {
    let tmp = TempCache::new("edit");
    // Three independent definitions plus one consumer of `base`.
    let before = [(
        "x.rp",
        "def base = 1\ndef uses = base + 1\ndef alone = \"quiet\"",
    )];
    let cold = check(&before, &tmp.options(2));
    assert!(cold.ok());

    // Change `base`'s scheme (Int -> Str): `uses` must re-check (and
    // now fail), while the untouched `alone` stays a cache hit.
    let after = [(
        "x.rp",
        "def base = \"s\"\ndef uses = base + 1\ndef alone = \"quiet\"",
    )];
    let warm = check(&after, &tmp.options(2));
    assert!(!warm.ok(), "uses `base + 1` should fail on a Str base");
    assert!(
        warm.stats.cache_hits >= 1,
        "independent def was invalidated by an unrelated edit"
    );
    assert!(
        warm.stats.cache_misses >= 2,
        "edited def and consumer must miss"
    );
}

#[test]
fn unchanged_scheme_gives_dependents_early_cutoff() {
    let tmp = TempCache::new("cutoff");
    let before = [("y.rp", "def base = 1\ndef uses = base + 1")];
    let cold = check(&before, &tmp.options(1));
    assert!(cold.ok());

    // `1 + 1` is a different body but the same closed scheme (Int), so
    // the dependent's key — which hashes the *scheme*, not the source —
    // is unchanged and it hits.
    let after = [("y.rp", "def base = 1 + 1\ndef uses = base + 1")];
    let warm = check(&after, &tmp.options(1));
    assert!(warm.ok());
    assert!(
        warm.stats.cache_hits >= 1,
        "dependent missed although its dependency's scheme is unchanged"
    );
}

#[test]
fn corrupted_cache_is_ignored_not_fatal() {
    let tmp = TempCache::new("corrupt");
    std::fs::create_dir_all(&tmp.dir).unwrap();
    std::fs::write(tmp.dir.join(cache::CACHE_FILE), "{ not json ]").unwrap();

    let sources = [("c.rp", "def v = 1")];
    let report = check(&sources, &tmp.options(1));
    assert!(report.ok());
    assert_eq!(report.stats.cache_hits, 0);

    // The damaged file was replaced by a valid one this run can hit.
    let warm = check(&sources, &tmp.options(1));
    assert!(warm.stats.cache_hits > 0);
}

#[test]
fn no_cache_matches_cached_on_the_corpus() {
    let tmp = TempCache::new("corpus");
    let cached_opts = tmp.options(4);
    let cold = check_sources(corpus(), &cached_opts);
    let warm = check_sources(corpus(), &cached_opts);
    let uncached = check_sources(corpus(), &BatchOptions::in_memory(4));

    assert_eq!(cold.render(), uncached.render());
    assert_eq!(warm.render(), uncached.render());
    assert!(warm.stats.cache_hits > 0);
}

/// The cache file's bytes and modification time.
fn cache_state(tmp: &TempCache) -> (Vec<u8>, std::time::SystemTime) {
    let path = tmp.dir.join(cache::CACHE_FILE);
    let bytes = std::fs::read(&path).expect("cache saved");
    let modified = std::fs::metadata(&path)
        .and_then(|m| m.modified())
        .expect("mtime");
    (bytes, modified)
}

/// Sets the cache file's modification time far in the past, so a
/// rewrite shows whatever the file system's timestamp resolution.
fn age_cache(tmp: &TempCache) -> std::time::SystemTime {
    let stamp = std::time::SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(1 << 30);
    std::fs::File::options()
        .write(true)
        .open(tmp.dir.join(cache::CACHE_FILE))
        .and_then(|f| f.set_modified(stamp))
        .expect("sets mtime");
    stamp
}

#[test]
fn a_warm_run_leaves_the_cache_file_untouched() {
    let tmp = TempCache::new("untouched");
    let cold = check_sources(corpus(), &tmp.options(2));
    let (bytes, _) = cache_state(&tmp);
    let stamp = age_cache(&tmp);
    let warm = check_sources(corpus(), &tmp.options(2));
    assert_eq!(warm.render(), cold.render());
    // Only the groups that fail (never stored) miss.
    assert_eq!(warm.stats.cache_misses as usize, warm.stats.errors);
    assert_eq!(
        cache_state(&tmp),
        (bytes, stamp),
        "a warm run rewrote the cache"
    );
}

#[test]
fn dropping_a_file_rewrites_the_cache_without_its_entries() {
    let tmp = TempCache::new("dropped");
    let both = [
        ("a.rp", "def inc x = x + 1\ndef two = inc 1"),
        ("b.rp", "def tag r = @{t = 1} r\ndef use = #t (tag {})"),
    ];
    assert!(check(&both, &tmp.options(2)).ok());
    let (before, _) = cache_state(&tmp);
    assert!(String::from_utf8_lossy(&before).contains("\"name\":\"tag\""));
    let stamp = age_cache(&tmp);

    let only_a = check(&both[..1], &tmp.options(2));
    assert_eq!(only_a.stats.cache_misses, 0);
    assert_eq!(only_a.stats.files_parsed, 0);
    assert_eq!(
        record_lines(&tmp).len(),
        1,
        "b.rp's record went with its groups"
    );
    let (after, modified) = cache_state(&tmp);
    assert_ne!(modified, stamp, "the unused entries were not aged out");
    let text = String::from_utf8(after).expect("utf-8");
    assert!(text.contains("\"name\":\"inc\"") && text.contains("\"name\":\"two\""));
    assert!(!text.contains("\"name\":\"tag\"") && !text.contains("\"name\":\"use\""));

    // The file is now exactly what a cold run over `a.rp` saves.
    let fresh = TempCache::new("dropped-fresh");
    check(&both[..1], &fresh.options(2));
    assert_eq!(cache_state(&fresh).0, text.into_bytes());
}

#[test]
fn a_corrupt_line_forces_a_clean_rewrite() {
    let tmp = TempCache::new("corrupt-line");
    let cold = check_sources(corpus(), &tmp.options(2));
    let (clean, _) = cache_state(&tmp);
    let text = String::from_utf8(clean.clone()).expect("utf-8");
    let mut lines: Vec<&str> = text.split('\n').collect();
    assert!(lines.len() > 4, "the corpus stores several entries");
    // Flip one digit of the second entry's key: its sum no longer holds.
    let damaged = lines[2].replacen("\"key\":\"", "\"key\":\"x", 1);
    lines[2] = &damaged;
    std::fs::write(tmp.dir.join(cache::CACHE_FILE), lines.join("\n")).unwrap();

    let warm = check_sources(corpus(), &tmp.options(2));
    assert_eq!(warm.render(), cold.render());
    assert_eq!(
        warm.stats.cache_misses as usize,
        warm.stats.errors + 1,
        "besides the failing groups, only the damaged entry missed"
    );
    assert_eq!(
        cache_state(&tmp).0,
        clean,
        "the rewrite is not the clean file"
    );
}

#[test]
fn loading_and_saving_elsewhere_reproduces_the_file() {
    // What the benchmark's traced round checks: the file is one JSON
    // document whose `entries[].key` are hex keys, and loading it, using
    // every entry and saving into another directory writes it back
    // byte for byte.
    let (tmp, elsewhere) = (TempCache::new("resave"), TempCache::new("resave-to"));
    check_sources(corpus(), &tmp.options(2));
    let (original, _) = cache_state(&tmp);
    let doc = rowpoly_obs::json::parse(std::str::from_utf8(&original).expect("utf-8"))
        .expect("one JSON document");
    let keys: Vec<u64> = doc
        .get("entries")
        .and_then(|e| e.as_arr())
        .expect("entries")
        .iter()
        .map(|e| {
            let key = e.get("key").and_then(|k| k.as_str()).expect("a key");
            u64::from_str_radix(key, 16).expect("a hex key")
        })
        .collect();
    assert!(keys.len() > 5, "the corpus stores several entries");
    let cache = cache::Sharded::load(&tmp.dir);
    assert!(keys.iter().all(|&k| cache.lookup(k).is_some()));
    cache.save(&elsewhere.dir).expect("saves");
    assert_eq!(cache_state(&elsewhere).0, original);
}

/// The record lines of a saved cache: everything after the line that
/// opens the `files` array, trailer aside.
fn record_lines(tmp: &TempCache) -> Vec<String> {
    let text = String::from_utf8(cache_state(tmp).0).expect("utf-8");
    text.lines()
        .skip_while(|l| *l != "],\"files\":[")
        .skip(1)
        .filter(|l| *l != "]}")
        .map(str::to_string)
        .collect()
}

/// The JSON report with the stats that depend on cache state and
/// scheduling left out.
fn without_timing(report: &BatchReport) -> String {
    let mut json = report.to_json();
    if let rowpoly_obs::json::Json::Obj(members) = &mut json {
        for (name, value) in members.iter_mut() {
            if name == "stats" {
                if let rowpoly_obs::json::Json::Obj(stats) = value {
                    stats.retain(|(k, _)| {
                        !matches!(
                            k.as_str(),
                            "cache_hits" | "cache_misses" | "steals" | "wall_ms" | "files_parsed"
                        )
                    });
                }
            }
        }
    }
    json.to_string()
}

const THREE: [(&str, &str); 3] = [
    ("a.rp", "def inc x = x + 1\ndef two = inc 1"),
    ("b.rp", "def tag r = @{t = 1} r\ndef use = #t (tag {})"),
    (
        "c.rp",
        "def k = {a = 1}\ndef sel = #a k\ndef alone = \"quiet\"",
    ),
];

#[test]
fn editing_one_file_parses_only_that_file() {
    let tmp = TempCache::new("records-edit");
    assert!(check(&THREE, &tmp.options(2)).ok());
    let mut edited = THREE;
    edited[2].1 = "def k = {a = 1}\ndef sel = #a k\ndef alone = \"loud\"";
    let warm = check(&edited, &tmp.options(2));
    assert!(warm.ok());
    assert_eq!(warm.stats.files_parsed, 1);
    assert_eq!(
        warm.stats.cache_misses, 1,
        "only the edited group recomputed"
    );
    // a.rp's and b.rp's two groups each from their records, c.rp's
    // unchanged `k` and `sel` through its parse.
    assert_eq!(warm.stats.cache_hits, 6);
    let again = check(&edited, &tmp.options(2));
    assert_eq!(
        again.stats.files_parsed, 0,
        "the edited file got its record"
    );
    assert_eq!(again.render(), warm.render());
}

#[test]
fn a_failing_file_gets_no_record_and_keeps_its_diagnostic() {
    let tmp = TempCache::new("records-failing");
    let sources = [
        ("bad.rp", "def fine = 1\ndef bad = #foo {}\ndef use = bad"),
        ("hard.rp", "def hard = {a = 1} @@ {b = 2}\ndef easy = 1"),
        ("ok.rp", "def one = 1"),
    ];
    let mut options = tmp.options(2);
    options.opts.compaction = rowpoly_core::Compaction::PerDef;
    options.opts.sat_budget = Some(0);
    let cold = check(&sources, &options);
    assert_eq!((cold.stats.errors, cold.stats.timeouts), (1, 1));
    assert_eq!(record_lines(&tmp).len(), 1, "only ok.rp has a record");
    let warm = check(&sources, &options);
    assert_eq!(warm.render(), cold.render(), "diagnostics byte for byte");
    assert_eq!(without_timing(&warm), without_timing(&cold));
    assert_eq!(
        warm.stats.files_parsed, 2,
        "the failing files are parsed again"
    );
}

#[test]
fn a_record_whose_group_line_is_damaged_falls_back() {
    let tmp = TempCache::new("records-damaged");
    let cold = check(&THREE, &tmp.options(2));
    let text = String::from_utf8(cache_state(&tmp).0).expect("utf-8");
    // Damage `inc`'s entry: its sum no longer holds, so it does not load.
    let damaged: Vec<String> = text
        .lines()
        .map(|l| match l.contains("\"name\":\"inc\"") {
            true => l.replacen(
                "\"rendered\":\"Int -> Int\"",
                "\"rendered\":\"Int -> Inx\"",
                1,
            ),
            false => l.to_string(),
        })
        .collect();
    assert_ne!(damaged.join("\n") + "\n", text, "the entry was found");
    std::fs::write(tmp.dir.join(cache::CACHE_FILE), damaged.join("\n") + "\n").unwrap();
    let warm = check(&THREE, &tmp.options(2));
    assert_eq!(warm.render(), cold.render());
    assert_eq!(warm.stats.files_parsed, 1, "only a.rp is parsed");
    assert_eq!(warm.stats.cache_misses, 1);
    assert_eq!(
        cache_state(&tmp).0,
        text.into_bytes(),
        "the rewrite restores the clean file"
    );
}

#[test]
fn two_paths_with_the_same_text_share_one_record() {
    let tmp = TempCache::new("records-shared");
    let sources = [("x/a.rp", THREE[1].1), ("y/a.rp", THREE[1].1)];
    let cold = check(&sources, &tmp.options(2));
    assert_eq!(record_lines(&tmp).len(), 1);
    let warm = check(&sources, &tmp.options(2));
    assert_eq!(warm.stats.files_parsed, 0);
    assert_eq!(warm.render(), cold.render());
    assert!(warm.render().contains("y/a.rp: use : Int"));
}

#[test]
fn changed_options_miss_the_record() {
    let tmp = TempCache::new("records-options");
    assert!(check(&THREE, &tmp.options(2)).ok());
    let mut no_fields = tmp.options(2);
    no_fields.opts.track_fields = false;
    let mut budget = tmp.options(2);
    budget.opts.sat_budget = Some(1_000_000);
    for options in [no_fields, budget] {
        let report = check(&THREE, &options);
        assert!(report.ok());
        assert_eq!(report.stats.files_parsed, 3, "{:?}", options.opts);
        assert_eq!(report.stats.cache_hits, 0, "{:?}", options.opts);
        assert_eq!(check(&THREE, &options).stats.files_parsed, 0);
    }
}

#[test]
fn seeded_corrupt_caches_load_and_check_renders_cold() {
    // Truncations and bit flips of a cache holding group lines and file
    // records, drawn from one seed: loading never panics, and the next
    // `check` prints the cold report whatever survived.
    let tmp = TempCache::new("records-fuzz");
    let mut sources = THREE.to_vec();
    sources.push(("d.rp", "def bad = #foo {}\ndef fine = 1"));
    let cold = check(&sources, &tmp.options(1));
    let clean = cache_state(&tmp).0;
    let files_at = String::from_utf8_lossy(&clean)
        .find("],\"files\":[")
        .expect("the cache holds records");
    let mut rng = rowpoly_obs::rng::SplitMix64::seed_from_u64(0x5EED_CAC4E);
    let path = tmp.dir.join(cache::CACHE_FILE);
    for case in 0..300 {
        let mut bytes = clean.clone();
        // Half the cases aim at the records, half at the group lines.
        let region = match rng.gen_bool(0.5) {
            true => files_at..bytes.len(),
            false => 0..files_at,
        };
        if rng.gen_bool(0.3) {
            bytes.truncate(rng.gen_range(region));
        } else {
            for _ in 0..rng.gen_range(1..4usize) {
                let at = rng.gen_range(region.clone());
                bytes[at] ^= 1 << rng.gen_range(0..8u32);
            }
        }
        std::fs::write(&path, &bytes).unwrap();
        let mut bounded = cache::Cache::bounded(u64::MAX);
        bounded.load(&tmp.dir);
        let _ = cache::Sharded::load(&tmp.dir);
        let report = check(&sources, &tmp.options(1));
        assert_eq!(report.render(), cold.render(), "case {case}");
    }
}
