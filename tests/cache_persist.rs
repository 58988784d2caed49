//! The persistent artifact cache is invisible to results and to the
//! deterministic run report.
//!
//! ISSUE acceptance: a warm-cache run must report zero recomputations
//! while its profiles — and its deterministic report rendering — stay
//! byte-identical to the cold run that populated the cache. Corrupt
//! artifacts must silently fall back to recomputation and be named by
//! the explicit verify pass.

use std::path::PathBuf;
use std::sync::Mutex;

use clara_repro::clara::engine::{self, Engine};
use clara_repro::clara::ClaraError;
use clara_repro::ir::Module;
use clara_repro::nicsim::{NicConfig, PortConfig};
use clara_repro::obs;
use clara_repro::trafgen::WorkloadSpec;

/// The engine's environment, worker count and caches, and the obs
/// registry are process globals; tests in this binary serialize on this
/// lock.
static ENGINE_LOCK: Mutex<()> = Mutex::new(());

/// Takes [`ENGINE_LOCK`], ignoring poison: one test's failure must report
/// as one failure, not cascade into the others.
fn engine_lock() -> std::sync::MutexGuard<'static, ()> {
    ENGINE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clara-cache-it-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn elements() -> Vec<Module> {
    ["aggcounter", "cmsketch"]
        .iter()
        .map(|name| {
            clara_repro::click::corpus()
                .into_iter()
                .find(|e| e.name() == *name)
                .expect("known corpus element")
                .module
        })
        .collect()
}

#[test]
fn warm_cache_run_recomputes_nothing_and_reports_identically() {
    let _g = engine_lock();
    let dir = tmp_dir("warm");
    let modules = elements();
    let workloads = [WorkloadSpec::large_flows()];
    let cfg = NicConfig::default();
    let port = PortConfig::naive();
    engine::set_threads(2);
    std::env::set_var("CLARA_CACHE_DIR", &dir);

    let run = || {
        Engine::new().clear_caches();
        obs::enable();
        obs::reset();
        let before = engine::EngineStats::snapshot();
        let profiles = engine::profile_matrix(&modules, &workloads, 60, 5, &port, &cfg);
        let after = engine::EngineStats::snapshot();
        let report = obs::RunReport::capture().to_json_deterministic();
        obs::disable();
        (profiles, report, before, after)
    };

    let (cold_profiles, cold_report, cold_before, cold_after) = run();
    assert!(
        cold_after.disk_recomputes > cold_before.disk_recomputes,
        "cold run populates an empty cache by recomputing"
    );
    assert_eq!(
        cold_after.disk_hits, cold_before.disk_hits,
        "nothing to hit on a cold cache"
    );

    let (warm_profiles, warm_report, warm_before, warm_after) = run();
    std::env::remove_var("CLARA_CACHE_DIR");
    engine::set_threads(0);
    assert_eq!(
        warm_after.disk_recomputes, warm_before.disk_recomputes,
        "warm run must recompute nothing"
    );
    assert!(
        warm_after.disk_hits > warm_before.disk_hits,
        "warm run must serve from disk"
    );
    assert_eq!(
        cold_profiles, warm_profiles,
        "profiles must be bit-identical"
    );
    assert_eq!(
        cold_report, warm_report,
        "deterministic run report must be byte-identical cold vs warm"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Disk-cache isolation across device backends: artifacts stored while
/// profiling under one manifest must never be served to another, even
/// for the same (module, trace, port) — the backend fingerprint is part
/// of the persistent key. Per backend, warm results stay byte-identical
/// to the cold run that populated its slice of the cache.
#[test]
fn disk_cache_isolates_backends() {
    use clara_repro::hal::{self, Backend as _};
    let _g = engine_lock();
    let dir = tmp_dir("backend-iso");
    let modules = elements();
    let trace = clara_repro::trafgen::Trace::generate(&WorkloadSpec::large_flows(), 50, 5);
    let port = PortConfig::naive();
    engine::set_threads(1);
    std::env::set_var("CLARA_CACHE_DIR", &dir);
    let agilio = hal::builtin("agilio-cx").expect("builtin");
    let wimpy = hal::builtin("wimpy-onpath").expect("builtin");

    let run = |b: &'static clara_repro::hal::DeviceBackend| {
        Engine::new().clear_caches(); // memory only; artifacts survive
        let before = engine::EngineStats::snapshot();
        let profiles: Vec<_> = modules
            .iter()
            .map(|m| Engine::new().profile_cached_for(m, &trace, &port, b.nic(), b.fingerprint()))
            .collect();
        let after = engine::EngineStats::snapshot();
        (
            profiles,
            after.disk_hits - before.disk_hits,
            after.disk_recomputes - before.disk_recomputes,
        )
    };

    // Per module, a cold run stores two artifact kinds: the vendor
    // compile (keyed by module alone — compilation is device-independent
    // and legitimately shared across backends) and the costed profile
    // (keyed with the manifest fingerprint — never shared).
    let n = modules.len() as u64;
    let (agilio_cold, hits, recomputes) = run(agilio);
    assert_eq!(hits, 0, "cold cache has nothing to serve");
    assert_eq!(recomputes, 2 * n, "cold run computes compiles and profiles");

    // Same modules, same trace, same port — different manifest. The
    // compile artifacts hit (shared layer); every profile must be
    // recomputed. One extra hit here would mean wimpy-onpath silently
    // consumed an agilio-cx profile.
    let (wimpy_cold, hits, recomputes) = run(wimpy);
    assert_eq!(hits, n, "only the device-independent compiles may hit");
    assert_eq!(
        recomputes, n,
        "every profile is recomputed for the new device"
    );

    // Warm re-runs per backend: all hits, no recomputes, bit-identical.
    let (agilio_warm, hits, recomputes) = run(agilio);
    assert_eq!(hits, 2 * n, "agilio-cx compiles and profiles served warm");
    assert_eq!(recomputes, 0, "warm agilio-cx run recomputes nothing");
    assert_eq!(agilio_cold, agilio_warm, "agilio-cx cold vs warm diverged");

    let (wimpy_warm, hits, recomputes) = run(wimpy);
    assert_eq!(
        hits,
        2 * n,
        "wimpy-onpath compiles and profiles served warm"
    );
    assert_eq!(recomputes, 0, "warm wimpy-onpath run recomputes nothing");
    assert_eq!(wimpy_cold, wimpy_warm, "wimpy-onpath cold vs warm diverged");

    // The two devices really produced different costed profiles (the
    // isolation above is not vacuous): compute-side deltas are nonzero.
    assert!(
        agilio_cold
            .iter()
            .zip(&wimpy_cold)
            .any(|(a, w)| (a.compute - w.compute).abs() > 0.0),
        "backends with different accelerator tables must cost differently"
    );
    std::env::remove_var("CLARA_CACHE_DIR");
    engine::set_threads(0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_artifacts_recompute_silently_and_fail_verify_loudly() {
    let _g = engine_lock();
    let dir = tmp_dir("corrupt");
    let modules = elements();
    let workloads = [WorkloadSpec::large_flows()];
    let cfg = NicConfig::default();
    let port = PortConfig::naive();
    engine::set_threads(1);
    std::env::set_var("CLARA_CACHE_DIR", &dir);

    Engine::new().clear_caches();
    let cold = engine::profile_matrix(&modules, &workloads, 40, 9, &port, &cfg);

    // Flip one byte in every artifact's body (the header keeps its
    // original checksum, so every file now fails verification).
    let mut artifacts = 0;
    for entry in std::fs::read_dir(&dir).expect("cache dir exists") {
        let path = entry.expect("entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("clc") {
            continue;
        }
        artifacts += 1;
        let raw = std::fs::read_to_string(&path).expect("artifact readable");
        let (header, body) = raw.split_once('\n').expect("artifact has a header");
        let mut bytes = body.as_bytes().to_vec();
        let last = bytes.len() - 1;
        bytes[last] = if bytes[last] == b'}' { b')' } else { b'}' };
        let tampered = format!("{header}\n{}", String::from_utf8_lossy(&bytes));
        std::fs::write(&path, tampered).expect("rewrite artifact");
    }
    assert!(artifacts > 0, "cold run must have stored artifacts");

    // The explicit integrity check names every corrupt file and maps to
    // the dedicated error (CLI exit code 4).
    let summary = Engine::new()
        .verify_disk_cache()
        .expect("directory readable")
        .expect("a cache directory is configured");
    assert_eq!(summary.scanned, artifacts);
    assert_eq!(summary.valid, 0);
    assert_eq!(summary.corrupt.len(), artifacts);
    let err = summary.into_error().expect("corruption becomes an error");
    assert_eq!(err.exit_code(), 4);
    assert!(matches!(err, ClaraError::CacheCorrupt { .. }));

    // The engine itself never fails on corruption: it recomputes (and
    // re-stores) silently, with identical results.
    Engine::new().clear_caches();
    let before = engine::EngineStats::snapshot();
    let recomputed = engine::profile_matrix(&modules, &workloads, 40, 9, &port, &cfg);
    let after = engine::EngineStats::snapshot();
    assert_eq!(cold, recomputed, "recomputed profiles must match");
    assert!(
        after.disk_corrupt > before.disk_corrupt,
        "corruption must be counted"
    );
    assert!(
        after.disk_recomputes > before.disk_recomputes,
        "corrupt artifacts must be recomputed"
    );

    // The re-store healed the cache.
    let healed = Engine::new()
        .verify_disk_cache()
        .expect("directory readable")
        .expect("a cache directory is configured");
    assert_eq!(healed.valid, healed.scanned);
    assert!(healed.corrupt.is_empty());
    std::env::remove_var("CLARA_CACHE_DIR");
    engine::set_threads(0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn clara_cache_dir_env_override_reaches_the_engine() {
    let _g = engine_lock();
    let dir = tmp_dir("env");
    std::env::set_var("CLARA_CACHE_DIR", &dir);
    Engine::new().clear_caches();
    let modules = elements();
    let _ = engine::profile_matrix(
        &modules,
        &[WorkloadSpec::large_flows()],
        30,
        13,
        &PortConfig::naive(),
        &NicConfig::default(),
    );
    let stored = std::fs::read_dir(&dir)
        .map(|d| d.filter_map(Result::ok).count())
        .unwrap_or(0);
    std::env::remove_var("CLARA_CACHE_DIR");
    assert!(
        stored > 0,
        "CLARA_CACHE_DIR alone must enable the disk cache"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Two independently created handles address the same process-global
/// engine: caches, options, and stats are shared state, not per-handle.
/// (This replaces the deprecated free-function surface, which was removed
/// after its one release of grace.)
#[test]
fn separate_engine_handles_share_the_process_global_caches() {
    let _g = engine_lock();
    let module = elements().remove(0);
    let trace = clara_repro::trafgen::Trace::generate(&WorkloadSpec::large_flows(), 40, 2);
    let port = PortConfig::naive();
    let cfg = NicConfig::default();
    Engine::new().clear_caches();
    let via_a = Engine::new().compile_cached(&module);
    let via_b = Engine::new().compile_cached(&module);
    assert_eq!(
        via_a.handler().total_compute(),
        via_b.handler().total_compute()
    );
    let wp_a = Engine::new().profile_cached(&module, &trace, &port, &cfg);
    let stats_before = Engine::new().stats();
    let wp_b = Engine::new().profile_cached(&module, &trace, &port, &cfg);
    let stats_after = Engine::new().stats();
    assert_eq!(wp_a, wp_b);
    assert!(
        stats_after.profile_hits > stats_before.profile_hits,
        "the second handle's lookup must hit the first handle's cache entry"
    );
    assert_eq!(stats_after.profile_misses, stats_before.profile_misses);
}

/// The in-process profile cache is bounded: a miss on a full cache
/// ([`engine::PROFILE_CACHE_CAP`] entries) empties it before inserting.
/// Every distinct trace counts as a miss, a trace inserted after the cap
/// filled still hits on its next lookup, the first trace was dropped (the
/// cache did not keep every key), and the profile a full cache computes
/// equals the one an empty cache computes.
#[test]
fn profile_cache_stops_growing_at_its_cap() {
    let _g = engine_lock();
    let engine = Engine::new();
    engine.clear_caches();
    let module = elements().remove(0);
    let port = PortConfig::naive();
    let cfg = NicConfig::default();
    let trace =
        |seed: u64| clara_repro::trafgen::Trace::generate(&WorkloadSpec::large_flows(), 4, seed);
    let distinct = engine::PROFILE_CACHE_CAP as u64 + 8;

    let before = engine.stats();
    for seed in 0..distinct {
        engine.profile_cached(&module, &trace(seed), &port, &cfg);
    }
    let filled = engine.stats();
    assert_eq!(filled.profile_misses - before.profile_misses, distinct);
    assert_eq!(filled.profile_hits, before.profile_hits);

    let recent = engine.profile_cached(&module, &trace(distinct - 1), &port, &cfg);
    let again = engine.stats();
    assert_eq!(
        again.profile_hits,
        filled.profile_hits + 1,
        "a key inserted past the cap stays cached"
    );

    let oldest = engine.profile_cached(&module, &trace(0), &port, &cfg);
    let past = engine.stats();
    assert_eq!(
        past.profile_misses,
        again.profile_misses + 1,
        "the cache dropped its first key instead of growing past the cap"
    );
    assert_eq!(past.profile_hits, again.profile_hits);

    engine.clear_caches();
    for (seed, seen) in [(distinct - 1, recent), (0, oldest)] {
        let fresh = engine.profile_cached(&module, &trace(seed), &port, &cfg);
        assert_eq!(seen, fresh, "a full cache computes the same profile");
    }
    engine.clear_caches();
}
