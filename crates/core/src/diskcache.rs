//! Persistent content-addressed artifact cache (`CLARA_CACHE_DIR`).
//!
//! Compiled [`nfcc::NicModule`]s and [`nic_sim::WorkloadProfile`]s are
//! expensive and pure functions of fingerprinted inputs, so the engine
//! persists them across processes. Layered *under* the in-process memo
//! caches: an in-memory miss consults the disk before recomputing, and a
//! recomputation stores its result for the next process.
//!
//! # File format
//!
//! One artifact per file, named `<kind>-<key:016x>.clc`, containing a
//! single header line followed by a JSON body:
//!
//! ```text
//! claracache v1 <kind> <key:016x> <checksum:016x>\n
//! {"enabled":...,"counters":[...],"span":...,"value":...}
//! ```
//!
//! - `v1` is the format version; any other version is treated as corrupt
//!   and recomputed (never mis-parsed).
//! - `<checksum>` is [`nic_sim::fingerprint_bytes`] over the exact body
//!   bytes; a mismatch (truncation, bit rot, concurrent torn write)
//!   falls back to recomputation.
//! - the body carries the artifact (`value`) plus the deterministic
//!   telemetry the computation produced ([`obs::CapturedTelemetry`]):
//!   replaying it on a warm hit keeps the deterministic run report
//!   byte-identical to a cold run's.
//!
//! Writes go to a `.tmp.<pid>` sibling first and are published with an
//! atomic rename, so readers never observe a partially written artifact.
//! All failures are silent at the engine level (a cache must never fail
//! the pipeline); they are visible in the volatile
//! `engine.disk_cache.*` counters and to explicit integrity checks
//! ([`crate::engine::Engine::verify_disk_cache`]).

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use clara_obs as obs;
use serde::{Deserialize, Serialize, Value};

use crate::error::ClaraError;

/// On-disk format version accepted and written by this build.
const VERSION: &str = "v1";
/// Artifact file extension.
const EXT: &str = "clc";

fn vctr(cell: &'static OnceLock<obs::Counter>, name: &'static str) -> &'static obs::Counter {
    cell.get_or_init(|| obs::volatile_counter(name))
}

static HITS: OnceLock<obs::Counter> = OnceLock::new();
static CORRUPT: OnceLock<obs::Counter> = OnceLock::new();
static STALE: OnceLock<obs::Counter> = OnceLock::new();
static STORES: OnceLock<obs::Counter> = OnceLock::new();
static STORE_ERRORS: OnceLock<obs::Counter> = OnceLock::new();
static RECOMPUTES: OnceLock<obs::Counter> = OnceLock::new();

/// Disk-level counters are *volatile*: they depend on what previous
/// processes left on disk, not on the work this run performs, so they
/// must stay out of the deterministic report rendering (which pins
/// byte-identity between cold and warm runs).
pub(crate) fn hits() -> &'static obs::Counter {
    vctr(&HITS, "engine.disk_cache.hits")
}
pub(crate) fn corrupt() -> &'static obs::Counter {
    vctr(&CORRUPT, "engine.disk_cache.corrupt")
}
pub(crate) fn stale() -> &'static obs::Counter {
    vctr(&STALE, "engine.disk_cache.stale")
}
pub(crate) fn stores() -> &'static obs::Counter {
    vctr(&STORES, "engine.disk_cache.stores")
}
pub(crate) fn store_errors() -> &'static obs::Counter {
    vctr(&STORE_ERRORS, "engine.disk_cache.store_errors")
}
pub(crate) fn recomputes() -> &'static obs::Counter {
    vctr(&RECOMPUTES, "engine.disk_cache.recomputes")
}

/// Handle on one cache directory.
#[derive(Debug, Clone)]
pub(crate) struct DiskCache {
    dir: PathBuf,
}

impl DiskCache {
    pub(crate) fn new(dir: PathBuf) -> DiskCache {
        // Register every disk counter up front so cache-enabled runs
        // always report the full set — a warm run shows
        // `engine.disk_cache.recomputes` as 0 rather than omitting it.
        hits();
        corrupt();
        stale();
        stores();
        store_errors();
        recomputes();
        DiskCache { dir }
    }

    fn path(&self, kind: &str, key: u64) -> PathBuf {
        self.dir.join(format!("{kind}-{key:016x}.{EXT}"))
    }

    /// Loads and verifies an artifact. `None` means "recompute": the
    /// file is absent, fails verification (counted in
    /// `engine.disk_cache.corrupt`), or was captured without span
    /// recording while recording is now enabled (counted in `.stale` —
    /// replaying it could not reproduce the span tree).
    pub(crate) fn load<T: Deserialize>(
        &self,
        kind: &str,
        key: u64,
    ) -> Option<(T, obs::CapturedTelemetry)> {
        let path = self.path(kind, key);
        let raw = std::fs::read_to_string(&path).ok()?;
        match parse_artifact::<T>(&raw, kind, key) {
            Ok((value, tel)) => {
                if obs::enabled() && !tel.enabled {
                    stale().incr();
                    return None;
                }
                hits().incr();
                Some((value, tel))
            }
            Err(_) => {
                corrupt().incr();
                None
            }
        }
    }

    /// Serializes and atomically publishes an artifact. Best-effort:
    /// failures increment `engine.disk_cache.store_errors` and are
    /// otherwise swallowed.
    pub(crate) fn store<T: Serialize>(
        &self,
        kind: &str,
        key: u64,
        value: &T,
        tel: &obs::CapturedTelemetry,
    ) {
        let body = serde_json::to_string(&body_value(value, tel)).unwrap_or_default();
        let checksum = nic_sim::fingerprint_bytes(body.as_bytes());
        let contents = format!("claracache {VERSION} {kind} {key:016x} {checksum:016x}\n{body}");
        let path = self.path(kind, key);
        let tmp = path.with_extension(format!("{EXT}.tmp.{}", std::process::id()));
        let published = std::fs::create_dir_all(&self.dir).is_ok()
            && std::fs::write(&tmp, contents).is_ok()
            && std::fs::rename(&tmp, &path).is_ok();
        if published {
            stores().incr();
        } else {
            std::fs::remove_file(&tmp).ok();
            store_errors().incr();
        }
    }

    /// Checks every artifact in the directory against its header and
    /// checksum without deserializing the payloads.
    ///
    /// # Errors
    ///
    /// Returns [`ClaraError::Io`] when the directory exists but cannot
    /// be read; a missing directory is an empty (valid) cache.
    pub(crate) fn verify(&self) -> Result<CacheVerifySummary, ClaraError> {
        let mut summary = CacheVerifySummary::default();
        let entries = match std::fs::read_dir(&self.dir) {
            Ok(e) => e,
            Err(source) if source.kind() == std::io::ErrorKind::NotFound => {
                return Ok(summary);
            }
            Err(source) => {
                return Err(ClaraError::Io {
                    path: self.dir.clone(),
                    source,
                })
            }
        };
        let mut paths: Vec<PathBuf> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().and_then(|e| e.to_str()) == Some(EXT))
            .collect();
        paths.sort();
        for path in paths {
            summary.scanned += 1;
            match check_file(&path) {
                Ok(()) => summary.valid += 1,
                Err(detail) => summary.corrupt.push((path, detail)),
            }
        }
        Ok(summary)
    }
}

/// What [`crate::engine::Engine::verify_disk_cache`] found.
#[derive(Debug, Clone, Default)]
pub struct CacheVerifySummary {
    /// Artifact files examined.
    pub scanned: usize,
    /// Files whose header and checksum verified.
    pub valid: usize,
    /// Files that failed, with a human-readable reason each.
    pub corrupt: Vec<(PathBuf, String)>,
}

impl CacheVerifySummary {
    /// The first corruption as a [`ClaraError::CacheCorrupt`], if any.
    pub fn into_error(mut self) -> Option<ClaraError> {
        if self.corrupt.is_empty() {
            return None;
        }
        let (path, detail) = self.corrupt.remove(0);
        Some(ClaraError::CacheCorrupt { path, detail })
    }
}

/// Splits an artifact into its verified header fields and body, or a
/// reason it cannot be trusted.
fn split_verified(raw: &str) -> Result<(&str, u64, &str), String> {
    let (header, body) = raw
        .split_once('\n')
        .ok_or_else(|| "missing header line".to_string())?;
    let fields: Vec<&str> = header.split(' ').collect();
    if fields.len() != 5 || fields[0] != "claracache" {
        return Err("not a claracache artifact".to_string());
    }
    if fields[1] != VERSION {
        return Err(format!(
            "unsupported format version `{}` (this build reads {VERSION})",
            fields[1]
        ));
    }
    let key = u64::from_str_radix(fields[3], 16).map_err(|_| "unparseable key".to_string())?;
    let checksum =
        u64::from_str_radix(fields[4], 16).map_err(|_| "unparseable checksum".to_string())?;
    let actual = nic_sim::fingerprint_bytes(body.as_bytes());
    if actual != checksum {
        return Err(format!(
            "checksum mismatch (header {checksum:016x}, body {actual:016x})"
        ));
    }
    Ok((fields[2], key, body))
}

fn parse_artifact<T: Deserialize>(
    raw: &str,
    want_kind: &str,
    want_key: u64,
) -> Result<(T, obs::CapturedTelemetry), String> {
    let (kind, key, body) = split_verified(raw)?;
    if kind != want_kind || key != want_key {
        return Err(format!(
            "artifact is {kind}-{key:016x}, expected {want_kind}-{want_key:016x}"
        ));
    }
    let v = serde_json::parse_value(body).map_err(|e| e.to_string())?;
    let value =
        T::from_value(v.get("value").ok_or("missing `value`")?).map_err(|e| e.to_string())?;
    let tel = telemetry_from_value(&v)?;
    Ok((value, tel))
}

fn check_file(path: &Path) -> Result<(), String> {
    let raw = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let (_, _, body) = split_verified(&raw)?;
    serde_json::parse_value(body).map_err(|e| e.to_string())?;
    Ok(())
}

// ---- telemetry <-> Value -----------------------------------------------
//
// `clara-obs` is dependency-free by design, so its captured-telemetry
// types get hand-written conversions here instead of serde derives.

fn span_to_value(s: &obs::CapturedSpan) -> Value {
    Value::Map(vec![
        ("name".to_string(), Value::Str(s.name.clone())),
        ("detail".to_string(), Value::Str(s.detail.clone())),
        (
            "children".to_string(),
            Value::Seq(s.children.iter().map(span_to_value).collect()),
        ),
    ])
}

fn span_from_value(v: &Value) -> Result<obs::CapturedSpan, String> {
    let name: String = serde::from_field(v, "name").map_err(|e| e.to_string())?;
    let detail: String = serde::from_field(v, "detail").map_err(|e| e.to_string())?;
    let children = match v.get("children") {
        Some(Value::Seq(items)) => items
            .iter()
            .map(span_from_value)
            .collect::<Result<Vec<_>, _>>()?,
        Some(other) => {
            return Err(format!(
                "span children: expected sequence, got {}",
                other.kind()
            ))
        }
        None => return Err("span missing `children`".to_string()),
    };
    Ok(obs::CapturedSpan {
        name,
        detail,
        children,
    })
}

fn body_value<T: Serialize>(value: &T, tel: &obs::CapturedTelemetry) -> Value {
    Value::Map(vec![
        ("enabled".to_string(), Value::Bool(tel.enabled)),
        (
            "counters".to_string(),
            Value::Seq(
                tel.counters
                    .iter()
                    .map(|(name, delta)| {
                        Value::Seq(vec![Value::Str(name.clone()), Value::UInt(*delta)])
                    })
                    .collect(),
            ),
        ),
        (
            "span".to_string(),
            tel.span.as_ref().map_or(Value::Null, span_to_value),
        ),
        ("value".to_string(), value.to_value()),
    ])
}

fn telemetry_from_value(v: &Value) -> Result<obs::CapturedTelemetry, String> {
    let enabled: bool = serde::from_field(v, "enabled").map_err(|e| e.to_string())?;
    let counters: Vec<(String, u64)> =
        serde::from_field(v, "counters").map_err(|e| e.to_string())?;
    let span = match v.get("span") {
        Some(Value::Null) | None => None,
        Some(s) => Some(span_from_value(s)?),
    };
    Ok(obs::CapturedTelemetry {
        counters,
        span,
        enabled,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("clara-diskcache-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn sample_tel() -> obs::CapturedTelemetry {
        obs::CapturedTelemetry {
            counters: vec![("nfcc.modules_compiled".to_string(), 1)],
            span: Some(obs::CapturedSpan {
                name: "nfcc-compile".to_string(),
                detail: "m".to_string(),
                children: vec![obs::CapturedSpan {
                    name: "regalloc".to_string(),
                    detail: String::new(),
                    children: Vec::new(),
                }],
            }),
            enabled: true,
        }
    }

    #[test]
    fn store_then_load_round_trips_value_and_telemetry() {
        let dc = DiskCache::new(tmp_dir("roundtrip"));
        let value: Vec<u64> = vec![3, 1, 4, 1, 5];
        dc.store("compile", 0xabcd, &value, &sample_tel());
        let (back, tel) = dc
            .load::<Vec<u64>>("compile", 0xabcd)
            .expect("stored artifact loads");
        assert_eq!(back, value);
        assert_eq!(tel, sample_tel());
        // Absent key: plain miss, not corruption.
        let corrupt_before = corrupt().value();
        assert!(dc.load::<Vec<u64>>("compile", 0xffff).is_none());
        assert_eq!(corrupt().value(), corrupt_before);
        std::fs::remove_dir_all(&dc.dir).ok();
    }

    #[test]
    fn truncated_checksum_and_version_failures_recompute() {
        let dc = DiskCache::new(tmp_dir("corrupt"));
        let value = 99u64;
        dc.store("profile", 7, &value, &obs::CapturedTelemetry::default());
        let path = dc.path("profile", 7);
        let original = std::fs::read_to_string(&path).unwrap();

        // Truncated body.
        std::fs::write(&path, &original[..original.len() - 4]).unwrap();
        let before = corrupt().value();
        assert!(dc.load::<u64>("profile", 7).is_none());
        assert_eq!(corrupt().value(), before + 1);

        // Flipped body byte (checksum mismatch); the header keeps its
        // original checksum.
        let (header, body) = original.split_once('\n').unwrap();
        std::fs::write(&path, format!("{header}\n{}", body.replace("99", "98"))).unwrap();
        assert!(dc.load::<u64>("profile", 7).is_none());
        assert_eq!(corrupt().value(), before + 2);

        // Version mismatch.
        std::fs::write(&path, original.replace("claracache v1", "claracache v0")).unwrap();
        assert!(dc.load::<u64>("profile", 7).is_none());
        assert_eq!(corrupt().value(), before + 3);

        // verify() sees the same corruption and names the file.
        let summary = dc.verify().expect("directory readable");
        assert_eq!(summary.scanned, 1);
        assert_eq!(summary.valid, 0);
        assert_eq!(summary.corrupt.len(), 1);
        let err = summary.into_error().expect("corrupt entry becomes error");
        assert!(matches!(err, ClaraError::CacheCorrupt { .. }));

        // Restoring the original bytes restores the artifact.
        std::fs::write(&path, &original).unwrap();
        assert_eq!(dc.load::<u64>("profile", 7).map(|(v, _)| v), Some(99));
        std::fs::remove_dir_all(&dc.dir).ok();
    }

    #[test]
    fn verify_of_missing_directory_is_empty() {
        let dc = DiskCache::new(tmp_dir("absent"));
        let summary = dc.verify().expect("missing dir is an empty cache");
        assert_eq!((summary.scanned, summary.valid), (0, 0));
        assert!(summary.corrupt.is_empty());
    }
}
