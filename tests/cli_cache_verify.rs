//! The `clara cache-verify` CLI path, end to end as a subprocess.
//!
//! ISSUE satellite: corrupt an artifact on disk and assert the CLI
//! exits with the dedicated cache-corruption code (4) and names the
//! damage loudly, while a healthy cache and a missing configuration
//! both exit 0.

use std::path::PathBuf;
use std::process::Command;

use clara_repro::clara::engine::{self, Engine};
use clara_repro::nicsim::{NicConfig, PortConfig};
use clara_repro::trafgen::WorkloadSpec;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clara-cli-verify-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn cache_verify(dir: Option<&PathBuf>) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_clara"));
    cmd.arg("cache-verify");
    match dir {
        Some(d) => cmd.env("CLARA_CACHE_DIR", d),
        None => cmd.env_remove("CLARA_CACHE_DIR"),
    };
    cmd.output().expect("spawn clara cache-verify")
}

/// Profiles a couple of corpus elements on one engine worker with the
/// disk cache pointed at `dir`, then restores the engine's defaults.
fn populate(dir: &PathBuf) {
    engine::set_threads(1);
    std::env::set_var("CLARA_CACHE_DIR", dir);
    Engine::new().clear_caches();
    let modules: Vec<_> = ["aggcounter", "cmsketch"]
        .iter()
        .map(|name| {
            clara_repro::click::corpus()
                .into_iter()
                .find(|e| e.name() == *name)
                .expect("known corpus element")
                .module
        })
        .collect();
    engine::profile_matrix(
        &modules,
        &[WorkloadSpec::large_flows()],
        40,
        9,
        &PortConfig::naive(),
        &NicConfig::default(),
    );
    std::env::remove_var("CLARA_CACHE_DIR");
    engine::set_threads(0);
}

#[test]
fn missing_cache_configuration_exits_zero() {
    let out = cache_verify(None);
    assert_eq!(out.status.code(), Some(0), "no cache dir is not an error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("no persistent cache configured"),
        "CLI must say why there was nothing to verify: {stderr}"
    );
}

#[test]
fn corrupt_artifact_exits_four_and_is_named_loudly() {
    let dir = tmp_dir("corrupt");
    populate(&dir);

    // Healthy cache first: exit 0 and a clean scan summary.
    let out = cache_verify(Some(&dir));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "healthy cache must verify clean (stdout: {stdout})"
    );
    assert!(
        stdout.contains("0 corrupt"),
        "clean summary expected: {stdout}"
    );

    // Flip one byte in one artifact's body; the header checksum now
    // disagrees with the content.
    let victim = std::fs::read_dir(&dir)
        .expect("cache dir exists")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| p.extension().and_then(|e| e.to_str()) == Some("clc"))
        .expect("populate stored at least one artifact");
    let raw = std::fs::read_to_string(&victim).expect("artifact readable");
    let (header, body) = raw.split_once('\n').expect("artifact has a header");
    let mut bytes = body.as_bytes().to_vec();
    let last = bytes.len() - 1;
    bytes[last] = if bytes[last] == b'}' { b')' } else { b'}' };
    std::fs::write(
        &victim,
        format!("{header}\n{}", String::from_utf8_lossy(&bytes)),
    )
    .expect("rewrite artifact");

    let out = cache_verify(Some(&dir));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(4),
        "corruption must map to the dedicated exit code (stdout: {stdout}, stderr: {stderr})"
    );
    assert!(
        stdout.contains("scanned") && stdout.contains("1 corrupt"),
        "scan summary must count the damage: {stdout}"
    );
    assert!(
        stderr.contains("corrupt:")
            && stderr.contains(victim.file_name().unwrap().to_str().unwrap()),
        "the corrupt artifact must be named on stderr: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
