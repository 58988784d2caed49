//! Training is pinned bit for bit, not just run-to-run.
//!
//! `engine_determinism` compares two runs of the same build, so a
//! training kernel that reordered a floating-point sum would still pass
//! it. This test pins the FNV-1a of the model file
//! `Clara::train(&ClaraConfig::fast(SEED))` saves against a committed
//! golden, for a serial and a 4-worker training (caches cleared before
//! each, as `engine_determinism` runs them). A kernel change that moves
//! any weight by one ulp changes the saved bytes and fails here.
//!
//! The golden must only change with an intended change to the trained
//! model; regenerate it with
//! `CLARA_BLESS=1 cargo test --release --test train_fp`.

use clara_repro::clara::engine;
use clara_repro::clara::{Clara, ClaraConfig};

/// The training seed the golden was blessed with.
const SEED: u64 = 5;

fn golden_path() -> String {
    format!("{}/tests/golden/train_fp.txt", env!("CARGO_MANIFEST_DIR"))
}

/// Trains `fast(SEED)` on `threads` workers with cold caches, saves the
/// model, and returns the FNV-1a of the saved file.
fn saved_fingerprint(threads: usize) -> u64 {
    engine::set_threads(threads);
    engine::Engine::new().clear_caches();
    let clara = Clara::train(&ClaraConfig::fast(SEED)).expect("training succeeds");
    engine::set_threads(0);
    let path = std::env::temp_dir().join(format!(
        "clara-train-fp-{threads}-{}.json",
        std::process::id()
    ));
    clara.save(&path).expect("model saves");
    let bytes = std::fs::read(&path).expect("model reads back");
    let _ = std::fs::remove_file(&path);
    clara_repro::nicsim::fingerprint_bytes(&bytes)
}

#[test]
fn saved_model_matches_golden_at_one_and_four_workers() {
    let serial = format!("{:016x}\n", saved_fingerprint(1));
    let parallel = format!("{:016x}\n", saved_fingerprint(4));
    assert_eq!(
        serial, parallel,
        "serial and 4-worker trainings saved different models"
    );
    let path = golden_path();
    if std::env::var("CLARA_BLESS").is_ok() {
        std::fs::write(&path, &serial).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!("{path} missing; regenerate with CLARA_BLESS=1 cargo test --release --test train_fp")
    });
    assert_eq!(
        serial, want,
        "the trained model's bytes changed; if intentional, regenerate with \
         CLARA_BLESS=1 cargo test --release --test train_fp"
    );
}
