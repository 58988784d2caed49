//! Differential decode of model files: the streaming [`Clara::load`]
//! against the tree decode it replaced.
//!
//! The reference is assembled here from the tree entry points: read the
//! file as UTF-8, `serde_json::parse_value`, check `format_version`, and
//! `from_value` each section. Every seeded mutant of a saved `fast` model
//! — truncations, digit, sign and bracket flips, duplicated, dropped,
//! unknown and reordered keys, type swaps, non-UTF-8 bytes — must give
//! the same outcome on both paths: the same model (its re-save is
//! byte-identical) or the same `ClaraError` variant. Nothing panics.
//!
//! Run with `cargo test --test model_decode`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Value};

use clara_repro::clara::algid::AlgoIdentifier;
use clara_repro::clara::scaleout::ScaleoutModel;
use clara_repro::clara::{
    Clara, ClaraConfig, ClaraError, InstructionPredictor, NicConfig, Precision,
    MODEL_FORMAT_VERSION,
};

/// Scratch files of this test binary.
fn dir() -> &'static Path {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("model_decode");
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    })
}

/// A scratch file name no other test thread of this binary uses.
fn scratch(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    dir().join(format!("{tag}.{}.{n}.json", std::process::id()))
}

/// The saved `fast` model every mutant starts from.
fn saved() -> &'static [u8] {
    static SAVED: OnceLock<Vec<u8>> = OnceLock::new();
    SAVED.get_or_init(|| {
        let clara = Clara::train(&ClaraConfig::fast(7)).expect("training succeeds");
        let path = scratch("saved");
        clara.save(&path).expect("save model");
        let bytes = std::fs::read(&path).expect("read saved model");
        std::fs::remove_file(&path).ok();
        bytes
    })
}

/// The outcome of one decode: the re-saved model bytes, or the error
/// variant.
#[derive(Debug, PartialEq)]
enum Outcome {
    Model(Vec<u8>),
    Io,
    Format,
    UnsupportedVersion(u64),
    Other(String),
}

fn outcome(decoded: Result<Clara, ClaraError>, tag: &str) -> Outcome {
    match decoded {
        Ok(clara) => {
            let path = scratch(tag);
            clara.save(&path).expect("re-save");
            let bytes = std::fs::read(&path).expect("read re-save");
            std::fs::remove_file(&path).ok();
            Outcome::Model(bytes)
        }
        Err(ClaraError::Io { .. }) => Outcome::Io,
        Err(ClaraError::Format { .. }) => Outcome::Format,
        Err(ClaraError::UnsupportedVersion { found, .. }) => Outcome::UnsupportedVersion(found),
        Err(other) => Outcome::Other(other.to_string()),
    }
}

/// The tree decode: what `Clara::load` did before it streamed.
fn reference(bytes: &[u8]) -> Result<Clara, ClaraError> {
    let io = || ClaraError::Io {
        path: PathBuf::from("reference"),
        source: std::io::Error::from(std::io::ErrorKind::InvalidData),
    };
    let format = |detail: String| ClaraError::Format { path: None, detail };
    let text = std::str::from_utf8(bytes).map_err(|_| io())?;
    let v = serde_json::parse_value(text).map_err(|e| format(e.to_string()))?;
    let found = match v.get("format_version") {
        Some(Value::Int(i)) if *i >= 0 => *i as u64,
        Some(Value::UInt(u)) => *u,
        _ => return Err(format("missing `format_version`".to_string())),
    };
    if found != MODEL_FORMAT_VERSION {
        return Err(ClaraError::UnsupportedVersion {
            found,
            supported: MODEL_FORMAT_VERSION,
        });
    }
    let section = |v: &Value, name: &str| {
        v.get(name)
            .cloned()
            .ok_or_else(|| format(format!("missing `{name}`")))
    };
    let models = section(&v, "models")?;
    let shape = |e: serde::Error| format(e.to_string());
    Ok(Clara {
        predictor: InstructionPredictor::from_value(&section(&models, "predictor")?)
            .map_err(shape)?,
        algid: AlgoIdentifier::from_value(&section(&models, "algid")?).map_err(shape)?,
        scaleout: ScaleoutModel::from_value(&section(&models, "scaleout")?).map_err(shape)?,
        nic: NicConfig::from_value(&section(&v, "nic_config")?).map_err(shape)?,
        precision: Precision::from_value(&section(&v, "precision")?).map_err(shape)?,
    })
}

/// Decodes `bytes` both ways and checks the outcomes agree.
fn assert_agree(bytes: &[u8], what: &str) -> Outcome {
    let path = scratch("mutant");
    std::fs::write(&path, bytes).expect("write mutant");
    let streamed = outcome(Clara::load(&path), "streamed");
    std::fs::remove_file(&path).ok();
    let tree = outcome(reference(bytes), "tree");
    assert!(
        streamed == tree,
        "{what}: streaming load gave {} but the tree decode {}",
        summary(&streamed),
        summary(&tree)
    );
    streamed
}

fn summary(o: &Outcome) -> String {
    match o {
        Outcome::Model(bytes) => format!("a model ({} bytes re-saved)", bytes.len()),
        other => format!("{other:?}"),
    }
}

/// Path (child indices) to every map in `v`, with the root first.
fn maps(v: &Value, at: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    match v {
        Value::Map(entries) => {
            out.push(at.clone());
            for (i, (_, child)) in entries.iter().enumerate() {
                at.push(i);
                maps(child, at, out);
                at.pop();
            }
        }
        Value::Seq(items) => {
            for (i, child) in items.iter().enumerate() {
                at.push(i);
                maps(child, at, out);
                at.pop();
            }
        }
        _ => {}
    }
}

fn node_mut<'a>(v: &'a mut Value, path: &[usize]) -> &'a mut Value {
    path.iter().fold(v, |v, &i| match v {
        Value::Map(entries) => &mut entries[i].1,
        Value::Seq(items) => &mut items[i],
        _ => unreachable!("paths lead through containers"),
    })
}

/// A value of another type than `v`'s.
fn swapped(v: &Value, rng: &mut StdRng) -> Value {
    let choices = [
        Value::Null,
        Value::Bool(true),
        Value::Int(-3),
        Value::Float(0.5),
        Value::Str("x".to_string()),
        Value::Seq(vec![Value::Int(1)]),
        Value::Map(vec![("F64".to_string(), Value::Null)]),
    ];
    loop {
        let pick = choices[rng.gen_range(0..choices.len())].clone();
        if pick.kind() != v.kind() {
            return pick;
        }
    }
}

/// One structural mutation of the parsed envelope, picked by `rng`.
fn mutate_tree(v: &mut Value, kind: usize, rng: &mut StdRng) -> String {
    let mut paths = Vec::new();
    maps(v, &mut Vec::new(), &mut paths);
    // Half the time, mutate the envelope or a section header, where key
    // order decides between a version mismatch and a shape error.
    let path = if rng.gen_bool(0.5) {
        paths[rng.gen_range(0..paths.len().min(6))].clone()
    } else {
        paths[rng.gen_range(0..paths.len())].clone()
    };
    let Value::Map(entries) = node_mut(v, &path) else {
        unreachable!("paths lead to maps")
    };
    let n = entries.len();
    if n == 0 {
        entries.push(("extra".to_string(), Value::Null));
        return format!("key added to empty map at {path:?}");
    }
    let i = rng.gen_range(0..n);
    match kind {
        // Duplicate a key, before or after the original, with the same
        // or a different value.
        0 => {
            let (key, value) = entries[i].clone();
            let value = if rng.gen_bool(0.5) {
                swapped(&value, rng)
            } else {
                value
            };
            let at = rng.gen_range(0..=n);
            entries.insert(at, (key.clone(), value));
            format!("duplicate `{key}` at {path:?}")
        }
        1 => {
            let (key, _) = entries.remove(i);
            format!("drop `{key}` at {path:?}")
        }
        2 => {
            let at = rng.gen_range(0..=n);
            entries.insert(
                at,
                ("unknown_key".to_string(), Value::Seq(vec![Value::Null])),
            );
            format!("unknown key at {path:?}")
        }
        3 => {
            entries.reverse();
            entries.rotate_left(i);
            format!("reorder at {path:?}")
        }
        _ => {
            let (key, value) = &mut entries[i];
            *value = swapped(value, rng);
            format!("type swap of `{key}` at {path:?}")
        }
    }
}

/// Byte offsets of every byte of `text` matching `pred`.
fn positions(text: &[u8], pred: impl Fn(u8) -> bool) -> Vec<usize> {
    text.iter()
        .enumerate()
        .filter(|(_, &b)| pred(b))
        .map(|(i, _)| i)
        .collect()
}

/// One mutant of the saved model and what it is.
fn mutant(kind: usize, seed: u64) -> (Vec<u8>, String) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut bytes = saved().to_vec();
    let what = match kind {
        0 => {
            let at = rng.gen_range(0..bytes.len());
            bytes.truncate(at);
            format!("truncated at byte {at}")
        }
        1 => {
            let digits = positions(&bytes, |b| b.is_ascii_digit());
            let at = digits[rng.gen_range(0..digits.len())];
            bytes[at] = b'0' + (bytes[at] - b'0' + rng.gen_range(1u8..10)) % 10;
            format!("digit flipped at byte {at}")
        }
        2 => {
            let starts = positions(&bytes, |b| b == b':' || b == b',' || b == b'[');
            let at = starts[rng.gen_range(0..starts.len())] + 1;
            if bytes[at] == b'-' {
                bytes.remove(at);
            } else {
                bytes.insert(at, b'-');
            }
            format!("sign flipped at byte {at}")
        }
        3 => {
            let brackets = positions(&bytes, |b| b"[]{}".contains(&b));
            let at = brackets[rng.gen_range(0..brackets.len())];
            let other = b"[]{}"[rng.gen_range(0usize..4)];
            bytes[at] = if other == bytes[at] { b'"' } else { other };
            format!("bracket flipped at byte {at}")
        }
        4 => {
            let at = rng.gen_range(0..=bytes.len());
            bytes.insert(at, 0xff);
            format!("non-UTF-8 byte at {at}")
        }
        tree => {
            let text = std::str::from_utf8(&bytes).expect("saved model is UTF-8");
            let mut v = serde_json::parse_value(text).expect("saved model parses");
            let what = mutate_tree(&mut v, tree - 5, &mut rng);
            bytes = serde_json::to_string(&v).expect("renders").into_bytes();
            what
        }
    };
    (bytes, what)
}

/// The unmutated file loads the same model both ways, and its re-save
/// is the file itself.
#[test]
fn saved_model_round_trips_through_both_decodes() {
    match assert_agree(saved(), "unmutated") {
        Outcome::Model(bytes) => assert!(bytes == saved(), "re-save reproduces the file"),
        other => panic!("the saved model must load: {other:?}"),
    }
}

/// Key order never decides between versions: `models` before
/// `format_version`, a first `format_version` of 3 with a later 4, and
/// the reverse.
#[test]
fn version_is_found_wherever_it_sits() {
    let text = std::str::from_utf8(saved()).expect("UTF-8");
    let Value::Map(mut entries) = serde_json::parse_value(text).expect("parses") else {
        panic!("the envelope is a map");
    };
    entries.reverse();
    let reordered = serde_json::to_string(&Value::Map(entries.clone())).expect("renders");
    assert!(matches!(
        assert_agree(reordered.as_bytes(), "reversed"),
        Outcome::Model(_)
    ));
    let mut v4 = entries.clone();
    v4.push(("format_version".to_string(), Value::Int(4)));
    let later_four = serde_json::to_string(&Value::Map(v4)).expect("renders");
    assert!(matches!(
        assert_agree(later_four.as_bytes(), "later 4"),
        Outcome::Model(_)
    ));
    let mut first_four = entries;
    first_four.insert(0, ("format_version".to_string(), Value::Int(4)));
    // Broken models too: the version still wins.
    if let Some((_, models)) = first_four.iter_mut().find(|(k, _)| k == "models") {
        *models = Value::Str("broken".to_string());
    }
    let first_four = serde_json::to_string(&Value::Map(first_four)).expect("renders");
    assert_eq!(
        assert_agree(first_four.as_bytes(), "first 4"),
        Outcome::UnsupportedVersion(4)
    );
}

/// Nesting past the parser's bound is malformed JSON: `Format`, inside a
/// section or beside a version that would otherwise be a mismatch.
#[test]
fn deeply_nested_model_is_a_format_error() {
    let deep = "[".repeat(100_000);
    for text in [
        format!(r#"{{"format_version":3,"models":{deep}"#),
        format!(
            r#"{{"format_version":4,"x":{}{}}}"#,
            "[".repeat(200),
            "]".repeat(200)
        ),
        deep.clone(),
    ] {
        assert_eq!(
            assert_agree(text.as_bytes(), "deep nesting"),
            Outcome::Format
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Every seeded mutant decodes to the same outcome on both paths.
    #[test]
    fn mutants_decode_alike(kind in 0usize..10, seed in 0u64..u64::MAX) {
        let (bytes, what) = mutant(kind, seed);
        assert_agree(&bytes, &format!("{what} (kind {kind}, seed {seed})"));
    }
}
