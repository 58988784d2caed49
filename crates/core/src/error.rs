//! Error type for the Clara facade.
//!
//! The facade's public entry points ([`crate::Clara::analyze`],
//! [`crate::Clara::save`]/[`crate::Clara::load`],
//! [`crate::scaleout::ScaleoutModel::predict`]) never panic on user
//! input; every user-visible failure funnels into [`ClaraError`], which
//! the CLI binaries render and map to a nonzero exit code.

use std::fmt;
use std::path::PathBuf;

/// `Result` alias for facade operations.
pub type Result<T> = std::result::Result<T, ClaraError>;

/// Everything that can go wrong at the Clara facade boundary.
#[derive(Debug)]
#[non_exhaustive]
pub enum ClaraError {
    /// A filesystem operation failed.
    Io {
        /// Path being read or written.
        path: PathBuf,
        /// Underlying I/O error.
        source: std::io::Error,
    },
    /// A file or value had the wrong shape (bad JSON, missing fields).
    Format {
        /// Path of the offending file, when one is involved.
        path: Option<PathBuf>,
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// A model file was written by an incompatible format version.
    UnsupportedVersion {
        /// Version found in the file.
        found: u64,
        /// Version this build reads and writes.
        supported: u64,
    },
    /// The module under analysis failed IR verification.
    InvalidModule {
        /// Module name.
        name: String,
        /// Verifier diagnostic.
        detail: String,
    },
    /// The workload trace has no packets to analyze.
    EmptyTrace,
    /// A trained model produced an unusable estimate.
    Prediction {
        /// Human-readable description.
        detail: String,
    },
    /// A persistent cache artifact failed verification (bad header,
    /// checksum mismatch, or unreadable body).
    ///
    /// The engine itself never surfaces this — corrupt artifacts fall
    /// back to recomputation silently — but explicit integrity checks
    /// ([`crate::engine::Engine::verify_disk_cache`], `clara
    /// cache-verify`) report what they found.
    CacheCorrupt {
        /// Path of the offending artifact.
        path: PathBuf,
        /// What failed to verify.
        detail: String,
    },
    /// The run completed with partial results: some engine tasks
    /// exhausted their retry budget (or hit a stage deadline) and were
    /// dropped from the output.
    Degraded {
        /// Tasks that failed permanently.
        failed: usize,
        /// Tasks the run attempted in total.
        total: usize,
    },
    /// The serving daemon could not set up a listener: it could not bind
    /// its TCP address or Unix-socket path, or could not configure the
    /// bound socket.
    Serve {
        /// Human-readable description.
        detail: String,
    },
    /// A device manifest failed schema validation (or a request named a
    /// backend that is not loaded). Carries the dotted path of the
    /// offending field, so a bad manifest names its own defect.
    Manifest {
        /// Where the manifest came from (file path or `builtin:<name>`).
        origin: String,
        /// Dotted path of the offending field (`memory[2].latency_cycles`).
        field: String,
        /// Human-readable reason.
        detail: String,
    },
    /// The quantization oracle (`clara quantcheck`) found NFs whose
    /// fixed-point predictions drifted past the pinned tolerance of the
    /// f64 reference (or whose suggested core counts flipped between
    /// precisions). A minimized repro is written under `artifact_dir`
    /// when one is configured.
    Quantization {
        /// Corpus NFs that violated the tolerance.
        violations: usize,
        /// Corpus NFs checked in total.
        checked: usize,
        /// First violation, human-readable.
        detail: String,
        /// Where the minimized repro was written, if anywhere.
        artifact_dir: Option<PathBuf>,
    },
    /// The placement planner (`clara place`, serve `op:"place"`) failed:
    /// the ILP instance is infeasible on the chosen device, the
    /// branch-and-bound search exhausted its node budget, or the request
    /// named an NF outside the corpus.
    Placement {
        /// What failed.
        kind: PlacementFailure,
        /// Human-readable description (names the NF and the device).
        detail: String,
    },
    /// The differential oracle (`clara difftest`) found seeds whose
    /// execution layers disagree (or whose raw/optimized profiles
    /// differ). Minimized repros are written under `artifact_dir` when
    /// one is configured.
    Divergence {
        /// Seeds that diverged.
        found: usize,
        /// Seeds checked in total.
        checked: usize,
        /// Where minimized repros were written, if anywhere.
        artifact_dir: Option<PathBuf>,
    },
}

/// Why a placement request failed ([`ClaraError::Placement`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementFailure {
    /// No feasible assignment exists: some structure fits in no memory
    /// level of the chosen device.
    Infeasible,
    /// The branch-and-bound search exhausted its node budget before
    /// proving optimality.
    SolverTimeout,
    /// The request named an NF that is not in the corpus.
    UnknownNf,
}

impl ClaraError {
    /// The CLI process exit code for this error.
    ///
    /// The mapping is part of the CLI contract (documented in `--help`):
    /// `2` usage errors, `3` degraded runs, `4` cache corruption, `5`
    /// I/O failures, `6` difftest divergences, `7` serve failures
    /// (bind), `8` invalid device manifests or unknown backends, `9`
    /// quantization-tolerance violations, `10` placement failures
    /// (infeasible instance, solver timeout, unknown NF), `1` everything
    /// else.
    pub fn exit_code(&self) -> i32 {
        match self {
            ClaraError::Degraded { .. } => 3,
            ClaraError::CacheCorrupt { .. } => 4,
            ClaraError::Io { .. } => 5,
            ClaraError::Divergence { .. } => 6,
            ClaraError::Serve { .. } => 7,
            ClaraError::Manifest { .. } => 8,
            ClaraError::Quantization { .. } => 9,
            ClaraError::Placement { .. } => 10,
            _ => 1,
        }
    }
}

impl fmt::Display for ClaraError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClaraError::Io { path, source } => {
                write!(f, "{}: {source}", path.display())
            }
            ClaraError::Format {
                path: Some(p),
                detail,
            } => {
                write!(f, "{}: {detail}", p.display())
            }
            ClaraError::Format { path: None, detail } => write!(f, "{detail}"),
            ClaraError::UnsupportedVersion { found, supported } => write!(
                f,
                "model format version {found} is not supported (this build reads version \
                 {supported} only; re-train and re-save)"
            ),
            ClaraError::InvalidModule { name, detail } => {
                write!(f, "module `{name}` failed verification: {detail}")
            }
            ClaraError::EmptyTrace => {
                write!(f, "workload trace is empty; generate at least one packet")
            }
            ClaraError::Prediction { detail } => write!(f, "prediction failed: {detail}"),
            ClaraError::CacheCorrupt { path, detail } => {
                write!(f, "corrupt cache artifact {}: {detail}", path.display())
            }
            ClaraError::Degraded { failed, total } => write!(
                f,
                "run degraded: {failed} of {total} engine tasks failed permanently \
                 (see the run report's engine.task_failures counter)"
            ),
            ClaraError::Serve { detail } => write!(f, "serve: {detail}"),
            ClaraError::Manifest {
                origin,
                field,
                detail,
            } => {
                write!(f, "manifest {origin}: field `{field}`: {detail}")
            }
            ClaraError::Quantization {
                violations,
                checked,
                detail,
                artifact_dir,
            } => {
                write!(
                    f,
                    "quantcheck: {violations} of {checked} NF(s) exceeded the quantization \
                     tolerance; first: {detail}"
                )?;
                if let Some(dir) = artifact_dir {
                    write!(f, "; minimized repro in {}", dir.display())?;
                }
                Ok(())
            }
            ClaraError::Placement { kind, detail } => {
                let what = match kind {
                    PlacementFailure::Infeasible => "infeasible",
                    PlacementFailure::SolverTimeout => "solver timeout",
                    PlacementFailure::UnknownNf => "unknown NF",
                };
                write!(f, "placement ({what}): {detail}")
            }
            ClaraError::Divergence {
                found,
                checked,
                artifact_dir,
            } => {
                write!(f, "difftest: {found} of {checked} seed(s) diverged")?;
                if let Some(dir) = artifact_dir {
                    write!(f, "; minimized repros in {}", dir.display())?;
                }
                Ok(())
            }
        }
    }
}

impl From<clara_hal::ManifestError> for ClaraError {
    fn from(e: clara_hal::ManifestError) -> ClaraError {
        ClaraError::Manifest {
            origin: e.origin,
            field: e.field,
            detail: e.detail,
        }
    }
}

impl std::error::Error for ClaraError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClaraError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_are_distinct_and_documented() {
        let degraded = ClaraError::Degraded {
            failed: 1,
            total: 4,
        };
        let corrupt = ClaraError::CacheCorrupt {
            path: PathBuf::from("x.clc"),
            detail: "checksum mismatch".into(),
        };
        let io = ClaraError::Io {
            path: PathBuf::from("y"),
            source: std::io::Error::other("boom"),
        };
        let other = ClaraError::EmptyTrace;
        let diverged = ClaraError::Divergence {
            found: 2,
            checked: 500,
            artifact_dir: Some(PathBuf::from("artifacts")),
        };
        let serve = ClaraError::Serve {
            detail: "could not bind 127.0.0.1:80".into(),
        };
        assert_eq!(degraded.exit_code(), 3);
        assert_eq!(corrupt.exit_code(), 4);
        assert_eq!(io.exit_code(), 5);
        assert_eq!(other.exit_code(), 1);
        assert_eq!(diverged.exit_code(), 6);
        assert_eq!(serve.exit_code(), 7);
        let manifest = ClaraError::Manifest {
            origin: "dev.toml".into(),
            field: "cores.count".into(),
            detail: "a device needs at least one core".into(),
        };
        assert_eq!(manifest.exit_code(), 8);
        let quant = ClaraError::Quantization {
            violations: 1,
            checked: 27,
            detail: "cmsketch: block 3 drifted 0.9".into(),
            artifact_dir: Some(PathBuf::from("artifacts")),
        };
        assert_eq!(quant.exit_code(), 9);
        let placement = ClaraError::Placement {
            kind: PlacementFailure::Infeasible,
            detail: "mazunat: state exceeds tiny-device memory".into(),
        };
        assert_eq!(placement.exit_code(), 10);
        assert!(placement.to_string().contains("infeasible"));
        assert!(placement.to_string().contains("mazunat"));
        let timeout = ClaraError::Placement {
            kind: PlacementFailure::SolverTimeout,
            detail: "nat: budget of 1 nodes exhausted".into(),
        };
        assert_eq!(timeout.exit_code(), 10);
        assert!(timeout.to_string().contains("solver timeout"));
        assert!(quant.to_string().contains("1 of 27"));
        assert!(quant.to_string().contains("cmsketch"));
        assert!(manifest.to_string().contains("dev.toml"));
        assert!(manifest.to_string().contains("cores.count"));
        assert!(serve.to_string().contains("could not bind"));
        assert!(degraded.to_string().contains("1 of 4"));
        assert!(corrupt.to_string().contains("x.clc"));
        assert!(diverged.to_string().contains("2 of 500"));
        assert!(diverged.to_string().contains("artifacts"));
    }
}
