//! Output checks: served responses must be byte-identical to the ones the
//! in-process facade and the protocol renderers produce for the same
//! request.

use std::collections::BTreeMap;

use clara_repro::clara::{Clara, ClaraError, Precision};
use clara_repro::hal::{self, Backend as _, DeviceBackend};
use clara_repro::ir::Module;
use clara_repro::serve::protocol;
use clara_repro::serve::{Request, WorkSpec};

use crate::gen;

/// One request in ten, chosen by seed, is re-derived in-process after a
/// run's timed window.
pub fn sampled(seed: u64, i: u64) -> bool {
    gen::mix(seed ^ gen::mix(i ^ 0x636b)).is_multiple_of(10)
}

/// The result of comparing kept responses against re-derived ones.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Audit {
    /// Responses compared.
    pub checked: u64,
    /// Responses that differed, or whose reference could not be derived.
    pub mismatched: u64,
    /// The first mismatch, for the log.
    pub first: Option<String>,
}

/// Compares every kept `(request index, response)` with `expect(index)`.
pub fn audit(kept: &[(u64, String)], expect: impl Fn(u64) -> Result<String, String>) -> Audit {
    let mut a = Audit::default();
    for (i, got) in kept {
        a.checked += 1;
        let bad = match expect(*i) {
            Ok(want) if want == *got => None,
            Ok(want) => Some(format!(
                "request {i}: served {got} but in-process gives {want}"
            )),
            Err(e) => Some(format!("request {i}: no reference: {e}")),
        };
        if let Some(b) = bad {
            a.mismatched += 1;
            a.first.get_or_insert(b);
        }
    }
    a
}

/// The in-process reference the served responses are compared with: the
/// same model file the daemon loaded, the same corpus, the same devices.
pub struct Reference {
    /// The model, loaded from the file the daemon serves.
    pub clara: Clara,
    /// The predictor fingerprint, hashed once as the daemon does.
    pub predictor_fp: u64,
    /// Extended corpus by name.
    pub corpus: BTreeMap<String, Module>,
}

impl Reference {
    /// Wraps a loaded model.
    pub fn new(clara: Clara) -> Reference {
        let predictor_fp = clara.predictor_fingerprint();
        let corpus = clara_repro::click::extended_corpus()
            .into_iter()
            .map(|e| (e.name().to_string(), e.module))
            .collect();
        Reference {
            clara,
            predictor_fp,
            corpus,
        }
    }

    /// Corpus module by name.
    pub fn module(&self, nf: &str) -> Result<&Module, String> {
        self.corpus
            .get(nf)
            .ok_or_else(|| format!("`{nf}` is not in the corpus"))
    }

    /// The built-in device a request names (the default when it names
    /// none), as the daemon resolves it.
    pub fn backend(name: Option<&str>) -> Result<&'static DeviceBackend, String> {
        match name {
            None => Ok(hal::default_backend()),
            Some(n) => hal::builtin(n).ok_or_else(|| format!("unknown backend `{n}`")),
        }
    }

    /// The precision a request runs at (the model's default is f64).
    fn precision(p: Option<Precision>) -> Precision {
        p.unwrap_or(Precision::F64)
    }

    /// Prediction through the serving entry point.
    pub fn predict(&self, w: &WorkSpec) -> Result<clara_repro::clara::Prediction, ClaraError> {
        let backend = Self::backend(w.backend.as_deref())
            .map_err(|detail| ClaraError::Prediction { detail })?;
        let module = self
            .module(&w.nf)
            .map_err(|detail| ClaraError::Prediction { detail })?;
        let trace = w.trace();
        self.clara
            .predict_batch_on_prec_cached(
                &[(module, &trace)],
                backend,
                Self::precision(w.precision),
                self.predictor_fp,
            )
            .pop()
            .expect("one item in, one result out")
    }

    /// The response line the daemon must send for `req`.
    pub fn response(&self, req: &Request) -> Result<String, String> {
        match req {
            Request::Predict(w) => {
                let p = self.predict(w).map_err(|e| e.to_string())?;
                let b = Self::backend(w.backend.as_deref())?;
                Ok(protocol::predict_response(
                    None,
                    &w.nf,
                    b.name(),
                    Self::precision(w.precision),
                    &p,
                ))
            }
            Request::Analyze(w) => {
                let b = Self::backend(w.backend.as_deref())?;
                let module = self.module(&w.nf)?;
                let prec = Self::precision(w.precision);
                let ins = self
                    .clara
                    .analyze_on_prec(module, &w.trace(), b, prec)
                    .map_err(|e| e.to_string())?;
                Ok(protocol::analyze_response(
                    None,
                    &w.nf,
                    b.name(),
                    prec,
                    module,
                    &ins,
                ))
            }
            Request::Place(r) => {
                let b = Self::backend(r.backend.as_deref())?;
                let plan = self
                    .clara
                    .place_on_prec(r, b, Self::precision(r.precision))
                    .map_err(|e| e.to_string())?;
                Ok(protocol::place_response(None, &plan))
            }
            other => Err(format!("no reference for {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_altered_byte_is_a_failure() {
        let want = |i: u64| Ok::<_, String>(format!("{{\"v\":1,\"ok\":true,\"n\":{i}}}"));
        let mut kept: Vec<(u64, String)> = (0..5).map(|i| (i, want(i).expect("ok"))).collect();
        assert_eq!(audit(&kept, want).mismatched, 0);
        // Flip one byte of one response.
        let mut bytes = kept[3].1.clone().into_bytes();
        bytes[12] ^= 1;
        kept[3].1 = String::from_utf8(bytes).expect("ascii");
        let a = audit(&kept, want);
        assert_eq!((a.checked, a.mismatched), (5, 1));
        assert!(a.first.expect("described").starts_with("request 3:"));
    }

    #[test]
    fn an_underivable_reference_is_a_failure() {
        let kept = vec![(0, "x".to_string())];
        assert_eq!(audit(&kept, |_| Err("boom".into())).mismatched, 1);
    }

    #[test]
    fn one_in_ten_is_sampled() {
        let n = (0..10_000).filter(|&i| sampled(3, i)).count();
        assert!((900..1100).contains(&n), "{n}");
    }
}
