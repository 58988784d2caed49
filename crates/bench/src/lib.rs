//! Shared helpers for the experiment binaries that regenerate every table
//! and figure of the Clara paper (see DESIGN.md's per-experiment index).
//!
//! Each binary prints the same rows/series the paper reports. Run with
//! `cargo run --release -p clara-bench --bin <experiment>`; set
//! `CLARA_QUICK=1` to downscale training budgets for smoke runs.

use clara_obs as obs;
use click_model::NfElement;
use nf_ir::BlockId;
use nic_sim::{Accel, NicConfig, PortConfig};

/// RAII run-report sink for a bench binary: armed by `--report [path]`
/// on the command line or the `CLARA_REPORT` environment variable, and
/// written (as `BENCH_<name>.json` unless an explicit path is given)
/// when the binary finishes.
///
/// With neither source set, telemetry stays disabled and the guard does
/// nothing.
pub struct ReportScope {
    name: &'static str,
    sink: Option<String>,
}

impl Drop for ReportScope {
    fn drop(&mut self) {
        let Some(raw) = self.sink.take() else { return };
        let path = obs::resolve_sink(&raw, &format!("BENCH_{}.json", self.name));
        match obs::RunReport::capture().write(&path) {
            Ok(()) => println!("run report written to {}", path.display()),
            Err(e) => eprintln!(
                "warning: could not write run report to {}: {e}",
                path.display()
            ),
        }
    }
}

/// Arms the experiment's run-report sink; keep the returned guard alive
/// for the whole `main`.
pub fn report_scope(name: &'static str) -> ReportScope {
    let mut args = std::env::args().skip(1);
    let mut sink = None;
    while let Some(a) = args.next() {
        if a == "--report" {
            // A following non-flag argument is the sink path; bare
            // `--report` means "default file in the working directory".
            sink = Some(match args.next() {
                Some(p) if !p.starts_with("--") => p,
                _ => "1".to_string(),
            });
        } else if let Some(p) = a.strip_prefix("--report=") {
            sink = Some(p.to_string());
        }
    }
    let sink = sink.or_else(obs::sink_from_env);
    if sink.is_some() {
        obs::enable();
    }
    ReportScope { name, sink }
}

/// True when `CLARA_QUICK=1` is set (smoke-test scaling).
pub fn quick() -> bool {
    std::env::var("CLARA_QUICK").is_ok_and(|v| v == "1")
}

/// Scales a budget down in quick mode.
pub fn scaled(full: usize) -> usize {
    if quick() {
        (full / 5).max(4)
    } else {
        full
    }
}

/// Looks up a corpus element by name.
///
/// # Panics
///
/// Panics if no element has that name.
pub fn element(name: &str) -> NfElement {
    click_model::extended_corpus()
        .into_iter()
        .find(|e| e.name() == name)
        .unwrap_or_else(|| panic!("no element named {name}"))
}

/// The loop-region blocks of an element's handler (accelerator regions).
pub fn loop_region(e: &NfElement) -> Vec<BlockId> {
    clara_core::prepare_module(&e.module).loop_block_ids()
}

/// A port that replaces the element's loop region with the CRC engine.
pub fn crc_port(e: &NfElement) -> PortConfig {
    PortConfig::naive().accelerate(loop_region(e), Accel::Crc)
}

/// A port that serves the element's loop region from the LPM flow cache.
pub fn lpm_port(e: &NfElement) -> PortConfig {
    PortConfig::naive().accelerate(loop_region(e), Accel::Lpm)
}

/// Standard trace length for profiling runs.
pub fn trace_len() -> usize {
    if quick() {
        500
    } else {
        4000
    }
}

/// The default NIC.
pub fn nic() -> NicConfig {
    NicConfig::default()
}

/// Prints a header banner for an experiment.
pub fn banner(id: &str, title: &str) {
    println!("==================================================================");
    println!("{id}: {title}");
    println!("==================================================================");
}

/// Prints an aligned table.
pub fn table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row.iter()) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .zip(widths.iter())
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        println!("  {}", padded.join("  "));
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Formats a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a percentage with 1 decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn element_lookup_works() {
        assert_eq!(element("cmsketch").name(), "cmsketch");
    }

    #[test]
    #[should_panic(expected = "no element named")]
    fn unknown_element_panics() {
        let _ = element("nonexistent");
    }

    #[test]
    fn loop_region_nonempty_for_algo_elements() {
        assert!(!loop_region(&element("cmsketch")).is_empty());
        assert!(!loop_region(&element("iplookup")).is_empty());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f2(1.234), "1.23");
        assert_eq!(pct(0.5), "50.0%");
    }
}
