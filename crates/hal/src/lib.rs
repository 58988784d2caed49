//! `clara-hal`: the NIC hardware-abstraction layer.
//!
//! The paper's offloading insights are claimed *per device*, yet the
//! simulator historically profiled against one baked-in Netronome-like
//! [`NicConfig`]. This crate turns the target device into a first-class,
//! data-driven axis:
//!
//! - a **versioned, self-describing manifest format** ([`Manifest`])
//!   covering core count/clock, the memory-level table, the accelerator
//!   table with per-op cycle costs, and the port map, parsed from
//!   on-disk TOML and schema-validated at load with typed,
//!   field-path-carrying errors ([`ManifestError`]);
//! - a [`Backend`] trait plus the concrete [`DeviceBackend`], pairing a
//!   validated manifest with its lowered `NicConfig` and a content
//!   fingerprint (the engine folds it into cache keys, so a disk cache
//!   never serves one device's profile to another);
//! - **built-in devices** compiled into the binary: the historical
//!   default as `agilio-cx` (byte-identical to `NicConfig::default()`),
//!   a many-wimpy-core on-path device, an off-path DPU, and a
//!   deliberately accelerator-poor device.
//!
//! Execution semantics never depend on the backend — only profiles and
//! predictions do. The workspace's backend-invariance suite
//! (`tests/proptest_cross.rs`, `clara difftest --backends`) holds the
//! HAL to that contract.

use std::path::Path;
use std::sync::OnceLock;

use nic_sim::NicConfig;

pub mod toml;

mod manifest;

pub use manifest::{
    ChecksumAccel, CrcAccel, DeviceClass, IoSpec, LpmCam, Manifest, ManifestError, MemCache,
    MemRow, PortSpec, VendorLib, SCHEMA_VERSION,
};

/// Name of the default backend (the historical baked-in device).
pub const DEFAULT_BACKEND: &str = "agilio-cx";

/// A target NIC device: a validated manifest, its lowered simulator
/// configuration, and a stable content fingerprint.
pub trait Backend {
    /// Device name (the manifest's `name` field).
    fn name(&self) -> &str;
    /// The validated manifest.
    fn manifest(&self) -> &Manifest;
    /// The lowered simulator configuration.
    fn nic(&self) -> &NicConfig;
    /// Content fingerprint of the manifest; equal devices ⇒ equal
    /// fingerprints. Cache keys must incorporate it.
    fn fingerprint(&self) -> u64;
    /// Content fingerprint of [`Backend::nic`]: FNV-1a of its JSON, the
    /// engine's `value_fingerprint` of it. Profile-cache keys carry it
    /// next to [`Backend::fingerprint`], so it is computed once rather
    /// than per request.
    fn nic_fingerprint(&self) -> u64;
}

/// A backend built from a device manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceBackend {
    manifest: Manifest,
    nic: NicConfig,
    fingerprint: u64,
    nic_fingerprint: u64,
}

impl DeviceBackend {
    /// Builds a backend from an already validated manifest.
    pub fn from_manifest(manifest: Manifest) -> DeviceBackend {
        let nic = manifest.nic_config();
        let fingerprint = manifest.fingerprint();
        let nic_json = serde_json::to_string(&nic).unwrap_or_default();
        let nic_fingerprint = nic_sim::fingerprint_bytes(nic_json.as_bytes());
        DeviceBackend {
            manifest,
            nic,
            fingerprint,
            nic_fingerprint,
        }
    }

    /// Parses, validates, and lowers a manifest document.
    ///
    /// # Errors
    ///
    /// Propagates [`ManifestError`] from [`Manifest::parse`].
    pub fn parse(origin: &str, text: &str) -> Result<DeviceBackend, ManifestError> {
        Ok(DeviceBackend::from_manifest(Manifest::parse(origin, text)?))
    }

    /// Loads, validates, and lowers a manifest file.
    ///
    /// # Errors
    ///
    /// Propagates [`ManifestError`] from [`Manifest::load`].
    pub fn load(path: impl AsRef<Path>) -> Result<DeviceBackend, ManifestError> {
        Ok(DeviceBackend::from_manifest(Manifest::load(path)?))
    }
}

impl Backend for DeviceBackend {
    fn name(&self) -> &str {
        &self.manifest.name
    }

    fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    fn nic(&self) -> &NicConfig {
        &self.nic
    }

    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn nic_fingerprint(&self) -> u64 {
        self.nic_fingerprint
    }
}

static BUILTINS: OnceLock<Vec<DeviceBackend>> = OnceLock::new();

/// All built-in device backends, default ([`DEFAULT_BACKEND`]) first.
pub fn builtins() -> &'static [DeviceBackend] {
    BUILTINS.get_or_init(|| {
        [
            (
                "builtin:agilio-cx",
                include_str!("../manifests/agilio-cx.toml"),
            ),
            (
                "builtin:wimpy-onpath",
                include_str!("../manifests/wimpy-onpath.toml"),
            ),
            (
                "builtin:dpu-offpath",
                include_str!("../manifests/dpu-offpath.toml"),
            ),
            (
                "builtin:accel-poor",
                include_str!("../manifests/accel-poor.toml"),
            ),
        ]
        .iter()
        .map(|(origin, text)| {
            DeviceBackend::parse(origin, text).expect("built-in manifest is valid")
        })
        .collect()
    })
}

/// Looks up a built-in backend by device name.
pub fn builtin(name: &str) -> Option<&'static DeviceBackend> {
    builtins().iter().find(|b| b.name() == name)
}

/// Names of all built-in backends, default first.
pub fn builtin_names() -> Vec<&'static str> {
    builtins().iter().map(Backend::name).collect()
}

/// The default backend (the historical baked-in device).
pub fn default_backend() -> &'static DeviceBackend {
    builtin(DEFAULT_BACKEND).expect("default backend is built in")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_load_default_first() {
        let names = builtin_names();
        assert_eq!(
            names,
            vec!["agilio-cx", "wimpy-onpath", "dpu-offpath", "accel-poor"]
        );
        assert_eq!(builtins()[0].name(), DEFAULT_BACKEND);
        assert_eq!(default_backend().name(), DEFAULT_BACKEND);
        assert!(builtin("tofino9").is_none());
    }

    #[test]
    fn agilio_manifest_lowers_to_the_historical_default() {
        // The acceptance contract: the shipped agilio-cx manifest is the
        // pre-HAL baked-in device, field for field.
        assert_eq!(default_backend().nic(), &NicConfig::default());
    }

    #[test]
    fn builtin_fingerprints_are_distinct_and_stable() {
        let fps: Vec<u64> = builtins().iter().map(Backend::fingerprint).collect();
        for (i, a) in fps.iter().enumerate() {
            for b in &fps[i + 1..] {
                assert_ne!(a, b, "two devices share a fingerprint");
            }
        }
        // Re-parsing the same manifest reproduces the same fingerprint.
        let again = DeviceBackend::parse(
            "builtin:agilio-cx",
            include_str!("../manifests/agilio-cx.toml"),
        )
        .expect("valid");
        assert_eq!(again.fingerprint(), default_backend().fingerprint());
    }

    #[test]
    fn builtin_devices_differ_where_it_matters() {
        let agilio = builtin("agilio-cx").unwrap().nic();
        let wimpy = builtin("wimpy-onpath").unwrap().nic();
        let dpu = builtin("dpu-offpath").unwrap().nic();
        let poor = builtin("accel-poor").unwrap().nic();
        // Every non-default device has a different clock or accelerator
        // story — the invariance suite relies on visible profile deltas.
        assert_ne!(agilio.freq_ghz, wimpy.freq_ghz);
        assert_ne!(agilio.freq_ghz, dpu.freq_ghz);
        assert_eq!(agilio.freq_ghz, poor.freq_ghz);
        assert_eq!(agilio.levels, poor.levels);
        assert_ne!(agilio.libcall_overhead, poor.libcall_overhead);
        assert_ne!(agilio.csum_accel_cycles, poor.csum_accel_cycles);
        assert_eq!(
            builtin("dpu-offpath").unwrap().manifest().class,
            DeviceClass::OffPath
        );
    }
}
