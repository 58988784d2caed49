//! Device manifest schema: parsing, validation, and lowering to
//! [`NicConfig`].
//!
//! A manifest is a versioned, self-describing TOML document covering
//! everything the simulator and performance model consume: core
//! count/clock, the four-level memory table, the EMEM-fronting SRAM
//! cache, the accelerator table with per-op cycle costs and optional
//! catalog variant names (validated against [`clara_accel::CATALOG`]),
//! the vendor library call overhead, and the port map. Validation happens entirely
//! at load time; every violation is a typed [`ManifestError`] carrying
//! the dotted path of the offending field (`memory[2].latency_cycles`),
//! so a bad manifest names its own defect.

use std::fmt;
use std::path::Path;

use clara_accel::AccelUnit;
use nic_sim::{MemLevel, MemLevelCfg, NicConfig};
use serde::Serialize;

use crate::toml::{self, Table, Value};

/// The manifest schema version this build reads.
pub const SCHEMA_VERSION: i64 = 1;

/// A schema violation (or syntax/IO failure) in a device manifest.
///
/// `field` is the dotted path of the offending field — `cores.count`,
/// `memory[2].latency_cycles`, `port[1].id` — or one of the pseudo-paths
/// `(syntax)` / `(io)` for failures below the schema level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestError {
    /// Where the manifest came from: a file path or `builtin:<name>`.
    pub origin: String,
    /// Dotted path of the offending field.
    pub field: String,
    /// Human-readable reason.
    pub detail: String,
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "manifest {}: field `{}`: {}",
            self.origin, self.field, self.detail
        )
    }
}

impl std::error::Error for ManifestError {}

/// Where the device sits relative to the host (λ-NIC / Cora taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum DeviceClass {
    /// Packets traverse the device on their way to the host.
    OnPath,
    /// The device is an offload target beside the host path (DPU-style).
    OffPath,
}

impl DeviceClass {
    /// The manifest spelling (`on-path` / `off-path`).
    pub fn as_str(self) -> &'static str {
        match self {
            DeviceClass::OnPath => "on-path",
            DeviceClass::OffPath => "off-path",
        }
    }
}

/// One row of the memory-level table, fastest-first.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MemRow {
    /// Level name (`CLS`, `CTM`, `IMEM`, `EMEM`).
    pub level: String,
    /// Capacity in bytes available for NF state.
    pub capacity_bytes: u64,
    /// Unloaded access latency in core cycles.
    pub latency_cycles: u32,
    /// Peak service rate in accesses per cycle (chip-wide).
    pub bandwidth: f64,
}

/// The SRAM cache fronting the DRAM-backed level.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MemCache {
    /// Cache capacity in bytes.
    pub capacity_bytes: u64,
    /// Hit latency in core cycles.
    pub hit_latency_cycles: u32,
    /// Service rate in accesses per cycle.
    pub bandwidth: f64,
}

/// Packet-IO ceilings.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct IoSpec {
    /// Packet-IO engine ceiling in Mpps.
    pub max_mpps: f64,
    /// Line rate in Gbps.
    pub line_rate_gbps: f64,
}

/// Checksum engine costs.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ChecksumAccel {
    /// Accelerated cost in cycles.
    pub accel_cycles: u32,
    /// Software fallback cost in cycles.
    pub sw_cycles: u32,
    /// Catalog variant the engine implements (`csum-*`); defaults to the
    /// catalog's checksum default when the manifest omits `variant`.
    pub variant: String,
}

/// CRC engine costs.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CrcAccel {
    /// Base cost per invocation, cycles.
    pub base_cycles: u32,
    /// Incremental cost per collapsed loop iteration.
    pub per_iter_cycles: f64,
    /// Catalog variant the engine implements (`crc*`); defaults to the
    /// catalog's CRC default when the manifest omits `variant`.
    pub variant: String,
}

/// LPM flow-cache (CAM) costs and capacity.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LpmCam {
    /// Hit cost in cycles.
    pub hit_cycles: u32,
    /// Insert cost in cycles.
    pub insert_cycles: u32,
    /// Capacity in flows.
    pub entries: u32,
    /// Catalog variant the block implements (`lpm-*`); defaults to the
    /// catalog's LPM default when the manifest omits `variant`.
    pub variant: String,
}

/// Vendor library call costs.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct VendorLib {
    /// Fixed per-call overhead in cycles.
    pub call_overhead_cycles: u32,
}

/// One physical port.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PortSpec {
    /// Port id, unique within the device.
    pub id: u32,
    /// Port speed in Gbps.
    pub speed_gbps: f64,
}

/// A fully validated device manifest.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Manifest {
    /// Schema version (always [`SCHEMA_VERSION`] after validation).
    pub schema_version: i64,
    /// Device name; backends are addressed by it.
    pub name: String,
    /// Free-form description.
    pub description: String,
    /// On-path or off-path device.
    pub class: DeviceClass,
    /// Number of packet-processing cores.
    pub cores: u32,
    /// Core clock in GHz.
    pub freq_ghz: f64,
    /// Packet-IO ceilings.
    pub io: IoSpec,
    /// The four memory levels, fastest-first (CLS, CTM, IMEM, EMEM).
    pub memory: Vec<MemRow>,
    /// SRAM cache in front of the last (DRAM) level.
    pub memory_cache: MemCache,
    /// Checksum engine.
    pub checksum: ChecksumAccel,
    /// CRC engine.
    pub crc: CrcAccel,
    /// LPM flow cache.
    pub lpm_cam: LpmCam,
    /// Vendor library costs.
    pub vendor_lib: VendorLib,
    /// Port map.
    pub ports: Vec<PortSpec>,
}

/// Error-construction context: the manifest origin.
struct Cx<'a> {
    origin: &'a str,
}

impl Cx<'_> {
    fn err(&self, field: impl Into<String>, detail: impl Into<String>) -> ManifestError {
        ManifestError {
            origin: self.origin.to_string(),
            field: field.into(),
            detail: detail.into(),
        }
    }

    fn req<'t>(&self, t: &'t Table, parent: &str, key: &str) -> Result<&'t Value, ManifestError> {
        t.get(key)
            .ok_or_else(|| self.err(join(parent, key), "required field is missing"))
    }

    fn table<'t>(&self, t: &'t Table, parent: &str, key: &str) -> Result<&'t Table, ManifestError> {
        match self.req(t, parent, key)? {
            Value::Table(t) => Ok(t),
            other => Err(self.err(
                join(parent, key),
                format!("expected a table, got a {}", other.type_name()),
            )),
        }
    }

    fn rows<'t>(&self, t: &'t Table, key: &str) -> Result<Vec<&'t Table>, ManifestError> {
        match self.req(t, "", key)? {
            Value::Array(a) => a
                .iter()
                .enumerate()
                .map(|(i, v)| match v {
                    Value::Table(t) => Ok(t),
                    other => Err(self.err(
                        format!("{key}[{i}]"),
                        format!("expected a table, got a {}", other.type_name()),
                    )),
                })
                .collect(),
            other => Err(self.err(
                key,
                format!("expected an array of tables, got a {}", other.type_name()),
            )),
        }
    }

    fn str_of(&self, t: &Table, parent: &str, key: &str) -> Result<String, ManifestError> {
        match self.req(t, parent, key)? {
            Value::Str(s) => Ok(s.clone()),
            other => Err(self.err(
                join(parent, key),
                format!("expected a string, got a {}", other.type_name()),
            )),
        }
    }

    fn int_of(&self, t: &Table, parent: &str, key: &str) -> Result<i64, ManifestError> {
        match self.req(t, parent, key)? {
            Value::Int(i) => Ok(*i),
            other => Err(self.err(
                join(parent, key),
                format!("expected an integer, got a {}", other.type_name()),
            )),
        }
    }

    fn u32_of(&self, t: &Table, parent: &str, key: &str) -> Result<u32, ManifestError> {
        let i = self.int_of(t, parent, key)?;
        u32::try_from(i)
            .map_err(|_| self.err(join(parent, key), format!("{i} is out of range for u32")))
    }

    fn u64_of(&self, t: &Table, parent: &str, key: &str) -> Result<u64, ManifestError> {
        let i = self.int_of(t, parent, key)?;
        u64::try_from(i)
            .map_err(|_| self.err(join(parent, key), format!("{i} must be non-negative")))
    }

    fn f64_of(&self, t: &Table, parent: &str, key: &str) -> Result<f64, ManifestError> {
        match self.req(t, parent, key)? {
            Value::Float(f) => Ok(*f),
            #[allow(clippy::cast_precision_loss)]
            Value::Int(i) => Ok(*i as f64),
            other => Err(self.err(
                join(parent, key),
                format!("expected a number, got a {}", other.type_name()),
            )),
        }
    }

    fn pos_f64(&self, t: &Table, parent: &str, key: &str) -> Result<f64, ManifestError> {
        let f = self.f64_of(t, parent, key)?;
        if !(f.is_finite() && f > 0.0) {
            return Err(self.err(join(parent, key), format!("{f} must be a positive number")));
        }
        Ok(f)
    }

    /// Resolves an accelerator row's optional `variant` key against the
    /// catalog: absent ⇒ the unit's default; present ⇒ must name a
    /// catalog entry of the matching unit.
    fn variant_of(
        &self,
        t: &Table,
        parent: &str,
        unit: AccelUnit,
    ) -> Result<String, ManifestError> {
        let name = match t.get("variant") {
            None => return Ok(clara_accel::default_for(unit).name.to_string()),
            Some(Value::Str(s)) => s.clone(),
            Some(other) => {
                return Err(self.err(
                    join(parent, "variant"),
                    format!("expected a string, got a {}", other.type_name()),
                ))
            }
        };
        let Some(v) = clara_accel::lookup(&name) else {
            return Err(self.err(
                join(parent, "variant"),
                format!(
                    "unknown accelerator variant `{name}` (catalog: {})",
                    clara_accel::names().join(", ")
                ),
            ));
        };
        if v.unit != unit {
            return Err(self.err(
                join(parent, "variant"),
                format!(
                    "variant `{name}` is a {} algorithm, not usable by a {} unit",
                    v.unit.name(),
                    unit.name()
                ),
            ));
        }
        Ok(name)
    }
}

fn join(parent: &str, key: &str) -> String {
    if parent.is_empty() {
        key.to_string()
    } else {
        format!("{parent}.{key}")
    }
}

impl Manifest {
    /// Parses and validates a manifest document.
    ///
    /// `origin` labels errors (a file path, or `builtin:<name>` for the
    /// shipped manifests).
    ///
    /// # Errors
    ///
    /// Returns a [`ManifestError`] naming the offending field path on
    /// any syntax error or schema violation.
    pub fn parse(origin: &str, text: &str) -> Result<Manifest, ManifestError> {
        let cx = Cx { origin };
        let root = toml::parse(text).map_err(|e| cx.err("(syntax)", e.to_string()))?;

        let schema_version = cx.int_of(&root, "", "schema_version")?;
        if schema_version != SCHEMA_VERSION {
            return Err(cx.err(
                "schema_version",
                format!("unsupported schema version {schema_version} (this build reads {SCHEMA_VERSION})"),
            ));
        }
        let name = cx.str_of(&root, "", "name")?;
        if name.is_empty() {
            return Err(cx.err("name", "device name must be non-empty"));
        }
        let description = cx.str_of(&root, "", "description")?;
        let class = match cx.str_of(&root, "", "class")?.as_str() {
            "on-path" => DeviceClass::OnPath,
            "off-path" => DeviceClass::OffPath,
            other => {
                return Err(cx.err(
                    "class",
                    format!("unknown device class `{other}` (known: on-path, off-path)"),
                ))
            }
        };

        let cores_tbl = cx.table(&root, "", "cores")?;
        let cores = cx.u32_of(cores_tbl, "cores", "count")?;
        if cores == 0 {
            return Err(cx.err("cores.count", "a device needs at least one core"));
        }
        let freq_ghz = cx.pos_f64(cores_tbl, "cores", "freq_ghz")?;

        let io_tbl = cx.table(&root, "", "io")?;
        let io = IoSpec {
            max_mpps: cx.pos_f64(io_tbl, "io", "max_mpps")?,
            line_rate_gbps: cx.pos_f64(io_tbl, "io", "line_rate_gbps")?,
        };

        let memory = Self::parse_memory(&cx, &root)?;
        let emem = memory.last().expect("validated four levels");

        let cache_tbl = cx.table(&root, "", "memory_cache")?;
        let memory_cache = MemCache {
            capacity_bytes: cx.u64_of(cache_tbl, "memory_cache", "capacity_bytes")?,
            hit_latency_cycles: cx.u32_of(cache_tbl, "memory_cache", "hit_latency_cycles")?,
            bandwidth: cx.pos_f64(cache_tbl, "memory_cache", "bandwidth")?,
        };
        if memory_cache.capacity_bytes == 0 || memory_cache.capacity_bytes >= emem.capacity_bytes {
            return Err(cx.err(
                "memory_cache.capacity_bytes",
                format!(
                    "cache capacity {} must be positive and smaller than {} ({} bytes)",
                    memory_cache.capacity_bytes, emem.level, emem.capacity_bytes
                ),
            ));
        }
        if memory_cache.hit_latency_cycles == 0
            || memory_cache.hit_latency_cycles >= emem.latency_cycles
        {
            return Err(cx.err(
                "memory_cache.hit_latency_cycles",
                format!(
                    "cache hit latency {} must be positive and below the {} latency ({})",
                    memory_cache.hit_latency_cycles, emem.level, emem.latency_cycles
                ),
            ));
        }

        let (checksum, crc, lpm_cam) = Self::parse_accelerators(&cx, &root)?;

        let lib_tbl = cx.table(&root, "", "vendor_lib")?;
        let vendor_lib = VendorLib {
            call_overhead_cycles: cx.u32_of(lib_tbl, "vendor_lib", "call_overhead_cycles")?,
        };

        let ports = Self::parse_ports(&cx, &root)?;

        Ok(Manifest {
            schema_version,
            name,
            description,
            class,
            cores,
            freq_ghz,
            io,
            memory,
            memory_cache,
            checksum,
            crc,
            lpm_cam,
            vendor_lib,
            ports,
        })
    }

    fn parse_memory(cx: &Cx<'_>, root: &Table) -> Result<Vec<MemRow>, ManifestError> {
        let rows = cx.rows(root, "memory")?;
        if rows.len() != MemLevel::ALL.len() {
            return Err(cx.err(
                "memory",
                format!(
                    "expected {} levels (CLS, CTM, IMEM, EMEM), got {}",
                    MemLevel::ALL.len(),
                    rows.len()
                ),
            ));
        }
        let mut memory = Vec::with_capacity(rows.len());
        for (i, row) in rows.iter().enumerate() {
            let parent = format!("memory[{i}]");
            let level = cx.str_of(row, &parent, "level")?;
            let expected = MemLevel::ALL[i].name();
            if level != expected {
                let known = MemLevel::from_name(&level).is_some();
                let detail = if known {
                    format!("levels must be declared fastest-first: expected `{expected}`, got `{level}`")
                } else {
                    format!("unknown memory level `{level}` (known: CLS, CTM, IMEM, EMEM)")
                };
                return Err(cx.err(join(&parent, "level"), detail));
            }
            let entry = MemRow {
                level,
                capacity_bytes: cx.u64_of(row, &parent, "capacity_bytes")?,
                latency_cycles: cx.u32_of(row, &parent, "latency_cycles")?,
                bandwidth: cx.pos_f64(row, &parent, "bandwidth")?,
            };
            if entry.capacity_bytes == 0 {
                return Err(cx.err(
                    join(&parent, "capacity_bytes"),
                    "level capacity must be positive",
                ));
            }
            if entry.latency_cycles == 0 {
                return Err(cx.err(
                    join(&parent, "latency_cycles"),
                    "level latency must be positive",
                ));
            }
            if let Some(prev) = memory.last() {
                let prev: &MemRow = prev;
                if entry.latency_cycles <= prev.latency_cycles {
                    return Err(cx.err(
                        join(&parent, "latency_cycles"),
                        format!(
                            "hierarchy must slow down level to level: {} latency {} ≤ {} latency {}",
                            entry.level, entry.latency_cycles, prev.level, prev.latency_cycles
                        ),
                    ));
                }
                if entry.capacity_bytes <= prev.capacity_bytes {
                    return Err(cx.err(
                        join(&parent, "capacity_bytes"),
                        format!(
                            "hierarchy must grow level to level: {} capacity {} ≤ {} capacity {}",
                            entry.level, entry.capacity_bytes, prev.level, prev.capacity_bytes
                        ),
                    ));
                }
                if entry.bandwidth >= prev.bandwidth {
                    return Err(cx.err(
                        join(&parent, "bandwidth"),
                        format!(
                            "hierarchy bandwidth must shrink level to level: {} bandwidth {} ≥ {} bandwidth {}",
                            entry.level, entry.bandwidth, prev.level, prev.bandwidth
                        ),
                    ));
                }
            }
            memory.push(entry);
        }
        Ok(memory)
    }

    fn parse_accelerators(
        cx: &Cx<'_>,
        root: &Table,
    ) -> Result<(ChecksumAccel, CrcAccel, LpmCam), ManifestError> {
        let rows = cx.rows(root, "accelerator")?;
        let mut checksum = None;
        let mut crc = None;
        let mut lpm = None;
        for (i, row) in rows.iter().enumerate() {
            let parent = format!("accelerator[{i}]");
            let op = cx.str_of(row, &parent, "op")?;
            match op.as_str() {
                "checksum" => {
                    if checksum.is_some() {
                        return Err(
                            cx.err(join(&parent, "op"), "duplicate accelerator op `checksum`")
                        );
                    }
                    checksum = Some(ChecksumAccel {
                        accel_cycles: cx.u32_of(row, &parent, "accel_cycles")?,
                        sw_cycles: cx.u32_of(row, &parent, "sw_cycles")?,
                        variant: cx.variant_of(row, &parent, AccelUnit::Checksum)?,
                    });
                }
                "crc" => {
                    if crc.is_some() {
                        return Err(cx.err(join(&parent, "op"), "duplicate accelerator op `crc`"));
                    }
                    crc = Some(CrcAccel {
                        base_cycles: cx.u32_of(row, &parent, "base_cycles")?,
                        per_iter_cycles: cx.f64_of(row, &parent, "per_iter_cycles")?,
                        variant: cx.variant_of(row, &parent, AccelUnit::Crc)?,
                    });
                }
                "lpm-cam" => {
                    if lpm.is_some() {
                        return Err(
                            cx.err(join(&parent, "op"), "duplicate accelerator op `lpm-cam`")
                        );
                    }
                    let entry = LpmCam {
                        hit_cycles: cx.u32_of(row, &parent, "hit_cycles")?,
                        insert_cycles: cx.u32_of(row, &parent, "insert_cycles")?,
                        entries: cx.u32_of(row, &parent, "entries")?,
                        variant: cx.variant_of(row, &parent, AccelUnit::Lpm)?,
                    };
                    if entry.entries == 0 {
                        return Err(cx.err(
                            join(&parent, "entries"),
                            "flow cache needs at least one entry",
                        ));
                    }
                    lpm = Some(entry);
                }
                other => {
                    return Err(cx.err(
                        join(&parent, "op"),
                        format!("unknown accelerator op `{other}` (known: checksum, crc, lpm-cam)"),
                    ))
                }
            }
        }
        let checksum =
            checksum.ok_or_else(|| cx.err("accelerator", "missing required op `checksum`"))?;
        let crc = crc.ok_or_else(|| cx.err("accelerator", "missing required op `crc`"))?;
        let lpm = lpm.ok_or_else(|| cx.err("accelerator", "missing required op `lpm-cam`"))?;
        Ok((checksum, crc, lpm))
    }

    fn parse_ports(cx: &Cx<'_>, root: &Table) -> Result<Vec<PortSpec>, ManifestError> {
        let rows = cx.rows(root, "port")?;
        if rows.is_empty() {
            return Err(cx.err("port", "a device needs at least one port"));
        }
        let mut ports: Vec<PortSpec> = Vec::with_capacity(rows.len());
        for (i, row) in rows.iter().enumerate() {
            let parent = format!("port[{i}]");
            let id = cx.u32_of(row, &parent, "id")?;
            if ports.iter().any(|p| p.id == id) {
                return Err(cx.err(join(&parent, "id"), format!("duplicate port id {id}")));
            }
            ports.push(PortSpec {
                id,
                speed_gbps: cx.pos_f64(row, &parent, "speed_gbps")?,
            });
        }
        Ok(ports)
    }

    /// Loads and validates a manifest from disk.
    ///
    /// # Errors
    ///
    /// IO failures surface on the `(io)` pseudo-field; everything else
    /// as in [`Manifest::parse`].
    pub fn load(path: impl AsRef<Path>) -> Result<Manifest, ManifestError> {
        let path = path.as_ref();
        let origin = path.display().to_string();
        let text = std::fs::read_to_string(path).map_err(|e| ManifestError {
            origin: origin.clone(),
            field: "(io)".into(),
            detail: e.to_string(),
        })?;
        Manifest::parse(&origin, &text)
    }

    /// The device's accelerator menu: `(op, catalog variant)` per unit.
    pub fn menu(&self) -> [(&'static str, &str); 3] {
        [
            ("checksum", self.checksum.variant.as_str()),
            ("crc", self.crc.variant.as_str()),
            ("lpm-cam", self.lpm_cam.variant.as_str()),
        ]
    }

    /// Lowers the manifest to the simulator's [`NicConfig`].
    ///
    /// Accelerator cycle costs are scaled by the declared catalog
    /// variant's [`clara_accel::Variant::cycle_scale`]; the per-unit
    /// defaults scale by 1.0, so manifests written before the catalog
    /// existed lower to the same configuration as ever.
    pub fn nic_config(&self) -> NicConfig {
        let lvl = |i: usize| MemLevelCfg {
            capacity: self.memory[i].capacity_bytes,
            latency: self.memory[i].latency_cycles,
            bandwidth: self.memory[i].bandwidth,
        };
        let scale_of = |name: &str| clara_accel::lookup(name).map_or(1.0, |v| v.cycle_scale);
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let scaled = |cycles: u32, s: f64| (f64::from(cycles) * s).round() as u32;
        let csum_s = scale_of(&self.checksum.variant);
        let crc_s = scale_of(&self.crc.variant);
        let lpm_s = scale_of(&self.lpm_cam.variant);
        NicConfig {
            cores: self.cores,
            freq_ghz: self.freq_ghz,
            levels: [lvl(0), lvl(1), lvl(2), lvl(3)],
            emem_cache_bytes: self.memory_cache.capacity_bytes,
            emem_cache_latency: self.memory_cache.hit_latency_cycles,
            emem_cache_bandwidth: self.memory_cache.bandwidth,
            max_io_mpps: self.io.max_mpps,
            line_rate_gbps: self.io.line_rate_gbps,
            csum_sw_cycles: self.checksum.sw_cycles,
            csum_accel_cycles: scaled(self.checksum.accel_cycles, csum_s),
            crc_accel_base: self.crc.base_cycles,
            crc_accel_per_iter: self.crc.per_iter_cycles * crc_s,
            cam_hit_cycles: scaled(self.lpm_cam.hit_cycles, lpm_s),
            cam_insert_cycles: scaled(self.lpm_cam.insert_cycles, lpm_s),
            cam_entries: self.lpm_cam.entries,
            libcall_overhead: self.vendor_lib.call_overhead_cycles,
        }
    }

    /// Content fingerprint: equal manifests ⇒ equal fingerprints. Used
    /// as the backend component of engine cache keys, so two devices
    /// never share a cached profile.
    pub fn fingerprint(&self) -> u64 {
        let json = serde_json::to_string(self).expect("manifests serialize");
        nic_sim::fingerprint_bytes(json.as_bytes())
    }
}
