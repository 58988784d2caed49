//! Table-driven manifest rejection suite.
//!
//! Every invalid-manifest class — missing field, zero cores,
//! non-monotone memory hierarchy, unknown accelerator op, duplicate
//! port, bad version — must produce a typed [`ManifestError`] naming
//! the offending field path, and all shipped built-ins must load.

use clara_hal::{builtin_names, builtins, Backend, DeviceBackend, Manifest, ManifestError};

/// The agilio-cx manifest doubles as the known-good base document that
/// each case mutates into exactly one invalid class.
const BASE: &str = include_str!("../manifests/agilio-cx.toml");

struct Case {
    /// What this case exercises.
    class: &'static str,
    /// Line (or exact fragment) removed from the base document.
    remove: &'static str,
    /// Replacement text (empty = pure removal).
    insert: &'static str,
    /// The exact field path the error must carry.
    field: &'static str,
    /// A fragment the human-readable detail must contain.
    detail: &'static str,
}

const CASES: &[Case] = &[
    Case {
        class: "missing field",
        remove: "count = 60\n",
        insert: "",
        field: "cores.count",
        detail: "missing",
    },
    Case {
        class: "missing table",
        remove: "[vendor_lib]\ncall_overhead_cycles = 12\n",
        insert: "",
        field: "vendor_lib",
        detail: "missing",
    },
    Case {
        class: "zero cores",
        remove: "count = 60",
        insert: "count = 0",
        field: "cores.count",
        detail: "at least one core",
    },
    Case {
        class: "non-monotone memory hierarchy (latency)",
        remove: "latency_cycles = 150",
        insert: "latency_cycles = 40",
        field: "memory[2].latency_cycles",
        detail: "slow down",
    },
    Case {
        class: "non-monotone memory hierarchy (capacity)",
        remove: "capacity_bytes = 4194304",
        insert: "capacity_bytes = 4096",
        field: "memory[2].capacity_bytes",
        detail: "grow",
    },
    Case {
        class: "non-monotone memory hierarchy (bandwidth)",
        remove: "bandwidth = 1.8",
        insert: "bandwidth = 3.0",
        field: "memory[1].bandwidth",
        detail: "shrink",
    },
    Case {
        class: "unknown accelerator op",
        remove: "op = \"crc\"",
        insert: "op = \"quic\"",
        field: "accelerator[1].op",
        detail: "unknown accelerator op `quic`",
    },
    Case {
        class: "duplicate accelerator op",
        remove: "op = \"crc\"",
        insert: "op = \"checksum\"\naccel_cycles = 1\nsw_cycles = 2",
        field: "accelerator[1].op",
        detail: "duplicate",
    },
    Case {
        class: "duplicate port",
        remove: "[[port]]\nid = 0\nspeed_gbps = 40.0",
        insert: "[[port]]\nid = 0\nspeed_gbps = 40.0\n\n[[port]]\nid = 0\nspeed_gbps = 10.0",
        field: "port[1].id",
        detail: "duplicate port id 0",
    },
    Case {
        class: "bad version",
        remove: "schema_version = 1",
        insert: "schema_version = 7",
        field: "schema_version",
        detail: "unsupported schema version 7",
    },
    Case {
        class: "unknown memory level",
        remove: "level = \"CTM\"",
        insert: "level = \"HBM\"",
        field: "memory[1].level",
        detail: "unknown memory level `HBM`",
    },
    Case {
        class: "out-of-order memory levels",
        remove: "level = \"CTM\"",
        insert: "level = \"EMEM\"",
        field: "memory[1].level",
        detail: "fastest-first",
    },
    Case {
        class: "oversized EMEM cache",
        remove: "capacity_bytes = 3145728",
        insert: "capacity_bytes = 4294967296",
        field: "memory_cache.capacity_bytes",
        detail: "smaller than EMEM",
    },
    Case {
        class: "wrong scalar type",
        remove: "count = 60",
        insert: "count = \"many\"",
        field: "cores.count",
        detail: "expected an integer",
    },
    Case {
        class: "unknown accelerator variant",
        remove: "op = \"crc\"",
        insert: "op = \"crc\"\nvariant = \"crc31-bogus\"",
        field: "accelerator[1].variant",
        detail: "unknown accelerator variant `crc31-bogus`",
    },
    Case {
        class: "accelerator variant from the wrong unit",
        remove: "op = \"crc\"",
        insert: "op = \"crc\"\nvariant = \"lpm-w24\"",
        field: "accelerator[1].variant",
        detail: "lpm algorithm, not usable by a crc unit",
    },
    Case {
        class: "non-string accelerator variant",
        remove: "op = \"crc\"",
        insert: "op = \"crc\"\nvariant = 32",
        field: "accelerator[1].variant",
        detail: "expected a string",
    },
];

fn mutate(c: &Case) -> String {
    assert!(
        BASE.contains(c.remove),
        "case `{}` mutates text absent from the base manifest",
        c.class
    );
    BASE.replacen(c.remove, c.insert, 1)
}

#[test]
fn every_invalid_class_names_its_field_path() {
    for c in CASES {
        let text = mutate(c);
        let err = Manifest::parse("case.toml", &text).expect_err(c.class);
        assert_eq!(
            err.field, c.field,
            "{}: wrong field path (detail: {})",
            c.class, err.detail
        );
        assert!(
            err.detail.contains(c.detail),
            "{}: detail `{}` should contain `{}`",
            c.class,
            err.detail,
            c.detail
        );
        assert_eq!(err.origin, "case.toml", "{}", c.class);
        // The Display form names both the origin and the field, so a
        // CLI user sees where to look without a debugger.
        let shown = err.to_string();
        assert!(
            shown.contains("case.toml") && shown.contains(c.field),
            "{shown}"
        );
    }
}

#[test]
fn syntax_errors_surface_as_typed_errors_too() {
    let err = Manifest::parse("bad.toml", "cores = [1, 2]\n").expect_err("not in the subset");
    assert_eq!(err.field, "(syntax)");
    assert!(err.detail.contains("line 1"), "{}", err.detail);

    let err: ManifestError = Manifest::load("/nonexistent/device.toml").expect_err("missing file");
    assert_eq!(err.field, "(io)");
}

#[test]
fn all_builtins_load_and_roundtrip() {
    assert_eq!(builtins().len(), 4, "expected four shipped devices");
    for b in builtins() {
        let m = b.manifest();
        assert_eq!(m.schema_version, clara_hal::SCHEMA_VERSION);
        assert_eq!(m.memory.len(), 4);
        assert!(!m.ports.is_empty());
        // Lowering is a pure function of the manifest.
        assert_eq!(&m.nic_config(), b.nic());
        // The simulator's own hierarchy invariant holds for every device.
        let nic = b.nic();
        for w in nic.levels.windows(2) {
            assert!(w[0].latency < w[1].latency, "{}", b.name());
            assert!(w[0].capacity < w[1].capacity, "{}", b.name());
            assert!(w[0].bandwidth > w[1].bandwidth, "{}", b.name());
        }
    }
    // Names are unique — the serve router and CLI key on them.
    let mut names = builtin_names();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), builtins().len());
}

#[test]
fn omitted_variants_resolve_to_catalog_defaults() {
    // Pre-catalog manifests (no `variant` keys anywhere) resolve to the
    // per-unit defaults and lower unchanged.
    let b = DeviceBackend::parse("base.toml", BASE).expect("base is valid");
    assert_eq!(
        b.manifest().menu(),
        [
            ("checksum", "csum-fold16"),
            ("crc", "crc32-ieee"),
            ("lpm-cam", "lpm-w32")
        ]
    );
    for (_, v) in b.manifest().menu() {
        assert_eq!(
            clara_accel::lookup(v).expect("catalog name").cycle_scale,
            1.0
        );
    }
}

#[test]
fn declared_variant_scales_the_lowered_costs() {
    let base = DeviceBackend::parse("base.toml", BASE).expect("valid");
    let widened = BASE.replacen("op = \"crc\"", "op = \"crc\"\nvariant = \"crc64-ecma\"", 1);
    let wide = DeviceBackend::parse("wide.toml", &widened).expect("valid");
    assert_eq!(wide.manifest().crc.variant, "crc64-ecma");
    // crc64-ecma doubles the per-iteration cost; everything else is
    // untouched by the CRC variant.
    assert_eq!(
        wide.nic().crc_accel_per_iter,
        base.nic().crc_accel_per_iter * 2.0
    );
    assert_eq!(wide.nic().crc_accel_base, base.nic().crc_accel_base);
    assert_eq!(wide.nic().csum_accel_cycles, base.nic().csum_accel_cycles);
    // The variant is part of the manifest content, so it must show up in
    // the fingerprint (cache keys may never conflate the two devices).
    assert_ne!(wide.fingerprint(), base.fingerprint());
}

#[test]
fn shipped_dpu_declares_a_non_default_crc_variant() {
    // The cross-device accelerator delta pinned by the backend-matrix
    // golden comes from this menu entry.
    let dpu = clara_hal::builtin("dpu-offpath").expect("shipped");
    assert_eq!(dpu.manifest().crc.variant, "crc64-ecma");
    assert_eq!(dpu.nic().crc_accel_per_iter, 0.6);
}

#[test]
fn valid_mutants_still_load() {
    // Sanity check on the mutation harness itself: the unmodified base
    // and a benign edit both validate.
    let b = DeviceBackend::parse("base.toml", BASE).expect("base is valid");
    assert_eq!(b.name(), "agilio-cx");
    let benign = BASE.replacen("count = 60", "count = 61", 1);
    let b = DeviceBackend::parse("benign.toml", &benign).expect("benign edit is valid");
    assert_eq!(b.nic().cores, 61);
}
