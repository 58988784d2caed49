//! The accelerator variant catalog.
//!
//! SmartNIC accelerator units are not interchangeable black boxes: a CRC
//! engine is wired for specific polynomials, a checksum unit folds at a
//! fixed width, an LPM block matches prefixes up to a fixed depth. Clara's
//! cross-device predictions (paper Section 4.1) therefore need to talk
//! about *which* algorithm variant a device implements, not just "has a
//! CRC engine".
//!
//! This crate is the single source of truth for those variants: one static
//! [`CATALOG`] table of named entries, each carrying the algorithm class
//! ([`AccelUnit`]), its operand width, the defining polynomial (where one
//! exists), bit order, and a relative cost scale. Everything else in the
//! workspace resolves variants by name through [`lookup`]:
//!
//! - HAL device manifests declare their accelerator *menu* as catalog
//!   names, validated at load time;
//! - `nic-sim` lowering scales accelerator cycle costs by the variant's
//!   [`Variant::cycle_scale`];
//! - algorithm identification matches NF code against catalog polynomials
//!   via [`match_constants`];
//! - the synthesizer emits NFs that target a chosen menu, seeded from
//!   [`reference_module`].
//!
//! # Examples
//!
//! ```
//! let v = clara_accel::lookup("crc32-ieee").expect("in catalog");
//! assert_eq!(v.poly, 0x04C1_1DB7);
//! assert_eq!(clara_accel::default_for(clara_accel::AccelUnit::Crc).name, "crc32-ieee");
//! assert!(clara_accel::lookup("crc31-bogus").is_none());
//! ```

use nf_ir::{
    ApiCall, BinOp, FunctionBuilder, Inst, MemRef, Module, Operand, PktField, StateKind, Ty,
};
use serde::{Deserialize, Serialize};

/// The accelerator unit classes devices expose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccelUnit {
    /// Ones-complement checksum fold (IP/TCP/UDP checksums).
    Checksum,
    /// Cyclic redundancy check engine.
    Crc,
    /// Non-cryptographic hash unit (flow-table indexing).
    Hash,
    /// Longest-prefix-match block.
    Lpm,
}

impl AccelUnit {
    /// All units, in catalog order.
    pub const ALL: [AccelUnit; 4] = [
        AccelUnit::Checksum,
        AccelUnit::Crc,
        AccelUnit::Hash,
        AccelUnit::Lpm,
    ];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            AccelUnit::Checksum => "checksum",
            AccelUnit::Crc => "crc",
            AccelUnit::Hash => "hash",
            AccelUnit::Lpm => "lpm",
        }
    }

    /// Inverse of [`AccelUnit::name`].
    pub fn from_name(s: &str) -> Option<AccelUnit> {
        AccelUnit::ALL.into_iter().find(|u| u.name() == s)
    }
}

/// One named accelerator algorithm variant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Variant {
    /// Catalog name, e.g. `"crc32-ieee"`. Unique across the catalog.
    pub name: &'static str,
    /// The unit class this variant belongs to.
    pub unit: AccelUnit,
    /// Operand width in bits (CRC register, fold width, LPM key width).
    pub width: u32,
    /// Defining polynomial or mixing constant; 0 for purely structural
    /// variants (checksum folds, LPM widths).
    pub poly: u64,
    /// Whether the bit order is reflected (LSB-first).
    pub reflected: bool,
    /// Per-operation cycle-cost multiplier relative to the unit's default
    /// variant (1.0). Wider registers cost more per invocation.
    pub cycle_scale: f64,
}

/// The catalog: every accelerator algorithm variant the toolchain can name.
///
/// Names follow the `unit`-`spec` convention. Each unit's *default* variant
/// (the one [`default_for`] returns, with `cycle_scale == 1.0`) is what a
/// manifest gets when it names an operation without a `variant =` key, so
/// pre-catalog manifests lower to identical costs.
pub const CATALOG: &[Variant] = &[
    // -- checksum folds ------------------------------------------------
    Variant {
        name: "csum-fold16",
        unit: AccelUnit::Checksum,
        width: 16,
        poly: 0,
        reflected: false,
        cycle_scale: 1.0,
    },
    Variant {
        name: "csum-fold32",
        unit: AccelUnit::Checksum,
        width: 32,
        poly: 0,
        reflected: false,
        cycle_scale: 1.25,
    },
    // -- CRC engines ---------------------------------------------------
    Variant {
        name: "crc8-smbus",
        unit: AccelUnit::Crc,
        width: 8,
        poly: 0x07,
        reflected: false,
        cycle_scale: 0.25,
    },
    Variant {
        name: "crc8-maxim",
        unit: AccelUnit::Crc,
        width: 8,
        poly: 0x31,
        reflected: true,
        cycle_scale: 0.25,
    },
    Variant {
        name: "crc16-ccitt",
        unit: AccelUnit::Crc,
        width: 16,
        poly: 0x1021,
        reflected: false,
        cycle_scale: 0.5,
    },
    Variant {
        name: "crc16-ibm",
        unit: AccelUnit::Crc,
        width: 16,
        poly: 0x8005,
        reflected: true,
        cycle_scale: 0.5,
    },
    Variant {
        name: "crc32-ieee",
        unit: AccelUnit::Crc,
        width: 32,
        poly: 0x04C1_1DB7,
        reflected: true,
        cycle_scale: 1.0,
    },
    Variant {
        name: "crc32c",
        unit: AccelUnit::Crc,
        width: 32,
        poly: 0x1EDC_6F41,
        reflected: true,
        cycle_scale: 1.0,
    },
    Variant {
        name: "crc64-ecma",
        unit: AccelUnit::Crc,
        width: 64,
        poly: 0x42F0_E1EB_A9EA_3693,
        reflected: false,
        cycle_scale: 2.0,
    },
    Variant {
        name: "crc64-iso",
        unit: AccelUnit::Crc,
        width: 64,
        poly: 0x1B,
        reflected: true,
        cycle_scale: 2.0,
    },
    // -- hash units ----------------------------------------------------
    Variant {
        name: "hash-lookup3",
        unit: AccelUnit::Hash,
        width: 32,
        poly: 0x9E37_79B9,
        reflected: false,
        cycle_scale: 1.0,
    },
    Variant {
        name: "hash-fnv1a",
        unit: AccelUnit::Hash,
        width: 32,
        poly: 0x0100_0193,
        reflected: false,
        cycle_scale: 1.1,
    },
    // -- LPM blocks ----------------------------------------------------
    Variant {
        name: "lpm-w16",
        unit: AccelUnit::Lpm,
        width: 16,
        poly: 0,
        reflected: false,
        cycle_scale: 0.6,
    },
    Variant {
        name: "lpm-w24",
        unit: AccelUnit::Lpm,
        width: 24,
        poly: 0,
        reflected: false,
        cycle_scale: 0.8,
    },
    Variant {
        name: "lpm-w32",
        unit: AccelUnit::Lpm,
        width: 32,
        poly: 0,
        reflected: false,
        cycle_scale: 1.0,
    },
];

/// Looks a variant up by catalog name.
pub fn lookup(name: &str) -> Option<&'static Variant> {
    CATALOG.iter().find(|v| v.name == name)
}

/// All catalog names, in catalog order.
pub fn names() -> Vec<&'static str> {
    CATALOG.iter().map(|v| v.name).collect()
}

/// The default variant of a unit: the first catalog entry of that unit
/// with `cycle_scale == 1.0`. Manifests that do not pin a variant get
/// this one, so their lowered costs match the pre-catalog behaviour.
pub fn default_for(unit: AccelUnit) -> &'static Variant {
    CATALOG
        .iter()
        .find(|v| v.unit == unit && v.cycle_scale == 1.0)
        .expect("every unit has a scale-1.0 default")
}

/// Reverses the low `width` bits of `x` (the reflected-bit-order form).
pub fn reflect_bits(x: u64, width: u32) -> u64 {
    let mut out = 0u64;
    for i in 0..width.min(64) {
        if x >> i & 1 == 1 {
            out |= 1 << (width - 1 - i);
        }
    }
    out
}

/// Scans a module's constants for catalog polynomials.
///
/// A variant matches when its polynomial — in either bit order, masked to
/// the variant's width — appears as an immediate operand of an XOR or
/// multiply (the mixing positions where CRC polynomials and hash
/// constants live; masks and comparisons don't count, which keeps small
/// polynomials like `0x07` from matching every flag test). Purely
/// structural variants (poly 0) never match. Returns matches in catalog
/// order, deduplicated.
pub fn match_constants(module: &Module) -> Vec<&'static Variant> {
    let mut consts: Vec<u64> = Vec::new();
    for f in &module.funcs {
        for b in &f.blocks {
            for inst in &b.insts {
                let Inst::Bin {
                    op: BinOp::Xor | BinOp::Mul,
                    lhs,
                    rhs,
                    ..
                } = inst
                else {
                    continue;
                };
                for op in [lhs, rhs] {
                    if let Operand::Const(c) = op {
                        consts.push(*c as u64);
                    }
                }
            }
        }
    }
    CATALOG
        .iter()
        .filter(|v| {
            if v.poly == 0 {
                return false;
            }
            let mask = if v.width >= 64 {
                u64::MAX
            } else {
                (1 << v.width) - 1
            };
            let fwd = v.poly & mask;
            let rev = reflect_bits(v.poly, v.width);
            consts
                .iter()
                .any(|&c| (c & mask == fwd || c & mask == rev) && c & !mask == 0 && c != 0)
        })
        .collect()
}

/// Builds a deterministic reference kernel for a catalog variant.
///
/// The module is a self-contained packet handler whose inner computation
/// embeds the variant's defining constants (polynomial, width mask), so it
/// round-trips through [`match_constants`] and gives the synthesizer a
/// menu-targeted seed. The kernel is unrolled — no loops — which keeps it
/// trivially verifiable and bit-exact across execution layers.
pub fn reference_module(variant: &Variant) -> Module {
    let mut m = Module::new(format!("ref_{}", variant.name.replace('-', "_")));
    let g_out = m.add_global("result", StateKind::Scalar, 8, 1);
    let mut fb = FunctionBuilder::new("process");
    let entry = fb.entry_block();
    fb.switch_to(entry);
    let _ = fb.call(ApiCall::IpHeader, vec![]);
    let a = fb.load(Ty::I32, MemRef::pkt(PktField::IpSrc));
    let b = fb.load(Ty::I32, MemRef::pkt(PktField::Payload(0)));
    let mut acc = fb.bin(BinOp::Xor, Ty::I64, a, b);
    let mask = if variant.width >= 64 {
        -1i64
    } else {
        (1i64 << variant.width) - 1
    };
    match variant.unit {
        AccelUnit::Crc | AccelUnit::Hash => {
            // Eight rounds of the shift/conditional-xor CRC step (or
            // multiply-free hash mixing), polynomial as the round constant.
            let poly = Operand::imm(variant.poly as i64);
            for _ in 0..8 {
                let sh = if variant.reflected {
                    fb.bin(BinOp::LShr, Ty::I64, acc, Operand::imm(1))
                } else {
                    fb.bin(BinOp::Shl, Ty::I64, acc, Operand::imm(1))
                };
                let mixed = fb.bin(BinOp::Xor, Ty::I64, sh, poly);
                acc = fb.bin(BinOp::And, Ty::I64, mixed, Operand::imm(mask));
            }
        }
        AccelUnit::Checksum => {
            // Load/add/fold ones-complement style: sum payload words, then
            // fold the carries back in at the variant's width.
            for i in 0..4u16 {
                let w = fb.load(Ty::I32, MemRef::pkt(PktField::Payload(i * 4)));
                acc = fb.bin(BinOp::Add, Ty::I64, acc, w);
            }
            let hi = fb.bin(
                BinOp::LShr,
                Ty::I64,
                acc,
                Operand::imm(i64::from(variant.width)),
            );
            let lo = fb.bin(BinOp::And, Ty::I64, acc, Operand::imm(mask));
            acc = fb.bin(BinOp::Add, Ty::I64, hi, lo);
        }
        AccelUnit::Lpm => {
            // Stride-8 prefix walk to the variant's key width: successive
            // masked shifts of the destination address.
            let dst = fb.load(Ty::I32, MemRef::pkt(PktField::IpDst));
            for depth in (8..=variant.width).step_by(8) {
                let sh = fb.bin(
                    BinOp::LShr,
                    Ty::I64,
                    dst,
                    Operand::imm(i64::from(32u32.saturating_sub(depth))),
                );
                let masked = fb.bin(BinOp::And, Ty::I64, sh, Operand::imm(mask));
                acc = fb.bin(BinOp::Xor, Ty::I64, acc, masked);
            }
        }
    }
    fb.store(Ty::I64, acc, MemRef::global(g_out));
    let _ = fb.call(ApiCall::PktSend, vec![Operand::imm(0)]);
    fb.ret(None);
    m.funcs.push(fb.finish());
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_unique() {
        let mut n = names();
        n.sort_unstable();
        n.dedup();
        assert_eq!(n.len(), CATALOG.len());
    }

    #[test]
    fn lookup_round_trips_every_entry() {
        for v in CATALOG {
            assert_eq!(lookup(v.name).expect("present").name, v.name);
        }
        assert!(lookup("crc12-nonsense").is_none());
    }

    #[test]
    fn every_unit_has_a_default_with_unit_scale() {
        for u in AccelUnit::ALL {
            let d = default_for(u);
            assert_eq!(d.unit, u);
            assert_eq!(d.cycle_scale, 1.0, "{}", d.name);
            assert_eq!(AccelUnit::from_name(u.name()), Some(u));
        }
        assert_eq!(default_for(AccelUnit::Checksum).name, "csum-fold16");
        assert_eq!(default_for(AccelUnit::Crc).name, "crc32-ieee");
        assert_eq!(default_for(AccelUnit::Lpm).name, "lpm-w32");
    }

    #[test]
    fn reflect_bits_is_an_involution() {
        for v in CATALOG.iter().filter(|v| v.poly != 0) {
            assert_eq!(reflect_bits(reflect_bits(v.poly, v.width), v.width), v.poly);
        }
        assert_eq!(reflect_bits(0x07, 8), 0xE0);
    }

    #[test]
    fn reference_modules_verify_and_match_their_own_variant() {
        for v in CATALOG {
            let m = reference_module(v);
            nf_ir::verify::verify_module(&m).unwrap_or_else(|e| panic!("{}: {e}", v.name));
            let hits = match_constants(&m);
            if v.poly != 0 {
                assert!(
                    hits.iter().any(|h| h.name == v.name),
                    "{} missing from its own reference kernel ({:?})",
                    v.name,
                    hits.iter().map(|h| h.name).collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn match_constants_ignores_plain_modules() {
        let mut m = Module::new("plain");
        let g = m.add_global("ctr", StateKind::Scalar, 4, 1);
        let mut fb = FunctionBuilder::new("process");
        let e = fb.entry_block();
        fb.switch_to(e);
        let c = fb.load(Ty::I32, MemRef::global(g));
        let c2 = fb.bin(BinOp::Add, Ty::I32, c, Operand::imm(1));
        fb.store(Ty::I32, c2, MemRef::global(g));
        let _ = fb.call(ApiCall::PktSend, vec![Operand::imm(0)]);
        fb.ret(None);
        m.funcs.push(fb.finish());
        assert!(match_constants(&m).is_empty());
    }
}
