//! Offline stand-in for `serde`.
//!
//! The build environment cannot fetch crates.io, so this workspace ships
//! a small self-contained serialization framework under the same crate
//! name. It is **not** wire-compatible with upstream serde — it defines
//! its own [`Value`] tree and a pair of traits ([`Serialize`],
//! [`Deserialize`]) that `#[derive(Serialize, Deserialize)]` (from the
//! sibling `serde_derive` proc-macro crate) implements for structs and
//! enums. The sibling `serde_json` crate renders a [`Value`] as JSON text
//! and parses it back, which is all `Clara::save`/`Clara::load` and the
//! IR round-trip tests need.
//!
//! [`Deserialize`] has two entry points that accept the same inputs and
//! decode them alike: [`Deserialize::from_value`] reads a tree, and
//! [`Deserialize::deserialize`] pulls the value straight from a
//! [`Tokens`] stream (the `serde_json` parser), so a large file never
//! becomes a tree. The streaming default reads the value as a tree and
//! calls `from_value`; numbers, `bool`, `String`, `Vec`, `Option`,
//! [`Value`] and every derived type override it.
//!
//! Encoding conventions (chosen so that the derive stays simple and the
//! output remains valid JSON):
//!
//! - named-field structs → object `{"field": value, ...}`;
//! - tuple structs → array of fields (`[v0, v1]`), including newtypes;
//! - unit enum variants → string `"Variant"`;
//! - data-carrying variants → single-key object `{"Variant": payload}`
//!   with the payload encoded like the matching struct flavour;
//! - maps (`BTreeMap`/`HashMap`) → array of `[key, value]` pairs, so
//!   non-string keys (tuple-struct ids, enums) need no special casing.

pub use serde_derive::{Deserialize, Serialize};

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;

/// The self-describing serialization tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Null / unit.
    Null,
    /// Boolean.
    Bool(bool),
    /// Signed integer (also carries unsigned values ≤ `i64::MAX`).
    Int(i64),
    /// Unsigned integer above `i64::MAX`.
    UInt(u64),
    /// Floating point.
    Float(f64),
    /// String.
    Str(String),
    /// Sequence.
    Seq(Vec<Value>),
    /// String-keyed map (struct fields, enum payloads).
    Map(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in a [`Value::Map`].
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Short description of the value's shape, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) | Value::UInt(_) => "integer",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Seq(_) => "sequence",
            Value::Map(_) => "map",
        }
    }
}

/// Serialization/deserialization error.
#[derive(Debug, Clone)]
pub struct Error(pub String);

impl Error {
    /// Builds an error from anything displayable.
    pub fn msg(m: impl fmt::Display) -> Error {
        Error(m.to_string())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "serde: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// Types convertible into a [`Value`].
pub trait Serialize {
    /// Converts `self` into the serialization tree.
    fn to_value(&self) -> Value;
}

/// Types reconstructible from a [`Value`] or from a [`Tokens`] stream.
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from the serialization tree.
    ///
    /// # Errors
    ///
    /// Returns an error when the tree's shape does not match `Self`.
    fn from_value(v: &Value) -> Result<Self, Error>;

    /// Decodes `Self` from the next value of a token stream. An override
    /// must accept exactly the values [`Deserialize::from_value`] accepts
    /// and decode them to the same `Self`; this default reads the value
    /// whole as a tree and hands it to `from_value`.
    ///
    /// # Errors
    ///
    /// Returns an error when the stream is malformed or the value's shape
    /// does not match `Self`.
    fn deserialize<R: Tokens + ?Sized>(r: &mut R) -> Result<Self, Error> {
        Self::from_value(&r.value()?)
    }
}

/// The kind of the next value in a [`Tokens`] stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool,
    /// A number.
    Number,
    /// A string.
    Str,
    /// A sequence.
    Seq,
    /// A map.
    Map,
}

impl Kind {
    /// Short description, for error messages.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Null => "null",
            Kind::Bool => "bool",
            Kind::Number => "number",
            Kind::Str => "string",
            Kind::Seq => "sequence",
            Kind::Map => "map",
        }
    }
}

/// A pull source of values: the input of [`Deserialize::deserialize`].
///
/// A sequence is read as [`Tokens::seq_begin`], then
/// [`Tokens::seq_next`] before each element until it returns `false`; a
/// map as [`Tokens::map_begin`], then [`Tokens::map_key`] before each
/// value until it returns `None`. A source bounds how deeply values nest,
/// so a decoder that recurses along its input stays within the stack.
pub trait Tokens {
    /// The kind of the next value, which is not consumed.
    ///
    /// # Errors
    ///
    /// Returns an error at the end of input or where no value starts.
    fn peek(&mut self) -> Result<Kind, Error>;

    /// Reads the next value whole. Scalars other than strings allocate
    /// nothing.
    ///
    /// # Errors
    ///
    /// Returns an error when the value is malformed or nests too deeply.
    fn value(&mut self) -> Result<Value, Error>;

    /// Reads the next value, which must be a number.
    ///
    /// # Errors
    ///
    /// Returns an error when it is not a well-formed number.
    fn number(&mut self) -> Result<Number, Error>;

    /// Skips the next value, which must still be well-formed.
    ///
    /// # Errors
    ///
    /// Returns an error when the value is malformed or nests too deeply.
    fn skip(&mut self) -> Result<(), Error>;

    /// Reads the next value, which must be a string.
    ///
    /// # Errors
    ///
    /// Returns an error when it is not a well-formed string.
    fn string(&mut self) -> Result<String, Error>;

    /// Opens the sequence that is the next value.
    ///
    /// # Errors
    ///
    /// Returns an error when the next value is not a sequence or nests
    /// too deeply.
    fn seq_begin(&mut self) -> Result<(), Error>;

    /// Whether another element of the open sequence follows; `false`
    /// means the sequence has been closed.
    ///
    /// # Errors
    ///
    /// Returns an error when neither another element nor the end follows.
    fn seq_next(&mut self) -> Result<bool, Error>;

    /// Opens the map that is the next value.
    ///
    /// # Errors
    ///
    /// Returns an error when the next value is not a map or nests too
    /// deeply.
    fn map_begin(&mut self) -> Result<(), Error>;

    /// The key of the next entry of the open map, leaving the stream at
    /// its value; `None` means the map has been closed.
    ///
    /// # Errors
    ///
    /// Returns an error when neither another entry nor the end follows.
    fn map_key(&mut self) -> Result<Option<Cow<'_, str>>, Error>;
}

// ---- helpers used by the derive expansion ------------------------------

/// Extracts a named struct field (derive helper).
///
/// # Errors
///
/// Returns an error if the field is missing or mistyped.
pub fn from_field<T: Deserialize>(v: &Value, name: &str) -> Result<T, Error> {
    match v.get(name) {
        Some(f) => T::from_value(f).map_err(|e| Error(format!("field `{name}`: {}", e.0))),
        None => T::from_value(&Value::Null)
            .map_err(|_| Error(format!("missing field `{name}` in {}", v.kind()))),
    }
}

/// Extracts a positional tuple-struct / tuple-variant field (derive helper).
///
/// # Errors
///
/// Returns an error if the element is missing or mistyped.
pub fn from_index<T: Deserialize>(v: &Value, i: usize) -> Result<T, Error> {
    match v {
        Value::Seq(items) => match items.get(i) {
            Some(f) => T::from_value(f).map_err(|e| Error(format!("element {i}: {}", e.0))),
            None => Err(Error(format!("sequence too short: no element {i}"))),
        },
        // A 1-tuple may have been flattened by hand-written values.
        other if i == 0 => T::from_value(other),
        other => Err(Error(format!("expected sequence, got {}", other.kind()))),
    }
}

/// Splits an encoded enum into `(variant name, payload)` (derive helper).
///
/// # Errors
///
/// Returns an error if the value is neither a variant string nor a
/// single-key object.
pub fn variant(v: &Value) -> Result<(&str, &Value), Error> {
    match v {
        Value::Str(name) => Ok((name.as_str(), &Value::Null)),
        Value::Map(entries) if entries.len() == 1 => Ok((entries[0].0.as_str(), &entries[0].1)),
        other => Err(Error(format!(
            "expected enum variant, got {}",
            other.kind()
        ))),
    }
}

/// Decodes the value of a named field from a stream (derive helper): the
/// streaming [`from_field`] for a key that is present.
///
/// # Errors
///
/// Returns an error if the value is malformed or mistyped.
pub fn read_field<T: Deserialize, R: Tokens + ?Sized>(r: &mut R, name: &str) -> Result<T, Error> {
    T::deserialize(r).map_err(|e| Error(format!("field `{name}`: {}", e.0)))
}

/// A named field read from a stream, or what [`from_field`] makes of the
/// key when the map lacked it (derive helper).
///
/// # Errors
///
/// Returns an error if the field is missing and `T` has no missing form.
pub fn take_field<T: Deserialize>(slot: Option<T>, name: &str) -> Result<T, Error> {
    match slot {
        Some(t) => Ok(t),
        None => {
            T::from_value(&Value::Null).map_err(|_| Error(format!("missing field `{name}` in map")))
        }
    }
}

/// Decodes element `i` of an open sequence (derive helper): the streaming
/// [`from_index`] on a sequence.
///
/// # Errors
///
/// Returns an error if the sequence ends first or the element is
/// malformed or mistyped.
pub fn read_element<T: Deserialize, R: Tokens + ?Sized>(r: &mut R, i: usize) -> Result<T, Error> {
    if !r.seq_next()? {
        return Err(Error(format!("sequence too short: no element {i}")));
    }
    T::deserialize(r).map_err(|e| Error(format!("element {i}: {}", e.0)))
}

/// Skips the rest of an open sequence (derive helper): elements past a
/// tuple's last field are ignored, as [`from_index`] ignores them.
///
/// # Errors
///
/// Returns an error if the rest is malformed.
pub fn skip_rest<R: Tokens + ?Sized>(r: &mut R) -> Result<(), Error> {
    while r.seq_next()? {
        r.skip()?;
    }
    Ok(())
}

// ---- primitive impls ---------------------------------------------------

/// A number as a [`Tokens`] source reads it: what [`Value::Int`],
/// [`Value::UInt`] and [`Value::Float`] carry, without a tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// Signed integer (also carries unsigned values ≤ `i64::MAX`).
    Int(i64),
    /// Unsigned integer above `i64::MAX`.
    UInt(u64),
    /// Floating point.
    Float(f64),
}

impl From<Number> for Value {
    fn from(n: Number) -> Value {
        match n {
            Number::Int(i) => Value::Int(i),
            Number::UInt(u) => Value::UInt(u),
            Number::Float(f) => Value::Float(f),
        }
    }
}

/// The number a tree holds, if it is one.
fn number(v: &Value) -> Option<Number> {
    match v {
        Value::Int(i) => Some(Number::Int(*i)),
        Value::UInt(u) => Some(Number::UInt(*u)),
        Value::Float(f) => Some(Number::Float(*f)),
        _ => None,
    }
}

/// The numeric types: one conversion from a number, shared by both
/// entry points.
trait FromNumber: Sized {
    fn from_number(n: Number) -> Result<Self, Error>;
}

macro_rules! impl_serde_int {
    ($($t:ty),*) => {$(
        impl FromNumber for $t {
            #[inline]
            fn from_number(n: Number) -> Result<Self, Error> {
                match n {
                    Number::Int(i) => <$t>::try_from(i)
                        .map_err(|_| Error(format!("{} out of range for {}", i, stringify!($t)))),
                    Number::UInt(u) => <$t>::try_from(u)
                        .map_err(|_| Error(format!("{} out of range for {}", u, stringify!($t)))),
                    Number::Float(_) => Err(Error("expected integer, got float".to_string())),
                }
            }
        }
        impl Deserialize for $t {
            #[inline]
            fn from_value(v: &Value) -> Result<Self, Error> {
                match number(v) {
                    Some(n) => Self::from_number(n),
                    None => Err(Error(format!("expected integer, got {}", v.kind()))),
                }
            }
            #[inline]
            fn deserialize<R: Tokens + ?Sized>(r: &mut R) -> Result<Self, Error> {
                match r.peek()? {
                    Kind::Number => Self::from_number(r.number()?),
                    other => Err(Error(format!("expected integer, got {}", other.name()))),
                }
            }
        }
    )*};
}
impl_serde_int!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

macro_rules! impl_serde_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::Int(*self as i64) }
        }
    )*};
}
impl_serde_signed!(i8, i16, i32, i64, isize);

macro_rules! impl_serde_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let wide = *self as u64;
                match i64::try_from(wide) {
                    Ok(i) => Value::Int(i),
                    Err(_) => Value::UInt(wide),
                }
            }
        }
    )*};
}
impl_serde_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_serde_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::Float(f64::from(*self)) }
        }
        impl FromNumber for $t {
            #[inline]
            fn from_number(n: Number) -> Result<Self, Error> {
                Ok(match n {
                    Number::Int(i) => i as $t,
                    Number::UInt(u) => u as $t,
                    Number::Float(f) => f as $t,
                })
            }
        }
        impl Deserialize for $t {
            #[inline]
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    // Non-finite floats are rendered as strings by serde_json.
                    Value::Str(s) => match s.as_str() {
                        "NaN" => Ok(<$t>::NAN),
                        "inf" => Ok(<$t>::INFINITY),
                        "-inf" => Ok(<$t>::NEG_INFINITY),
                        _ => Err(Error(format!("expected number, got string {s:?}"))),
                    },
                    other => match number(other) {
                        Some(n) => Self::from_number(n),
                        None => Err(Error(format!("expected number, got {}", other.kind()))),
                    },
                }
            }
            #[inline]
            fn deserialize<R: Tokens + ?Sized>(r: &mut R) -> Result<Self, Error> {
                match r.peek()? {
                    Kind::Number => Self::from_number(r.number()?),
                    Kind::Str => Self::from_value(&r.value()?),
                    other => Err(Error(format!("expected number, got {}", other.name()))),
                }
            }
        }
    )*};
}
impl_serde_float!(f32, f64);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(Error(format!("expected bool, got {}", other.kind()))),
        }
    }

    fn deserialize<R: Tokens + ?Sized>(r: &mut R) -> Result<Self, Error> {
        match r.peek()? {
            Kind::Bool => Self::from_value(&r.value()?),
            other => Err(Error(format!("expected bool, got {}", other.name()))),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(Error(format!("expected string, got {}", other.kind()))),
        }
    }

    fn deserialize<R: Tokens + ?Sized>(r: &mut R) -> Result<Self, Error> {
        match r.peek()? {
            Kind::Str => r.string(),
            other => Err(Error(format!("expected string, got {}", other.name()))),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().unwrap()),
            other => Err(Error(format!("expected char, got {}", other.kind()))),
        }
    }
}

impl Serialize for () {
    fn to_value(&self) -> Value {
        Value::Null
    }
}

impl Deserialize for () {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(()),
            other => Err(Error(format!("expected null, got {}", other.kind()))),
        }
    }
}

// ---- containers --------------------------------------------------------

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            // Wrap in a 1-element sequence so Some(None) stays distinguishable.
            Some(x) => Value::Seq(vec![x.to_value()]),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            Value::Seq(items) if items.len() == 1 => Ok(Some(T::from_value(&items[0])?)),
            other => T::from_value(other).map(Some),
        }
    }

    fn deserialize<R: Tokens + ?Sized>(r: &mut R) -> Result<Self, Error> {
        match r.peek()? {
            Kind::Null => r.skip().map(|()| None),
            // `[x]` is `Some(x)` but any other sequence decodes as a `T`,
            // which only the whole sequence tells apart.
            Kind::Seq => Self::from_value(&r.value()?),
            _ => T::deserialize(r).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Seq(items) => items.iter().map(T::from_value).collect(),
            other => Err(Error(format!("expected sequence, got {}", other.kind()))),
        }
    }

    fn deserialize<R: Tokens + ?Sized>(r: &mut R) -> Result<Self, Error> {
        match r.peek()? {
            Kind::Seq => r.seq_begin()?,
            other => return Err(Error(format!("expected sequence, got {}", other.name()))),
        }
        let mut items = Vec::new();
        while r.seq_next()? {
            items.push(T::deserialize(r)?);
        }
        Ok(items)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize + fmt::Debug, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let items: Vec<T> = Vec::from_value(v)?;
        let got = items.len();
        items
            .try_into()
            .map_err(|_| Error(format!("expected {N}-element array, got {got}")))
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        T::from_value(v).map(Box::new)
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

macro_rules! impl_serde_tuple {
    ($(($($n:tt $t:ident),+),)*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Seq(vec![$(self.$n.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Seq(items) => Ok(($(
                        $t::from_value(items.get($n).ok_or_else(|| {
                            Error(format!("tuple too short at {}", $n))
                        })?)?,
                    )+)),
                    other => Err(Error(format!(
                        "expected tuple sequence, got {}", other.kind()
                    ))),
                }
            }
        }
    )*};
}
impl_serde_tuple! {
    (0 A),
    (0 A, 1 B),
    (0 A, 1 B, 2 C),
    (0 A, 1 B, 2 C, 3 D),
    (0 A, 1 B, 2 C, 3 D, 4 E),
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F),
}

fn map_to_value<'a, K: Serialize + 'a, V: Serialize + 'a>(
    it: impl Iterator<Item = (&'a K, &'a V)>,
) -> Value {
    Value::Seq(
        it.map(|(k, v)| Value::Seq(vec![k.to_value(), v.to_value()]))
            .collect(),
    )
}

fn map_from_value<K: Deserialize, V: Deserialize>(v: &Value) -> Result<Vec<(K, V)>, Error> {
    match v {
        Value::Seq(items) => items
            .iter()
            .map(|pair| match pair {
                Value::Seq(kv) if kv.len() == 2 => {
                    Ok((K::from_value(&kv[0])?, V::from_value(&kv[1])?))
                }
                other => Err(Error(format!(
                    "expected [key, value] pair, got {}",
                    other.kind()
                ))),
            })
            .collect(),
        other => Err(Error(format!("expected map pairs, got {}", other.kind()))),
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        map_to_value(self.iter())
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(map_from_value(v)?.into_iter().collect())
    }
}

impl<K: Serialize, V: Serialize, S> Serialize for HashMap<K, V, S> {
    fn to_value(&self) -> Value {
        // Deterministic output: order by the rendered key.
        let mut pairs: Vec<(Value, Value)> = self
            .iter()
            .map(|(k, v)| (k.to_value(), v.to_value()))
            .collect();
        pairs.sort_by(|a, b| cmp_value(&a.0, &b.0));
        Value::Seq(
            pairs
                .into_iter()
                .map(|(k, v)| Value::Seq(vec![k, v]))
                .collect(),
        )
    }
}

impl<K, V, S> Deserialize for HashMap<K, V, S>
where
    K: Deserialize + std::hash::Hash + Eq,
    V: Deserialize,
    S: std::hash::BuildHasher + Default,
{
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(map_from_value(v)?.into_iter().collect())
    }
}

impl<T: Serialize> Serialize for BTreeSet<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize + Ord> Deserialize for BTreeSet<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(Vec::<T>::from_value(v)?.into_iter().collect())
    }
}

impl<T: Serialize, S> Serialize for HashSet<T, S> {
    fn to_value(&self) -> Value {
        let mut items: Vec<Value> = self.iter().map(Serialize::to_value).collect();
        items.sort_by(cmp_value);
        Value::Seq(items)
    }
}

impl<T, S> Deserialize for HashSet<T, S>
where
    T: Deserialize + std::hash::Hash + Eq,
    S: std::hash::BuildHasher + Default,
{
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(Vec::<T>::from_value(v)?.into_iter().collect())
    }
}

/// Total order over values, used to canonicalize hash-container output.
fn cmp_value(a: &Value, b: &Value) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    fn rank(v: &Value) -> u8 {
        match v {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::UInt(_) => 2,
            Value::Float(_) => 3,
            Value::Str(_) => 4,
            Value::Seq(_) => 5,
            Value::Map(_) => 6,
        }
    }
    match (a, b) {
        (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
        (Value::Int(x), Value::Int(y)) => x.cmp(y),
        (Value::UInt(x), Value::UInt(y)) => x.cmp(y),
        (Value::Int(x), Value::UInt(_)) if *x < 0 => Ordering::Less,
        (Value::Int(x), Value::UInt(y)) => (*x as u64).cmp(y),
        (Value::UInt(_), Value::Int(y)) if *y < 0 => Ordering::Greater,
        (Value::UInt(x), Value::Int(y)) => x.cmp(&(*y as u64)),
        (Value::Float(x), Value::Float(y)) => x.partial_cmp(y).unwrap_or(Ordering::Equal),
        (Value::Str(x), Value::Str(y)) => x.cmp(y),
        (Value::Seq(x), Value::Seq(y)) => {
            for (i, j) in x.iter().zip(y.iter()) {
                let o = cmp_value(i, j);
                if o != Ordering::Equal {
                    return o;
                }
            }
            x.len().cmp(&y.len())
        }
        (Value::Map(x), Value::Map(y)) => {
            for ((ka, va), (kb, vb)) in x.iter().zip(y.iter()) {
                let o = ka.cmp(kb).then_with(|| cmp_value(va, vb));
                if o != Ordering::Equal {
                    return o;
                }
            }
            x.len().cmp(&y.len())
        }
        _ => rank(a).cmp(&rank(b)),
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }

    fn deserialize<R: Tokens + ?Sized>(r: &mut R) -> Result<Self, Error> {
        r.value()
    }
}
