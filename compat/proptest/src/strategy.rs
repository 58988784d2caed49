//! Strategy trait and combinators for the offline proptest stand-in.

use crate::TestRng;
use rand::Rng;

/// A recipe for generating random values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Builds a dependent strategy from each generated value.
    fn prop_flat_map<U: Strategy, F: Fn(Self::Value) -> U>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }

    /// Keeps only values satisfying `pred` (re-draws, bounded attempts).
    fn prop_filter<F: Fn(&Self::Value) -> bool>(
        self,
        whence: &'static str,
        pred: F,
    ) -> Filter<Self, F>
    where
        Self: Sized,
    {
        Filter {
            inner: self,
            pred,
            whence,
        }
    }

    /// Type-erases the strategy (needed by [`crate::prop_oneof!`]).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(self))
    }
}

/// A type-erased strategy.
pub struct BoxedStrategy<T>(Box<dyn Strategy<Value = T>>);

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.generate(rng)
    }
}

/// Strategy always yielding a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// See [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
#[derive(Debug, Clone)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U: Strategy, F: Fn(S::Value) -> U> Strategy for FlatMap<S, F> {
    type Value = U::Value;

    fn generate(&self, rng: &mut TestRng) -> U::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// See [`Strategy::prop_filter`].
#[derive(Debug, Clone)]
pub struct Filter<S, F> {
    inner: S,
    pred: F,
    whence: &'static str,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..1000 {
            let v = self.inner.generate(rng);
            if (self.pred)(&v) {
                return v;
            }
        }
        panic!("prop_filter gave up after 1000 draws: {}", self.whence);
    }
}

/// Uniform choice among boxed strategies (the `prop_oneof!` expansion).
pub struct Union<T> {
    arms: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    /// Builds a union; panics if `arms` is empty.
    pub fn new(arms: Vec<BoxedStrategy<T>>) -> Union<T> {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        self.arms[rng.gen_range(0..self.arms.len())].generate(rng)
    }
}

// ---- ranges ------------------------------------------------------------

macro_rules! impl_strategy_range {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
impl_strategy_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

// ---- tuples ------------------------------------------------------------

macro_rules! impl_strategy_tuple {
    ($(($($n:tt $s:ident),+),)*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$n.generate(rng),)+)
            }
        }
    )*};
}
impl_strategy_tuple! {
    (0 A),
    (0 A, 1 B),
    (0 A, 1 B, 2 C),
    (0 A, 1 B, 2 C, 3 D),
    (0 A, 1 B, 2 C, 3 D, 4 E),
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F),
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F, 6 G),
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F, 6 G, 7 H),
}

// ---- string patterns ---------------------------------------------------

/// One atom of the simplified pattern grammar.
enum Atom {
    /// Any printable ASCII character (`.`).
    AnyPrintable,
    /// An explicit character set (`[ -~]`, `[abc]`, `[a-z0-9]`).
    Set(Vec<(char, char)>),
    /// A literal character.
    Lit(char),
}

/// `(atom, min repeats, max repeats)` — from `{lo,hi}` or exactly once.
type Piece = (Atom, usize, usize);

fn parse_pattern(pat: &str) -> Vec<Piece> {
    let chars: Vec<char> = pat.chars().collect();
    let mut pieces = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let atom = match chars[i] {
            '.' => {
                i += 1;
                Atom::AnyPrintable
            }
            '[' => {
                let close = chars[i + 1..]
                    .iter()
                    .position(|&c| c == ']')
                    .map(|p| p + i + 1)
                    .unwrap_or_else(|| panic!("unclosed `[` in pattern {pat:?}"));
                let body = &chars[i + 1..close];
                let mut set = Vec::new();
                let mut j = 0;
                while j < body.len() {
                    if j + 2 < body.len() && body[j + 1] == '-' {
                        set.push((body[j], body[j + 2]));
                        j += 3;
                    } else if j + 2 == body.len() && body[j + 1] == '-' {
                        // Trailing `-` is a literal.
                        set.push((body[j], body[j]));
                        set.push(('-', '-'));
                        j += 2;
                    } else {
                        set.push((body[j], body[j]));
                        j += 1;
                    }
                }
                i = close + 1;
                Atom::Set(set)
            }
            '\\' => {
                i += 1;
                let c = *chars
                    .get(i)
                    .unwrap_or_else(|| panic!("dangling escape in pattern {pat:?}"));
                i += 1;
                Atom::Lit(c)
            }
            c => {
                i += 1;
                Atom::Lit(c)
            }
        };
        // Optional {lo,hi} / {n} repetition.
        let (lo, hi) = if chars.get(i) == Some(&'{') {
            let close = chars[i + 1..]
                .iter()
                .position(|&c| c == '}')
                .map(|p| p + i + 1)
                .unwrap_or_else(|| panic!("unclosed `{{` in pattern {pat:?}"));
            let body: String = chars[i + 1..close].iter().collect();
            i = close + 1;
            match body.split_once(',') {
                Some((a, b)) => (
                    a.trim().parse().expect("pattern repeat lower bound"),
                    b.trim().parse().expect("pattern repeat upper bound"),
                ),
                None => {
                    let n: usize = body.trim().parse().expect("pattern repeat count");
                    (n, n)
                }
            }
        } else {
            (1, 1)
        };
        pieces.push((atom, lo, hi));
    }
    pieces
}

fn gen_atom(atom: &Atom, rng: &mut TestRng) -> char {
    match atom {
        Atom::AnyPrintable => char::from_u32(rng.gen_range(0x20u32..0x7f)).unwrap(),
        Atom::Lit(c) => *c,
        Atom::Set(ranges) => {
            let total: u32 = ranges.iter().map(|&(a, b)| b as u32 - a as u32 + 1).sum();
            let mut pick = rng.gen_range(0..total);
            for &(a, b) in ranges {
                let span = b as u32 - a as u32 + 1;
                if pick < span {
                    return char::from_u32(a as u32 + pick).unwrap();
                }
                pick -= span;
            }
            unreachable!("set selection out of bounds")
        }
    }
}

impl Strategy for &'static str {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        let pieces = parse_pattern(self);
        let mut out = String::new();
        for (atom, lo, hi) in &pieces {
            let n = rng.gen_range(*lo..=*hi);
            for _ in 0..n {
                out.push(gen_atom(atom, rng));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn patterns_generate_within_spec() {
        let mut rng = TestRng::seed_from_u64(1);
        for _ in 0..200 {
            let s = ".{0,400}".generate(&mut rng);
            assert!(s.len() <= 400);
            assert!(s.chars().all(|c| (' '..='~').contains(&c)));
            let t = "[ -~]{0,30}".generate(&mut rng);
            assert!(t.chars().count() <= 30);
            assert!(t.chars().all(|c| (' '..='~').contains(&c)));
            let u = "[a-c]{2}x".generate(&mut rng);
            assert_eq!(u.chars().count(), 3);
            assert!(u.ends_with('x'));
        }
    }

    #[test]
    fn oneof_union_hits_every_arm() {
        let mut rng = TestRng::seed_from_u64(2);
        let u = crate::prop_oneof![Just(1u8), Just(2u8), Just(3u8)];
        let mut seen = [false; 4];
        for _ in 0..100 {
            seen[u.generate(&mut rng) as usize] = true;
        }
        assert!(seen[1] && seen[2] && seen[3]);
    }

    #[test]
    fn flat_map_threads_dependent_values() {
        let mut rng = TestRng::seed_from_u64(3);
        let s = (1usize..5).prop_flat_map(|n| crate::collection::vec(0u8..10, n..=n));
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!((1..5).contains(&v.len()));
        }
    }
}
