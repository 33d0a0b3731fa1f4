//! Property tests of the JSON reader and writer: rendered trees parse back
//! to themselves, every truncation of a document is an error, nesting is
//! capped at `MAX_DEPTH`, and no input makes the parser panic.
//!
//! Trees are built from one generated seed by a local SplitMix64, so the
//! vendored proptest only has to draw integers.

use proptest::prelude::*;
use selcache_core::json::{Json, MAX_DEPTH};

/// SplitMix64 over a seed.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// String pieces: the characters the writer escapes, characters it
/// passes through, 2-, 3- and 4-byte UTF-8, and text that looks like an
/// escape or JSON punctuation once unescaped.
const PIECES: &[&str] = &[
    "\"", "\\", "/", "\n", "\r", "\t", "\u{0}", "\u{1}", "\u{8}", "\u{c}", "\u{1f}", "\u{7f}", "é",
    "ß", "€", "中", "𝄞", "😀", "a", "xyz", " ", "\\n", "\\u0041", "{", "}", "[", "]", ",", ":",
    "0", "null",
];

fn string(g: &mut Gen) -> String {
    let n = g.below(9);
    (0..n).map(|_| *g.pick(PIECES)).collect()
}

/// A finite float with a fractional part: integral floats render without
/// one and parse back as `UInt`, and NaN renders as `null`.
fn fractional(g: &mut Gen) -> f64 {
    loop {
        let x = match g.below(3) {
            0 => f64::from_bits(g.next()),
            1 => (g.next() >> 40) as f64 / 1024.0,
            _ => -((g.next() >> 12) as f64) / 3.0,
        };
        if x.is_finite() && x.fract() != 0.0 {
            return x;
        }
    }
}

fn scalar(g: &mut Gen) -> Json {
    match g.below(5) {
        0 => Json::Str(string(g)),
        1 => Json::UInt(match g.below(3) {
            0 => u64::MAX,
            1 => g.below(1000) as u64,
            _ => g.next(),
        }),
        // Above u64::MAX: the parser yields `U128` only there.
        2 => Json::U128(match g.below(3) {
            0 => u128::MAX,
            1 => u128::from(u64::MAX) + 1,
            _ => (u128::from(g.next().max(1)) << 64) | u128::from(g.next()),
        }),
        3 => Json::Num(fractional(g)),
        _ => Json::Bool(g.below(2) == 1),
    }
}

fn tree(g: &mut Gen, depth: usize) -> Json {
    if depth == 0 || g.below(3) == 0 {
        return scalar(g);
    }
    let n = g.below(5);
    if g.below(2) == 0 {
        Json::Arr((0..n).map(|_| tree(g, depth - 1)).collect())
    } else {
        Json::Obj((0..n).map(|_| (string(g), tree(g, depth - 1))).collect())
    }
}

/// A tree whose top level is an array or object.
fn container(g: &mut Gen) -> Json {
    match tree(g, 4) {
        v @ (Json::Arr(_) | Json::Obj(_)) => v,
        v => Json::Arr(vec![v]),
    }
}

/// Bytes that often form JSON structure, mixed with arbitrary ones.
const TOKENS: &[u8] = b"{}[]\",:\\/unlltrfe0123456789.-+Eu \n";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn rendered_trees_parse_back(seed in any::<u64>()) {
        let v = tree(&mut Gen(seed), 4);
        let text = v.to_string();
        prop_assert_eq!(Json::parse(&text), Ok(v), "{}", text);
    }

    #[test]
    fn strict_prefixes_are_errors(seed in any::<u64>()) {
        let text = container(&mut Gen(seed)).to_string();
        for (cut, _) in text.char_indices() {
            prop_assert!(Json::parse(&text[..cut]).is_err(), "prefix {:?}", &text[..cut]);
        }
    }

    #[test]
    fn garbage_never_panics(
        bytes in prop::collection::vec(
            prop_oneof![any::<u8>(), (0..TOKENS.len()).prop_map(|k| TOKENS[k])],
            0..96,
        ),
    ) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = Json::parse(&text);
    }

    #[test]
    fn nesting_parses_up_to_the_cap(depth in 1..MAX_DEPTH * 2, seed in any::<u64>()) {
        let mut g = Gen(seed);
        let mut open = String::new();
        let mut close = String::new();
        for _ in 0..depth {
            if g.below(2) == 0 {
                open.push('[');
                close.insert(0, ']');
            } else {
                open.push_str("{\"k\":");
                close.insert(0, '}');
            }
        }
        let text = format!("{open}{}{close}", scalar(&mut g));
        prop_assert_eq!(Json::parse(&text).is_ok(), depth <= MAX_DEPTH, "depth {}", depth);
    }
}
