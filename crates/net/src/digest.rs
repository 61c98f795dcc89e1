//! Canonical content digests for nets.
//!
//! A [`NetDigest`] is a 128-bit fingerprint of everything that affects
//! a net's *behaviour*: its name, places (name and initial tokens),
//! arcs (with multiplicities), enabling/firing times and frequencies.
//! It is **independent of declaration order** — permuting the `place`
//! or `trans` directives of a `.tpn` file yields the same digest —
//! because every place is identified by name and the per-record hashes
//! are combined through a sorted fold rather than in sequence.
//!
//! The digest is the cache key of `tpn-service`'s content-addressed
//! analysis cache: two requests carrying textually different but
//! semantically identical nets hit the same cache line.
//!
//! The hash is two independently seeded FNV-1a lanes (no external
//! dependency, stable across platforms and releases of the standard
//! library, unlike [`std::hash::DefaultHasher`]).
//!
//! **Threat model:** FNV is not collision-resistant — an adversary who
//! controls the `.tpn` text can in principle craft two distinct nets
//! with the same digest, which against a shared `tpn-service` cache
//! would let one request's result be served for the other. The digest
//! protects against *accidental* collision (128 bits over two
//! independent lanes) and is intended for deployments whose clients
//! are trusted; a shared cache for mutually untrusting clients needs a
//! cryptographic hash instead.

use std::fmt;

use crate::{Bag, Frequency, PlaceId, TimeValue, TimedPetriNet};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Seed of the second lane (the 64-bit golden ratio, any odd constant
/// different from the FNV offset works).
const LANE2_SEED: u64 = FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15;

/// A 128-bit canonical content digest of a [`TimedPetriNet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetDigest(pub [u64; 2]);

impl NetDigest {
    /// The digest as 32 lowercase hex digits.
    pub fn to_hex(self) -> String {
        format!("{:016x}{:016x}", self.0[0], self.0[1])
    }
}

impl fmt::Display for NetDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.0[0], self.0[1])
    }
}

/// `FNV_PRIME^k` for `k` = 0..=16.
const PRIME_POWERS: [u64; 17] = {
    let mut powers = [1u64; 17];
    let mut k = 1;
    while k < powers.len() {
        powers[k] = powers[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    powers
};

/// Both FNV-1a lanes, advanced together: each byte is read once and
/// feeds two independent multiply chains.
///
/// Integers are hashed as their little-endian bytes, but without
/// stepping through their zero high bytes: a zero byte turns the step
/// `(h ^ b)·P` into `h·P`, so `k` trailing zero bytes are one multiply
/// by `P^k`. The output is bit-identical to the byte loop.
pub(crate) struct Fnv([u64; 2]);

impl Fnv {
    pub(crate) fn byte(&mut self, b: u8) {
        let b = u64::from(b);
        self.0[0] = (self.0[0] ^ b).wrapping_mul(FNV_PRIME);
        self.0[1] = (self.0[1] ^ b).wrapping_mul(FNV_PRIME);
    }

    fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.byte(b);
        }
    }

    /// The low `width` bytes of `x`, little-endian; every byte above
    /// its highest set byte is a zero and costs nothing.
    fn le_bytes(&mut self, x: u128, width: u32) {
        let significant = width - x.leading_zeros().saturating_sub(128 - 8 * width) / 8;
        let mut rest = x;
        for _ in 0..significant {
            self.byte(rest as u8);
            rest >>= 8;
        }
        let skip = PRIME_POWERS[(width - significant) as usize];
        self.0[0] = self.0[0].wrapping_mul(skip);
        self.0[1] = self.0[1].wrapping_mul(skip);
    }

    pub(crate) fn u64(&mut self, x: u64) {
        self.le_bytes(u128::from(x), 8);
    }

    pub(crate) fn i128(&mut self, x: i128) {
        self.le_bytes(x as u128, 16);
    }

    /// Length-prefixed, so `("ab", "c")` and `("a", "bc")` differ.
    pub(crate) fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn time(&mut self, t: &TimeValue) {
        match t {
            TimeValue::Known(r) => {
                self.byte(1);
                self.i128(r.numer());
                self.i128(r.denom());
            }
            TimeValue::Unknown => self.byte(2),
        }
    }

    fn frequency(&mut self, f: &Frequency) {
        match f {
            Frequency::Weight(w) => {
                self.byte(1);
                self.i128(w.numer());
                self.i128(w.denom());
            }
            Frequency::Unknown => self.byte(2),
        }
    }
}

/// Hash one record through both lanes.
pub(crate) fn record(write: impl FnOnce(&mut Fnv)) -> [u64; 2] {
    let mut h = Fnv([FNV_OFFSET, LANE2_SEED]);
    write(&mut h);
    h.0
}

/// Write a bag as (name, multiplicity) pairs sorted by place name, so
/// the hash does not depend on place declaration order. `scratch` is
/// reused across bags to keep the sort allocation-free.
pub(crate) fn bag_entries<'n>(
    net: &'n TimedPetriNet,
    bag: Bag<&[(PlaceId, u32)]>,
    h: &mut Fnv,
    scratch: &mut Vec<(&'n str, u32)>,
) {
    scratch.clear();
    scratch.extend(bag.iter().map(|(p, n)| (net.place_name(p), n)));
    scratch.sort_unstable();
    h.u64(scratch.len() as u64);
    for &(name, mult) in scratch.iter() {
        h.str(name);
        h.u64(u64::from(mult));
    }
}

impl TimedPetriNet {
    /// The canonical content digest of this net. See the module docs
    /// for what it covers and its order-independence guarantee.
    pub fn digest(&self) -> NetDigest {
        // Per-place and per-transition record hashes, combined through
        // a sorted fold: declaration order cannot influence the result.
        let mut records: Vec<[u64; 2]> =
            Vec::with_capacity(self.num_places() + self.num_transitions());
        for p in self.places() {
            records.push(record(|h| {
                h.byte(b'P');
                h.str(self.place_name(p));
                h.u64(u64::from(self.initial_marking().tokens(p)));
            }));
        }
        let mut scratch = Vec::new();
        for t in self.transitions() {
            let tr = self.transition(t);
            records.push(record(|h| {
                h.byte(b'T');
                h.str(tr.name());
                bag_entries(self, tr.input(), h, &mut scratch);
                bag_entries(self, tr.output(), h, &mut scratch);
                h.time(tr.enabling());
                h.time(tr.firing());
                h.frequency(tr.frequency());
            }));
        }
        records.sort_unstable();
        let fold = record(|h| {
            h.str(self.name());
            h.u64(records.len() as u64);
            for r in &records {
                h.u64(r[0]);
                h.u64(r[1]);
            }
        });
        NetDigest(fold)
    }
}

#[cfg(test)]
mod tests {
    use super::{Fnv, FNV_OFFSET, FNV_PRIME, LANE2_SEED};
    use crate::parse_tpn;

    /// The reference kernel: both lanes stepped one byte at a time.
    struct ByteFnv([u64; 2]);

    impl ByteFnv {
        fn bytes(&mut self, bs: &[u8]) {
            for &b in bs {
                for lane in &mut self.0 {
                    *lane = (*lane ^ u64::from(b)).wrapping_mul(FNV_PRIME);
                }
            }
        }
    }

    /// The word-wise `Fnv` equals the byte loop on random sequences of
    /// `u64`s, `i128`s, strings and bytes, edge values included.
    #[test]
    fn word_wise_kernel_matches_the_byte_loop() {
        let mut state: u64 = 0x243f_6a88_85a3_08d3;
        let mut next = move || {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let u64_edges = [0, 1, 0xff, 0x100, 0xffff_ffff, 1 << 32, 1 << 63, u64::MAX];
        let i128_edges = [
            0,
            1,
            -1,
            255,
            256,
            -256,
            i128::from(i64::MIN),
            i128::from(u64::MAX),
            i128::MIN,
            i128::MAX,
        ];
        let words = ["", "a", "t7", "café", "τ→ü", "packet_in_medium"];
        for _ in 0..5000 {
            let mut fast = Fnv([FNV_OFFSET, LANE2_SEED]);
            let mut slow = ByteFnv([FNV_OFFSET, LANE2_SEED]);
            for _ in 0..next() % 12 {
                let r = next();
                // Shift random values down to every byte width.
                let shift = (next() % 17) as u32 * 8;
                match r % 5 {
                    0 => {
                        let x = if r % 3 == 0 {
                            u64_edges[(r >> 8) as usize % u64_edges.len()]
                        } else {
                            next().checked_shr(shift).unwrap_or(0)
                        };
                        fast.u64(x);
                        slow.bytes(&x.to_le_bytes());
                    }
                    1 => {
                        let x = if r % 3 == 0 {
                            i128_edges[(r >> 8) as usize % i128_edges.len()]
                        } else {
                            let wide = (i128::from(next()) << 64) | i128::from(next());
                            let x = wide.checked_shr(shift).unwrap_or(0);
                            if r % 2 == 0 {
                                x
                            } else {
                                -x
                            }
                        };
                        fast.i128(x);
                        slow.bytes(&x.to_le_bytes());
                    }
                    2 => {
                        let s = words[(r >> 8) as usize % words.len()];
                        fast.str(s);
                        slow.bytes(&(s.len() as u64).to_le_bytes());
                        slow.bytes(s.as_bytes());
                    }
                    _ => {
                        fast.byte(r as u8);
                        slow.bytes(&[r as u8]);
                    }
                }
            }
            assert_eq!(fast.0, slow.0);
        }
    }

    const NET: &str = "
        net demo
        place a init 1
        place b
        trans go   in a out b firing 106.7 weight 0.95
        trans drop in a out - firing 106.7 weight 0.05
    ";

    /// The same net with places and transitions declared in the
    /// opposite order.
    const NET_PERMUTED: &str = "
        net demo
        place b
        place a init 1
        trans drop in a out - firing 106.7 weight 0.05
        trans go   in a out b firing 106.7 weight 0.95
    ";

    #[test]
    fn digest_is_deterministic() {
        let a = parse_tpn(NET).unwrap().digest();
        let b = parse_tpn(NET).unwrap().digest();
        assert_eq!(a, b);
    }

    #[test]
    fn digest_ignores_declaration_order() {
        let a = parse_tpn(NET).unwrap().digest();
        let b = parse_tpn(NET_PERMUTED).unwrap().digest();
        assert_eq!(a, b);
    }

    #[test]
    fn digest_distinguishes_content() {
        let base = parse_tpn(NET).unwrap().digest();
        for (what, src) in [
            ("net name", NET.replace("net demo", "net demo2")),
            ("initial marking", NET.replace("init 1", "init 2")),
            (
                "timing",
                NET.replace("firing 106.7 weight 0.95", "firing 13.5 weight 0.95"),
            ),
            ("weight", NET.replace("weight 0.05", "weight 0.06")),
            (
                "arcs",
                NET.replace("trans go   in a out b", "trans go   in a out a"),
            ),
            (
                "place name",
                NET.replace("place b", "place c").replace("out b", "out c"),
            ),
        ] {
            let changed = parse_tpn(&src).unwrap().digest();
            assert_ne!(base, changed, "{what} must change the digest");
        }
    }

    #[test]
    fn digest_covers_unknown_times() {
        let known = parse_tpn("net u\nplace a init 1\ntrans t in a firing 1").unwrap();
        let unknown = parse_tpn("net u\nplace a init 1\ntrans t in a firing ?").unwrap();
        assert_ne!(known.digest(), unknown.digest());
    }

    #[test]
    fn hex_rendering() {
        let d = parse_tpn(NET).unwrap().digest();
        let hex = d.to_hex();
        assert_eq!(hex.len(), 32);
        assert!(hex.chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(hex, d.to_string());
    }
}
