//! Decimal rendering of integers and rationals without `core::fmt`.
//!
//! One kernel writes every exact number the workspace prints: digits
//! are produced right to left into a stack buffer, four per step as two
//! lookups in a 200-byte pair table, and a `u128` is split into
//! base-10¹⁹ limbs so that the per-digit arithmetic is native `u64`
//! division by a constant. The split itself multiplies by a fixed-point
//! reciprocal of 10¹⁹ instead of calling a software 128-bit division.
//! Only the 6-decimal approximations of large or very precise floats
//! fall back to `core::fmt`.

use crate::Rational;

/// `"00" "01" … "99"`: the two ASCII digits of every value below 100.
const PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// 10¹⁹, the largest power of ten below 2⁶⁴: one limb's radix.
const LIMB: u64 = 10_000_000_000_000_000_000;

/// Digits of one full limb.
const LIMB_DIGITS: usize = 19;

/// The longest rendering of a [`Rational`]: a sign, 39 numerator
/// digits, `/`, and 39 denominator digits.
pub(crate) const MAX_RATIONAL_LEN: usize = 1 + 39 + 1 + 39;

/// `(n / 10¹⁹, n % 10¹⁹)`.
///
/// The quotient is the high half of `n` times `R = ⌈2¹⁹⁰ / 10¹⁹⌉`,
/// shifted right by 62. `R` exceeds 2¹⁹⁰ / 10¹⁹ by 0.44, so the
/// estimate exceeds `n / 10¹⁹` by less than 0.44 · 2¹²⁸ / 2¹⁹⁰ < 10⁻¹⁹
/// — less than the distance from any non-integral `n / 10¹⁹` to the
/// next integer — and its floor is the exact quotient for every `u128`.
fn div_rem_limb(n: u128) -> (u128, u64) {
    const RECIPROCAL: u128 = 156_927_543_384_667_019_095_894_735_580_191_660_403;
    let quot = mul_high(n, RECIPROCAL) >> 62;
    // quot · 10¹⁹ <= n, and the difference is below 10¹⁹ < 2⁶⁴.
    (quot, (n - quot * u128::from(LIMB)) as u64)
}

/// The high 128 bits of the 256-bit product `a · b`.
fn mul_high(a: u128, b: u128) -> u128 {
    let (a_lo, a_hi) = (a as u64 as u128, a >> 64);
    let (b_lo, b_hi) = (b as u64 as u128, b >> 64);
    let carry = (a_lo * b_lo) >> 64;
    let mid = a_lo * b_hi + carry;
    let mid2 = a_hi * b_lo + (mid as u64 as u128);
    a_hi * b_hi + (mid >> 64) + (mid2 >> 64)
}

/// Write `n`'s digits so that they end just before `buf[end]`, and
/// return where they start.
fn put_u64(buf: &mut [u8], mut end: usize, mut n: u64) -> usize {
    // Four digits per step: the two pairs of a step are independent,
    // so the chain of dependent divisions is half as long.
    while n >= 10_000 {
        let quad = (n % 10_000) as usize;
        n /= 10_000;
        let (high, low) = (quad / 100 * 2, quad % 100 * 2);
        end -= 4;
        buf[end..end + 2].copy_from_slice(&PAIRS[high..high + 2]);
        buf[end + 2..end + 4].copy_from_slice(&PAIRS[low..low + 2]);
    }
    if n >= 100 {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        end -= 2;
        buf[end..end + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    }
    if n >= 10 {
        let pair = n as usize * 2;
        end -= 2;
        buf[end..end + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    } else {
        end -= 1;
        buf[end] = b'0' + n as u8;
    }
    end
}

/// [`put_u64`] for an inner limb: exactly 19 digits, zero-padded.
fn put_limb(buf: &mut [u8], end: usize, n: u64) -> usize {
    let start = end - LIMB_DIGITS;
    let first = put_u64(buf, end, n);
    buf[start..first].fill(b'0');
    start
}

/// [`put_u64`] for a `u128`: at most three limbs, the top one at most 3.
fn put_u128(buf: &mut [u8], end: usize, n: u128) -> usize {
    if let Ok(small) = u64::try_from(n) {
        return put_u64(buf, end, small);
    }
    let (high, low) = div_rem_limb(n);
    let end = put_limb(buf, end, low);
    if let Ok(small) = u64::try_from(high) {
        return put_u64(buf, end, small);
    }
    let (top, mid) = div_rem_limb(high);
    let end = put_limb(buf, end, mid);
    put_u64(buf, end, top as u64)
}

/// `n` with its sign, ending just before `buf[end]`.
fn put_i128(buf: &mut [u8], end: usize, n: i128) -> usize {
    let mut start = put_u128(buf, end, n.unsigned_abs());
    if n < 0 {
        start -= 1;
        buf[start] = b'-';
    }
    start
}

/// The bytes of `buf` from `start` on, which the kernel filled with
/// ASCII digits, `-` and `/` only.
fn ascii(buf: &[u8], start: usize) -> &str {
    // SAFETY: every byte from `start` on was written by this module:
    // ASCII digits from `PAIRS` or `b'0' + d` with d < 10, `-`, `/` and
    // `.`, so the slice is ASCII and therefore UTF-8.
    unsafe { std::str::from_utf8_unchecked(&buf[start..]) }
}

/// Append the decimal digits of `n` to `out` — the bytes of
/// `n.to_string()`, without `core::fmt`.
pub fn push_u64(out: &mut String, n: u64) {
    let mut buf = [0u8; 20];
    let start = put_u64(&mut buf, 20, n);
    out.push_str(ascii(&buf, start));
}

/// Append the decimal digits of `n`, with a leading `-` when negative,
/// to `out` — the bytes of `n.to_string()`, without `core::fmt`.
pub fn push_i128(out: &mut String, n: i128) {
    let mut buf = [0u8; 40];
    let start = put_i128(&mut buf, 40, n);
    out.push_str(ascii(&buf, start));
}

/// Append `x` with `digits` fractional digits to `out` — the bytes of
/// `format!("{x:.digits$}")`: the binary value's exact decimal
/// expansion, rounded half to even. Values below 2⁶³ in magnitude with
/// at most 9 digits take the kernel; the rest go through `core::fmt`.
pub fn push_fixed(out: &mut String, x: f64, digits: usize) {
    if !(x.abs() < (1u64 << 63) as f64 && digits <= 9) {
        use std::fmt::Write as _;
        let _ = write!(out, "{x:.digits$}");
        return;
    }
    // |x| = m · 2^e exactly.
    let bits = x.to_bits();
    let exponent = ((bits >> 52) & 0x7ff) as i32;
    let fraction = bits & ((1 << 52) - 1);
    let (m, e) = if exponent == 0 {
        (fraction, -1074)
    } else {
        (fraction | 1 << 52, exponent - 1075)
    };
    let scale = 10u64.pow(digits as u32);
    // |x| · 10^digits, rounded half to even: m · 10^digits < 2⁸³.
    let scaled = if e >= 0 {
        // An integer below 2⁶³: nothing to round.
        u128::from(m << e) * u128::from(scale)
    } else if e > -128 {
        let wide = u128::from(m) * u128::from(scale);
        let shift = e.unsigned_abs();
        let (quot, rem) = (wide >> shift, wide & ((1 << shift) - 1));
        let half = 1 << (shift - 1);
        quot + u128::from(rem > half || (rem == half && quot & 1 == 1))
    } else {
        // Below 2⁸³ · 2⁻¹²⁸: under half a unit of the last digit.
        0
    };
    let mut buf = [0u8; 1 + 39 + 1 + 9];
    let mut start = buf.len();
    if digits > 0 {
        let frac = (scaled % u128::from(scale)) as u64;
        let first = put_u64(&mut buf, start, frac);
        start -= digits;
        buf[start..first].fill(b'0');
        start -= 1;
        buf[start] = b'.';
    }
    start = put_u128(&mut buf, start, scaled / u128::from(scale));
    if x.is_sign_negative() {
        start -= 1;
        buf[start] = b'-';
    }
    out.push_str(ascii(&buf, start));
}

impl Rational {
    /// Render `self` as `n/d` (or `n` when integral) into `buf`,
    /// returning the rendering — what `Display` writes.
    pub(crate) fn render(self, buf: &mut [u8; MAX_RATIONAL_LEN]) -> &str {
        let mut start = MAX_RATIONAL_LEN;
        if self.denom() != 1 {
            start = put_u128(buf, start, self.denom().unsigned_abs());
            start -= 1;
            buf[start] = b'/';
        }
        let start = put_i128(buf, start, self.numer());
        ascii(buf, start)
    }

    /// Append `self` to `out` as `n/d` (or `n` when integral) — the
    /// bytes of `self.to_string()`, without `core::fmt`.
    pub fn push_to(&self, out: &mut String) {
        out.push_str(self.render(&mut [0; MAX_RATIONAL_LEN]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limb_split_is_exact_at_its_edges() {
        let limb = u128::from(LIMB);
        let mut cases = vec![0, 1, limb - 1, limb, limb + 1, u128::MAX, u128::MAX - 1];
        for shift in 60..128 {
            let p = 1u128 << shift;
            cases.extend([p - 1, p, p + 1]);
        }
        for k in 1..=38u32 {
            let p = 10u128.pow(k);
            cases.extend([p - 1, p, p + 1]);
        }
        for q in [1u128, 2, 3, u128::from(u64::MAX), limb - 1, limb] {
            if let Some(base) = q.checked_mul(limb) {
                cases.extend([base, base - 1, base + limb - 1]);
            }
        }
        for n in cases {
            let (q, r) = div_rem_limb(n);
            assert_eq!((q, u128::from(r)), (n / limb, n % limb), "{n}");
        }
    }

    #[test]
    fn mul_high_matches_a_wide_product() {
        assert_eq!(mul_high(u128::MAX, u128::MAX), u128::MAX - 1);
        assert_eq!(mul_high(1 << 64, 1 << 64), 1);
        assert_eq!(mul_high(u128::MAX, 2), 1);
        assert_eq!(mul_high(12345, 67890), 0);
    }
}
