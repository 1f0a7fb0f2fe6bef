//! Fixed-width bit vectors over GF(2) with MSB-first lexicographic semantics.
//!
//! A [`BitVec`] of length `m` models an element of `{0,1}^m` written as the
//! string `y_0 y_1 … y_{m-1}`. Index `0` is the *first* (most significant)
//! bit; the derived `Ord` implementation is the lexicographic order on these
//! strings, which coincides with the numeric order of the value they encode.
//! "Prefix of length `ℓ`" means bits `0..ℓ` and "trailing zeros" counts zero
//! bits at the end of the string — exactly the conventions used by prefix
//! slices `h_m` and `TrailZero` in the paper.

use std::fmt;

const WORD_BITS: usize = 64;

/// A fixed-length vector over GF(2).
///
/// Bits are packed MSB-first inside `u64` words so that comparing the word
/// arrays as integers yields the lexicographic order of the bit strings.
/// Unused bits of the last word are always kept at zero (an internal
/// invariant relied upon by `Ord`, `Hash` and equality).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitVec {
    len: usize,
    words: Vec<u64>,
}

impl BitVec {
    /// Creates an all-zero vector of `len` bits.
    pub fn zeros(len: usize) -> Self {
        let nwords = len.div_ceil(WORD_BITS);
        BitVec {
            len,
            words: vec![0; nwords],
        }
    }

    /// Creates an all-one vector of `len` bits.
    pub fn ones(len: usize) -> Self {
        let mut v = Self::zeros(len);
        for w in &mut v.words {
            *w = u64::MAX;
        }
        v.mask_tail();
        v
    }

    /// Builds a vector from a boolean slice; `bits[0]` becomes the most
    /// significant (first) bit.
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut v = Self::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            v.set(i, b);
        }
        v
    }

    /// Builds a vector of `len ≤ 64` bits encoding the integer `value`
    /// (standard binary, most significant bit first). Panics if `value`
    /// does not fit in `len` bits.
    pub fn from_u64(value: u64, len: usize) -> Self {
        assert!(len <= 64, "from_u64 supports at most 64 bits, got {len}");
        if len < 64 {
            assert!(
                value < (1u64 << len),
                "value {value} does not fit in {len} bits"
            );
        }
        let mut v = Self::zeros(len);
        for i in 0..len {
            let bit = (value >> (len - 1 - i)) & 1 == 1;
            v.set(i, bit);
        }
        v
    }

    /// Interprets the vector (of length ≤ 64) as an unsigned integer,
    /// most significant bit first.
    pub fn to_u64(&self) -> u64 {
        assert!(self.len <= 64, "to_u64 requires at most 64 bits");
        let mut out = 0u64;
        for i in 0..self.len {
            out = (out << 1) | u64::from(self.get(i));
        }
        out
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the vector has zero length.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn word_and_mask(&self, i: usize) -> (usize, u64) {
        debug_assert!(i < self.len, "bit index {i} out of range 0..{}", self.len);
        (i / WORD_BITS, 1u64 << (WORD_BITS - 1 - (i % WORD_BITS)))
    }

    /// Reads bit `i` (0 = most significant).
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        let (w, m) = self.word_and_mask(i);
        self.words[w] & m != 0
    }

    /// Writes bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        let (w, m) = self.word_and_mask(i);
        if value {
            self.words[w] |= m;
        } else {
            self.words[w] &= !m;
        }
    }

    /// Flips bit `i`.
    #[inline]
    pub fn flip(&mut self, i: usize) {
        let (w, m) = self.word_and_mask(i);
        self.words[w] ^= m;
    }

    fn mask_tail(&mut self) {
        let used = self.len % WORD_BITS;
        if used != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= !0u64 << (WORD_BITS - used);
            }
        }
    }

    /// In-place XOR with another vector of the same length.
    pub fn xor_assign(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "length mismatch in xor_assign");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a ^= *b;
        }
    }

    /// Returns the XOR of two equal-length vectors.
    pub fn xor(&self, other: &BitVec) -> BitVec {
        let mut out = self.clone();
        out.xor_assign(other);
        out
    }

    /// In-place AND with another vector of the same length.
    pub fn and_assign(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "length mismatch in and_assign");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= *b;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if every bit is zero.
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// GF(2) inner product: parity of the AND of the two vectors.
    pub fn dot(&self, other: &BitVec) -> bool {
        assert_eq!(self.len, other.len, "length mismatch in dot");
        let mut acc = 0u64;
        for (a, b) in self.words.iter().zip(&other.words) {
            acc ^= a & b;
        }
        acc.count_ones() % 2 == 1
    }

    /// Index of the first (most significant) set bit, if any.
    pub fn leading_one(&self) -> Option<usize> {
        for (wi, &w) in self.words.iter().enumerate() {
            if w != 0 {
                let idx = wi * WORD_BITS + w.leading_zeros() as usize;
                return Some(idx);
            }
        }
        None
    }

    /// Number of zero bits at the *end* of the string (the paper's
    /// `TrailZero`). An all-zero vector reports its full length.
    pub fn trailing_zeros(&self) -> usize {
        if self.len == 0 {
            return 0;
        }
        let mut count = 0usize;
        let used = self.len % WORD_BITS;
        // Walk words from the end; the last word holds `used` meaningful bits
        // (or a full 64 when the length is a multiple of the word size).
        for (wi, &w) in self.words.iter().enumerate().rev() {
            let bits_in_word = if wi + 1 == self.words.len() && used != 0 {
                used
            } else {
                WORD_BITS
            };
            // Meaningful bits occupy the high end of the word; shift them down
            // so `trailing_zeros` counts only them.
            let shifted = w >> (WORD_BITS - bits_in_word);
            if shifted == 0 {
                count += bits_in_word;
            } else {
                count += (shifted.trailing_zeros() as usize).min(bits_in_word);
                break;
            }
        }
        count
    }

    /// True if the first `m` bits are all zero (`h_m(x) = 0^m` tests).
    pub fn prefix_is_zero(&self, m: usize) -> bool {
        assert!(m <= self.len, "prefix length {m} exceeds vector length");
        let full_words = m / WORD_BITS;
        if self.words[..full_words].iter().any(|&w| w != 0) {
            return false;
        }
        let rem = m % WORD_BITS;
        if rem == 0 {
            return true;
        }
        let mask = !0u64 << (WORD_BITS - rem);
        self.words[full_words] & mask == 0
    }

    /// Copies the first `m` bits into a new vector of length `m`
    /// (the prefix slice `h_m` of the paper).
    pub fn prefix(&self, m: usize) -> BitVec {
        assert!(m <= self.len, "prefix length {m} exceeds vector length");
        let mut out = BitVec::zeros(m);
        let nwords = out.words.len();
        out.words.copy_from_slice(&self.words[..nwords]);
        out.mask_tail();
        out
    }

    /// True if `self` and `other` agree on their first `m` bits
    /// (word-wise masked compare).
    pub fn prefix_eq(&self, other: &BitVec, m: usize) -> bool {
        assert!(m <= self.len && m <= other.len());
        let full = m / WORD_BITS;
        if self.words[..full] != other.words[..full] {
            return false;
        }
        let rem = m % WORD_BITS;
        rem == 0 || (self.words[full] ^ other.words[full]) >> (WORD_BITS - rem) == 0
    }

    /// Returns a new vector equal to `self` with `value` appended at the end.
    /// The tail-zero invariant makes this a word copy plus one bit write.
    pub fn append_bit(&self, value: bool) -> BitVec {
        let mut out = BitVec {
            len: self.len + 1,
            words: self.words.clone(),
        };
        if self.len.is_multiple_of(WORD_BITS) {
            out.words.push(0);
        }
        if value {
            out.set(self.len, true);
        }
        out
    }

    /// Concatenates two bit vectors (word-wise shift-and-or).
    pub fn concat(&self, other: &BitVec) -> BitVec {
        let total = self.len + other.len;
        let mut words = self.words.clone();
        words.resize(total.div_ceil(WORD_BITS), 0);
        let base = self.len / WORD_BITS;
        let shift = self.len % WORD_BITS;
        if shift == 0 {
            words[base..base + other.words.len()].copy_from_slice(&other.words);
        } else {
            for (i, &w) in other.words.iter().enumerate() {
                words[base + i] |= w >> shift;
                if base + i + 1 < words.len() {
                    words[base + i + 1] |= w << (WORD_BITS - shift);
                }
            }
        }
        let mut out = BitVec { len: total, words };
        out.mask_tail();
        out
    }

    /// Iterator over the bits, most significant first.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Iterator over the indices of the set bits, in increasing order
    /// (word-wise: each word is consumed by clearing its leading one).
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut w = word;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let lz = w.leading_zeros() as usize;
                    w &= !(1u64 << (WORD_BITS - 1 - lz));
                    Some(wi * WORD_BITS + lz)
                }
            })
        })
    }

    /// Lexicographically next string of the same length, or `None` if `self`
    /// is all ones (i.e. binary increment).
    pub fn successor(&self) -> Option<BitVec> {
        let mut out = self.clone();
        for i in (0..self.len).rev() {
            if !out.get(i) {
                out.set(i, true);
                for j in (i + 1)..self.len {
                    out.set(j, false);
                }
                return Some(out);
            }
        }
        None
    }

    /// Fills the vector from a word-supplying closure (used by the hashing
    /// crate to draw uniformly random vectors from its own RNG).
    pub fn fill_from_words(len: usize, mut next_word: impl FnMut() -> u64) -> BitVec {
        let mut v = BitVec::zeros(len);
        for w in &mut v.words {
            *w = next_word();
        }
        v.mask_tail();
        v
    }

    /// The packed words backing the vector (MSB-first inside each word, tail
    /// bits zero) — the lossless export used by snapshot serialization.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuilds a vector from a [`BitVec::words`] export. Tail bits beyond
    /// `len` in the last word are masked off.
    pub fn from_words(len: usize, words: &[u64]) -> BitVec {
        BitVec::from_word_vec(len, words.to_vec())
    }

    /// [`BitVec::from_words`] taking ownership of the words, so building
    /// the vector copies nothing.
    pub fn from_word_vec(len: usize, words: Vec<u64>) -> BitVec {
        assert_eq!(
            words.len(),
            len.div_ceil(WORD_BITS),
            "word count does not match the bit length"
        );
        let mut v = BitVec { len, words };
        v.mask_tail();
        v
    }
}

impl PartialOrd for BitVec {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BitVec {
    /// Lexicographic (MSB-first) order. Comparing vectors of different
    /// lengths compares their common prefix first, shorter-is-smaller on ties,
    /// mirroring string comparison.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.len == other.len {
            // MSB-first packing with a zeroed tail makes the word arrays
            // compare exactly like the bit strings they encode.
            return self.words.cmp(&other.words);
        }
        let common = self.len.min(other.len);
        for i in 0..common {
            match (self.get(i), other.get(i)) {
                (false, true) => return std::cmp::Ordering::Less,
                (true, false) => return std::cmp::Ordering::Greater,
                _ => {}
            }
        }
        self.len.cmp(&other.len)
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec({self})")
    }
}

impl fmt::Display for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.iter() {
            write!(f, "{}", u8::from(b))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_u64() {
        for value in [0u64, 1, 2, 5, 97, 255, 256, 0xdead_beef] {
            let v = BitVec::from_u64(value, 40);
            assert_eq!(v.to_u64(), value);
            assert_eq!(v.len(), 40);
        }
    }

    #[test]
    fn lexicographic_order_matches_numeric_order() {
        for a in 0u64..64 {
            for b in 0u64..64 {
                let va = BitVec::from_u64(a, 9);
                let vb = BitVec::from_u64(b, 9);
                assert_eq!(va.cmp(&vb), a.cmp(&b), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn order_spans_word_boundaries() {
        let mut a = BitVec::zeros(130);
        let mut b = BitVec::zeros(130);
        a.set(129, true);
        b.set(64, true);
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
    }

    #[test]
    fn trailing_zeros_and_prefix() {
        let v = BitVec::from_u64(0b1010_0000, 8);
        assert_eq!(v.trailing_zeros(), 5);
        assert!(v.prefix_is_zero(0));
        assert!(!v.prefix_is_zero(1));
        let z = BitVec::zeros(17);
        assert_eq!(z.trailing_zeros(), 17);
        assert!(z.prefix_is_zero(17));
        assert_eq!(v.prefix(4), BitVec::from_u64(0b1010, 4));
    }

    #[test]
    fn xor_and_dot() {
        let a = BitVec::from_u64(0b1100, 4);
        let b = BitVec::from_u64(0b1010, 4);
        assert_eq!(a.xor(&b), BitVec::from_u64(0b0110, 4));
        // dot = parity of AND(1100,1010) = parity(1000) = 1
        assert!(a.dot(&b));
        let c = BitVec::from_u64(0b0011, 4);
        assert!(!a.dot(&c));
    }

    #[test]
    fn successor_increments() {
        let v = BitVec::from_u64(5, 4);
        assert_eq!(v.successor().unwrap().to_u64(), 6);
        let v = BitVec::from_u64(0b0111, 4);
        assert_eq!(v.successor().unwrap().to_u64(), 8);
        let all_ones = BitVec::ones(4);
        assert!(all_ones.successor().is_none());
    }

    #[test]
    fn ones_masks_tail_bits() {
        let v = BitVec::ones(70);
        assert_eq!(v.count_ones(), 70);
        assert_eq!(v.trailing_zeros(), 0);
        // Equality with a manually constructed all-ones vector must hold,
        // which requires the spare tail bits of the last word to be zeroed.
        let mut w = BitVec::zeros(70);
        for i in 0..70 {
            w.set(i, true);
        }
        assert_eq!(v, w);
    }

    #[test]
    fn concat_and_append() {
        let a = BitVec::from_u64(0b101, 3);
        let b = BitVec::from_u64(0b01, 2);
        assert_eq!(a.concat(&b), BitVec::from_u64(0b10101, 5));
        assert_eq!(a.append_bit(true), BitVec::from_u64(0b1011, 4));
    }

    #[test]
    fn trailing_zeros_spans_word_boundaries() {
        // Compare the word-level implementation against a naive bit loop on
        // lengths that straddle word boundaries.
        let naive = |v: &BitVec| {
            let mut count = 0;
            for i in (0..v.len()).rev() {
                if v.get(i) {
                    break;
                }
                count += 1;
            }
            count
        };
        for len in [1usize, 63, 64, 65, 127, 128, 130] {
            let zero = BitVec::zeros(len);
            assert_eq!(zero.trailing_zeros(), len, "len={len}");
            for set_at in [0usize, len / 2, len - 1] {
                let mut v = BitVec::zeros(len);
                v.set(set_at, true);
                assert_eq!(v.trailing_zeros(), naive(&v), "len={len} set_at={set_at}");
            }
        }
    }

    #[test]
    fn prefix_predicates_span_word_boundaries() {
        let mut v = BitVec::zeros(150);
        v.set(100, true);
        assert!(v.prefix_is_zero(100));
        assert!(!v.prefix_is_zero(101));
        assert_eq!(v.prefix(100), BitVec::zeros(100));
        let p = v.prefix(120);
        assert_eq!(p.len(), 120);
        assert!(p.get(100));
        assert_eq!(p.count_ones(), 1);
    }

    #[test]
    fn prefix_eq_spans_word_boundaries() {
        // Differential check against the naive bit loop at boundary lengths.
        let naive = |a: &BitVec, b: &BitVec, m: usize| (0..m).all(|i| a.get(i) == b.get(i));
        for len in [1usize, 63, 64, 65, 127, 128, 130] {
            for diff_at in [0usize, len / 2, len - 1] {
                let a = BitVec::zeros(len);
                let mut b = BitVec::zeros(len);
                b.set(diff_at, true);
                for m in [0usize, 1, len / 2, len.saturating_sub(1), len] {
                    assert_eq!(
                        a.prefix_eq(&b, m),
                        naive(&a, &b, m),
                        "len={len} diff_at={diff_at} m={m}"
                    );
                }
                assert!(a.prefix_eq(&b, diff_at));
                assert!(!a.prefix_eq(&b, diff_at + 1));
            }
        }
    }

    #[test]
    fn append_and_concat_span_word_boundaries() {
        for len in [0usize, 1, 63, 64, 65, 127, 128] {
            let mut v = BitVec::zeros(len);
            if len > 0 {
                v.set(len - 1, true);
                v.set(0, true);
            }
            for value in [false, true] {
                let appended = v.append_bit(value);
                assert_eq!(appended.len(), len + 1);
                assert_eq!(appended.get(len), value);
                for i in 0..len {
                    assert_eq!(appended.get(i), v.get(i), "len={len} i={i}");
                }
            }
            for other_len in [0usize, 1, 63, 64, 65] {
                let mut other = BitVec::zeros(other_len);
                if other_len > 0 {
                    other.set(0, true);
                    other.set(other_len - 1, true);
                }
                let joined = v.concat(&other);
                assert_eq!(joined.len(), len + other_len);
                for i in 0..len {
                    assert_eq!(joined.get(i), v.get(i), "len={len}+{other_len} i={i}");
                }
                for i in 0..other_len {
                    assert_eq!(
                        joined.get(len + i),
                        other.get(i),
                        "len={len}+{other_len} j={i}"
                    );
                }
            }
        }
    }

    #[test]
    fn iter_ones_matches_bit_scan() {
        for len in [1usize, 63, 64, 65, 127, 128, 130] {
            let mut v = BitVec::zeros(len);
            for i in [0usize, len / 3, len / 2, len - 1] {
                v.set(i, true);
            }
            let got: Vec<usize> = v.iter_ones().collect();
            let expected: Vec<usize> = (0..len).filter(|&i| v.get(i)).collect();
            assert_eq!(got, expected, "len={len}");
            assert_eq!(got.len(), v.count_ones());
        }
        assert_eq!(BitVec::zeros(130).iter_ones().count(), 0);
        assert_eq!(BitVec::ones(130).iter_ones().count(), 130);
    }

    #[test]
    fn leading_one_positions() {
        assert_eq!(BitVec::zeros(5).leading_one(), None);
        assert_eq!(BitVec::from_u64(1, 5).leading_one(), Some(4));
        assert_eq!(BitVec::from_u64(0b10000, 5).leading_one(), Some(0));
        let mut v = BitVec::zeros(200);
        v.set(137, true);
        assert_eq!(v.leading_one(), Some(137));
    }
}
