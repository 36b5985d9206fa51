//! Row flags: a column's validity (set = value present), a Data Block's or a hot
//! chunk's delete flags (set = record deleted). This module owns the bit order:
//! row `i` is bit `i % 64` of word `i / 64`, and bit `i % 8` of byte `i / 8` in
//! [`Bitmap::to_le_bytes`], the form the flat layout and the wire store. The bits
//! past the length are zero, so equality compares contents.

use std::ops::{Not, Range};

/// One bit per row, 64 to a word.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bitmap {
    /// `len.div_ceil(64)` words.
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// `len` bits held in `words`, the bits past `len` cleared.
    fn from_words(mut words: Vec<u64>, len: usize) -> Bitmap {
        if let (Some(last), tail @ 1..) = (words.last_mut(), len % 64) {
            *last &= u64::MAX >> (64 - tail);
        }
        Bitmap { words, len }
    }

    /// `len` copies of `bit`.
    pub fn filled(len: usize, bit: bool) -> Bitmap {
        Bitmap::from_words(vec![if bit { !0 } else { 0 }; len.div_ceil(64)], len)
    }

    /// `len` bits, bit `i` being `f(i)`, built a word at a time.
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> bool) -> Bitmap {
        let words = (0..len.div_ceil(64)).map(|w| {
            (w * 64..len.min(w * 64 + 64)).fold(0, |word, i| word | (f(i) as u64) << (i % 64))
        });
        Bitmap::from_words(words.collect(), len)
    }

    /// The first `len` bits of `bytes` (see the module docs); the bits past them
    /// are dropped, so no padding read from disk or the wire counts as a row.
    pub fn from_le_bytes(bytes: &[u8], len: usize) -> Bitmap {
        let word = |chunk: &[u8]| chunk.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b));
        let words = bytes[..len.div_ceil(8)].chunks(8).map(word);
        Bitmap::from_words(words.collect(), len)
    }

    /// The bits as `len.div_ceil(8)` bytes (see the module docs).
    pub fn to_le_bytes(&self) -> Vec<u8> {
        let bytes = self.words.iter().flat_map(|w| w.to_le_bytes());
        bytes.take(self.len.div_ceil(8)).collect()
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if there are no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit `i`, which must be below the length.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} of {}", self.len);
        self.words[i / 64] >> (i % 64) & 1 != 0
    }

    /// Set bit `i`, which must be below the length, to `bit`.
    #[inline]
    pub fn set(&mut self, i: usize, bit: bool) {
        assert!(i < self.len, "bit {i} of {}", self.len);
        let word = &mut self.words[i / 64];
        *word = *word & !(1 << (i % 64)) | (bit as u64) << (i % 64);
    }

    /// Append `bit`.
    #[inline]
    pub fn push(&mut self, bit: bool) {
        self.push_bits(bit as u64, 1);
    }

    /// Append copies of `bit` until there are `len` bits.
    pub fn fill_to(&mut self, len: usize, bit: bool) {
        let more = Bitmap::filled(len.saturating_sub(self.len), bit);
        self.extend_from(&more, 0..more.len);
    }

    /// Append bits `range` of `other`, up to 64 at a time whatever either offset.
    pub(crate) fn extend_from(&mut self, other: &Bitmap, range: Range<usize>) {
        assert!(range.end <= other.len, "bits {range:?} of {}", other.len);
        for at in range.clone().step_by(64) {
            let (w, b, n) = (at / 64, at % 64, (range.end - at).min(64));
            let next = other.words.get(w + 1).filter(|_| b + n > 64);
            let bits = other.words[w] >> b | next.map_or(0, |next| next << (64 - b));
            self.push_bits(bits & u64::MAX >> (64 - n), n);
        }
    }

    /// The bits at `positions`, in that order.
    pub fn gather(&self, positions: &[u32]) -> Bitmap {
        Bitmap::from_fn(positions.len(), |k| self.get(positions[k] as usize))
    }

    /// The bits set both here and in `other`, a bitmap of the same length.
    pub fn and(mut self, other: &Bitmap) -> Bitmap {
        assert_eq!(self.len, other.len, "bitmaps of one length");
        (self.words.iter_mut().zip(&other.words)).for_each(|(word, other)| *word &= other);
        self
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The positions of the set bits, ascending.
    pub(crate) fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len).filter(|&i| self.get(i))
    }

    /// Append the low `n` (1 to 64) bits of `bits`, whose higher bits are zero.
    #[inline]
    fn push_bits(&mut self, bits: u64, n: usize) {
        let b = self.len % 64;
        if b == 0 {
            self.words.push(0);
        }
        *self.words.last_mut().expect("a word") |= bits << b;
        if b + n > 64 {
            self.words.push(bits >> (64 - b));
        }
        self.len += n;
    }
}

/// Every bit flipped: the NULLs of a validity bitmap, the live rows of delete flags.
impl Not for &Bitmap {
    type Output = Bitmap;

    fn not(self) -> Bitmap {
        Bitmap::from_words(self.words.iter().map(|w| !w).collect(), self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LENGTHS: [usize; 6] = [0, 1, 63, 64, 65, 1003];

    /// A deterministic pseudo-random stream (SplitMix64).
    fn stream(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    /// `len` model bits, about one in `every` set.
    fn model(len: usize, every: u64, seed: u64) -> Vec<bool> {
        let mut next = stream(seed);
        (0..len).map(|_| next().is_multiple_of(every)).collect()
    }

    /// The model's bits, pushed one by one.
    fn pushed(model: &[bool]) -> Bitmap {
        let mut bitmap = Bitmap::default();
        model.iter().for_each(|&bit| bitmap.push(bit));
        bitmap
    }

    /// The bitmap equals the model bit for bit, and keeps its invariant.
    fn check(bitmap: &Bitmap, model: &[bool]) {
        assert_eq!(bitmap.len(), model.len());
        assert_eq!(bitmap.is_empty(), model.is_empty());
        assert_eq!(bitmap.words.len(), model.len().div_ceil(64), "word count");
        if let (Some(&last), tail @ 1..) = (bitmap.words.last(), model.len() % 64) {
            assert_eq!(last & !(u64::MAX >> (64 - tail)), 0, "bits past the length");
        }
        for (i, &bit) in model.iter().enumerate() {
            assert_eq!(bitmap.get(i), bit, "bit {i} of {}", model.len());
        }
        let ones: Vec<usize> = (0..model.len()).filter(|&i| model[i]).collect();
        assert_eq!(bitmap.ones().collect::<Vec<_>>(), ones);
        assert_eq!(bitmap.count_ones(), ones.len());
        assert_eq!(*bitmap, Bitmap::from_fn(model.len(), |i| model[i]));
    }

    #[test]
    fn builds_and_pushes_match_the_model() {
        for len in LENGTHS {
            for every in [1, 2, 9] {
                let bits = model(len, every, len as u64 * 31 + every);
                check(&pushed(&bits), &bits);
                check(&Bitmap::from_fn(len, |i| bits[i]), &bits);
            }
            check(&Bitmap::filled(len, true), &vec![true; len]);
            check(&Bitmap::filled(len, false), &vec![false; len]);
        }
    }

    #[test]
    fn sets_and_fills_match_the_model() {
        for len in LENGTHS {
            let mut bits = model(len, 3, len as u64);
            let mut bitmap = pushed(&bits);
            let mut next = stream(len as u64 + 7);
            for _ in 0..len.min(200) {
                let (i, bit) = (next() as usize % len, next().is_multiple_of(2));
                bitmap.set(i, bit);
                bits[i] = bit;
            }
            check(&bitmap, &bits);
            for (to, bit) in [(len + 70, true), (len + 73, false), (len + 200, true)] {
                bitmap.fill_to(to, bit);
                bits.resize(to, bit);
                check(&bitmap, &bits);
            }
            bitmap.fill_to(len, false);
            check(&bitmap, &bits);
        }
    }

    #[test]
    fn extends_at_unaligned_offsets_match_the_model() {
        for head in LENGTHS {
            for tail in LENGTHS {
                let (front, back) = (model(head, 2, 1), model(tail, 3, 2));
                let source = pushed(&back);
                for range in [0..tail, tail / 3..tail, tail / 5..tail / 2, tail..tail] {
                    let mut joined = pushed(&front);
                    joined.extend_from(&source, range.clone());
                    check(&joined, &[&front[..], &back[range.clone()]].concat());
                }
            }
        }
    }

    #[test]
    fn gathers_match_the_model() {
        for len in LENGTHS.into_iter().filter(|&len| len > 0) {
            let bits = model(len, 2, 5);
            let bitmap = pushed(&bits);
            let mut next = stream(len as u64);
            let positions: Vec<u32> = (0..len + 17)
                .map(|_| (next() % len as u64) as u32)
                .collect();
            let expected: Vec<bool> = positions.iter().map(|&p| bits[p as usize]).collect();
            check(&bitmap.gather(&positions), &expected);
            check(&bitmap.gather(&[]), &[]);
        }
    }

    #[test]
    fn word_wise_operations_match_the_model() {
        for len in LENGTHS {
            let (a, b) = (model(len, 2, 11), model(len, 3, 12));
            let (bitmap_a, bitmap_b) = (pushed(&a), pushed(&b));
            let and = bitmap_a.clone().and(&bitmap_b);
            check(
                &and,
                &a.iter().zip(&b).map(|(&a, &b)| a && b).collect::<Vec<_>>(),
            );
            check(&!&bitmap_a, &a.iter().map(|&a| !a).collect::<Vec<_>>());
        }
    }

    #[test]
    fn little_endian_bytes_round_trip() {
        for len in LENGTHS {
            let bits = model(len, 2, 21);
            let bitmap = pushed(&bits);
            let bytes = bitmap.to_le_bytes();
            assert_eq!(bytes.len(), len.div_ceil(8));
            for (i, &bit) in bits.iter().enumerate() {
                assert_eq!(bytes[i / 8] >> (i % 8) & 1 != 0, bit, "bit {i}");
            }
            check(&Bitmap::from_le_bytes(&bytes, len), &bits);
        }
    }

    /// Bits past the length in the bytes read (the padding of the last byte, or
    /// whole bytes beyond it) are not rows: they neither count nor compare.
    #[test]
    fn padding_bits_in_bytes_are_ignored() {
        for len in LENGTHS {
            let bits = model(len, 4, 31);
            let clean = Bitmap::from_le_bytes(&pushed(&bits).to_le_bytes(), len);
            let mut dirty = clean.to_le_bytes();
            if len % 8 != 0 {
                *dirty.last_mut().unwrap() |= 0xff << (len % 8);
            }
            dirty.extend_from_slice(&[0xff; 9]);
            let read = Bitmap::from_le_bytes(&dirty, len);
            assert_eq!(read, clean);
            assert_eq!(read.count_ones(), bits.iter().filter(|&&b| b).count());
            check(&read, &bits);
        }
    }
}
