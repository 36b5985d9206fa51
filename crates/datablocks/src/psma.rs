//! Positional Small Materialized Aggregates (PSMA) — the light-weight lookup-table
//! index of Section 3.2 / Appendix B.
//!
//! A PSMA maps a probe value to a *range of positions* inside the Data Block where
//! that value may appear, narrowing the scan even when the block as a whole cannot be
//! skipped. The table has `2^8` slots per byte of the indexed delta domain: the slot
//! of a value `v` is computed from `Δ = v − min` as
//!
//! ```text
//! r = index of the most significant non-zero byte of Δ   (0 for Δ < 256)
//! slot = (Δ >> 8·r) + 256·r
//! ```
//!
//! so deltas that fit in one byte get exclusive slots, 2-byte deltas share a slot with
//! up to 2^8 other values, and so on — the table is deliberately more precise near the
//! block minimum. Each slot stores a half-open position range `[begin, end)`: the first
//! position whose value falls in the slot, and one past the last.
//!
//! A block attribute's table is built over its code vector, with the key domain read
//! off the scheme rather than off the codes: codes run from 0 to the max code, and
//! both ends occur. That domain fixes which slots a code can reach. The build scans
//! forward from the first row until every reachable slot has a begin, then backward
//! from the last row until every slot has an end, so a low-cardinality attribute is
//! indexed in a few rows. A domain with an unoccupied slot costs one full pass, the
//! O(n) scan of Appendix B.

use crate::compression::CodeVec;

/// A half-open range of record positions `[begin, end)` within a Data Block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanRange {
    /// First potentially matching position.
    pub begin: u32,
    /// One past the last potentially matching position.
    pub end: u32,
}

impl ScanRange {
    /// The canonical empty range.
    pub const EMPTY: ScanRange = ScanRange { begin: 0, end: 0 };

    /// A range covering `[0, n)`.
    pub fn full(n: u32) -> ScanRange {
        ScanRange { begin: 0, end: n }
    }

    /// True if the range contains no positions.
    pub fn is_empty(&self) -> bool {
        self.begin >= self.end
    }

    /// Number of positions covered.
    pub fn len(&self) -> u32 {
        self.end.saturating_sub(self.begin)
    }

    /// Smallest range containing both (used when unioning slot ranges for range
    /// predicates — empty ranges are identities).
    pub fn union(&self, other: &ScanRange) -> ScanRange {
        if self.is_empty() {
            *other
        } else if other.is_empty() {
            *self
        } else {
            ScanRange {
                begin: self.begin.min(other.begin),
                end: self.end.max(other.end),
            }
        }
    }

    /// Intersection (used to combine ranges from PSMAs on different attributes).
    pub fn intersect(&self, other: &ScanRange) -> ScanRange {
        let begin = self.begin.max(other.begin);
        let end = self.end.min(other.end);
        if begin >= end {
            ScanRange::EMPTY
        } else {
            ScanRange { begin, end }
        }
    }
}

/// Compute the PSMA slot of a delta value (Appendix B's `getPSMASlot`).
#[inline]
pub fn psma_slot(delta: u64) -> usize {
    // r = index of the most significant non-zero byte (0 for values < 256),
    // counted with comparisons: without `lzcnt`, `leading_zeros` made a build
    // over 65 536 two-byte codes 2.4× slower.
    let r: usize = (1..8).map(|byte| (delta >> (8 * byte) != 0) as usize).sum();
    let msb = (delta >> (r << 3)) as usize;
    msb + (r << 8)
}

/// Number of lookup-table slots needed to index deltas up to `max_delta`.
///
/// The table always has a multiple of 256 slots — one group of 256 per byte of the
/// maximum delta (2 KB for 1-byte deltas, 4 KB for 2-byte, 8 KB for 4-byte, as the
/// paper reports; each slot is two `u32`s).
pub fn psma_slots_for(max_delta: u64) -> usize {
    let bytes = if max_delta == 0 {
        1
    } else {
        8 - (max_delta.leading_zeros() as usize >> 3)
    };
    bytes * 256
}

/// The Positional SMA lookup table for one attribute of one Data Block.
#[derive(Debug, Clone, PartialEq)]
pub struct Psma {
    slots: Vec<ScanRange>,
    /// The attribute minimum the deltas are relative to.
    min: i64,
    /// The attribute maximum (probes outside `[min, max]` return the empty range).
    max: i64,
}

impl Psma {
    /// Build a PSMA over the integer key space `keys` (attribute values, dictionary
    /// codes, or biased doubles — anything totally ordered and convertible to `i64`).
    ///
    /// `keys[i]` is the key of the record at position `i`; the build is at most
    /// one O(n) scan (Appendix B) after the min/max passes.
    pub fn build(keys: &[i64]) -> Option<Psma> {
        let min = *keys.iter().min()?;
        let max = *keys.iter().max()?;
        Some(Psma::build_bounded(keys, min, max, |key| key))
    }

    /// Build the PSMA of a block attribute over its code vector, the key space a
    /// Data Block indexes: for truncation the code *is* the delta to the block
    /// minimum, and dictionary codes order like the values they stand for.
    /// `max_code` comes from the scheme, and 0 and `max_code` must both occur
    /// in `codes`; then the table equals [`Psma::build`] over the codes read as
    /// `i64`. One width dispatch for the whole vector. `None` for an empty
    /// vector, or a domain wider than the `i64` keys a probe takes.
    pub fn of_codes(codes: &CodeVec, max_code: u64) -> Option<Psma> {
        if codes.is_empty() || max_code > i64::MAX as u64 {
            return None;
        }
        let max = max_code as i64;
        Some(match codes {
            CodeVec::U8(v) => Psma::build_bounded(v, 0, max, |code| code as i64),
            CodeVec::U16(v) => Psma::build_bounded(v, 0, max, |code| code as i64),
            CodeVec::U32(v) => Psma::build_bounded(v, 0, max, |code| code as i64),
            CodeVec::U64(v) => Psma::build_bounded(v, 0, max, |code| code as i64),
        })
    }

    /// The table over `keys`, whose smallest key is `min` and largest `max`.
    /// Forward until every slot the domain reaches has a begin, then backward
    /// until every slot has an end; the result equals one forward pass that
    /// widens each slot's range at every row.
    fn build_bounded<T: Copy>(keys: &[T], min: i64, max: i64, key: impl Fn(T) -> i64) -> Psma {
        let domain = max.wrapping_sub(min) as u64;
        let slot = |k: T| psma_slot(key(k).wrapping_sub(min) as u64);
        let mut slots = vec![ScanRange::EMPTY; psma_slots_for(domain)];
        // Every slot up to the domain's is reachable but 256·r for r ≥ 1: a
        // delta whose leading byte is byte r has that byte non-zero.
        let reachable = psma_slot(domain) + 1 - psma_slot(domain) / 256;

        let mut filled = 0;
        let mut last = keys.len();
        for (tid, &k) in keys.iter().enumerate() {
            let tid = tid as u32;
            let entry = &mut slots[slot(k)];
            if entry.is_empty() {
                *entry = ScanRange {
                    begin: tid,
                    end: tid + 1,
                };
                filled += 1;
                if filled == reachable {
                    last = tid as usize;
                    break;
                }
            } else {
                entry.end = tid + 1;
            }
        }
        // Every end is still at most `last + 1`; a later row moves its slot's
        // end past that once, and the first such row backward is the last one.
        let mut ended = 0;
        for (tid, &k) in keys.iter().enumerate().skip(last + 1).rev() {
            let entry = &mut slots[slot(k)];
            if entry.end <= last as u32 + 1 {
                entry.end = tid as u32 + 1;
                ended += 1;
                if ended == reachable {
                    break;
                }
            }
        }
        Psma { slots, min, max }
    }

    /// The minimum key the table was built over.
    pub fn min(&self) -> i64 {
        self.min
    }

    /// The maximum key the table was built over.
    pub fn max(&self) -> i64 {
        self.max
    }

    /// Size of the lookup table in bytes (each slot is a `[begin, end)` pair of
    /// 4-byte unsigned integers).
    pub fn byte_size(&self) -> usize {
        self.slots.len() * 8
    }

    /// Scan range for an equality probe `key = value` — a single table lookup.
    pub fn probe_eq(&self, value: i64) -> ScanRange {
        if value < self.min || value > self.max {
            return ScanRange::EMPTY;
        }
        self.slots[psma_slot((value - self.min) as u64)]
    }

    /// Scan range for a range probe `lo <= key <= hi`: the union of all non-empty slot
    /// ranges between the slots of `lo` and `hi` (clamped to the block domain).
    pub fn probe_range(&self, lo: i64, hi: i64) -> ScanRange {
        let lo = lo.max(self.min);
        let hi = hi.min(self.max);
        if lo > hi {
            return ScanRange::EMPTY;
        }
        let slot_lo = psma_slot((lo - self.min) as u64);
        let slot_hi = psma_slot((hi - self.min) as u64);
        let mut range = ScanRange::EMPTY;
        for slot in slot_lo..=slot_hi {
            range = range.union(&self.slots[slot]);
        }
        range
    }
}

/// Appendix B's build as written: the min and max passes, then one forward
/// pass that widens a slot's range at every row. The reference the bounded
/// build must equal.
#[cfg(test)]
pub(crate) fn reference_build(keys: &[i64]) -> Option<Psma> {
    let min = *keys.iter().min()?;
    let max = *keys.iter().max()?;
    let mut slots = vec![ScanRange::EMPTY; psma_slots_for(max.wrapping_sub(min) as u64)];
    for (tid, &key) in keys.iter().enumerate() {
        let entry = &mut slots[psma_slot(key.wrapping_sub(min) as u64)];
        if entry.is_empty() {
            *entry = ScanRange {
                begin: tid as u32,
                end: tid as u32 + 1,
            };
        } else {
            entry.end = tid as u32 + 1;
        }
    }
    Some(Psma { slots, min, max })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_of_small_deltas_is_identity() {
        for d in 0..256u64 {
            assert_eq!(psma_slot(d), d as usize);
        }
    }

    #[test]
    fn slot_of_wider_deltas_uses_leading_byte() {
        // paper example: probe 998 with min 2 → delta 996 = 0x03E4 → second byte 0x03,
        // one remaining byte → slot 3 + 256 = 259
        assert_eq!(psma_slot(996), 259);
        // delta 0x0100 → msb 1, r = 1 → 257
        assert_eq!(psma_slot(256), 257);
        // delta 0x01_0000 → msb 1, r = 2 → 513
        assert_eq!(psma_slot(1 << 16), 513);
        // delta with the top byte set
        assert_eq!(psma_slot(0xFF00_0000_0000_0000), 255 + 7 * 256);
    }

    #[test]
    fn slots_for_domain_sizes() {
        assert_eq!(psma_slots_for(0), 256);
        assert_eq!(psma_slots_for(255), 256);
        assert_eq!(psma_slots_for(256), 512);
        assert_eq!(psma_slots_for(65_535), 512);
        assert_eq!(psma_slots_for(65_536), 768);
        assert_eq!(psma_slots_for(u32::MAX as u64), 1024);
    }

    #[test]
    fn typical_byte_sizes_match_paper() {
        // 1-, 2- and 4-byte delta domains → 2 KB, 4 KB and 8 KB lookup tables.
        let one_byte = Psma::build(&(0..=255i64).collect::<Vec<_>>()).unwrap();
        assert_eq!(one_byte.byte_size(), 2 * 1024);
        let two_byte = Psma::build(&[0, 65_535]).unwrap();
        assert_eq!(two_byte.byte_size(), 4 * 1024);
        let four_byte = Psma::build(&[0, u32::MAX as i64]).unwrap();
        assert_eq!(four_byte.byte_size(), 8 * 1024);
    }

    #[test]
    fn paper_figure4_example() {
        // data = (7, 2, 6, 42, 128, 7, 998, 2, 42, 5), min = 2
        let data = [7i64, 2, 6, 42, 128, 7, 998, 2, 42, 5];
        let psma = Psma::build(&data).unwrap();
        assert_eq!(psma.min(), 2);
        assert_eq!(psma.max(), 998);
        // probe 7 → delta 5 → slot 5 → range [0, 6): positions 0 and 5 hold value 7,
        // and the slot was widened by every other delta-5 insertion in between.
        assert_eq!(psma.probe_eq(7), ScanRange { begin: 0, end: 6 });
        // probe 998 → delta 996 → slot 259 → only position 6
        assert_eq!(psma.probe_eq(998), ScanRange { begin: 6, end: 7 });
        // probe 2 (the minimum itself) → delta 0 → slot 0 → positions 1..8
        assert_eq!(psma.probe_eq(2), ScanRange { begin: 1, end: 8 });
        // value outside the domain
        assert_eq!(psma.probe_eq(1), ScanRange::EMPTY);
        assert_eq!(psma.probe_eq(1_000), ScanRange::EMPTY);
    }

    #[test]
    fn probe_eq_ranges_always_cover_value_positions() {
        // deterministic pseudo-random data: every occurrence of a probed value must be
        // inside the returned range
        let mut x = 12345u64;
        let keys: Vec<i64> = (0..4096)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((x >> 33) % 10_000) as i64
            })
            .collect();
        let psma = Psma::build(&keys).unwrap();
        for probe in [0i64, 1, 17, 500, 5_000, 9_999] {
            let range = psma.probe_eq(probe);
            for (pos, &k) in keys.iter().enumerate() {
                if k == probe {
                    assert!(
                        (pos as u32) >= range.begin && (pos as u32) < range.end,
                        "position {pos} of value {probe} outside range {range:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn probe_range_covers_all_matching_positions() {
        let keys: Vec<i64> = (0..1000).map(|i| (i * 37) % 1000).collect();
        let psma = Psma::build(&keys).unwrap();
        let (lo, hi) = (100, 300);
        let range = psma.probe_range(lo, hi);
        for (pos, &k) in keys.iter().enumerate() {
            if k >= lo && k <= hi {
                assert!((pos as u32) >= range.begin && (pos as u32) < range.end);
            }
        }
    }

    #[test]
    fn probe_range_outside_domain_is_empty() {
        let psma = Psma::build(&[10, 20, 30]).unwrap();
        assert!(psma.probe_range(40, 100).is_empty());
        assert!(psma.probe_range(0, 9).is_empty());
        assert!(!psma.probe_range(0, 15).is_empty());
    }

    #[test]
    fn sorted_data_gives_tight_ranges() {
        // On data sorted by the key, PSMA ranges should be narrow for small deltas.
        let keys: Vec<i64> = (0..256).flat_map(|v| std::iter::repeat_n(v, 4)).collect();
        let psma = Psma::build(&keys).unwrap();
        let r = psma.probe_eq(100);
        assert_eq!(
            r,
            ScanRange {
                begin: 400,
                end: 404
            }
        );
    }

    #[test]
    fn build_on_empty_input_returns_none() {
        assert!(Psma::build(&[]).is_none());
        assert!(Psma::of_codes(&CodeVec::U8(Vec::new()), 0).is_none());
    }

    #[test]
    fn of_codes_equals_the_build_over_codes_as_i64_at_every_width() {
        let mut x = 99u64;
        let mut next = |bound: u64| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 17) % bound
        };
        let vectors: Vec<Vec<u64>> = vec![
            vec![0],
            vec![41],
            vec![7; 300],
            (0..5000).map(|_| next(200)).collect(),
            (0..5000).map(|_| next(60_000)).collect(),
            (0..5000).map(|_| next(3_000_000_000)).collect(),
            (0..5000).map(|_| next(1 << 40)).collect(),
            (0..1000).map(|row| row / 10).collect(),
            (0..1000).map(|row| (999 - row) / 10).collect(),
        ];
        for mut raw in vectors {
            // codes run from 0, as every scheme's do
            let min = raw.iter().copied().min().unwrap();
            raw.iter_mut().for_each(|code| *code -= min);
            let keys: Vec<i64> = raw.iter().map(|&c| c as i64).collect();
            let reference = reference_build(&keys);
            assert_eq!(Psma::build(&keys), reference);
            let max = raw.iter().copied().max().unwrap();
            let encoded = [
                CodeVec::U8(raw.iter().map(|&c| c as u8).collect()),
                CodeVec::U16(raw.iter().map(|&c| c as u16).collect()),
                CodeVec::U32(raw.iter().map(|&c| c as u32).collect()),
                CodeVec::U64(raw.clone()),
            ];
            for codes in encoded {
                // every width that holds the codes, not just the narrowest
                if max >> (codes.byte_width() * 8).min(63) != 0 {
                    continue;
                }
                assert_eq!(Psma::of_codes(&codes, max), reference, "{codes:?}");
            }
        }
    }

    #[test]
    fn scan_range_set_operations() {
        let a = ScanRange { begin: 10, end: 20 };
        let b = ScanRange { begin: 15, end: 30 };
        assert_eq!(a.union(&b), ScanRange { begin: 10, end: 30 });
        assert_eq!(a.intersect(&b), ScanRange { begin: 15, end: 20 });
        assert_eq!(a.union(&ScanRange::EMPTY), a);
        assert_eq!(ScanRange::EMPTY.union(&b), b);
        assert!(a.intersect(&ScanRange { begin: 30, end: 40 }).is_empty());
        assert_eq!(ScanRange::full(5), ScanRange { begin: 0, end: 5 });
        assert_eq!(a.len(), 10);
        assert_eq!(ScanRange::EMPTY.len(), 0);
    }

    #[test]
    fn build_equals_the_reference_on_any_key_domain() {
        let mut x = 7u64;
        let mut next = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x as i64
        };
        let key_sets: Vec<Vec<i64>> = vec![
            vec![-5],
            vec![i64::MIN, i64::MAX],
            vec![i64::MAX, 0, i64::MIN, -1, 1],
            (0..3000).map(|_| next() % 3 - 1_000).collect(),
            (0..3000).map(|_| next() >> 50).collect(),
            (0..3000).map(|_| next()).collect(),
            // every slot of a 2-byte domain, then the domain ends
            (0..4096).map(|i| i % 600).chain([-7, 70_000]).collect(),
        ];
        for keys in key_sets {
            assert_eq!(Psma::build(&keys), reference_build(&keys), "{keys:?}");
        }
        assert_eq!(
            Psma::of_codes(&CodeVec::U64(vec![0, u64::MAX]), u64::MAX),
            None
        );
    }

    #[test]
    fn negative_keys_are_supported() {
        let keys = [-100i64, -50, 0, 50, 100];
        let psma = Psma::build(&keys).unwrap();
        assert_eq!(psma.min(), -100);
        let r = psma.probe_eq(-50);
        assert!(r.begin <= 1 && r.end > 1);
        assert!(psma.probe_eq(-101).is_empty());
    }
}
