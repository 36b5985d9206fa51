//! The table-scan subsystem: one interface over hot uncompressed chunks and cold
//! compressed Data Blocks (Figure 6), with three execution flavours.
//!
//! * [`ScanMode::Jit`] models the original JIT-compiled tuple-at-a-time scan: records
//!   are read one at a time and the scan restrictions are evaluated per tuple inside
//!   the consuming loop (no match vectors, no SIMD). In the real HyPer this loop is
//!   generated LLVM code; here it is the equivalent interpreted loop (the cost of
//!   *generating* it, the paper's Figure 5, is not reproduced).
//! * [`ScanMode::Vectorized { sarg: false }`] is the interpreted vectorized scan
//!   without predicate push-down: the scan copies vectors of records into temporary
//!   storage and the restrictions are evaluated tuple at a time afterwards.
//! * [`ScanMode::Vectorized { sarg: true }`] pushes SARGable restrictions into the
//!   scan, where they are evaluated on whole vectors — on compressed Data Blocks this
//!   runs the SIMD kernels directly on the code words and benefits from SMA skipping
//!   and PSMA range narrowing.
//!
//! Whatever the mode, the scanner yields [`Batch`]es of the requested attributes for
//! records that satisfy all restrictions, so the pipeline above is oblivious to the
//! storage layout and to the scan flavour.
//!
//! Internally the scanner walks the source's morsels — the storage layer's own
//! [`Segment`]s, every frozen block and then every hot chunk, each scanned whole
//! (a hot chunk in `vector_size` windows) — and every morsel is scanned by the one
//! routine the morsel workers run, `RelationScanner::stream_morsel`. With one worker
//! ([`ScanConfig::threads`] resolving to 1) the pull is an adapter over it on the
//! calling thread — the next morsel's batches go into a queue the pull pops, so it
//! needs neither a thread nor a channel and buffers at most one morsel; any other
//! count starts the **bounded streaming morsel pipeline** of
//! [`crate::morsel::drive_streaming`] and pulls its (deterministically ordered)
//! batches off the reorder channel one at a time — peak buffering is the configured
//! [`ScanConfig::channel_cap`], never the whole relation. The batches are
//! byte-identical either way.
//!
//! # Failure and cancellation
//!
//! A spilled block that cannot be paged in is a typed [`ColdReadError`] from
//! [`RelationScanner::try_next_batch`]. A raised [`crate::CancelToken`] (see
//! [`crate::cancel`]) stops the scan at the next morsel boundary; the scanner's pull
//! is typed for cold reads only, so it reports the end of the scan, and
//! [`crate::ScanOp`] — the scanner as an operator — gives that end its name,
//! [`crate::Error::Cancelled`].
//!
//! The scanner is generic over [`ScanSource`]: a borrowed [`Relation`] for the
//! calling-thread walk and the pipeline workers, or an owned
//! [`storage::ScanSnapshot`] inside the streaming workers.
//!
//! Cold blocks may live on secondary storage (`storage::blockstore`). The scanner
//! first consults the relation's in-memory block directory
//! ([`ScanSource::cold_block_may_match`]): an SMA-pruned cold block is counted as
//! skipped **without any disk I/O**, preserving the paper's scan-skipping for
//! evicted blocks. A block that cannot be pruned is resolved through
//! [`ScanSource::cold_block_columns`] with the attributes the scan reads — its
//! projection and every restricted attribute, in every [`ScanMode`] — so a
//! spilled block pages in only those. The returned (possibly pinned) reference
//! is held exactly for the duration of the morsel — released as soon as the
//! morsel's batches have been handed off, so at most one pin per scan worker is
//! ever live.
//! Scan results are byte-identical whatever tier a block occupies; only I/O
//! counters change.

use std::collections::VecDeque;

use datablocks::scan::Restriction;
use datablocks::unpack::unpack_columns;
use datablocks::{Column, DataType, ScanOptions, Value};
use storage::{ColdReadError, HotChunk, Relation, ScanSource, Segment};

use crate::batch::Batch;
use crate::morsel::{self, ScanStream};
use crate::Error;

/// How the scan executes (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanMode {
    /// Tuple-at-a-time evaluation in the consuming loop (models the JIT-compiled
    /// scan of the original engine).
    Jit,
    /// Interpreted vectorized scan; `sarg` controls whether SARGable restrictions are
    /// pushed into the scan (vector-wise, SIMD on compressed data) or evaluated tuple
    /// at a time after the copy.
    Vectorized {
        /// Push SARGable restrictions into the scan.
        sarg: bool,
    },
}

/// Complete scan configuration. There is no morsel size: a morsel is one frozen
/// block or one hot chunk, whatever the configuration (see [`crate::morsel`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScanConfig {
    /// Execution flavour.
    pub mode: ScanMode,
    /// Block-level options (ISA level, vector size, SMA/PSMA usage).
    pub options: ScanOptions,
    /// How many morsel workers run whatever this configuration drives — a scan or
    /// a scan-fed aggregate (every other operator, the join build included, runs on
    /// the thread that pulls it): `1` (the default) is one worker inline on the
    /// calling thread, `0` is one per hardware thread, any other value spawns
    /// exactly that many. It is a worker count, never a code path: every count
    /// runs the same morsel loop, sinks and merge ([`crate::morsel`]), and results
    /// are equal across counts up to the reassociation of sums over doubles.
    pub threads: usize,
    /// Capacity, in batches, of the streaming scan's reorder channel (the bound on
    /// batches buffered between the morsel workers and the consumer). One slot is
    /// reserved for the head-of-line morsel so the reorder stage can never
    /// deadlock; `0` picks a default of `2 × workers + 2`. Ignored by one-worker
    /// scans, which buffer at most one morsel's output.
    pub channel_cap: usize,
}

impl Default for ScanConfig {
    fn default() -> Self {
        ScanConfig {
            mode: ScanMode::Vectorized { sarg: true },
            options: ScanOptions::default(),
            threads: 1,
            channel_cap: 0,
        }
    }
}

impl ScanConfig {
    /// The paper's Table 2 / Table 4 configurations by name, for the bench harness:
    /// `"jit"`, `"vectorized"`, `"vectorized+sarg"`, `"datablocks"`,
    /// `"datablocks+sarg"`, `"datablocks+psma"`.
    pub fn named(name: &str) -> ScanConfig {
        let mut config = ScanConfig::default();
        match name {
            "jit" => config.mode = ScanMode::Jit,
            "vectorized" | "datablocks" => config.mode = ScanMode::Vectorized { sarg: false },
            "vectorized+sarg" | "datablocks+sarg" => {
                config.mode = ScanMode::Vectorized { sarg: true };
                config.options.use_psma = false;
            }
            "datablocks+psma" => {
                config.mode = ScanMode::Vectorized { sarg: true };
                config.options.use_psma = true;
            }
            other => panic!("unknown scan configuration {other:?}"),
        }
        config
    }

    /// The same configuration scanning with `threads` workers (see
    /// [`ScanConfig::threads`]).
    pub fn with_threads(mut self, threads: usize) -> ScanConfig {
        self.threads = threads;
        self
    }

    /// The same configuration with a specific streaming-channel capacity (see
    /// [`ScanConfig::channel_cap`]).
    pub fn with_channel_cap(mut self, channel_cap: usize) -> ScanConfig {
        self.channel_cap = channel_cap;
        self
    }
}

/// Counters describing what a scan actually did (block skipping, range narrowing).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Cold blocks examined.
    pub blocks_total: usize,
    /// Cold blocks skipped entirely (SMA or dictionary probe).
    pub blocks_skipped: usize,
    /// Records within the narrowed scan ranges (what was actually scanned).
    pub rows_scanned: usize,
    /// Records that satisfied all restrictions.
    pub rows_matched: usize,
}

impl ScanStats {
    /// Fold another worker's counters into this one (used when merging the stats of
    /// parallel scan workers; every counter is a plain sum).
    pub fn merge(&mut self, other: &ScanStats) {
        self.blocks_total += other.blocks_total;
        self.blocks_skipped += other.blocks_skipped;
        self.rows_scanned += other.rows_scanned;
        self.rows_matched += other.rows_matched;
    }
}

/// Resolve a projection to its output column types once, at scanner construction.
fn projection_types<S: ScanSource>(source: &S, projection: &[usize]) -> Vec<DataType> {
    projection
        .iter()
        .map(|&col| source.column_type(col))
        .collect()
}

/// A streaming scan over one relation (or an owned snapshot of one — see
/// [`ScanSource`]).
pub struct RelationScanner<'a, S: ScanSource = Relation> {
    source: &'a S,
    projection: Vec<usize>,
    /// Output column types of the projection — invariant for the scanner's lifetime,
    /// computed once so the per-window paths never walk the schema or allocate.
    output_types: Vec<DataType>,
    restrictions: Vec<Restriction>,
    /// The attributes a cold morsel pages in: the projection and every
    /// restricted attribute, in attribute order.
    read_columns: Vec<usize>,
    config: ScanConfig,
    stats: ScanStats,
    /// The next morsel the one-worker pull claims (an index into the source's
    /// segments, cold blocks first).
    morsel_idx: usize,
    /// Batches of the morsel the one-worker pull scanned last, not yet handed out
    /// (a cold block's pin is released before they are). The morsel workers bypass
    /// this queue and emit into their sink or the bounded channel directly.
    pending: VecDeque<Batch>,
    match_buf: Vec<u32>,
    /// The bounded streaming pipeline, started on the first `next_batch` call when
    /// `config.threads != 1`. Owns its workers; joined when the stream ends (or on
    /// drop, cancelling the workers).
    stream: Option<ScanStream>,
}

impl<'a, S: ScanSource> RelationScanner<'a, S> {
    /// Start a scan of `source` producing the attributes in `projection` for every
    /// record satisfying all `restrictions`.
    pub fn new(
        source: &'a S,
        projection: Vec<usize>,
        restrictions: Vec<Restriction>,
        mut config: ScanConfig,
    ) -> Self {
        // Resolve `threads: 0` (= all hardware threads) up front: when that comes to
        // 1 — a single-core machine — the scan takes the serial path instead of
        // paying the streaming pipeline's thread and channel overhead for no
        // parallelism.
        config.threads = morsel::effective_threads(config.threads);
        let mut read_columns: Vec<usize> = (projection.iter().copied())
            .chain(restrictions.iter().map(Restriction::column))
            .collect();
        read_columns.sort_unstable();
        read_columns.dedup();
        RelationScanner {
            source,
            output_types: projection_types(source, &projection),
            projection,
            restrictions,
            read_columns,
            config,
            stats: ScanStats::default(),
            morsel_idx: 0,
            pending: VecDeque::new(),
            match_buf: Vec::new(),
            stream: None,
        }
    }

    /// A scanner for a morsel worker: identical configuration but serial execution,
    /// whatever `config.threads` says (the worker feeds the morsels it claims in
    /// via [`Self::stream_morsel`]). The worker's scratch buffers (match vector and
    /// its growth) live in this scanner and are reused across every morsel the
    /// worker processes.
    pub(crate) fn for_worker(
        source: &'a S,
        projection: &[usize],
        restrictions: &[Restriction],
        config: ScanConfig,
    ) -> Self {
        let config = ScanConfig {
            threads: 1,
            ..config
        };
        Self::new(source, projection.to_vec(), restrictions.to_vec(), config)
    }

    /// Scan statistics accumulated so far (complete once the scan returned `None`).
    /// While a streaming parallel scan is still in flight this is the workers'
    /// live snapshot, not zeros.
    pub fn stats(&self) -> ScanStats {
        match &self.stream {
            Some(stream) => stream.stats(),
            None => self.stats,
        }
    }

    /// The output column types of the batches this scanner produces.
    pub fn output_types(&self) -> Vec<DataType> {
        self.output_types.clone()
    }

    /// [`RelationScanner::try_next_batch`] without the `Result`, for callers whose
    /// relation has no spilled block (or who treat an unreadable one as fatal): the
    /// error fails an `expect`.
    pub fn next_batch(&mut self) -> Option<Batch> {
        self.try_next_batch()
            .expect("a cold block could not be paged in (try_next_batch returns this)")
    }

    /// Produce the next non-empty batch, or `None` at the end of the scan. A
    /// spilled block that cannot be paged in surfaces as a [`ColdReadError`] naming
    /// the block's on-disk position; with several workers the error has cancelled
    /// the stream and joined every worker before it is returned. A raised cancel
    /// token ends the scan at the next morsel boundary (see the module docs).
    pub fn try_next_batch(&mut self) -> Result<Option<Batch>, ColdReadError> {
        if self.config.threads != 1 {
            return self.next_streamed_batch();
        }
        // One worker: the claim loop of `morsel::run_worker`, a morsel per pull.
        loop {
            if let Some(batch) = self.pending.pop_front() {
                return Ok(Some(batch));
            }
            if crate::cancel::current_is_cancelled() {
                return Ok(None);
            }
            let Some(segment) = self.source.segment(self.morsel_idx) else {
                return Ok(None);
            };
            self.morsel_idx += 1;
            let mut pending = std::mem::take(&mut self.pending);
            let scanned = self.stream_morsel(segment, &mut |batch| {
                pending.push_back(batch);
                true
            });
            self.pending = pending;
            scanned?;
        }
    }

    /// Start the bounded streaming pipeline on first use, then pull one batch per
    /// call off its reorder channel. The stream has joined its workers (and its
    /// statistics are final) whenever it reports anything but a batch.
    fn next_streamed_batch(&mut self) -> Result<Option<Batch>, ColdReadError> {
        if self.stream.is_none() {
            self.stream = Some(morsel::drive_streaming(
                self.source.snapshot(),
                self.projection.clone(),
                self.restrictions.clone(),
                self.config,
            ));
        }
        let stream = self.stream.as_mut().expect("started above");
        match stream.try_next_batch() {
            Ok(Some(batch)) => Ok(Some(batch)),
            Ok(None) | Err(Error::Cancelled) => {
                self.stats = stream.stats();
                Ok(None)
            }
            Err(Error::ColdRead(err)) => Err(err),
        }
    }

    /// Scan one morsel, a whole frozen block or a whole hot chunk, to completion,
    /// handing every non-empty batch to `emit` as it is produced — no per-morsel
    /// materialisation. For a cold morsel the block reference (the pin, when the
    /// block is spilled) is held across the `emit` calls and released as soon as
    /// the last batch has been handed off, so a backpressured worker holds at most
    /// one pin while it waits. Returns
    /// `Ok(false)` if `emit` asked to stop (a cancelled stream), and a
    /// [`ColdReadError`] when a cold block cannot be paged in.
    ///
    /// This is the only way a morsel is scanned: [`crate::morsel::drive_streaming`],
    /// [`crate::morsel::drive_pipeline`] and the one-worker pull all go through it,
    /// so the block counters below are bumped in one place.
    pub(crate) fn stream_morsel(
        &mut self,
        segment: Segment,
        emit: &mut dyn FnMut(Batch) -> bool,
    ) -> Result<bool, ColdReadError> {
        match segment {
            Segment::Cold(block_idx) => {
                self.stats.blocks_total += 1;
                if self.prune_cold_block(block_idx) {
                    self.stats.blocks_skipped += 1;
                    return Ok(true);
                }
                let block = (self.source).cold_block_columns(block_idx, &self.read_columns)?;
                let mut matched = 0usize;
                let keep_going = {
                    let mut counted = |batch: Batch| {
                        matched += batch.len();
                        emit(batch)
                    };
                    self.scan_cold_block(&block, &mut counted)
                };
                self.stats.rows_matched += matched;
                Ok(keep_going)
                // `block` dropped here: the pin is released the moment the morsel's
                // batches have been handed off.
            }
            Segment::Hot(chunk_idx) => {
                let source = self.source;
                let chunk = &source.hot_chunks()[chunk_idx];
                let rows = chunk.len();
                self.stats.rows_scanned += rows;
                let vector_size = self.config.options.vector_size;
                let mut cursor = 0;
                while cursor < rows {
                    let end = (cursor + vector_size).min(rows);
                    let batch = self.scan_hot_rows(chunk, cursor, end);
                    cursor = end;
                    if !batch.is_empty() {
                        self.stats.rows_matched += batch.len();
                        if !emit(batch) {
                            return Ok(false);
                        }
                    }
                }
                Ok(true)
            }
        }
    }

    /// Drain the whole scan into a single batch (convenience for tests and small
    /// pipeline breakers).
    pub fn collect_all(&mut self) -> Batch {
        let mut out = Batch::new(&self.output_types);
        while let Some(batch) = self.next_batch() {
            out.append(&batch);
        }
        out
    }

    // ------------------------------------------------------------- cold segments

    /// Should cold block `block_idx` be skipped from the in-memory directory
    /// summary, before any I/O? Only the SARG-pushdown mode prunes: the other modes
    /// scan every block (and count every row as scanned), and pruning would skew
    /// their statistics relative to an all-in-memory run.
    fn prune_cold_block(&self, block_idx: usize) -> bool {
        matches!(self.config.mode, ScanMode::Vectorized { sarg: true })
            && !self.source.cold_block_may_match(
                block_idx,
                &self.restrictions,
                &self.config.options,
            )
    }

    /// Scan one (non-pruned) cold block in the configured mode, handing each
    /// non-empty result batch to `emit`. Returns `false` if `emit` asked to stop.
    fn scan_cold_block(
        &mut self,
        block: &datablocks::DataBlock,
        emit: &mut dyn FnMut(Batch) -> bool,
    ) -> bool {
        match self.config.mode {
            ScanMode::Jit => self.collect_cold_tuple_at_a_time(block, emit),
            ScanMode::Vectorized { sarg } => self.collect_cold_vectorized(block, sarg, emit),
        }
    }

    fn collect_cold_vectorized(
        &mut self,
        block: &datablocks::DataBlock,
        sarg: bool,
        emit: &mut dyn FnMut(Batch) -> bool,
    ) -> bool {
        let pushed: &[Restriction] = if sarg { &self.restrictions } else { &[] };
        let mut scan = datablocks::BlockScan::new(block, pushed, self.config.options);
        if scan.plan().is_ruled_out() {
            self.stats.blocks_skipped += 1;
            return true;
        }
        self.stats.rows_scanned += scan.plan().scan_range().len() as usize;
        // The scanner-owned match buffer is moved out for the duration of the morsel
        // so the block scan can fill it while `self` stays borrowable.
        let mut matches = std::mem::take(&mut self.match_buf);
        while let Some(found) = scan.next_matches(&mut matches) {
            if found == 0 {
                continue;
            }
            let batch = if sarg {
                // Matches already satisfy every restriction: unpack the projection.
                let mut columns: Vec<Column> =
                    self.output_types.iter().map(|&t| Column::new(t)).collect();
                unpack_columns(block, &self.projection, &matches, &mut columns);
                Batch::from_columns(columns)
            } else {
                // No push-down: evaluate the restrictions tuple at a time on the
                // matched positions, copying the projection of the qualifying ones.
                let positions = matches.iter().map(|&pos| pos as usize);
                self.copy_qualifying(positions, |row, col| block.get(row, col))
            };
            if !batch.is_empty() && !emit(batch) {
                self.match_buf = matches;
                return false;
            }
        }
        self.match_buf = matches;
        true
    }

    fn collect_cold_tuple_at_a_time(
        &mut self,
        block: &datablocks::DataBlock,
        emit: &mut dyn FnMut(Batch) -> bool,
    ) -> bool {
        let total = block.tuple_count() as usize;
        self.stats.rows_scanned += total;
        let vector_size = self.config.options.vector_size;
        let mut cursor = 0;
        while cursor < total {
            let end = (cursor + vector_size).min(total);
            let live = (cursor..end).filter(|&row| !block.is_deleted(row));
            let batch = self.copy_qualifying(live, |row, col| block.get(row, col));
            if !batch.is_empty() && !emit(batch) {
                return false;
            }
            cursor = end;
        }
        true
    }

    // -------------------------------------------------------------- hot segments

    /// The qualifying records among rows `[from, to)` of a hot chunk (one vector).
    fn scan_hot_rows(&mut self, chunk: &HotChunk, from: usize, to: usize) -> Batch {
        let get = |row, col| chunk.get(row, col);
        match self.config.mode {
            ScanMode::Jit => {
                self.copy_qualifying((from..to).filter(|&row| !chunk.is_deleted(row)), get)
            }
            ScanMode::Vectorized { sarg } => {
                self.match_buf.clear();
                let pushed: &[Restriction] = if sarg { &self.restrictions } else { &[] };
                chunk.find_matches(pushed, from, to, &mut self.match_buf);
                if !sarg {
                    return self
                        .copy_qualifying(self.match_buf.iter().map(|&pos| pos as usize), get);
                }
                let mut columns: Vec<Column> =
                    self.output_types.iter().map(|&t| Column::new(t)).collect();
                for (slot, &col) in self.projection.iter().enumerate() {
                    chunk.gather(col, &self.match_buf, &mut columns[slot]);
                }
                Batch::from_columns(columns)
            }
        }
    }

    // ------------------------------------------------------------ tuple at a time

    /// The one tuple-at-a-time copy loop, shared by the JIT-style scan and the
    /// vectorized scan without push-down, hot and cold: for each of `rows`, keep
    /// the record if every restriction holds on `get(row, col)`, then push its
    /// projection.
    fn copy_qualifying(
        &self,
        rows: impl Iterator<Item = usize>,
        get: impl Fn(usize, usize) -> Value,
    ) -> Batch {
        let mut columns: Vec<Column> = self.output_types.iter().map(|&t| Column::new(t)).collect();
        for row in rows {
            let qualifies =
                (self.restrictions.iter()).all(|r| r.matches_value(&get(row, r.column())));
            if qualifies {
                for (slot, &col) in self.projection.iter().enumerate() {
                    columns[slot].push(get(row, col));
                }
            }
        }
        Batch::from_columns(columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datablocks::{CmpOp, Value};
    use storage::{ColumnDef, Schema};

    fn test_relation(rows: i64, frozen: bool) -> Relation {
        let schema = Schema::new(vec![
            ColumnDef::new("id", DataType::Int),
            ColumnDef::new("qty", DataType::Int),
            ColumnDef::new("grp", DataType::Str),
        ])
        .with_primary_key("id");
        let mut rel = Relation::with_chunk_capacity("t", schema, 1000);
        insert_rows(&mut rel, 0..rows);
        if frozen {
            rel.freeze_all();
        }
        rel
    }

    fn insert_rows(rel: &mut Relation, ids: std::ops::Range<i64>) {
        for i in ids {
            rel.insert(vec![
                Value::Int(i),
                Value::Int(i % 100),
                Value::Str(format!("g{}", i % 5)),
            ]);
        }
    }

    fn all_configs() -> Vec<ScanConfig> {
        vec![
            ScanConfig {
                mode: ScanMode::Jit,
                ..ScanConfig::default()
            },
            ScanConfig {
                mode: ScanMode::Vectorized { sarg: false },
                ..ScanConfig::default()
            },
            ScanConfig {
                mode: ScanMode::Vectorized { sarg: true },
                ..ScanConfig::default()
            },
        ]
    }

    #[test]
    fn all_modes_agree_on_frozen_relation() {
        let rel = test_relation(5_000, true);
        let restrictions = vec![
            Restriction::between(1, 10i64, 29i64),
            Restriction::eq(2, "g2"),
        ];
        let mut counts = Vec::new();
        for config in all_configs() {
            let mut scanner = RelationScanner::new(&rel, vec![0, 1], restrictions.clone(), config);
            let batch = scanner.collect_all();
            // every produced row satisfies the restrictions
            for row in 0..batch.len() {
                let qty = batch.value(row, 1).as_int().unwrap();
                assert!((10..=29).contains(&qty));
            }
            counts.push(batch.len());
        }
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "counts {counts:?}");
        assert!(counts[0] > 0);
    }

    #[test]
    fn all_modes_agree_on_mixed_hot_cold_relation() {
        let mut rel = test_relation(2_500, false);
        rel.freeze_full_chunks(); // 2 cold blocks + 1 hot tail chunk
        assert_eq!(rel.cold_block_count(), 2);
        assert_eq!(rel.hot_chunks().len(), 1);
        let restrictions = vec![Restriction::cmp(1, CmpOp::Lt, 10i64)];
        let mut counts = Vec::new();
        for config in all_configs() {
            let mut scanner = RelationScanner::new(&rel, vec![0], restrictions.clone(), config);
            counts.push(scanner.collect_all().len());
        }
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "counts {counts:?}");
        assert_eq!(counts[0], 250);
    }

    #[test]
    fn scan_without_restrictions_returns_all_live_rows() {
        let mut rel = test_relation(1_200, true);
        let id = rel.lookup_pk(5).unwrap();
        rel.delete(id);
        for config in all_configs() {
            let mut scanner = RelationScanner::new(&rel, vec![0], vec![], config);
            assert_eq!(scanner.collect_all().len(), 1_199);
        }
    }

    #[test]
    fn stats_report_block_skipping() {
        let rel = test_relation(10_000, true); // 10 blocks of 1000, id is block-clustered
        let restrictions = vec![Restriction::between(0, 2_000i64, 2_999i64)];
        let mut scanner = RelationScanner::new(
            &rel,
            vec![0],
            restrictions,
            ScanConfig {
                mode: ScanMode::Vectorized { sarg: true },
                ..ScanConfig::default()
            },
        );
        let batch = scanner.collect_all();
        assert_eq!(batch.len(), 1_000);
        let stats = scanner.stats();
        assert_eq!(stats.blocks_total, 10);
        assert_eq!(
            stats.blocks_skipped, 9,
            "SMAs skip every non-matching block"
        );
        assert_eq!(stats.rows_matched, 1_000);
        assert!(stats.rows_scanned <= 2_000);
    }

    #[test]
    fn named_configs() {
        assert_eq!(ScanConfig::named("jit").mode, ScanMode::Jit);
        assert_eq!(
            ScanConfig::named("vectorized").mode,
            ScanMode::Vectorized { sarg: false }
        );
        let sarg = ScanConfig::named("datablocks+sarg");
        assert_eq!(sarg.mode, ScanMode::Vectorized { sarg: true });
        assert!(!sarg.options.use_psma);
        assert!(ScanConfig::named("datablocks+psma").options.use_psma);
    }

    #[test]
    #[should_panic(expected = "unknown scan configuration")]
    fn unknown_named_config_panics() {
        ScanConfig::named("warp-drive");
    }

    #[test]
    fn output_types_follow_projection() {
        let rel = test_relation(10, true);
        let scanner = RelationScanner::new(&rel, vec![2, 0], vec![], ScanConfig::default());
        assert_eq!(scanner.output_types(), vec![DataType::Str, DataType::Int]);
    }

    #[test]
    fn parallel_scan_agrees_with_serial_in_every_mode() {
        let mut rel = test_relation(3_500, false);
        rel.freeze_full_chunks();
        insert_rows(&mut rel, 3_500..6_000); // 3 cold blocks + 3 hot chunks
        assert_eq!((rel.cold_block_count(), rel.hot_chunks().len()), (3, 3));
        let restrictions = vec![Restriction::between(1, 5i64, 60i64)];
        for base in all_configs() {
            let serial =
                RelationScanner::new(&rel, vec![0, 2], restrictions.clone(), base).collect_all();
            for threads in [0usize, 2, 3, 8] {
                let config = base.with_threads(threads);
                let mut scanner =
                    RelationScanner::new(&rel, vec![0, 2], restrictions.clone(), config);
                let parallel = scanner.collect_all();
                assert_eq!(parallel.len(), serial.len());
                for row in 0..serial.len() {
                    assert_eq!(
                        parallel.row(row),
                        serial.row(row),
                        "threads {threads} row {row}"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_stats_match_serial_stats() {
        let rel = test_relation(10_000, true);
        let restrictions = vec![Restriction::between(0, 2_000i64, 2_999i64)];
        let mut serial =
            RelationScanner::new(&rel, vec![0], restrictions.clone(), ScanConfig::default());
        serial.collect_all();
        let mut parallel = RelationScanner::new(
            &rel,
            vec![0],
            restrictions,
            ScanConfig::default().with_threads(4),
        );
        parallel.collect_all();
        assert_eq!(serial.stats(), parallel.stats());
    }
}
