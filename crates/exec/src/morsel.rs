//! Morsel-driven execution (the paper's evaluation setting: 64-thread scans of
//! compressed Data Blocks, after Leis et al., "Morsel-Driven Parallelism"). This
//! module is the **only** way a scan's work is split up: a thread count is a number
//! of workers running the code below, never a choice between this code and some
//! serial other — one worker is the same loop run inline on the calling thread.
//!
//! The rule, stated once: **morsel workers run a streaming scan
//! ([`drive_streaming`]) or a scan-fed aggregate ([`drive_pipeline`]). Every other
//! operator runs on the thread that pulls it, the hash-join build included** — a
//! scan below such an operator still runs its own [`ScanConfig::threads`] workers.
//!
//! # The morsel protocol
//!
//! A relation scan decomposes ([`decompose`]) into an ordered list of [`Morsel`]s:
//!
//! * one morsel per **frozen Data Block** — blocks are immutable, carry their own
//!   SMAs/PSMAs and are the natural unit of SMA skipping, so they are never split;
//! * the **hot tail chunks** are split into fixed-size row ranges of
//!   [`ScanConfig::morsel_rows`] records each.
//!
//! Work distribution is a single `fetch_add` on an [`AtomicUsize`] cursor over that
//! list. A worker's life is one private loop, written once and run by every
//! worker there is — check for cancellation or a failed sibling, claim the next
//! unclaimed morsel, scan it to completion through the non-breaking
//! [`PipelineStep`]s (a cold morsel pins its block when it is claimed, never
//! ahead), report the outcome — so the rules for cancellation and cold read
//! errors live in one place, and a run ends early in one way: the first worker to
//! meet an unreadable cold block or a raised [`CancelToken`] records that
//! [`Error`] as the run's outcome, every worker stops at its next claim or push,
//! all of them are joined, and the driver returns the error. There are no locks on
//! the scan path — frozen blocks and hot chunks are only ever read, the cursor is
//! the only shared mutable state, and every worker owns its output. A worker keeps
//! one [`RelationScanner`] for its whole life, so the match-position vector and its
//! growth are paid once per worker, not once per morsel or per vector.
//!
//! What differs between the two drivers is only where a worker's batches go.
//!
//! # Streaming: [`drive_streaming`]
//!
//! A multi-worker scan does **not** materialise its result. The workers run on
//! plain (non-scoped) threads over an owned [`storage::ScanSnapshot`] and feed the
//! consumer through a capacity-bounded **reorder channel** (std-only: a
//! `Mutex<VecDeque>` per morsel plus two `Condvar`s):
//!
//! * **Backpressure.** A worker that finishes a batch while the channel holds
//!   [`ScanConfig::channel_cap`] batches *suspends* instead of buffering — a stalled
//!   consumer stops the workers, it does not grow the resident set. Peak buffering
//!   is `O(channel_cap × batch)` plus the batch each worker is producing.
//! * **Ordering.** Batches are released in (morsel index, emission order) — the
//!   order one worker visits them — so the stream is **byte-identical for every
//!   thread count, morsel size and channel capacity**.
//! * **Deadlock freedom.** One channel slot is reserved for the *head-of-line*
//!   morsel (the one the consumer must receive next): its owner may push one batch
//!   past the shared budget whenever the consumer is starved. The in-flight count
//!   still never exceeds `channel_cap` ([`ScanStream::max_in_flight`]).
//! * **Pin lifetime.** A worker resolves a cold block when it claims the morsel and
//!   drops the [`storage::BlockRef`] (the pin guard) as soon as the morsel's last
//!   batch has been handed over — at most one pin per worker is live, even while a
//!   worker is suspended on backpressure.
//!
//! [`RelationScanner`] is the stream's one consumer. It starts the stream when the
//! resolved worker count is above one; at one worker it scans the same morsel list
//! itself, a morsel per pull, because a pull iterator needs no thread and no channel
//! to hand batches to its own caller. `tests/parallel_scan.rs` pins both against
//! each other.
//!
//! # Pipeline breakers: [`drive_pipeline`], [`merge_partitionwise`]
//!
//! The one pipeline breaker fed by morsel workers is hash aggregation over a scan
//! chain ([`crate::ops::HashAggregateOp::over_relation`]), and it has one
//! implementation, a [`MorselSink`]: every worker runs the whole non-breaking
//! operator chain of a [`PipelineSpec`] over its morsels and hands each batch —
//! owned, columns and all — to its private sink. At the barrier it splits every
//! worker's group table into [`RADIX_PARTITIONS`] radix partitions and combines
//! them **partition-wise** with [`merge_partitionwise`] — partition `p` of every
//! worker merges into one final partition `p`, independently of all others, so the
//! merge itself spreads over the workers. The partition of a key is a pure function
//! of its value (leading bits of its hash, see [`crate::ops::radix_partition`]),
//! never of the thread count or the morsel schedule. Output is sorted by group key.
//!
//! The emit tail then runs single-threaded on the merged state.
//!
//! # Determinism
//!
//! The contract, stated once: **`threads = 1` is a pure function of the input** —
//! rows are folded in scan order, so even sums over doubles repeat bit for bit —
//! **and `threads = N` equals `threads = 1`** — scans, join output, group keys,
//! counts, min/max and integer sums byte for byte — **except sums over doubles**,
//! which become a parallel floating-point reduction and are equal up to
//! reassociation.
//!
//! # Adding a pipeline breaker
//!
//! 1. **A sink** implementing [`MorselSink`] — own the per-worker state and fold
//!    each incoming batch, column-wise, in `consume(batch)`. A sink is never told
//!    which morsel a batch came from: a breaker whose result depends on input
//!    *order* (like the join build, whose rows stay in stream order) is not a sink —
//!    it runs on the thread that pulls it, over its input operator.
//! 2. **A barrier** — split the state by [`crate::ops::radix_partition`] of
//!    whatever key the operator groups on and fold one partition from every worker
//!    (worker order is deterministic) into the final partition with
//!    [`merge_partitionwise`].
//! 3. **A tail** — emit from the merged state in a deterministic order.
//!
//! Then drive it: `let (sinks, stats) = drive_pipeline(relation, &spec, make_sink)?`
//! followed by the barrier — the `?` is all the error handling a breaker needs, the
//! driver has joined its workers before it returns an [`Error`]. There is no second
//! implementation to differential-test against: test one worker against a fold
//! over the rows in scan order written in the test, and 2, 4 and 8 workers against
//! one — on skewed keys, NULL keys and inputs that leave partitions empty
//! (`tests/parallel_agg.rs` is the template).
//!
//! # Invariants to keep
//!
//! * Pipeline workers only ever share `&Relation` and the atomic cursor; streaming
//!   workers share one `Arc` holding the owned snapshot, the cursor and the reorder
//!   channel — all per-worker state lives in the sink or the worker's scanner (the
//!   compile-time `Send + Sync` assertions below enforce the sharing part). Spilled
//!   blocks add one more shared object — the block store — whose cache index is
//!   internally synchronised; a worker holds one pin per *claimed* cold morsel.
//! * The reorder channel's in-flight batch count never exceeds
//!   [`ScanConfig::channel_cap`]; a worker that cannot push suspends (it must not
//!   buffer locally), and the head-of-line morsel's owner must always be admitted
//!   when the consumer is starved — that pair of rules is what makes the bound
//!   safe *and* deadlock-free.
//! * A worker count never selects code: whatever one worker does inline, N do on
//!   threads.
//! * Operators resolve `output_types()` once at construction;
//!   [`crate::ops::collect_operator`] debug-asserts every emitted batch against the
//!   declaration.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use datablocks::scan::Restriction;
use datablocks::{DataBlock, DataType};
use storage::{ColdReadError, Relation, ScanSnapshot, ScanSource};

use crate::batch::Batch;
use crate::cancel::{self, CancelToken};
use crate::expr::Expr;
use crate::ops::{filter_batch, project_batch};
use crate::scan::{RelationScanner, ScanConfig, ScanStats};
use crate::Error;

/// One unit of scan work handed out by the morsel cursor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Morsel {
    /// One whole frozen Data Block (resolved through [`Relation::cold_block`],
    /// which pins spilled blocks for the duration of the morsel).
    ColdBlock(usize),
    /// A row range `[from, to)` of one hot chunk (index into
    /// [`Relation::hot_chunks`]).
    HotRange {
        /// Hot chunk index.
        chunk: usize,
        /// First row of the range.
        from: usize,
        /// One past the last row of the range.
        to: usize,
    },
}

// The scan path shares `&Relation` (and through it `&DataBlock` / hot chunks) across
// worker threads. All payloads are plain owned data (`Vec`, `String`, `HashMap`), so
// the auto traits hold; this assertion turns any future regression — say, an
// `Rc`/`Cell` sneaking into a block column — into a compile error here instead of an
// obscure one inside `std::thread::scope`.
const _: () = {
    const fn assert_shareable<T: Send + Sync>() {}
    assert_shareable::<Relation>();
    assert_shareable::<ScanSnapshot>();
    assert_shareable::<DataBlock>();
    assert_shareable::<Restriction>();
    assert_shareable::<ScanConfig>();
    assert_shareable::<Expr>();
    assert_shareable::<PipelineSpec>();
};

/// Decompose a scan source into morsels, in serial scan order: every cold block
/// first (whole blocks), then every hot chunk split into `morsel_rows`-sized ranges.
/// `morsel_rows == 0` falls back to [`crate::DEFAULT_MORSEL_ROWS`], matching the
/// [`ScanConfig::morsel_rows`] contract.
pub fn decompose<S: ScanSource>(source: &S, morsel_rows: usize) -> Vec<Morsel> {
    let morsel_rows = if morsel_rows == 0 {
        crate::DEFAULT_MORSEL_ROWS
    } else {
        morsel_rows
    };
    let mut morsels = Vec::with_capacity(source.cold_block_count() + source.hot_chunks().len());
    for block_idx in 0..source.cold_block_count() {
        morsels.push(Morsel::ColdBlock(block_idx));
    }
    for (chunk_idx, chunk) in source.hot_chunks().iter().enumerate() {
        let mut from = 0;
        while from < chunk.len() {
            let to = (from + morsel_rows).min(chunk.len());
            morsels.push(Morsel::HotRange {
                chunk: chunk_idx,
                from,
                to,
            });
            from = to;
        }
    }
    morsels
}

/// Resolve a [`ScanConfig::threads`] request to an actual worker count: `0` means
/// "all hardware threads".
pub fn effective_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    }
}

// ----------------------------------------------------------- streaming pipeline

/// Everything the streaming workers and the consumer share. Workers hold it through
/// an `Arc`, so the stream is sound even if the consumer leaks the handle — nothing
/// in here borrows from the caller.
struct StreamShared {
    snapshot: ScanSnapshot,
    morsels: Vec<Morsel>,
    /// The scan every worker runs (no in-worker steps: batches stream out as scanned).
    spec: PipelineSpec,
    /// The morsel cursor: each worker claims the next unclaimed index.
    cursor: AtomicUsize,
    /// Channel capacity in batches (≥ 1). One slot is implicitly reserved for the
    /// head-of-line morsel: ordinary pushes stop at `cap - 1` in-flight batches,
    /// and the head morsel's owner may push the `cap`-th whenever the consumer is
    /// starved — that keeps the reorder stage deadlock-free while `in_flight`
    /// never exceeds `cap`.
    cap: usize,
    /// The consumer's cooperative cancel token, captured from the driving
    /// thread when the stream started (see [`crate::cancel`]). Whoever sees it
    /// raised first — a worker at a push or claim, the consumer at a pull —
    /// ends the stream with [`Error::Cancelled`].
    cancel_token: Option<CancelToken>,
    state: Mutex<StreamState>,
    /// Workers wait here for channel space (or for their morsel to become the
    /// starved head-of-line).
    space: Condvar,
    /// The consumer waits here for the next in-order batch.
    ready: Condvar,
}

/// The reorder stage: per-morsel batch queues released in morsel order.
struct StreamState {
    /// Batches buffered per morsel, in emission order.
    queues: Vec<VecDeque<Batch>>,
    /// Has the owning worker finished scanning this morsel?
    finished: Vec<bool>,
    /// The morsel whose batches the consumer receives next.
    next_morsel: usize,
    /// Batches currently buffered across all queues.
    in_flight: usize,
    /// High-water mark of `in_flight` (asserted ≤ `cap` by the backpressure tests).
    max_in_flight: usize,
    /// Consumer gone or `error` set: workers drop their output and exit.
    cancelled: bool,
    /// A worker panicked: the consumer must not wait for its morsels.
    failed: bool,
    /// Why the stream ended early — an unreadable cold block or a raised token
    /// (first one wins: the stream is cancelled the moment it is set, so later
    /// workers stop instead of stacking errors).
    error: Option<Error>,
    /// Scan statistics merged in by exiting workers.
    stats: ScanStats,
}

impl StreamShared {
    /// Poison-tolerant lock: worker panics are reported through `failed`, not
    /// through mutex poisoning, so a panicked worker must not wedge the consumer
    /// (or the other workers) on a poisoned lock.
    fn lock_state(&self) -> MutexGuard<'_, StreamState> {
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Hand one batch of `morsel_idx` to the reorder stage, suspending while the
    /// channel is at capacity (backpressure). Returns `false` when the stream was
    /// cancelled and the worker should stop scanning.
    fn push(&self, morsel_idx: usize, batch: Batch) -> bool {
        let mut state = self.lock_state();
        loop {
            if self.stopped(&mut state) {
                return false;
            }
            // The consumer is starved on exactly this morsel: it must be fed even
            // if the rest of the channel is full, or reordering could deadlock
            // (the consumer can only release the head-of-line morsel's batches).
            let head_starved =
                morsel_idx == state.next_morsel && state.queues[morsel_idx].is_empty();
            if head_starved || state.in_flight + 1 < self.cap {
                break;
            }
            state = self
                .space
                .wait(state)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        state.queues[morsel_idx].push_back(batch);
        state.in_flight += 1;
        state.max_in_flight = state.max_in_flight.max(state.in_flight);
        drop(state);
        self.ready.notify_one();
        true
    }

    /// Mark `morsel_idx` fully scanned, letting the consumer advance past it.
    fn finish_morsel(&self, morsel_idx: usize) {
        self.lock_state().finished[morsel_idx] = true;
        self.ready.notify_one();
    }

    /// Must the workers stop? Checked at every push, and between morsel claims —
    /// workers that emit nothing for long stretches (SMA-pruned or zero-match
    /// morsels) never reach a push, and a dropped or cancelled stream must not keep
    /// scanning, and paging in, the rest of the relation. A raised token is
    /// recorded as the stream's outcome here, so whoever observes it first also
    /// wakes everyone who is parked.
    fn stopped(&self, state: &mut StreamState) -> bool {
        let token_raised = (self.cancel_token.as_ref()).is_some_and(CancelToken::is_cancelled);
        if token_raised && !state.cancelled {
            self.fail(state, Error::Cancelled);
        }
        state.cancelled
    }

    /// A worker is exiting (normally): fold its statistics in.
    fn worker_exit(&self, stats: ScanStats) {
        let mut state = self.lock_state();
        state.stats.merge(&stats);
        drop(state);
        self.ready.notify_all();
    }

    /// End the stream early with `err` as its outcome (first one wins): every
    /// worker stops at its next push or claim instead of scanning on — towards the
    /// same bad disk, or for a consumer that has given up — and a parked consumer
    /// wakes to the error instead of waiting for a morsel nobody will finish.
    fn fail(&self, state: &mut StreamState, err: Error) {
        state.error.get_or_insert(err);
        state.cancelled = true;
        self.ready.notify_all();
        self.space.notify_all();
    }

    /// The consumer side: the next batch in (morsel, emission) order, `Ok(None)`
    /// when every morsel is finished and drained, or the [`Error`] that ended the
    /// stream early — on every call from then on.
    fn pop(&self) -> Result<Option<Batch>, Error> {
        let total = self.morsels.len();
        let mut state = self.lock_state();
        loop {
            self.stopped(&mut state);
            if let Some(err) = &state.error {
                return Err(err.clone());
            }
            let mut advanced = false;
            while state.next_morsel < total
                && state.finished[state.next_morsel]
                && state.queues[state.next_morsel].is_empty()
            {
                state.next_morsel += 1;
                advanced = true;
            }
            if advanced {
                // The head-of-line morsel changed: its owner may be waiting for
                // the starvation slot.
                self.space.notify_all();
            }
            assert!(!state.failed, "streaming scan worker panicked");
            if state.next_morsel >= total {
                return Ok(None);
            }
            let head = state.next_morsel;
            if let Some(batch) = state.queues[head].pop_front() {
                state.in_flight -= 1;
                drop(state);
                self.space.notify_all();
                return Ok(Some(batch));
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }
}

/// Marks the stream failed if the worker unwinds before disarming (a panic in scan
/// code), so the consumer errors out instead of waiting forever.
struct WorkerGuard {
    shared: Arc<StreamShared>,
    armed: bool,
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        self.shared.lock_state().failed = true;
        self.shared.ready.notify_all();
        self.shared.space.notify_all();
    }
}

/// One morsel worker's life — the only copy of the claim loop, run by the streaming
/// workers ([`drive_streaming`]) and the pipeline workers ([`drive_pipeline`]) alike.
/// Until `stop()` reports a cancelled or failed run, or the cursor runs off the
/// list: claim the next morsel, scan it with the worker's one reused scanner (a
/// cold morsel is paged in by its own pin when it is claimed, not before), pass
/// every batch through the steps of `spec` to `emit(morsel_idx, batch)`, and hand
/// the morsel's outcome — `Ok(false)` if `emit` asked to stop, `Err` for an
/// unreadable cold block — to `done(morsel_idx, outcome)`, which says whether to
/// claim again.
///
/// `stop` is checked between claims because a run of morsels that emit nothing
/// (pruned or match-free blocks) never reaches `emit` — it is what keeps a dropped
/// stream or a cancelled query from scanning, and paging in, the rest of the
/// relation.
fn run_worker<S: ScanSource>(
    source: &S,
    morsels: &[Morsel],
    cursor: &AtomicUsize,
    spec: &PipelineSpec,
    stop: impl Fn() -> bool,
    mut emit: impl FnMut(usize, Batch) -> bool,
    mut done: impl FnMut(usize, Result<bool, ColdReadError>) -> bool,
) -> ScanStats {
    let mut scanner =
        RelationScanner::for_worker(source, &spec.projection, &spec.restrictions, spec.config);
    while !stop() {
        let morsel_idx = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(&morsel) = morsels.get(morsel_idx) else {
            break;
        };
        // Batches flow scan → steps → `emit` one at a time — a cold morsel is never
        // materialised, and its pin is released when the last batch left the scanner.
        let outcome = scanner.stream_morsel(morsel, &mut |batch| {
            let batch = spec.apply_steps(batch);
            batch.is_empty() || emit(morsel_idx, batch)
        });
        if !done(morsel_idx, outcome) {
            break;
        }
    }
    scanner.stats()
}

/// Run `body` once per element of `inputs` — one worker each — and return the
/// results in input order. A single worker runs inline on the calling thread (no
/// thread is spawned); more run on scoped threads that are all joined before this
/// returns, and a worker's panic resumes on the caller with its original payload.
fn run_workers<I: Send, T: Send>(inputs: Vec<I>, body: impl Fn(I) -> T + Sync) -> Vec<T> {
    if inputs.len() <= 1 {
        return inputs.into_iter().map(body).collect();
    }
    std::thread::scope(|scope| {
        let body = &body;
        let handles: Vec<_> = inputs
            .into_iter()
            .map(|input| scope.spawn(move || body(input)))
            .collect();
        handles
            .into_iter()
            .map(|handle| {
                handle
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    })
}

/// A bounded, in-order stream of scan batches produced by morsel workers (see the
/// module docs for the channel design). Obtained from [`drive_streaming`];
/// [`RelationScanner`] wraps one when `config.threads != 1`.
///
/// Dropping the stream before exhaustion cancels the workers (they observe the
/// flag at their next push and exit); the drop joins them, so no worker outlives
/// the handle.
pub struct ScanStream {
    shared: Arc<StreamShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    stats: ScanStats,
    done: bool,
}

impl ScanStream {
    /// The next batch in serial-scan order, `Ok(None)` once the scan is exhausted,
    /// or the [`Error`] that ended it early: an unreadable cold block, or the token
    /// installed on the thread that started the stream being raised. Whenever this
    /// returns anything but a batch, **every worker has been joined** — no worker
    /// outlives the end of its stream — and [`ScanStream::stats`] is final; an
    /// error is reported again by every later call.
    pub fn try_next_batch(&mut self) -> Result<Option<Batch>, Error> {
        let next = self.shared.pop();
        if !matches!(next, Ok(Some(_))) {
            self.finish();
        }
        next
    }

    /// Merged scan statistics — complete once [`ScanStream::try_next_batch`]
    /// returned anything but a batch; a snapshot of the workers' progress before
    /// that.
    pub fn stats(&self) -> ScanStats {
        if self.done {
            self.stats
        } else {
            self.shared.lock_state().stats
        }
    }

    /// High-water mark of batches buffered in the reorder channel — never exceeds
    /// the configured [`ScanConfig::channel_cap`] (the backpressure tests assert
    /// this).
    pub fn max_in_flight(&self) -> usize {
        self.shared.lock_state().max_in_flight
    }

    /// Join all workers and capture the final statistics.
    fn finish(&mut self) {
        if self.done {
            return;
        }
        self.done = true;
        let mut panicked = false;
        for handle in self.workers.drain(..) {
            panicked |= handle.join().is_err();
        }
        self.stats = self.shared.lock_state().stats;
        assert!(!panicked, "streaming scan worker panicked");
    }
}

impl Drop for ScanStream {
    fn drop(&mut self) {
        if self.done {
            return;
        }
        self.shared.lock_state().cancelled = true;
        self.shared.space.notify_all();
        self.shared.ready.notify_all();
        for handle in self.workers.drain(..) {
            // Worker panics were either already surfaced by `pop` (failed flag) or
            // the caller is unwinding — don't double-panic in drop.
            let _ = handle.join();
        }
        self.done = true;
    }
}

/// Start a bounded streaming parallel scan over an owned snapshot: `config.threads`
/// workers claim morsels off a shared cursor and stream their batches through a
/// `config.channel_cap`-bounded reorder channel; the returned [`ScanStream`] yields
/// them in serial-scan order. Peak buffering is the channel capacity — a stalled
/// consumer suspends the workers instead of growing the resident set.
pub fn drive_streaming(
    snapshot: ScanSnapshot,
    projection: Vec<usize>,
    restrictions: Vec<Restriction>,
    config: ScanConfig,
) -> ScanStream {
    let morsels = decompose(&snapshot, config.morsel_rows);
    let workers = effective_threads(config.threads).min(morsels.len());
    let cap = if config.channel_cap == 0 {
        workers * 2 + 2
    } else {
        config.channel_cap.max(1)
    };
    let total = morsels.len();
    let shared = Arc::new(StreamShared {
        snapshot,
        morsels,
        spec: PipelineSpec::scan(projection, restrictions, config),
        cursor: AtomicUsize::new(0),
        cap,
        cancel_token: cancel::current(),
        state: Mutex::new(StreamState {
            queues: (0..total).map(|_| VecDeque::new()).collect(),
            finished: vec![false; total],
            next_morsel: 0,
            in_flight: 0,
            max_in_flight: 0,
            cancelled: false,
            failed: false,
            error: None,
            stats: ScanStats::default(),
        }),
        space: Condvar::new(),
        ready: Condvar::new(),
    });
    let handles = (0..workers)
        .map(|_| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let mut guard = WorkerGuard {
                    shared,
                    armed: true,
                };
                let shared = &*guard.shared;
                let stats = run_worker(
                    &shared.snapshot,
                    &shared.morsels,
                    &shared.cursor,
                    &shared.spec,
                    || shared.stopped(&mut shared.lock_state()),
                    |morsel_idx, batch| shared.push(morsel_idx, batch),
                    |morsel_idx, outcome| {
                        // The error is recorded (and the stream cancelled) before
                        // the morsel is marked finished, so the consumer can never
                        // advance past a failed morsel and report exhaustion.
                        let keep_going = outcome.unwrap_or_else(|err| {
                            shared.fail(&mut shared.lock_state(), err.into());
                            false
                        });
                        shared.finish_morsel(morsel_idx);
                        keep_going
                    },
                );
                guard.armed = false;
                guard.shared.worker_exit(stats);
            })
        })
        .collect();
    ScanStream {
        shared,
        workers: handles,
        stats: ScanStats::default(),
        done: false,
    }
}

// --------------------------------------------------------------- pipeline driver

/// Number of radix partitions every pipeline-breaker sink maintains. A fixed power
/// of two: small enough that per-worker partition arrays stay cheap, large enough
/// that the partition-wise merge phase exposes real parallelism on many-core boxes.
pub const RADIX_PARTITIONS: usize = 64;

/// Leading key-hash bits that select a radix partition (`2^RADIX_BITS ==`
/// [`RADIX_PARTITIONS`]).
pub const RADIX_BITS: u32 = RADIX_PARTITIONS.trailing_zeros();

const _: () = assert!(1usize << RADIX_BITS == RADIX_PARTITIONS);

/// One non-breaking operator applied to every batch *inside* the morsel workers,
/// before the batch reaches the worker's pipeline-breaker sink.
#[derive(Debug, Clone)]
pub enum PipelineStep {
    /// Keep only rows satisfying a residual (non-SARGable) predicate.
    Filter(Expr),
    /// Projection to a new column set, one expression per output column.
    Project {
        /// Projected expressions.
        exprs: Vec<Expr>,
        /// Declared output type of each expression.
        types: Vec<DataType>,
    },
}

impl PipelineStep {
    fn apply(&self, batch: Batch) -> Batch {
        match self {
            PipelineStep::Filter(predicate) => filter_batch(batch, predicate),
            PipelineStep::Project { exprs, types } => project_batch(batch, exprs, types),
        }
    }

    fn output_types(&self, input: Vec<DataType>) -> Vec<DataType> {
        match self {
            PipelineStep::Filter(_) => input,
            PipelineStep::Project { types, .. } => types.clone(),
        }
    }
}

/// Description of the per-morsel operator chain of one parallel pipeline: the scan
/// parameters (projection, SARGable restrictions, [`ScanConfig`]) plus the ordered
/// non-breaking [`PipelineStep`]s every worker applies locally. The pipeline breaker
/// at the top is *not* part of the spec — it is the [`MorselSink`] handed to
/// [`drive_pipeline`].
#[derive(Debug, Clone)]
pub struct PipelineSpec {
    /// Attributes the scan materialises.
    pub projection: Vec<usize>,
    /// SARGable restrictions pushed into the scan.
    pub restrictions: Vec<Restriction>,
    /// Scan flavour, worker count and morsel size.
    pub config: ScanConfig,
    /// Non-breaking steps applied to every scanned batch, in order.
    pub steps: Vec<PipelineStep>,
}

impl PipelineSpec {
    /// A pipeline that is just a scan (no residual filter, no projection step).
    pub fn scan(
        projection: Vec<usize>,
        restrictions: Vec<Restriction>,
        config: ScanConfig,
    ) -> PipelineSpec {
        PipelineSpec {
            projection,
            restrictions,
            config,
            steps: Vec::new(),
        }
    }

    /// Append a residual filter step.
    pub fn then_filter(mut self, predicate: Expr) -> PipelineSpec {
        self.steps.push(PipelineStep::Filter(predicate));
        self
    }

    /// Append a projection step (`types` declares the output column types).
    pub fn then_project(mut self, exprs: Vec<Expr>, types: Vec<DataType>) -> PipelineSpec {
        assert_eq!(exprs.len(), types.len());
        self.steps.push(PipelineStep::Project { exprs, types });
        self
    }

    /// The column types of the batches the workers feed their sinks.
    pub fn output_types<S: ScanSource>(&self, source: &S) -> Vec<DataType> {
        let mut types: Vec<DataType> = self
            .projection
            .iter()
            .map(|&col| source.column_type(col))
            .collect();
        for step in &self.steps {
            types = step.output_types(types);
        }
        types
    }

    fn apply_steps(&self, mut batch: Batch) -> Batch {
        for step in &self.steps {
            if batch.is_empty() {
                break;
            }
            batch = step.apply(batch);
        }
        batch
    }
}

/// Per-worker pipeline-breaker state fed by the morsel workers (a partitioned hash
/// aggregate). One sink is created per worker, lives on that worker's thread for
/// the whole pipeline, and is handed back to the caller at the barrier.
pub trait MorselSink: Send {
    /// Consume one batch — the sink owns it from here, so a sink that keeps rows
    /// keeps the columns, not copies. Batches of one morsel arrive in order on a
    /// single worker, but which worker gets which morsel is a race, so a sink must
    /// not rely on the order its batches arrive in (see the module's determinism
    /// contract).
    fn consume(&mut self, batch: Batch);
}

/// Run a morsel pipeline over `relation` with `spec.config.threads` workers (one
/// worker runs inline on the calling thread): every worker claims morsels off a
/// shared cursor, runs the scan and the non-breaking steps of `spec` locally, and
/// feeds its private sink (built by `make_sink`). Returns the per-worker sinks in
/// worker order plus the merged scan statistics — merging the sinks partition-wise
/// (see [`merge_partitionwise`]) is the caller's barrier phase.
///
/// An unreadable cold block or a raised cancel token (the calling thread's, see
/// [`crate::cancel`]) ends the run early: every worker stops at its next morsel
/// claim, all of them are joined, and the [`Error`] is returned — no worker
/// outlives the failure, and the half-fed sinks are dropped.
pub fn drive_pipeline<S, F>(
    relation: &Relation,
    spec: &PipelineSpec,
    make_sink: F,
) -> Result<(Vec<S>, ScanStats), Error>
where
    S: MorselSink,
    F: Fn() -> S + Sync,
{
    let morsels = decompose(relation, spec.config.morsel_rows);
    let workers = effective_threads(spec.config.threads)
        .min(morsels.len())
        .max(1);
    let cursor = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let cancel_token = cancel::current();
    let cancelled = || cancel_token.as_ref().is_some_and(CancelToken::is_cancelled);
    let sinks: Vec<S> = (0..workers).map(|_| make_sink()).collect();
    let results = run_workers(sinks, |mut sink| {
        let mut error = None;
        let stats = run_worker(
            relation,
            &morsels,
            &cursor,
            spec,
            || abort.load(Ordering::Relaxed) || cancelled(),
            |_, batch| {
                sink.consume(batch);
                true
            },
            |_, outcome| match outcome {
                Ok(keep_going) => keep_going,
                Err(err) => {
                    abort.store(true, Ordering::Relaxed);
                    error = Some(err);
                    false
                }
            },
        );
        (sink, stats, error)
    });
    // Every worker is joined at this point.
    if cancelled() {
        return Err(Error::Cancelled);
    }
    let mut stats = ScanStats::default();
    let mut sinks = Vec::with_capacity(results.len());
    for (sink, worker_stats, error) in results {
        if let Some(err) = error {
            return Err(err.into());
        }
        stats.merge(&worker_stats);
        sinks.push(sink);
    }
    Ok((sinks, stats))
}

/// The barrier phase of a pipeline breaker: combine the partitioned state of every
/// worker **partition-wise**. `per_worker[w]` is worker `w`'s partition vector (all
/// workers must agree on the partition count); `merge` receives, for one partition
/// index, that partition from every worker *in worker order* and folds them into
/// the final partition. Distinct partitions hold disjoint key sets, so they merge
/// independently — the work is spread over `threads` workers with a static stride
/// (partition `i` is merged by worker `i % workers`), and the result vector is in
/// partition order whatever the parallelism.
pub fn merge_partitionwise<P, T, F>(per_worker: Vec<Vec<P>>, threads: usize, merge: F) -> Vec<T>
where
    P: Send,
    T: Send,
    F: Fn(usize, Vec<P>) -> T + Sync,
{
    let parts = per_worker.first().map(|w| w.len()).unwrap_or(0);
    assert!(
        per_worker.iter().all(|w| w.len() == parts),
        "every worker must produce the same partition count"
    );
    // Transpose to partition-major, preserving worker order within each partition.
    let mut by_partition: Vec<Vec<P>> = (0..parts)
        .map(|_| Vec::with_capacity(per_worker.len()))
        .collect();
    for worker_parts in per_worker {
        for (idx, part) in worker_parts.into_iter().enumerate() {
            by_partition[idx].push(part);
        }
    }
    let workers = effective_threads(threads).min(parts).max(1);
    let mut buckets: Vec<Vec<(usize, Vec<P>)>> = (0..workers).map(|_| Vec::new()).collect();
    for (idx, part) in by_partition.into_iter().enumerate() {
        buckets[idx % workers].push((idx, part));
    }
    let merge_bucket = |bucket: Vec<(usize, Vec<P>)>| -> Vec<T> {
        bucket
            .into_iter()
            .map(|(idx, parts)| merge(idx, parts))
            .collect()
    };
    // Bucket `w` merged partitions `w, w + workers, …` in that order: undo the stride.
    let mut merged: Vec<_> = run_workers(buckets, merge_bucket)
        .into_iter()
        .map(Vec::into_iter)
        .collect();
    (0..parts)
        .map(|idx| {
            merged[idx % workers]
                .next()
                .expect("every partition merged exactly once")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use datablocks::{DataType, Value};
    use storage::{ColumnDef, Schema};

    fn relation(rows: i64, chunk_capacity: usize, freeze_full: bool) -> Relation {
        let schema = Schema::new(vec![
            ColumnDef::new("id", DataType::Int),
            ColumnDef::new("val", DataType::Int),
        ]);
        let mut rel = Relation::with_chunk_capacity("m", schema, chunk_capacity);
        for i in 0..rows {
            rel.insert(vec![Value::Int(i), Value::Int(i % 7)]);
        }
        if freeze_full {
            rel.freeze_full_chunks();
        }
        rel
    }

    #[test]
    fn decompose_covers_every_row_exactly_once() {
        let rel = relation(2_500, 1000, true); // 2 cold blocks, 1 hot chunk of 500
        let morsels = decompose(&rel, 128);
        let cold = morsels
            .iter()
            .filter(|m| matches!(m, Morsel::ColdBlock(_)))
            .count();
        assert_eq!(cold, 2);
        let hot_rows: usize = morsels
            .iter()
            .filter_map(|m| match m {
                Morsel::HotRange { from, to, .. } => Some(to - from),
                _ => None,
            })
            .sum();
        assert_eq!(hot_rows, 500);
        // Hot ranges are contiguous, ordered and non-overlapping.
        let mut expected_from = 0;
        for m in &morsels {
            if let Morsel::HotRange { from, to, .. } = m {
                assert_eq!(*from, expected_from);
                assert!(to > from);
                expected_from = *to;
            }
        }
    }

    #[test]
    fn decompose_zero_morsel_rows_falls_back_to_default() {
        let rel = relation(10, 100, false);
        let morsels = decompose(&rel, 0); // 0 = DEFAULT_MORSEL_ROWS, not 1-row morsels
        assert_eq!(morsels.len(), 1);
        assert_eq!(
            morsels[0],
            Morsel::HotRange {
                chunk: 0,
                from: 0,
                to: 10
            }
        );
    }

    #[test]
    fn effective_threads_resolves_zero() {
        assert!(effective_threads(0) >= 1);
        assert_eq!(effective_threads(3), 3);
    }

    /// Drain a streaming scan into one batch plus its final statistics.
    fn drain(mut stream: ScanStream, types: &[DataType]) -> (Batch, ScanStats) {
        let mut merged = Batch::new(types);
        while let Some(batch) = stream.try_next_batch().unwrap() {
            merged.append(&batch);
        }
        (merged, stream.stats())
    }

    #[test]
    fn streamed_scan_matches_calling_thread_scan_on_mixed_storage() {
        let rel = relation(3_210, 1000, true);
        let restrictions = vec![Restriction::between(1, 2i64, 4i64)];
        let serial = RelationScanner::new(
            &rel,
            vec![0, 1],
            restrictions.clone(),
            ScanConfig::default(),
        )
        .collect_all();
        for threads in [1usize, 2, 5] {
            let config = ScanConfig::default()
                .with_threads(threads)
                .with_morsel_rows(100);
            let stream = drive_streaming(
                rel.scan_snapshot(),
                vec![0, 1],
                restrictions.clone(),
                config,
            );
            let (merged, stats) = drain(stream, &[DataType::Int, DataType::Int]);
            assert_eq!(merged.len(), serial.len());
            for row in 0..serial.len() {
                assert_eq!(
                    merged.row(row),
                    serial.row(row),
                    "threads {threads} row {row}"
                );
            }
            assert_eq!(stats.rows_matched, serial.len());
        }
    }

    #[test]
    fn drive_streaming_cap_one_fully_serialises_the_reorder_stage() {
        // The tightest legal channel: only the head-of-line morsel's starvation
        // slot ever admits a batch, so the stream degenerates to a rendezvous —
        // order and content must still match the serial scan exactly.
        let rel = relation(3_210, 1000, true);
        let serial =
            RelationScanner::new(&rel, vec![0, 1], vec![], ScanConfig::default()).collect_all();
        for threads in [1usize, 4] {
            let config = ScanConfig::default()
                .with_threads(threads)
                .with_morsel_rows(100)
                .with_channel_cap(1);
            let mut stream = drive_streaming(rel.scan_snapshot(), vec![0, 1], vec![], config);
            let mut merged = Batch::new(&[DataType::Int, DataType::Int]);
            while let Some(batch) = stream.try_next_batch().unwrap() {
                merged.append(&batch);
            }
            assert_eq!(merged.len(), serial.len(), "threads {threads}");
            for row in 0..serial.len() {
                assert_eq!(merged.row(row), serial.row(row), "threads {threads}");
            }
            assert_eq!(stream.max_in_flight(), 1, "threads {threads}");
            assert_eq!(stream.stats().rows_matched, serial.len());
        }
    }

    #[test]
    fn drive_streaming_stats_match_before_and_after_completion() {
        let rel = relation(2_000, 500, true);
        let config = ScanConfig::default().with_threads(2);
        let mut stream = drive_streaming(rel.scan_snapshot(), vec![0], vec![], config);
        // Partial stats are a snapshot (just don't panic); final stats are exact.
        let _ = stream.stats();
        let mut rows = 0usize;
        while let Some(batch) = stream.try_next_batch().unwrap() {
            rows += batch.len();
        }
        assert_eq!(rows, 2_000);
        assert_eq!(stream.stats().rows_matched, 2_000);
        assert_eq!(stream.stats().blocks_total, 4);
        // Exhausted stream keeps answering None.
        assert!(stream.try_next_batch().unwrap().is_none());
    }

    #[test]
    fn empty_relation_yields_no_batches() {
        let rel = relation(0, 100, false);
        let config = ScanConfig::default().with_threads(4);
        let stream = drive_streaming(rel.scan_snapshot(), vec![0], vec![], config);
        let (merged, stats) = drain(stream, &[DataType::Int]);
        assert!(merged.is_empty());
        assert_eq!(stats.rows_matched, 0);
    }

    /// A sink that keeps the first column of every row that reached it.
    #[derive(Default)]
    struct IdSink {
        ids: Vec<i64>,
    }

    impl MorselSink for IdSink {
        fn consume(&mut self, batch: Batch) {
            let ids = (0..batch.len()).map(|row| batch.value(row, 0).as_int().unwrap());
            self.ids.extend(ids);
        }
    }

    #[test]
    fn drive_pipeline_covers_every_row_exactly_once() {
        let rel = relation(3_210, 1000, true); // 3 cold blocks + 1 hot tail
        for threads in [1usize, 2, 5] {
            let spec = PipelineSpec::scan(
                vec![0, 1],
                vec![],
                ScanConfig::default()
                    .with_threads(threads)
                    .with_morsel_rows(100),
            );
            let (sinks, stats) =
                drive_pipeline(&rel, &spec, IdSink::default).expect("pipeline scan");
            assert_eq!(stats.rows_matched, 3_210);
            // the scanned ids are 0..3210, each exactly once, whichever worker got it
            let mut all: Vec<i64> = sinks.into_iter().flat_map(|s| s.ids).collect();
            all.sort_unstable();
            assert_eq!(all, (0..3_210).collect::<Vec<_>>(), "threads {threads}");
        }
    }

    #[test]
    fn pipeline_steps_filter_and_project_inside_workers() {
        let rel = relation(2_000, 1000, true);
        let spec = PipelineSpec::scan(vec![0, 1], vec![], ScanConfig::default().with_threads(3))
            .then_filter(Expr::col(1).cmp(datablocks::CmpOp::Eq, Expr::lit(3i64)))
            .then_project(vec![Expr::col(0).mul(Expr::lit(2i64))], vec![DataType::Int]);
        assert_eq!(spec.output_types(&rel), vec![DataType::Int]);
        let (sinks, _) = drive_pipeline(&rel, &spec, IdSink::default).expect("pipeline scan");
        let total: usize = sinks.iter().map(|s| s.ids.len()).sum();
        // val = i % 7 == 3 → ceil: rows 3, 10, 17, ... in 0..2000
        assert_eq!(total, (0..2_000).filter(|i| i % 7 == 3).count());
    }

    #[test]
    fn merge_partitionwise_preserves_partition_and_worker_order() {
        // 3 workers × 5 partitions of strings; merge concatenates in worker order.
        let per_worker: Vec<Vec<String>> = (0..3)
            .map(|w| (0..5).map(|p| format!("w{w}p{p} ")).collect())
            .collect();
        for threads in [1usize, 2, 8] {
            let merged = merge_partitionwise(per_worker.clone(), threads, |idx, parts| {
                (idx, parts.concat())
            });
            assert_eq!(merged.len(), 5);
            for (p, (idx, text)) in merged.iter().enumerate() {
                assert_eq!(*idx, p);
                assert_eq!(text, &format!("w0p{p} w1p{p} w2p{p} "), "threads {threads}");
            }
        }
    }

    #[test]
    fn merge_partitionwise_of_nothing_is_empty() {
        let merged: Vec<usize> =
            merge_partitionwise(Vec::<Vec<usize>>::new(), 4, |_, parts| parts.len());
        assert!(merged.is_empty());
    }
}
