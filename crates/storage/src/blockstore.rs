//! The file-backed block store: cold Data Blocks on secondary storage behind a
//! pinning, capacity-bounded block cache — with a persisted directory manifest
//! and dead-frame compaction.
//!
//! Data Blocks are self-contained and byte-addressable precisely so cold data can
//! leave main memory (Lang et al., Section 2); this module is the subsystem that
//! makes that real. A [`BlockStore`] owns a family of **generation files** of
//! [`datablocks::frame`]-encoded blocks (generation 0 is the store path itself,
//! generation *g* is `<path>.g<g>`; compaction rolls the store forward one
//! generation at a time) plus, in memory:
//!
//! * a **block directory** — for every block id the generation/offset/length of
//!   its frame, its [`BlockSummary`] (tuple counts and per-attribute SMAs),
//!   kept hot so SMA block-skipping and size accounting never touch the disk,
//!   and once known the frame's [`SectionTable`]: where its header section and
//!   each attribute section lie and what they hash to;
//! * a **block cache** — per block, the decoded header (tuple count, delete
//!   flags) and the attributes paged in so far, up to a configured byte
//!   capacity that accounts exactly what is decoded, with **pin counts** (a
//!   pinned block is never evicted; scans pin for the duration of a morsel)
//!   and, for the rest, eviction of whole blocks that a loop over more blocks
//!   than fit does not thrash: new blocks wait on probation, idle ones age out.
//!
//! # Page-in by attribute
//!
//! A frame is checksummed per section ([`datablocks::frame`]), so a reader
//! pages in only what it reads. [`BlockStore::pin_columns`] names the
//! attributes; a miss reads and verifies the sections the cached entry lacks
//! — the header section if the block is not cached, then each named attribute
//! the entry does not hold — with adjacent sections read in one call, and
//! merges them into the entry. [`BlockStore::pin`] is the all-attributes case
//! of the same path. A pinned block holds at least the named attributes;
//! reading one it does not hold panics, naming it. The directory learns a
//! section table when the store writes the frame; after a reopen, the block's
//! first page-in reads the frame's 20-byte prefix to learn the header
//! section's length, then the header section itself. Compaction copies frames
//! byte for byte, so section offsets stay valid, and the manifest does not
//! carry them.
//!
//! # Durability: the manifest
//!
//! The directory itself is persisted in a sidecar **manifest** at
//! `<path>.manifest`: a log of checksummed [`ManifestRecord`]s (XXH64, the same
//! checksum as the block frames). Every directory mutation — an append or a
//! rewrite — appends one `Put` record *after* the frame bytes are written, so the
//! manifest never references unwritten data; on close (store drop) and after
//! every compaction the manifest is **checkpointed**: rewritten from scratch as
//! one `Snapshot` record plus one `Put` per live directory entry, via a
//! temp-file-and-rename so the swap is atomic. [`BlockStore::reopen`] replays the
//! manifest to rebuild the exact directory — including per-block tombstone
//! counts, which travel in the summaries — **without reading any block
//! payloads**; a torn final record (the bytes a crash leaves mid-append) fails
//! its checksum or length check, is discarded, and the manifest is truncated
//! back to its valid prefix. Damage anywhere else — a failing record that more
//! records follow, or a record of an older manifest version — fails the reopen
//! and changes no file. Replay is last-writer-wins per block id, so a log
//! holding both the original append and a later rewrite of the same block
//! resolves to the rewrite.
//!
//! The manifest is the store's **only** on-disk directory. A frame carries no
//! summary, and generation files hold superseded frames beside live ones, so
//! the frames alone cannot say which blocks exist. [`BlockStore::create`]
//! therefore creates the manifest before the store path, and a store without
//! one does not reopen: [`BlockStore::reopen`] fails with `NotFound`, naming
//! the manifest, before it removes, truncates or creates any file.
//!
//! # Durability modes
//!
//! How hard those writes are pushed toward the platter is the store's
//! [`Durability`] mode ([`SpillPolicy::durability`]):
//!
//! * [`Durability::Buffered`] (default) issues no `fsync` at all — "crash
//!   consistency" then means *torn-write detection and a directory that always
//!   reaches a valid replayable state*, not a barrier against power loss
//!   reordering writes. This is the right trade for temp spill files that do
//!   not outlive the process.
//! * [`Durability::Sync`] adds real power-loss barriers: every frame write is
//!   `sync_data`ed **before** the manifest `Put` that references it (the
//!   manifest never points at data the disk may not have), manifest appends
//!   are group-committed — one `fsync` per `group_commit` records — and the
//!   checkpoint swap becomes a true commit point: temp file written, synced,
//!   renamed over the manifest, parent directory fsynced. With
//!   `group_commit: 1` no acknowledged write can be lost; with `n > 1` the
//!   acknowledgement window is bounded at the last `n - 1` un-synced records.
//!
//! Transient I/O errors (`EINTR`-class: `Interrupted`/`WouldBlock`/`TimedOut`)
//! are absorbed by a bounded retry on every store I/O path, counted in
//! [`IoStats::retries`].
//!
//! # Fault injection
//!
//! Every frame, manifest and generation-file I/O in this module goes through a
//! [`crate::faults::StoreFile`] tagged with a named **failpoint site**, so a
//! seeded [`crate::faults::FaultInjector`] (attached via
//! [`BlockStore::create_opts`] / [`BlockStore::reopen_opts`]) can
//! deterministically return transient errors, tear a write short, or enter
//! crash-stop at any of them. The site inventory:
//!
//! | site                 | operation                                           |
//! |----------------------|-----------------------------------------------------|
//! | `gen.append_write`   | frame write of [`BlockStore::append`]               |
//! | `gen.rewrite_write`  | frame write of [`BlockStore::rewrite`]              |
//! | `gen.sync`           | `sync_data` of a generation file (Sync mode)        |
//! | `manifest.append`    | manifest record write                               |
//! | `manifest.sync`      | group-commit `fsync` of the manifest (Sync mode)    |
//! | `pin.read`           | demand section read of a cache miss                 |
//! | `compact.read`       | live-frame read during compaction                   |
//! | `compact.write`      | live-frame copy into the new generation             |
//! | `compact.sync`       | new generation `sync_data` before the checkpoint    |
//! | `compact.reclaim`    | truncation of the reclaimed generation-0 file       |
//! | `checkpoint.write`   | checkpoint temp-file write                          |
//! | `checkpoint.sync`    | checkpoint temp-file `sync_data` (Sync mode)        |
//! | `checkpoint.rename`  | atomic rename over `<path>.manifest`                |
//! | `checkpoint.dir_sync`| parent-directory fsync after the rename (Sync mode) |
//!
//! `tests/fault_injection.rs` enumerates a crash at every site and asserts the
//! reopen contract: old-or-new directory state, loudly `Corrupt` when the disk
//! is truly inconsistent, never silently wrong — and under `Sync` no
//! acknowledged write lost.
//!
//! # Dead-frame compaction
//!
//! The store is append-only within a generation: deleting a record of a spilled
//! block rewrites the whole block at the end of the current generation file and
//! repoints the directory entry ([`BlockStore::rewrite`]), leaving the old frame
//! as dead space. The store tracks live vs dead bytes; when the garbage ratio
//! exceeds the configured threshold ([`SpillPolicy::compaction_garbage_ratio`],
//! settable via [`BlockStore::set_garbage_threshold`]), the next mutation
//! triggers **compaction**: live frames are copied byte-for-byte into a fresh
//! generation file, the directory is repointed, the manifest is checkpointed
//! (the atomic swap), and generation files no longer referenced by any entry are
//! deleted. Compaction never moves a **pinned** frame — a scan holding a pin
//! keeps reading its old generation file, which survives until no directory
//! entry references it. [`IoStats`] counts compactions, frames/bytes moved and
//! pinned frames skipped so tests can pin the behaviour down.
//!
//! # Concurrency
//!
//! The store starts no thread of its own: every read and write runs on the
//! calling thread, and [`BlockStore::pin_columns`] is the one path that pages a
//! block into the cache — a scan reads a spilled block when it claims that
//! morsel, never ahead of it. All I/O is positional (`read_at`/`write_at` via
//! [`std::os::unix::fs::FileExt`]), so concurrent scan workers loading different
//! blocks never contend on a shared file cursor. The cache index is behind one
//! [`Mutex`], but the lock is **not** held across disk reads or frame decoding:
//! a miss records the directory entry under the lock, performs the read/decode
//! unlocked, and re-takes the lock to merge what it read into the cached entry
//! (two workers racing on the same block both pay their reads, and the entry
//! ends up holding the union of their attributes, the first copy of each kept —
//! a deliberate trade of occasional duplicate I/O for an uncontended hot path).
//! Mutations ([`BlockStore::mutate`], [`BlockStore::rewrite`],
//! [`BlockStore::compact`]) serialise on a dedicated mutation lock that is never
//! held while ordinary pins wait, so reads proceed concurrently with a mutation's
//! I/O.
//!
//! Finally, a process-local **live registry** guards against double-opening: a
//! path already backing an open store in this process cannot be opened again
//! ([`BlockStore::create`] / [`BlockStore::reopen`] fail with
//! [`std::io::ErrorKind::AlreadyExists`]) — reopening a live store would hand
//! two caches the same file and corrupt it on the first rewrite.

use std::collections::{HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io;
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use datablocks::frame::{
    self, manifest_record_to_bytes, replay_manifest, ManifestRecord, SectionTable,
};
use datablocks::{BlockColumn, BlockSummary, DataBlock, FrameError};

use crate::faults::{self, FaultInjector, StoreFile};

/// Identifier of a block within one [`BlockStore`] (its directory index).
pub type BlockId = usize;

/// Default garbage ratio above which a mutation triggers dead-frame compaction.
pub const DEFAULT_GARBAGE_RATIO: f64 = 0.5;

/// How many times a transient I/O error (`Interrupted`/`WouldBlock`/`TimedOut`)
/// is retried before it is surfaced to the caller.
const MAX_IO_RETRIES: u32 = 3;

/// How hard the store pushes writes toward stable storage. See the module docs
/// ("Durability modes") for the exact barrier placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// No `fsync` anywhere: crash-*consistent* (replayable manifest, torn-write
    /// detection) but acknowledged writes may be lost to a power cut. The
    /// default, and the right trade for temporary spill files.
    #[default]
    Buffered,
    /// Power-loss barriers on: generation files are `sync_data`ed before the
    /// manifest `Put` referencing them, manifest appends are group-committed
    /// under one `fsync` per `group_commit` records, and the checkpoint swap is
    /// a true commit point (temp-file sync + rename + parent-directory fsync).
    Sync {
        /// Manifest records per group-commit `fsync`. `1` (or `0`, treated as
        /// `1`) syncs every record — no acknowledged write can be lost; `n > 1`
        /// bounds the loss window to the last `n - 1` acknowledged records.
        group_commit: usize,
    },
}

/// How a relation spills frozen blocks to secondary storage.
#[derive(Debug, Clone, PartialEq)]
pub struct SpillPolicy {
    /// Byte budget of the in-memory block cache. Pinned blocks may push the resident
    /// set above this bound transiently; unpinned blocks are evicted down to it.
    pub cache_capacity_bytes: usize,
    /// Spill file location. `None` creates a per-store temporary file (deleted when
    /// the store is dropped). For [`crate::Database::enable_spill`] a `Some` path
    /// names a *directory* receiving one `<relation>.dbs` file per relation; for
    /// [`crate::Relation::enable_spill`] it names the file itself (kept on drop).
    pub path: Option<PathBuf>,
    /// Fraction of the store's on-disk bytes that may be dead frames before the
    /// next mutation compacts live frames into a fresh generation file. `1.0`
    /// effectively disables automatic compaction ([`BlockStore::compact`] can
    /// still be called explicitly).
    pub compaction_garbage_ratio: f64,
    /// Power-loss durability mode of the spill store (fsync barriers and group
    /// commit). [`Durability::Buffered`] — no fsync — by default.
    pub durability: Durability,
}

impl Default for SpillPolicy {
    fn default() -> SpillPolicy {
        SpillPolicy {
            cache_capacity_bytes: 64 << 20,
            path: None,
            compaction_garbage_ratio: DEFAULT_GARBAGE_RATIO,
            durability: Durability::Buffered,
        }
    }
}

impl SpillPolicy {
    /// A policy with the given cache budget, spilling to a temporary file.
    pub fn with_cache_capacity(cache_capacity_bytes: usize) -> SpillPolicy {
        SpillPolicy {
            cache_capacity_bytes,
            ..SpillPolicy::default()
        }
    }
}

/// Errors surfaced by block store operations.
#[derive(Debug)]
pub enum StoreError {
    /// The underlying file operation failed.
    Io(io::Error),
    /// A frame or manifest record failed validation (checksum, magic, version,
    /// truncation).
    Frame(FrameError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(err) => write!(f, "block store I/O error: {err}"),
            StoreError::Frame(err) => write!(f, "block store frame error: {err}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(err) => Some(err),
            StoreError::Frame(err) => Some(err),
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(err: io::Error) -> StoreError {
        StoreError::Io(err)
    }
}

impl From<FrameError> for StoreError {
    fn from(err: FrameError) -> StoreError {
        StoreError::Frame(err)
    }
}

impl From<StoreError> for io::Error {
    fn from(err: StoreError) -> io::Error {
        match err {
            StoreError::Io(err) => err,
            StoreError::Frame(err) => io::Error::new(io::ErrorKind::InvalidData, err.to_string()),
        }
    }
}

/// A cold block could not be paged in: the typed error the scan paths carry
/// instead of panicking a worker. Names exactly where the failure happened —
/// block id, generation file, byte offset — plus the underlying cause, so a
/// corrupt or unreadable frame is reported loudly and precisely.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColdReadError {
    /// Directory index of the block that failed to load.
    pub block_id: BlockId,
    /// Generation file the directory pointed at.
    pub generation: u32,
    /// Byte offset of the frame within that generation file.
    pub offset: u64,
    /// The underlying [`StoreError`], rendered to text (`io::Error` is not
    /// `Clone`, and the scan paths need a cloneable error to fan out of a
    /// worker pool).
    pub detail: String,
}

impl std::fmt::Display for ColdReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cold block {} unreadable (generation {}, offset {}): {}",
            self.block_id, self.generation, self.offset, self.detail
        )
    }
}

impl std::error::Error for ColdReadError {}

impl From<ColdReadError> for io::Error {
    fn from(err: ColdReadError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, err.to_string())
    }
}

/// Counters describing what a store actually did. Reads/writes count **disk**
/// operations only — cache hits and summary-pruned blocks cost zero reads, which is
/// what the scan-skipping assertions in the differential tests pin down.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Pins that read from disk (cache misses), however many sections each
    /// read.
    pub block_reads: u64,
    /// Bytes read from disk by those block reads: the lengths of the frame
    /// sections they read (the header section and the attribute sections a
    /// pin lacked), not whole frames.
    pub bytes_read: u64,
    /// Block frames written to disk (appends and rewrites; compaction copies are
    /// counted in [`IoStats::compacted_frames`] instead).
    pub block_writes: u64,
    /// Bytes written to disk by appends and rewrites.
    pub bytes_written: u64,
    /// Pins served from the cache.
    pub cache_hits: u64,
    /// Pins that had to load from disk: the block was not cached, or its
    /// entry lacked an attribute the pin named.
    pub cache_misses: u64,
    /// Cached blocks evicted to stay within capacity.
    pub evictions: u64,
    /// Always 0: the store has no read-ahead, [`BlockStore::pin`] is its only
    /// page-in path. Kept only because the frozen `bench_layers` harness still
    /// reads it (`w_scan.rs`); it goes with that harness edit (ROADMAP item 6).
    pub prefetch_reads: u64,
    /// Dead-frame compaction passes completed.
    pub compactions: u64,
    /// Live frames copied into a new generation file by compaction.
    pub compacted_frames: u64,
    /// Bytes copied by compaction.
    pub compacted_bytes: u64,
    /// Frames a compaction pass left in their old generation because they were
    /// pinned at the time (compaction never moves a pinned frame).
    pub compaction_pinned_skipped: u64,
    /// Transient I/O errors (`Interrupted`/`WouldBlock`/`TimedOut`) absorbed by
    /// the store's bounded retry instead of surfacing to the caller.
    pub retries: u64,
}

/// One directory entry: which generation file holds the block's frame, where,
/// plus its hot summary and, once known, where the frame's sections lie.
#[derive(Debug, Clone)]
struct DirEntry {
    generation: u32,
    offset: u64,
    len: u32,
    summary: BlockSummary,
    /// The frame's section table: learned when the store writes the frame, or
    /// after a reopen from the frame's header section on the block's first
    /// page-in. Compaction copies frames byte for byte, so it stays valid.
    sections: Option<Arc<SectionTable>>,
}

#[derive(Debug)]
struct CacheEntry {
    /// The block's header and the attributes paged in so far.
    block: Arc<DataBlock>,
    pins: u32,
    /// Found resident by a pin since admission or the last reset; clear: on probation.
    referenced: bool,
    /// [`Inner::page_ins`] at admission and at the last pin that found the entry resident.
    last_use: u64,
    /// Admitted whole by the writer (`append`, `rewrite`), not by a pin's page-in.
    by_writer: bool,
    /// `block.byte_size()`: the accounted size of the sections paged in.
    bytes: usize,
}

#[derive(Debug)]
struct Inner {
    directory: Vec<DirEntry>,
    cache: HashMap<BlockId, CacheEntry>,
    /// Pins that read from disk so far (never reset): the clock of `last_use`.
    page_ins: u64,
    cached_bytes: usize,
    /// Largest `cached_bytes` ever observed (pins can push the resident set
    /// above the capacity transiently; this records how far).
    cache_high_water: usize,
    /// Generation new frames are appended to.
    current_gen: u32,
    /// Append point within the current generation file.
    end_offset: u64,
    /// Bytes of frames the directory references.
    live_bytes: u64,
    /// Bytes of superseded frames still occupying generation files.
    dead_bytes: u64,
    /// Garbage ratio above which a mutation compacts (see
    /// [`BlockStore::set_garbage_threshold`]).
    garbage_threshold: f64,
    stats: IoStats,
}

impl Inner {
    fn new() -> Inner {
        Inner {
            directory: Vec::new(),
            cache: HashMap::new(),
            page_ins: 0,
            cached_bytes: 0,
            cache_high_water: 0,
            current_gen: 0,
            end_offset: 0,
            live_bytes: 0,
            dead_bytes: 0,
            garbage_threshold: DEFAULT_GARBAGE_RATIO,
            stats: IoStats::default(),
        }
    }
}

/// The append handle of the manifest log (swapped wholesale on checkpoint).
#[derive(Debug)]
struct ManifestFile {
    file: StoreFile,
    len: u64,
    /// Records appended since the last group-commit `fsync` (only meaningful
    /// under [`Durability::Sync`]; a checkpoint resets it).
    pending: usize,
}

/// A file-backed store of frozen Data Blocks with a persisted manifest, an
/// in-memory directory and a pinning block cache. See the module docs for the
/// design.
#[derive(Debug)]
pub struct BlockStore {
    /// Open generation files, keyed by generation number. [`StoreFile`] clones
    /// share the underlying handle, so a reader can clone one out and read
    /// without any store lock held — and a generation file unlinked by
    /// compaction stays readable for pins taken before the swap.
    files: Mutex<HashMap<u32, StoreFile>>,
    inner: Mutex<Inner>,
    /// Transient I/O errors absorbed by the bounded retry (merged into
    /// [`IoStats::retries`] by [`BlockStore::stats`]); an atomic because retry
    /// sites deliberately hold no store lock across I/O.
    retries: AtomicU64,
    capacity: usize,
    path: PathBuf,
    /// This store's entry in the live registry, released after the close
    /// checkpoint when the store drops.
    _claim: LiveClaim,
    delete_on_drop: bool,
    /// Power-loss durability mode (fsync barrier placement); see [`Durability`].
    durability: Durability,
    /// Deterministic fault plan threaded through every I/O site, if attached.
    faults: Option<Arc<FaultInjector>>,
    manifest: Mutex<ManifestFile>,
    /// Serialises block mutations ([`BlockStore::mutate`], [`BlockStore::rewrite`],
    /// [`BlockStore::compact`]) — never held while waiting on `inner` from a
    /// non-mutation path, so ordinary pins proceed concurrently with a mutation's
    /// I/O.
    mutation: Mutex<()>,
}

/// Monotonic counter distinguishing temp files of one process.
static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Error kinds worth a bounded retry: the `EINTR` class that a signal or a
/// momentarily saturated device produces, not real failures.
fn is_transient(err: &io::Error) -> bool {
    matches!(
        err.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Paths of every live (open) store in this process. Guards against
/// double-opening one spill file into two independent caches.
fn live_registry() -> &'static Mutex<HashSet<PathBuf>> {
    static LIVE: OnceLock<Mutex<HashSet<PathBuf>>> = OnceLock::new();
    LIVE.get_or_init(|| Mutex::new(HashSet::new()))
}

fn absolute_path(path: &Path) -> PathBuf {
    if path.is_absolute() {
        path.to_path_buf()
    } else {
        std::env::current_dir()
            .map(|cwd| cwd.join(path))
            .unwrap_or_else(|_| path.to_path_buf())
    }
}

/// A store path's entry in the [`live_registry`]. Taken first by every
/// constructor and released when dropped, so a constructor that fails partway
/// releases it on its own; an open store holds it until the store drops.
#[derive(Debug)]
struct LiveClaim(PathBuf);

impl LiveClaim {
    fn acquire(path: &Path) -> io::Result<LiveClaim> {
        let key = absolute_path(path);
        let mut live = live_registry().lock().expect("live registry lock");
        if !live.insert(key.clone()) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!(
                    "block store {} is live (already open in this process); \
                     close it before reopening",
                    path.display()
                ),
            ));
        }
        Ok(LiveClaim(key))
    }
}

impl Drop for LiveClaim {
    fn drop(&mut self) {
        live_registry()
            .lock()
            .expect("live registry lock")
            .remove(&self.0);
    }
}

/// Path of generation `g`'s data file (generation 0 is the store path itself).
fn gen_path(base: &Path, generation: u32) -> PathBuf {
    if generation == 0 {
        base.to_path_buf()
    } else {
        sibling(base, &format!(".g{generation}"))
    }
}

fn manifest_path(base: &Path) -> PathBuf {
    sibling(base, ".manifest")
}

fn manifest_tmp_path(base: &Path) -> PathBuf {
    sibling(base, ".manifest.tmp")
}

fn sibling(base: &Path, suffix: &str) -> PathBuf {
    let mut os = base.as_os_str().to_os_string();
    os.push(suffix);
    PathBuf::from(os)
}

/// The generation number encoded in a sibling file name of `base`, if any
/// (`<base>.g<N>` → `Some(N)`).
fn sibling_generation(base: &Path, candidate: &Path) -> Option<u32> {
    let base_name = base.file_name()?.to_str()?;
    let name = candidate.file_name()?.to_str()?;
    let rest = name.strip_prefix(base_name)?.strip_prefix(".g")?;
    rest.parse().ok()
}

/// Best-effort delete of the sibling files of a store at `base` that hold no
/// directory state: the checkpoint temp file, and every `<base>.g<N>`
/// generation file whose `N` is not in `keep`.
fn remove_stale_siblings(base: &Path, keep: &HashSet<u32>) {
    let _ = std::fs::remove_file(manifest_tmp_path(base));
    let Some(parent) = base.parent().filter(|p| !p.as_os_str().is_empty()) else {
        return;
    };
    let Ok(entries) = std::fs::read_dir(parent) else {
        return;
    };
    for entry in entries.flatten() {
        let candidate = entry.path();
        if let Some(generation) = sibling_generation(base, &candidate) {
            if !keep.contains(&generation) {
                let _ = std::fs::remove_file(&candidate);
            }
        }
    }
}

/// The attributes a pin names: `columns`, or with `None` all `count` of them.
fn named(columns: Option<&[usize]>, count: usize) -> impl Iterator<Item = usize> + '_ {
    let all = columns.is_none().then_some(0..count);
    (columns.into_iter().flatten().copied()).chain(all.into_iter().flatten())
}

/// The section table of a frame this process just encoded.
fn section_table(frame: &[u8]) -> Arc<SectionTable> {
    let (table, _) = frame::decode_header(frame).expect("a frame just encoded decodes");
    Arc::new(table)
}

/// Where one frame lies: its generation file, byte offset and length.
struct FrameAt<'a> {
    file: &'a StoreFile,
    offset: u64,
    len: u32,
}

/// What one page-in read off disk.
struct PageIn {
    /// The frame's section table (read off the header section when the
    /// directory did not know it yet).
    sections: Arc<SectionTable>,
    /// The block's header section, with no attribute, if the page-in read it.
    header: Option<DataBlock>,
    /// The attributes the page-in decoded.
    columns: Vec<(usize, Arc<BlockColumn>)>,
}

/// How [`BlockStore::open_at`] comes by a store's files.
#[derive(Clone, Copy, PartialEq, Eq)]
enum OpenMode {
    /// Fresh, empty files; a `temp` store owns a new temporary path and deletes
    /// its files when it drops.
    Create { temp: bool },
    /// The files of a closed store, found through its manifest.
    Reopen,
}

/// A store's opened files and the directory they hold, as
/// [`BlockStore::create_files`] and [`BlockStore::replay_files`] hand them to
/// [`BlockStore::open_at`].
struct OpenedFiles {
    generations: HashMap<u32, File>,
    manifest: File,
    manifest_len: u64,
    inner: Inner,
}

impl BlockStore {
    /// Create a store over a fresh temporary file (deleted when the store drops).
    pub fn create_temp(capacity: usize) -> io::Result<Arc<BlockStore>> {
        BlockStore::create_temp_opts(capacity, Durability::Buffered, None)
    }

    /// [`BlockStore::create_temp`] with an explicit [`Durability`] mode and an
    /// optional [`FaultInjector`] (see [`BlockStore::create_opts`]).
    pub fn create_temp_opts(
        capacity: usize,
        durability: Durability,
        faults: Option<Arc<FaultInjector>>,
    ) -> io::Result<Arc<BlockStore>> {
        let n = TEMP_COUNTER.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("datablocks-spill-{}-{n}.dbs", std::process::id()));
        let mode = OpenMode::Create { temp: true };
        BlockStore::open_at(path, capacity, durability, faults, mode).map_err(io::Error::from)
    }

    /// Create a store over `path`, truncating any existing file (and its
    /// manifest) and removing the generation files of a previous store at the
    /// same path. The files are kept when the store drops.
    pub fn create(path: impl AsRef<Path>, capacity: usize) -> io::Result<Arc<BlockStore>> {
        BlockStore::create_opts(path, capacity, Durability::Buffered, None)
    }

    /// [`BlockStore::create`] with an explicit [`Durability`] mode and an
    /// optional [`FaultInjector`] threaded through every I/O site (see the
    /// module docs for the failpoint inventory).
    pub fn create_opts(
        path: impl AsRef<Path>,
        capacity: usize,
        durability: Durability,
        faults: Option<Arc<FaultInjector>>,
    ) -> io::Result<Arc<BlockStore>> {
        let path = path.as_ref().to_path_buf();
        let mode = OpenMode::Create { temp: false };
        BlockStore::open_at(path, capacity, durability, faults, mode).map_err(io::Error::from)
    }

    /// Reopen a closed store from its **manifest**, the store's only on-disk
    /// directory. Replay rebuilds the exact directory — generations, offsets,
    /// summaries and therefore per-block tombstone counts — **without reading
    /// any block payloads**. A torn final manifest record (a crash mid-append)
    /// is detected by its checksum or length, discarded, and the manifest is
    /// truncated back to its valid prefix. Generation files no longer
    /// referenced by any directory entry (orphans of a crashed compaction) are
    /// removed.
    ///
    /// # Errors
    ///
    /// Every error is returned before any file of the store is removed,
    /// truncated or created:
    ///
    /// * [`StoreError::Io`] of kind [`std::io::ErrorKind::NotFound`], naming
    ///   `<path>.manifest`, when the manifest is missing: the frames alone do
    ///   not say which of them are live.
    /// * [`StoreError::Io`] of kind [`std::io::ErrorKind::AlreadyExists`] when
    ///   `path` backs a store that is still live in this process — reopening a
    ///   live store would split its cache and corrupt the file on the next
    ///   rewrite.
    /// * [`StoreError::Frame`] when the manifest is damaged beyond a torn final
    ///   record — among them [`FrameError::UnsupportedVersion`] for a record of
    ///   another manifest version, wherever it sits — and [`StoreError::Io`]
    ///   when a generation file it references cannot be opened.
    pub fn reopen(path: impl AsRef<Path>, capacity: usize) -> Result<Arc<BlockStore>, StoreError> {
        BlockStore::reopen_opts(path, capacity, Durability::Buffered, None)
    }

    /// [`BlockStore::reopen`] with an explicit [`Durability`] mode and an
    /// optional [`FaultInjector`] (see [`BlockStore::create_opts`]).
    pub fn reopen_opts(
        path: impl AsRef<Path>,
        capacity: usize,
        durability: Durability,
        faults: Option<Arc<FaultInjector>>,
    ) -> Result<Arc<BlockStore>, StoreError> {
        let path = path.as_ref().to_path_buf();
        BlockStore::open_at(path, capacity, durability, faults, OpenMode::Reopen)
    }

    /// The one way a store is put together: claim `path` in the live registry,
    /// come by the files as `mode` says, wrap them. A failure at any step
    /// drops the claim, releasing the path.
    fn open_at(
        path: PathBuf,
        capacity: usize,
        durability: Durability,
        faults: Option<Arc<FaultInjector>>,
        mode: OpenMode,
    ) -> Result<Arc<BlockStore>, StoreError> {
        let claim = LiveClaim::acquire(&path)?;
        let opened = match mode {
            OpenMode::Create { temp } => BlockStore::create_files(&path, temp)?,
            OpenMode::Reopen => BlockStore::replay_files(&path)?,
        };
        let wrap = |file| StoreFile::new(file, faults.clone());
        let files = opened
            .generations
            .into_iter()
            .map(|(generation, file)| (generation, wrap(file)))
            .collect();
        let manifest = ManifestFile {
            file: wrap(opened.manifest),
            len: opened.manifest_len,
            pending: 0,
        };
        Ok(Arc::new(BlockStore {
            files: Mutex::new(files),
            inner: Mutex::new(opened.inner),
            retries: AtomicU64::new(0),
            capacity,
            path,
            _claim: claim,
            delete_on_drop: mode == OpenMode::Create { temp: true },
            durability,
            faults,
            manifest: Mutex::new(manifest),
            mutation: Mutex::new(()),
        }))
    }

    /// Fresh, empty files for a store at `path`. The manifest is created (or
    /// truncated) before the base file, so "the store path exists ⇒ its
    /// manifest exists" holds even after a crash inside this function.
    fn create_files(path: &Path, temp: bool) -> io::Result<OpenedFiles> {
        let manifest = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(manifest_path(path))?;
        remove_stale_siblings(path, &HashSet::new());
        let mut base = OpenOptions::new();
        base.read(true).write(true);
        if temp {
            base.create_new(true);
        } else {
            base.create(true).truncate(true);
        }
        Ok(OpenedFiles {
            generations: HashMap::from([(0, base.open(path)?)]),
            manifest,
            manifest_len: 0,
            inner: Inner::new(),
        })
    }

    /// The files of the closed store at `path` and the directory its manifest
    /// replays to. Every check runs before any file is changed, so each error
    /// leaves the store's files exactly as they were.
    fn replay_files(path: &Path) -> Result<OpenedFiles, StoreError> {
        let mpath = manifest_path(path);
        let bytes = std::fs::read(&mpath).map_err(|err| {
            io::Error::new(
                err.kind(),
                format!("block store manifest {}: {err}", mpath.display()),
            )
        })?;
        let (records, valid_len) = replay_manifest(&bytes)?;
        let (directory, current_gen) = BlockStore::directory_from_records(records)?;
        let manifest = OpenOptions::new().read(true).write(true).open(&mpath)?;

        // Open every generation the directory references, plus the append
        // generation.
        let mut referenced: HashSet<u32> = directory.iter().map(|e| e.generation).collect();
        referenced.insert(current_gen);
        let mut generations = HashMap::new();
        let mut on_disk = 0u64;
        for &generation in &referenced {
            let gpath = gen_path(path, generation);
            let file = OpenOptions::new()
                .read(true)
                .write(true)
                .open(&gpath)
                .map_err(|err| {
                    io::Error::new(
                        err.kind(),
                        format!(
                            "generation file {} referenced by the manifest: {err}",
                            gpath.display()
                        ),
                    )
                })?;
            on_disk += file.metadata()?.len();
            generations.insert(generation, file);
        }
        let end_offset = generations[&current_gen].metadata()?.len();

        // Every check passed: only now change files. A torn tail is cut so
        // later appends extend a clean log, and orphans of a crashed compaction
        // (generation files the manifest never came to reference) are removed.
        if valid_len < bytes.len() {
            manifest.set_len(valid_len as u64)?;
        }
        remove_stale_siblings(path, &referenced);

        let live_bytes: u64 = directory.iter().map(|e| e.len as u64).sum();
        let mut inner = Inner::new();
        inner.directory = directory;
        inner.current_gen = current_gen;
        inner.end_offset = end_offset;
        inner.live_bytes = live_bytes;
        inner.dead_bytes = on_disk.saturating_sub(live_bytes);
        Ok(OpenedFiles {
            generations,
            manifest,
            manifest_len: valid_len as u64,
            inner,
        })
    }

    /// Fold replayed manifest records into a directory. `Snapshot` resets the
    /// state (the checkpoint prefix); `Put` is last-writer-wins per block id. Two
    /// shapes of damage are rejected loudly rather than silently shrinking the
    /// store: a checkpoint whose declared entry count exceeds the `Put`s that
    /// actually follow (the torn tail ate checkpoint entries, not just an
    /// incremental append), and a directory with holes (an id never `Put`, e.g.
    /// a log torn between two concurrent appends).
    fn directory_from_records(
        records: Vec<ManifestRecord>,
    ) -> Result<(Vec<DirEntry>, u32), StoreError> {
        let mut slots: Vec<Option<DirEntry>> = Vec::new();
        let mut current_gen = 0u32;
        let mut snapshot_expected: Option<u32> = None;
        let mut puts_since_snapshot = 0u32;
        for record in records {
            match record {
                ManifestRecord::Snapshot {
                    generation,
                    entries,
                } => {
                    slots.clear();
                    current_gen = current_gen.max(generation);
                    snapshot_expected = Some(entries);
                    puts_since_snapshot = 0;
                }
                ManifestRecord::Put {
                    block_id,
                    generation,
                    offset,
                    len,
                    summary,
                } => {
                    let idx = block_id as usize;
                    if slots.len() <= idx {
                        slots.resize_with(idx + 1, || None);
                    }
                    slots[idx] = Some(DirEntry {
                        generation,
                        offset,
                        len,
                        summary,
                        sections: None,
                    });
                    current_gen = current_gen.max(generation);
                    puts_since_snapshot += 1;
                }
            }
        }
        if let Some(expected) = snapshot_expected {
            if puts_since_snapshot < expected {
                return Err(StoreError::Frame(FrameError::Corrupt(
                    "manifest checkpoint is torn (fewer entries than declared)",
                )));
            }
        }
        let mut directory = Vec::with_capacity(slots.len());
        for slot in slots {
            directory.push(slot.ok_or(StoreError::Frame(FrameError::Corrupt(
                "manifest leaves directory holes",
            )))?);
        }
        Ok((directory, current_gen))
    }

    /// The spill file location (generation 0; later generations live at
    /// `<path>.g<n>`, the manifest at `<path>.manifest`).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Delete every on-disk file of a **closed** store at `path`: the base
    /// generation file, all `<path>.g<N>` generation files, the manifest and
    /// its temp. The tidy-up counterpart of [`BlockStore::create`] with a
    /// `Some` path, for tests and benches cleaning up named stores — callers
    /// must not invoke it on a path that is still live.
    pub fn remove_files(path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        remove_stale_siblings(path, &HashSet::new());
        let _ = std::fs::remove_file(manifest_path(path));
        let _ = std::fs::remove_file(path);
        Ok(())
    }

    /// The configured cache byte budget.
    pub fn cache_capacity(&self) -> usize {
        self.capacity
    }

    /// Number of blocks in the directory.
    pub fn block_count(&self) -> usize {
        self.inner.lock().expect("store lock").directory.len()
    }

    /// Bytes of decoded blocks currently resident in the cache.
    pub fn cached_bytes(&self) -> usize {
        self.inner.lock().expect("store lock").cached_bytes
    }

    /// Largest cache residency, in bytes, the store has ever reached. Pinned
    /// blocks may push the resident set above
    /// [`cache_capacity`](BlockStore::cache_capacity) transiently; this is the
    /// observable bound on that overshoot (the query service's budget tests
    /// assert against it).
    pub fn cache_high_water_bytes(&self) -> usize {
        self.inner.lock().expect("store lock").cache_high_water
    }

    /// Bytes of frames the directory currently references.
    pub fn live_bytes(&self) -> u64 {
        self.inner.lock().expect("store lock").live_bytes
    }

    /// Bytes of superseded (dead) frames still occupying generation files.
    pub fn dead_bytes(&self) -> u64 {
        self.inner.lock().expect("store lock").dead_bytes
    }

    /// Set the garbage ratio (dead ÷ total on-disk bytes) above which the next
    /// mutation triggers dead-frame compaction. `1.0` disables auto-compaction.
    pub fn set_garbage_threshold(&self, ratio: f64) {
        self.inner.lock().expect("store lock").garbage_threshold = ratio.clamp(0.0, 1.0);
    }

    /// Snapshot of the I/O and cache counters.
    pub fn stats(&self) -> IoStats {
        let mut stats = self.inner.lock().expect("store lock").stats;
        stats.retries = self.retries.load(Ordering::Relaxed);
        stats
    }

    /// Reset the I/O and cache counters (the bench harness isolates phases with
    /// this).
    pub fn reset_stats(&self) {
        self.inner.lock().expect("store lock").stats = IoStats::default();
        self.retries.store(0, Ordering::Relaxed);
    }

    /// The store's power-loss durability mode.
    pub fn durability(&self) -> Durability {
        self.durability
    }

    /// Serialized size of block `id` on disk, in bytes.
    pub fn entry_len(&self, id: BlockId) -> usize {
        self.inner.lock().expect("store lock").directory[id].len as usize
    }

    /// Where the sections of block `id`'s frame lie, once the store knows it:
    /// from the write, or after a reopen from the block's first page-in.
    pub fn sections(&self, id: BlockId) -> Option<Arc<SectionTable>> {
        self.inner.lock().expect("store lock").directory[id]
            .sections
            .clone()
    }

    /// Consult the hot, in-memory summary of block `id` without any I/O.
    pub fn with_summary<R>(&self, id: BlockId, f: impl FnOnce(&BlockSummary) -> R) -> R {
        let inner = self.inner.lock().expect("store lock");
        f(&inner.directory[id].summary)
    }

    /// Is the store running with fsync barriers on?
    fn sync_mode(&self) -> bool {
        matches!(self.durability, Durability::Sync { .. })
    }

    /// Append one record to the manifest log. Under [`Durability::Sync`] the
    /// log is group-committed: one `fsync` per `group_commit` records (the
    /// batch a crash can lose is therefore bounded at `group_commit - 1`
    /// acknowledged records; `group_commit: 1` syncs every append).
    fn append_manifest(&self, record: &ManifestRecord) -> io::Result<()> {
        let bytes = manifest_record_to_bytes(record);
        let mut manifest = self.manifest.lock().expect("manifest lock");
        let offset = manifest.len;
        self.retry_io(|| {
            manifest
                .file
                .write_all_at(&bytes, offset, "manifest.append")
        })?;
        manifest.len += bytes.len() as u64;
        if let Durability::Sync { group_commit } = self.durability {
            manifest.pending += 1;
            if manifest.pending >= group_commit.max(1) {
                self.retry_io(|| manifest.file.sync_data("manifest.sync"))?;
                manifest.pending = 0;
            }
        }
        Ok(())
    }

    /// Checkpoint the manifest: rewrite it from scratch as one `Snapshot` plus
    /// one `Put` per directory entry, swapped in atomically via a temp file and
    /// rename. Runs on close (drop) and after every compaction; callable any
    /// time to bound manifest growth.
    ///
    /// Takes the mutation lock: the directory snapshot and the rename must not
    /// interleave with an append/rewrite, whose `Put` in the pre-rename file
    /// would otherwise be discarded *without* being reflected in the snapshot.
    pub fn checkpoint(&self) -> io::Result<()> {
        let _mutation = self.mutation.lock().expect("store mutation lock");
        self.checkpoint_locked()
    }

    /// The checkpoint body; caller holds the mutation lock (so the directory
    /// cannot change between the snapshot below and the rename).
    fn checkpoint_locked(&self) -> io::Result<()> {
        let records = {
            let inner = self.inner.lock().expect("store lock");
            let mut records = Vec::with_capacity(inner.directory.len() + 1);
            records.push(ManifestRecord::Snapshot {
                generation: inner.current_gen,
                entries: inner.directory.len() as u32,
            });
            for (id, entry) in inner.directory.iter().enumerate() {
                records.push(ManifestRecord::Put {
                    block_id: id as u32,
                    generation: entry.generation,
                    offset: entry.offset,
                    len: entry.len,
                    summary: entry.summary.clone(),
                });
            }
            records
        };
        let mut bytes = Vec::new();
        for record in &records {
            bytes.extend_from_slice(&manifest_record_to_bytes(record));
        }
        let tmp = manifest_tmp_path(&self.path);
        {
            let file = OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp)?;
            let tmp_file = StoreFile::new(file, self.faults.clone());
            self.retry_io(|| tmp_file.write_all_at(&bytes, 0, "checkpoint.write"))?;
            // Under Sync the rename below is a true commit point: the bytes it
            // publishes must already be on stable storage.
            if self.sync_mode() {
                self.retry_io(|| tmp_file.sync_data("checkpoint.sync"))?;
            }
        }
        // The mutation lock (held by the caller) already excludes concurrent
        // appends/rewrites; the manifest lock below additionally keeps the
        // handle swap atomic with respect to any other reader of the struct.
        let mut manifest = self.manifest.lock().expect("manifest lock");
        faults::failpoint(&self.faults, "checkpoint.rename")?;
        std::fs::rename(&tmp, manifest_path(&self.path))?;
        if self.sync_mode() {
            // Persist the directory entry for the rename itself — without this
            // a power cut can roll the whole swap back.
            if let Some(parent) = self.path.parent().filter(|p| !p.as_os_str().is_empty()) {
                let dir = StoreFile::new(File::open(parent)?, self.faults.clone());
                self.retry_io(|| dir.sync_all("checkpoint.dir_sync"))?;
            }
        }
        manifest.file = StoreFile::new(
            OpenOptions::new()
                .read(true)
                .write(true)
                .open(manifest_path(&self.path))?,
            self.faults.clone(),
        );
        manifest.len = bytes.len() as u64;
        manifest.pending = 0;
        Ok(())
    }

    /// Serialize `block`, append its frame to the current generation file,
    /// register it in the directory and log the mutation to the manifest. The
    /// decoded block is admitted to the cache **unpinned** (so a freeze
    /// immediately followed by a scan hits memory, while a tiny cache evicts it
    /// right away — write-out on freeze either way). Returns the new block's id.
    ///
    /// Takes the store's mutation lock (like every directory mutation): a
    /// compaction or checkpoint must never observe a directory entry whose
    /// frame bytes are still being written. Pins don't take this lock, so
    /// cache-hit reads never stall behind an append.
    pub fn append(&self, block: Arc<DataBlock>) -> io::Result<BlockId> {
        let _mutation = self.mutation.lock().expect("store mutation lock");
        let bytes = frame::to_frame(&block);
        let sections = section_table(&bytes);
        let summary = BlockSummary::of(&block);
        // Reserve the file range and directory slot under the inner lock, then
        // write without it, so cache-hit pins never stall behind spill I/O.
        // Publishing the directory entry before the bytes are durable is safe:
        // the id is unreachable by any reader until this call returns it, and
        // the mutation lock held above keeps compaction from copying the
        // half-written frame. (If the write fails, the reserved entry points at
        // unwritten bytes; callers treat a failed append as fatal and never
        // hand the id out.)
        let (generation, offset, id) = {
            let mut inner = self.inner.lock().expect("store lock");
            let generation = inner.current_gen;
            let offset = inner.end_offset;
            inner.end_offset += bytes.len() as u64;
            inner.live_bytes += bytes.len() as u64;
            let id = inner.directory.len();
            inner.directory.push(DirEntry {
                generation,
                offset,
                len: bytes.len() as u32,
                summary: summary.clone(),
                sections: Some(sections),
            });
            (generation, offset, id)
        };
        let gen_file = self
            .gen_file(generation)
            .expect("current generation file is open");
        self.retry_io(|| gen_file.write_all_at(&bytes, offset, "gen.append_write"))?;
        // Sync barrier: the frame must be on stable storage *before* the
        // manifest Put that references it, or a power cut could replay a
        // directory pointing at bytes the disk never got.
        if self.sync_mode() {
            self.retry_io(|| gen_file.sync_data("gen.sync"))?;
        }
        self.append_manifest(&ManifestRecord::Put {
            block_id: id as u32,
            generation,
            offset,
            len: bytes.len() as u32,
            summary,
        })?;
        let mut inner = self.inner.lock().expect("store lock");
        inner.stats.block_writes += 1;
        inner.stats.bytes_written += bytes.len() as u64;
        self.admit(&mut inner, id, block, true);
        Ok(id)
    }

    /// Replace block `id` with a new version: append the new frame at the end of
    /// the current generation file, repoint the directory entry, log the mutation
    /// to the manifest and refresh the cached copy (the old frame becomes dead
    /// space, reclaimed by the next compaction). This is how delete flags reach
    /// spilled blocks — the "update a frozen record" path of the paper, applied
    /// to the on-disk tier.
    ///
    /// Takes the store's mutation lock; may trigger dead-frame compaction when
    /// the garbage threshold is crossed.
    pub fn rewrite(&self, id: BlockId, block: Arc<DataBlock>) -> io::Result<()> {
        let _mutation = self.mutation.lock().expect("store mutation lock");
        self.rewrite_locked(id, block)?;
        self.maybe_compact_locked()
    }

    /// The rewrite body; caller holds the mutation lock.
    fn rewrite_locked(&self, id: BlockId, block: Arc<DataBlock>) -> io::Result<()> {
        let bytes = frame::to_frame(&block);
        let sections = section_table(&bytes);
        let summary = BlockSummary::of(&block);
        // Reserve the file range under the lock, write without it (same reasoning
        // as in `append`). The directory is repointed only after the write
        // completes, so concurrent pins read the old, fully written version until
        // the rewrite commits — and `pin`'s position re-check catches the flip.
        let (generation, offset) = {
            let mut inner = self.inner.lock().expect("store lock");
            let generation = inner.current_gen;
            let offset = inner.end_offset;
            inner.end_offset += bytes.len() as u64;
            (generation, offset)
        };
        let gen_file = self
            .gen_file(generation)
            .expect("current generation file is open");
        self.retry_io(|| gen_file.write_all_at(&bytes, offset, "gen.rewrite_write"))?;
        // Same barrier as `append`: frame durable before the Put referencing it.
        if self.sync_mode() {
            self.retry_io(|| gen_file.sync_data("gen.sync"))?;
        }
        self.append_manifest(&ManifestRecord::Put {
            block_id: id as u32,
            generation,
            offset,
            len: bytes.len() as u32,
            summary: summary.clone(),
        })?;
        let mut inner = self.inner.lock().expect("store lock");
        inner.stats.block_writes += 1;
        inner.stats.bytes_written += bytes.len() as u64;
        let old_len = inner.directory[id].len as u64;
        inner.dead_bytes += old_len;
        inner.live_bytes = inner.live_bytes - old_len + bytes.len() as u64;
        inner.directory[id] = DirEntry {
            generation,
            offset,
            len: bytes.len() as u32,
            summary,
            sections: Some(sections),
        };
        if let Some(entry) = inner.cache.get_mut(&id) {
            // Readers still holding the old Arc keep reading the old version; new
            // pins observe the rewrite.
            let new_bytes = block.byte_size();
            let old_bytes = std::mem::replace(&mut entry.bytes, new_bytes);
            entry.block = block;
            inner.cached_bytes = inner.cached_bytes - old_bytes + new_bytes;
            inner.cache_high_water = inner.cache_high_water.max(inner.cached_bytes);
            self.evict_to_capacity(&mut inner);
        } else {
            self.admit(&mut inner, id, block, true);
        }
        Ok(())
    }

    /// Compact if the garbage ratio crossed the threshold; caller holds the
    /// mutation lock.
    fn maybe_compact_locked(&self) -> io::Result<()> {
        let over = {
            let inner = self.inner.lock().expect("store lock");
            let total = inner.live_bytes + inner.dead_bytes;
            inner.dead_bytes > 0
                && total > 0
                && !inner.directory.is_empty()
                && (inner.dead_bytes as f64 / total as f64) > inner.garbage_threshold
        };
        if over {
            self.compact_locked()?;
        }
        Ok(())
    }

    /// Compact the store now: copy every live, unpinned frame byte-for-byte into
    /// a fresh generation file, repoint the directory, checkpoint the manifest
    /// (the atomic swap) and delete generation files no longer referenced by any
    /// entry. Pinned frames are never moved — they stay in their old generation,
    /// which survives until nothing references it.
    ///
    /// Runs automatically from [`BlockStore::rewrite`] / [`BlockStore::mutate`]
    /// when the garbage threshold is crossed.
    pub fn compact(&self) -> io::Result<()> {
        let _mutation = self.mutation.lock().expect("store mutation lock");
        self.compact_locked()
    }

    /// The compaction body; caller holds the mutation lock (so no append id can
    /// be rewritten mid-pass — appends may still add *new* ids, which land in the
    /// new generation file and are untouched here).
    fn compact_locked(&self) -> io::Result<()> {
        // Snapshot the directory and the pinned set. Pins taken after this
        // snapshot are safe either way: the frame contents are identical in both
        // generations, and old generation files are only deleted once no
        // directory entry references them (open handles keep in-flight reads
        // alive even past the unlink).
        let (entries, pinned, old_gen) = {
            let inner = self.inner.lock().expect("store lock");
            let pinned: HashSet<BlockId> = inner
                .cache
                .iter()
                .filter(|(_, e)| e.pins > 0)
                .map(|(&id, _)| id)
                .collect();
            (inner.directory.clone(), pinned, inner.current_gen)
        };
        let new_gen = old_gen + 1;
        let new_path = gen_path(&self.path, new_gen);
        let new_file = StoreFile::new(
            OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(&new_path)?,
            self.faults.clone(),
        );

        let mut moves: Vec<(BlockId, u64)> = Vec::new();
        let mut write_off = 0u64;
        let mut moved_bytes = 0u64;
        let mut skipped = 0u64;
        for (id, entry) in entries.iter().enumerate() {
            if pinned.contains(&id) {
                skipped += 1;
                continue;
            }
            let mut buf = vec![0u8; entry.len as usize];
            // The mutation lock (held here) excludes other compactions and all
            // directory mutations, so every referenced generation stays open.
            let src = self
                .gen_file(entry.generation)
                .expect("referenced generation file is open during compaction");
            self.retry_io(|| src.read_exact_at(&mut buf, entry.offset, "compact.read"))?;
            self.retry_io(|| new_file.write_all_at(&buf, write_off, "compact.write"))?;
            moves.push((id, write_off));
            write_off += entry.len as u64;
            moved_bytes += entry.len as u64;
        }
        // Sync barrier: the copied frames must be durable before the
        // checkpoint below publishes directory entries pointing at them.
        if self.sync_mode() {
            self.retry_io(|| new_file.sync_data("compact.sync"))?;
        }

        // Publish the new generation file before repointing, so a pin that
        // observes a repointed entry always finds its file handle.
        self.files
            .lock()
            .expect("store files lock")
            .insert(new_gen, new_file);

        let referenced = {
            let mut inner = self.inner.lock().expect("store lock");
            for &(id, offset) in &moves {
                // The mutation lock bars rewrites, so the snapshot positions are
                // still current; only repointing is left.
                let entry = &mut inner.directory[id];
                entry.generation = new_gen;
                entry.offset = offset;
            }
            inner.current_gen = new_gen;
            inner.end_offset = write_off;
            inner.stats.compactions += 1;
            inner.stats.compacted_frames += moves.len() as u64;
            inner.stats.compacted_bytes += moved_bytes;
            inner.stats.compaction_pinned_skipped += skipped;
            inner
                .directory
                .iter()
                .map(|e| e.generation)
                .chain(std::iter::once(new_gen))
                .collect::<HashSet<u32>>()
        };

        // Durable swap: the checkpointed manifest is the commit point. A crash
        // before the rename leaves the old manifest (pointing at the old
        // generations, all still present); after it, the new one. Either state
        // replays to a consistent directory. (The caller already holds the
        // mutation lock — take the `_locked` entry point.)
        self.checkpoint_locked()?;

        // Reclaim: close and delete generation files nothing references anymore.
        // Generation 0 is special — its file *is* the store path, the identity
        // callers (and `reopen`) look for on disk — so it is truncated to zero
        // bytes rather than unlinked.
        {
            let mut files = self.files.lock().expect("store files lock");
            let stale: Vec<u32> = files
                .keys()
                .filter(|g| !referenced.contains(g))
                .copied()
                .collect();
            for generation in stale {
                if generation == 0 {
                    if let Some(file) = files.get(&0) {
                        let _ = file.set_len(0, "compact.reclaim");
                    }
                    continue;
                }
                files.remove(&generation);
                let _ = std::fs::remove_file(gen_path(&self.path, generation));
            }
        }

        // Dead bytes now: whatever survives on disk beyond the live frames —
        // old generations kept alive by pinned frames still carry their garbage.
        // (The files lock is released before taking `inner`: nothing in the
        // store may ever hold `files` while waiting on `inner`.)
        let on_disk = {
            let files = self.files.lock().expect("store files lock");
            let mut total = 0u64;
            for file in files.values() {
                total += file.metadata()?.len();
            }
            total
        };
        {
            let mut inner = self.inner.lock().expect("store lock");
            inner.dead_bytes = on_disk.saturating_sub(inner.live_bytes);
        }
        Ok(())
    }

    /// The open handle of generation `generation`'s data file. `None` when the
    /// generation has been closed by a compaction that ran after the caller
    /// snapshotted a directory entry — readers treat that exactly like a
    /// repointed entry and retry against the fresh directory.
    fn gen_file(&self, generation: u32) -> Option<StoreFile> {
        self.files
            .lock()
            .expect("store files lock")
            .get(&generation)
            .cloned()
    }

    /// Run `op`, retrying up to [`MAX_IO_RETRIES`] times on transient error
    /// kinds (`Interrupted`/`WouldBlock`/`TimedOut`). Every absorbed failure is
    /// counted in [`IoStats::retries`]; a persistent fault still surfaces.
    fn retry_io<T>(&self, mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
        let mut attempts = 0u32;
        loop {
            match op() {
                Err(err) if attempts < MAX_IO_RETRIES && is_transient(&err) => {
                    attempts += 1;
                    self.retries.fetch_add(1, Ordering::Relaxed);
                }
                other => return other,
            }
        }
    }

    /// Admit `block` on probation, pinned once unless the writer admits it.
    fn admit(&self, inner: &mut Inner, id: BlockId, block: Arc<DataBlock>, by_writer: bool) {
        let bytes = block.byte_size();
        inner.cache.insert(
            id,
            CacheEntry {
                block,
                pins: u32::from(!by_writer),
                referenced: false,
                last_use: inner.page_ins,
                by_writer,
                bytes,
            },
        );
        inner.cached_bytes += bytes;
        inner.cache_high_water = inner.cache_high_water.max(inner.cached_bytes);
        self.evict_to_capacity(inner);
    }

    /// Evict unpinned blocks until the cache fits: (1) stale entries, untouched by pins for
    /// `block_count()` page-ins, least recently used first; (2) entries on probation, the
    /// writer's first, then a reader's newest first; (3) else every unpinned entry loses its
    /// referenced bit and the choice repeats. Pinned blocks stay (the cache overshoots).
    fn evict_to_capacity(&self, inner: &mut Inner) {
        let horizon = inner.directory.len() as u64;
        while inner.cached_bytes > self.capacity {
            let unpinned = || (inner.cache.iter()).filter(|(_, entry)| entry.pins == 0);
            let stale = unpinned()
                .filter(|(_, entry)| entry.last_use + horizon <= inner.page_ins)
                .min_by_key(|&(&id, entry)| (entry.last_use, id));
            let victim = stale.or_else(|| {
                (unpinned().filter(|(_, entry)| !entry.referenced))
                    .max_by_key(|&(&id, entry)| (entry.by_writer, entry.last_use, id))
            });
            match victim.map(|(&id, _)| id) {
                Some(id) => {
                    let entry = inner.cache.remove(&id).expect("the victim is cached");
                    inner.cached_bytes -= entry.bytes;
                    inner.stats.evictions += 1;
                }
                None if unpinned().any(|(_, entry)| entry.referenced) => {
                    (inner.cache.values_mut()).for_each(|entry| entry.referenced &= entry.pins > 0)
                }
                None => break,
            }
        }
    }

    /// Pin block `id` whole — every attribute paged in — and return a guard
    /// that keeps it cached (and the underlying `Arc` alive) until dropped.
    /// The all-attributes case of [`BlockStore::pin_columns`].
    pub fn pin(self: &Arc<Self>, id: BlockId) -> Result<PinnedBlock, StoreError> {
        self.pin_where(id, None)
    }

    /// Pin block `id` with attributes `columns` paged in (an empty list pages
    /// in the header section alone: tuple count and delete flags) and return a
    /// guard that keeps the block cached until dropped. Scans hold one pin per
    /// morsel, so a worker never observes eviction mid-scan.
    ///
    /// A miss reads and verifies only the sections the cached entry lacks:
    /// the header section when the block is not cached at all, and each named
    /// attribute the entry does not hold yet. The entry then holds the union,
    /// and the returned block may hold more attributes than were named. An
    /// attribute the returned block does not hold panics when read.
    pub fn pin_columns(
        self: &Arc<Self>,
        id: BlockId,
        columns: &[usize],
    ) -> Result<PinnedBlock, StoreError> {
        self.pin_where(id, Some(columns))
    }

    /// The one page-in path: [`BlockStore::pin`] with `columns: None` (every
    /// attribute), [`BlockStore::pin_columns`] with a list.
    fn pin_where(
        self: &Arc<Self>,
        id: BlockId,
        columns: Option<&[usize]>,
    ) -> Result<PinnedBlock, StoreError> {
        let block = loop {
            let (generation, offset, len, sections, cached) = {
                let inner = &mut *self.inner.lock().expect("store lock");
                if let Some(entry) = inner.cache.get_mut(&id) {
                    let block = &entry.block;
                    let held = match columns {
                        None => block.has_all_columns(),
                        Some(columns) => columns.iter().all(|&col| block.has_column(col)),
                    };
                    if held {
                        entry.pins += 1;
                        entry.referenced = true;
                        entry.last_use = inner.page_ins;
                        inner.stats.cache_hits += 1;
                        break Arc::clone(&entry.block);
                    }
                }
                let cached = inner.cache.get(&id).map(|entry| Arc::clone(&entry.block));
                inner.stats.cache_misses += 1;
                inner.stats.block_reads += 1;
                inner.page_ins += 1;
                let entry = &inner.directory[id];
                let sections = entry.sections.clone();
                (entry.generation, entry.offset, entry.len, sections, cached)
            };
            // Read and decode without holding the lock: misses on different blocks
            // proceed in parallel. Failures are judged *after* re-checking the
            // directory — a concurrent compaction may have closed this
            // generation (`gen_file` → `None`), truncated the reclaimed
            // generation-0 file mid-read, or repointed the entry, all of which
            // surface as I/O or checksum errors here but simply mean "retry
            // against the fresh directory entry".
            let mut bytes_read = 0u64;
            let loaded = match self.gen_file(generation) {
                Some(file) => {
                    let frame = FrameAt {
                        file: &file,
                        offset,
                        len,
                    };
                    self.page_in(
                        &frame,
                        sections,
                        cached.as_deref(),
                        columns,
                        &mut bytes_read,
                    )
                }
                None => Err(StoreError::Io(io::Error::new(
                    io::ErrorKind::NotFound,
                    "generation file closed by compaction",
                ))),
            };

            let inner = &mut *self.inner.lock().expect("store lock");
            inner.stats.bytes_read += bytes_read;
            let current = &inner.directory[id];
            if current.offset != offset || current.generation != generation {
                // A rewrite (or compaction) repointed the block while we were
                // reading the old frame: publishing our copy could resurrect
                // pre-rewrite data for every later pin — and any read failure
                // above was the concurrent move, not corruption. Retry against
                // the new directory entry (a wasted read is counted — the
                // counters report I/O performed).
                continue;
            }
            // Entry unmoved: a failure here is real (disk error, bit rot).
            let loaded = loaded?;
            inner.directory[id].sections.get_or_insert(loaded.sections);
            // Merge into whatever is cached now: another worker may have
            // published attributes while we read (the entry is then at least
            // as new as our read — the directory did not move), or the entry
            // may have been evicted (our own snapshot of it is still current).
            if let Some(entry) = inner.cache.get_mut(&id) {
                if (loaded.columns.iter()).any(|&(col, _)| !entry.block.has_column(col)) {
                    entry.block = Arc::new(entry.block.with_columns(loaded.columns));
                    let old_bytes = std::mem::replace(&mut entry.bytes, entry.block.byte_size());
                    inner.cached_bytes = inner.cached_bytes - old_bytes + entry.bytes;
                    inner.cache_high_water = inner.cache_high_water.max(inner.cached_bytes);
                }
                entry.pins += 1;
                entry.referenced = true;
                entry.last_use = inner.page_ins;
                let block = Arc::clone(&entry.block);
                self.evict_to_capacity(inner);
                break block;
            }
            let base = loaded
                .header
                .or_else(|| cached.as_deref().cloned())
                .expect("a page-in without a cached entry reads the header section");
            let block = Arc::new(base.with_columns(loaded.columns));
            self.admit(inner, id, Arc::clone(&block), false);
            break block;
        };
        Ok(PinnedBlock {
            store: Arc::clone(self),
            id,
            block,
        })
    }

    /// Read and verify the sections of one frame that a pin needs: the header
    /// section unless `cached` holds it (or the section table is not known
    /// yet), and each attribute of `columns` (`None`: all) that `cached`
    /// lacks. Adjacent sections are read together; `bytes_read` counts every
    /// section read.
    fn page_in(
        &self,
        frame: &FrameAt<'_>,
        sections: Option<Arc<SectionTable>>,
        cached: Option<&DataBlock>,
        columns: Option<&[usize]>,
        bytes_read: &mut u64,
    ) -> Result<PageIn, StoreError> {
        let mut header = None;
        let sections = match sections {
            Some(sections) => sections,
            None => {
                // After a reopen: the prefix says how long the header section
                // is, then the rest of it is read, verified and decoded.
                let prefix_len = frame::FRAME_PREFIX_LEN.min(frame.len as usize);
                let mut bytes = self.read_frame_range(frame, 0..prefix_len, bytes_read)?;
                let header_len = frame::header_len(&bytes)?.min(frame.len as usize);
                let rest = self.read_frame_range(frame, bytes.len()..header_len, bytes_read)?;
                bytes.extend_from_slice(&rest);
                let (table, block) = frame::decode_header(&bytes)?;
                header = Some(block);
                Arc::new(table)
            }
        };
        if sections.frame_len() != frame.len as usize {
            return Err(
                FrameError::Corrupt("section table disagrees with the frame length").into(),
            );
        }
        let read_header = header.is_none() && cached.is_none();
        let mut missing: Vec<usize> = named(columns, sections.attributes.len())
            .filter(|&col| !cached.is_some_and(|block| block.has_column(col)))
            .collect();
        missing.sort_unstable();
        missing.dedup();
        // The byte ranges to read, in frame order, adjacent ones joined.
        let mut parts: Vec<std::ops::Range<usize>> = missing
            .iter()
            .map(|&col| sections.attributes[col].range())
            .collect();
        if read_header {
            parts.push(0..sections.header_len as usize);
        }
        parts.sort_by_key(|range| range.start);
        parts.dedup();
        let mut runs: Vec<(usize, Vec<u8>)> = Vec::new();
        let mut start = 0;
        while start < parts.len() {
            let mut end = start + 1;
            while end < parts.len() && parts[end].start == parts[end - 1].end {
                end += 1;
            }
            let range = parts[start].start..parts[end - 1].end;
            runs.push((
                range.start,
                self.read_frame_range(frame, range, bytes_read)?,
            ));
            start = end;
        }
        let bytes_of = |range: std::ops::Range<usize>| -> &[u8] {
            let (at, run) = (runs.iter())
                .rfind(|(at, _)| *at <= range.start)
                .expect("every part lies in a run");
            &run[range.start - at..range.end - at]
        };
        if read_header {
            let (table, block) = frame::decode_header(bytes_of(0..sections.header_len as usize))?;
            if table != *sections {
                return Err(
                    FrameError::Corrupt("frame header disagrees with the store directory").into(),
                );
            }
            header = Some(block);
        }
        let rows = header
            .as_ref()
            .or(cached)
            .expect("the header section is cached or read")
            .tuple_count();
        let mut columns = Vec::with_capacity(missing.len());
        for col in missing {
            let section = bytes_of(sections.attributes[col].range());
            columns.push((
                col,
                Arc::new(sections.decode_attribute(col, section, rows)?),
            ));
        }
        Ok(PageIn {
            sections,
            header,
            columns,
        })
    }

    /// Read bytes `range` of a frame, counting them in `bytes_read`.
    fn read_frame_range(
        &self,
        frame: &FrameAt<'_>,
        range: std::ops::Range<usize>,
        bytes_read: &mut u64,
    ) -> Result<Vec<u8>, StoreError> {
        let mut bytes = vec![0u8; range.len()];
        *bytes_read += range.len() as u64;
        let at = frame.offset + range.start as u64;
        self.retry_io(|| frame.file.read_exact_at(&mut bytes, at, "pin.read"))?;
        Ok(bytes)
    }

    /// [`BlockStore::pin`] with the typed scan error: a failure comes back as a
    /// [`ColdReadError`] naming the block id, generation file and byte offset
    /// of the frame that could not be loaded. This is the error the scan paths
    /// carry out of worker threads instead of panicking.
    pub fn pin_described(self: &Arc<Self>, id: BlockId) -> Result<PinnedBlock, ColdReadError> {
        self.pin(id).map_err(|err| self.cold_read_error(id, err))
    }

    /// [`BlockStore::pin_columns`] with the typed scan error of
    /// [`BlockStore::pin_described`].
    pub fn pin_columns_described(
        self: &Arc<Self>,
        id: BlockId,
        columns: &[usize],
    ) -> Result<PinnedBlock, ColdReadError> {
        (self.pin_columns(id, columns)).map_err(|err| self.cold_read_error(id, err))
    }

    fn cold_read_error(&self, id: BlockId, err: StoreError) -> ColdReadError {
        // A pin fails only when the directory entry was *unmoved* across the
        // read, so the position it reports now is the one that failed.
        let (generation, offset) = {
            let inner = self.inner.lock().expect("store lock");
            inner
                .directory
                .get(id)
                .map(|e| (e.generation, e.offset))
                .unwrap_or((0, 0))
        };
        ColdReadError {
            block_id: id,
            generation,
            offset,
            detail: err.to_string(),
        }
    }

    /// Atomically read-modify-write block `id`: `f` receives the current version
    /// and returns the replacement block (or `None` to leave it unchanged) plus a
    /// caller result. The whole load → rebuild → rewrite sequence holds the
    /// store's mutation lock, so two relation clones mutating the same block
    /// through their shared store serialise instead of losing an update. May
    /// trigger dead-frame compaction when the garbage threshold is crossed.
    pub fn mutate<R>(
        self: &Arc<Self>,
        id: BlockId,
        f: impl FnOnce(&DataBlock) -> (Option<DataBlock>, R),
    ) -> Result<R, StoreError> {
        let _mutation = self.mutation.lock().expect("store mutation lock");
        let pinned = self.pin(id)?;
        let (replacement, result) = f(&pinned);
        drop(pinned);
        if let Some(block) = replacement {
            self.rewrite_locked(id, Arc::new(block))?;
            self.maybe_compact_locked()?;
        }
        Ok(result)
    }

    /// Drop every unpinned cached block (the bench harness uses this to measure
    /// cold scans).
    pub fn clear_cache(&self) {
        let inner = &mut *self.inner.lock().expect("store lock");
        let mut freed = 0;
        inner.cache.retain(|_, entry| {
            if entry.pins > 0 {
                true
            } else {
                freed += entry.bytes;
                false
            }
        });
        inner.cached_bytes -= freed;
    }

    /// Number of cached blocks with at least one live pin. Streaming scans hold one
    /// pin per in-flight cold morsel, so this never exceeds the worker count — the
    /// tests of the bounded streaming scan assert exactly that.
    pub fn pinned_count(&self) -> usize {
        self.inner
            .lock()
            .expect("store lock")
            .cache
            .values()
            .filter(|entry| entry.pins > 0)
            .count()
    }

    /// Is block `id` currently resident in the cache? (Test/bench introspection.)
    pub fn is_cached(&self, id: BlockId) -> bool {
        self.inner
            .lock()
            .expect("store lock")
            .cache
            .contains_key(&id)
    }

    /// Which generation file holds block `id`'s frame (test/bench introspection —
    /// compaction tests assert pinned frames stay put).
    pub fn entry_generation(&self, id: BlockId) -> u32 {
        self.inner.lock().expect("store lock").directory[id].generation
    }

    /// Drop one pin of block `id`; the last one evicts any overshoot pins left.
    fn unpin(&self, id: BlockId) {
        let inner = &mut *self.inner.lock().expect("store lock");
        if let Some(entry) = inner.cache.get_mut(&id) {
            debug_assert!(entry.pins > 0, "unpin without pin");
            entry.pins = entry.pins.saturating_sub(1);
            if entry.pins == 0 {
                self.evict_to_capacity(inner);
            }
        }
    }
}

impl Drop for BlockStore {
    fn drop(&mut self) {
        if self.delete_on_drop {
            let generations: Vec<u32> = self
                .files
                .lock()
                .expect("store files lock")
                .keys()
                .copied()
                .collect();
            for generation in generations {
                let _ = std::fs::remove_file(gen_path(&self.path, generation));
            }
            let _ = std::fs::remove_file(manifest_path(&self.path));
            let _ = std::fs::remove_file(manifest_tmp_path(&self.path));
        } else {
            // Clean close: checkpoint so reopen replays one snapshot instead of
            // the whole mutation history (best effort — the incremental log is
            // still valid if this fails).
            let _ = self.checkpoint();
        }
    }
}

/// A pinned, decoded block. Dereferences to [`DataBlock`]; the pin (and therefore
/// cache residency of the block) is released on drop. Even after an unlikely forced
/// eviction the `Arc` keeps the data alive, so holding a `PinnedBlock` is always
/// safe — pinning exists to prevent eviction churn and duplicate loads, not to
/// uphold memory safety.
#[derive(Debug)]
pub struct PinnedBlock {
    store: Arc<BlockStore>,
    id: BlockId,
    block: Arc<DataBlock>,
}

impl Deref for PinnedBlock {
    type Target = DataBlock;
    fn deref(&self) -> &DataBlock {
        &self.block
    }
}

impl Drop for PinnedBlock {
    fn drop(&mut self) {
        self.store.unpin(self.id);
    }
}

/// A borrowed view of one cold block of a relation, resolving transparently to the
/// heap-resident block or to a pinned copy paged in from the spill file. Returned by
/// [`crate::Relation::cold_block`]; dereferences to [`DataBlock`].
#[derive(Debug)]
pub struct BlockRef {
    inner: BlockRefInner,
}

#[derive(Debug)]
enum BlockRefInner {
    Resident(Arc<DataBlock>),
    Pinned(PinnedBlock),
}

impl BlockRef {
    pub(crate) fn resident(block: Arc<DataBlock>) -> BlockRef {
        BlockRef {
            inner: BlockRefInner::Resident(block),
        }
    }

    pub(crate) fn pinned(block: PinnedBlock) -> BlockRef {
        BlockRef {
            inner: BlockRefInner::Pinned(block),
        }
    }
}

impl Deref for BlockRef {
    type Target = DataBlock;
    fn deref(&self) -> &DataBlock {
        match &self.inner {
            BlockRefInner::Resident(block) => block,
            BlockRefInner::Pinned(pinned) => pinned,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datablocks::builder::{freeze, int_column, str_column};
    use datablocks::Value;
    use std::os::unix::fs::FileExt;

    fn block(tag: i64, rows: i64) -> Arc<DataBlock> {
        let ids = int_column((0..rows).map(|i| tag * 10_000 + i).collect());
        let grp = str_column((0..rows).map(|i| format!("b{tag}-{}", i % 3)).collect());
        Arc::new(freeze(&[ids, grp]))
    }

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "datablocks-store-{tag}-{}-{}.dbs",
            std::process::id(),
            TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn remove_store_files(path: &Path) {
        BlockStore::remove_files(path).expect("remove store files");
    }

    #[test]
    fn append_and_pin_roundtrip() {
        let store = BlockStore::create_temp(usize::MAX).unwrap();
        let b0 = block(0, 1000);
        let b1 = block(1, 1000);
        let id0 = store.append(Arc::clone(&b0)).unwrap();
        let id1 = store.append(Arc::clone(&b1)).unwrap();
        assert_eq!((id0, id1), (0, 1));
        assert_eq!(store.block_count(), 2);
        let pinned = store.pin(id1).unwrap();
        assert_eq!(pinned.get(5, 0), Value::Int(10_005));
        // append admits to the cache, so this pin was a hit with zero disk reads
        let stats = store.stats();
        assert_eq!(stats.block_reads, 0);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.block_writes, 2);
        assert!(stats.bytes_written > 0);
        // appends create no garbage
        assert_eq!(store.dead_bytes(), 0);
        assert!(store.live_bytes() > 0);
    }

    #[test]
    fn cache_miss_reads_from_disk_and_verifies_checksum() {
        let store = BlockStore::create_temp(usize::MAX).unwrap();
        let id = store.append(block(7, 2000)).unwrap();
        store.clear_cache();
        assert!(!store.is_cached(id));
        let pinned = store.pin(id).unwrap();
        assert_eq!(pinned.get(1999, 0), Value::Int(71_999));
        let stats = store.stats();
        assert_eq!(stats.block_reads, 1);
        assert_eq!(stats.cache_misses, 1);
        assert!(stats.bytes_read > 0);
        assert!(store.is_cached(id));
    }

    #[test]
    fn tiny_cache_evicts_unpinned_blocks() {
        let store = BlockStore::create_temp(1).unwrap(); // effectively nothing fits
        let id0 = store.append(block(0, 1000)).unwrap();
        let id1 = store.append(block(1, 1000)).unwrap();
        // appends get evicted immediately (capacity 1 byte)
        assert!(!store.is_cached(id0) || !store.is_cached(id1));
        let p0 = store.pin(id0).unwrap();
        let p1 = store.pin(id1).unwrap();
        // both pinned: cache overshoots rather than evicting pinned blocks
        assert_eq!(p0.get(0, 0), Value::Int(0));
        assert_eq!(p1.get(0, 0), Value::Int(10_000));
        assert!(store.is_cached(id0) && store.is_cached(id1));
        drop(p0);
        drop(p1);
        // the last unpin evicted the overshoot; an admission evicts again
        let id2 = store.append(block(2, 1000)).unwrap();
        let _p2 = store.pin(id2).unwrap();
        assert!(store.stats().evictions > 0);
        assert!(!store.is_cached(id0));
    }

    #[test]
    fn the_last_unpin_evicts_the_overshoot_of_pins() {
        let store = BlockStore::create_temp(1).unwrap();
        let id0 = store.append(block(0, 1000)).unwrap();
        let id1 = store.append(block(1, 1000)).unwrap();
        let (p0, p1) = (store.pin(id0).unwrap(), store.pin(id1).unwrap());
        assert!(store.cached_bytes() > store.cache_capacity());
        drop(p0);
        drop(p1);
        assert!(store.cached_bytes() <= store.cache_capacity());
        assert_eq!(store.pinned_count(), 0);
    }

    /// A store of `count` blocks of one byte size behind a cache of
    /// `cache_blocks` of them, with an empty cache.
    fn store_of_equal_blocks(count: i64, cache_blocks: f64) -> Arc<BlockStore> {
        let blocks: Vec<_> = (0..count).map(|tag| block(tag % 10, 1000)).collect();
        let size = blocks[0].byte_size();
        assert!(blocks.iter().all(|b| b.byte_size() == size));
        let store = BlockStore::create_temp((size as f64 * cache_blocks) as usize).unwrap();
        for block in blocks {
            store.append(block).unwrap();
        }
        store.clear_cache();
        store
    }

    /// Pin `ids` one after the other, each released before the next, `passes`
    /// times: the cache hits of each pass.
    fn hits_per_pass(
        store: &Arc<BlockStore>,
        ids: std::ops::Range<BlockId>,
        passes: usize,
    ) -> Vec<u64> {
        (0..passes)
            .map(|_| {
                let before = store.stats().cache_hits;
                for id in ids.clone() {
                    drop(store.pin(id).unwrap());
                }
                store.stats().cache_hits - before
            })
            .collect()
    }

    #[test]
    fn a_loop_over_more_blocks_than_fit_keeps_a_stable_subset_resident() {
        let store = store_of_equal_blocks(8, 3.5);
        let hits = hits_per_pass(&store, 0..8, 5);
        assert_eq!(hits[0], 0, "the first pass starts from an empty cache");
        assert!(hits[1..].iter().all(|&h| h >= 2), "hits per pass: {hits:?}");
        assert!(store.cached_bytes() <= store.cache_capacity());
    }

    #[test]
    fn a_new_working_set_turns_the_cache_over_within_a_pass_over_the_store() {
        let store = store_of_equal_blocks(16, 3.5);
        let old = hits_per_pass(&store, 0..8, 3);
        assert!(old[1..].iter().all(|&h| h >= 2), "old set: {old:?}");
        let new = hits_per_pass(&store, 8..16, 5);
        assert!(new[2..].iter().all(|&h| h >= 2), "new set: {new:?}");
        assert!(
            (0..8).all(|id| !store.is_cached(id)),
            "the old set aged out"
        );
    }

    #[test]
    fn a_block_pinned_twice_survives_a_pass_over_more_blocks_than_fit() {
        let store = store_of_equal_blocks(10, 3.5);
        drop(store.pin(9).unwrap());
        drop(store.pin(9).unwrap());
        hits_per_pass(&store, 0..8, 1);
        assert!(store.is_cached(9));
        assert_eq!(store.stats().cache_hits, 1);
    }

    #[test]
    fn an_appended_block_is_evicted_before_a_block_a_reader_admitted() {
        let store = store_of_equal_blocks(2, 2.5);
        let appended = store.append(block(2, 1000)).unwrap();
        // the reader's block is the newer one: newest-first alone would evict it
        drop(store.pin(0).unwrap());
        let _pinned = store.pin(1).unwrap();
        assert!(store.is_cached(0));
        assert!(!store.is_cached(appended));
        assert_eq!(store.stats().evictions, 1);
    }

    #[test]
    fn summaries_answer_without_io() {
        let store = BlockStore::create_temp(usize::MAX).unwrap();
        let id = store.append(block(3, 500)).unwrap();
        store.clear_cache();
        store.reset_stats();
        let (tuples, live) = store.with_summary(id, |s| (s.tuple_count, s.live_tuple_count()));
        assert_eq!((tuples, live), (500, 500));
        assert_eq!(store.stats().block_reads, 0);
        assert!(store.entry_len(id) > 0);
    }

    #[test]
    fn rewrite_repoints_directory_and_cache() {
        let store = BlockStore::create_temp(usize::MAX).unwrap();
        let original = block(1, 100);
        let id = store.append(Arc::clone(&original)).unwrap();
        let mut updated = (*original).clone();
        updated.delete(42);
        store.rewrite(id, Arc::new(updated)).unwrap();
        let pinned = store.pin(id).unwrap();
        assert!(pinned.is_deleted(42));
        assert_eq!(store.with_summary(id, |s| s.deleted_count), 1);
        // cold read after a rewrite decodes the new frame
        drop(pinned);
        store.clear_cache();
        let reloaded = store.pin(id).unwrap();
        assert!(reloaded.is_deleted(42));
        assert_eq!(reloaded.live_tuple_count(), 99);
    }

    #[test]
    fn rewrite_tracks_dead_bytes() {
        let store = BlockStore::create_temp(usize::MAX).unwrap();
        store.set_garbage_threshold(1.0); // no auto-compaction in this test
        let original = block(0, 500);
        let id = store.append(Arc::clone(&original)).unwrap();
        let first_len = store.entry_len(id) as u64;
        assert_eq!(store.dead_bytes(), 0);
        let mut updated = (*original).clone();
        updated.delete(1);
        store.rewrite(id, Arc::new(updated)).unwrap();
        assert_eq!(store.dead_bytes(), first_len, "old frame became garbage");
        assert_eq!(store.live_bytes(), store.entry_len(id) as u64);
    }

    #[test]
    fn concurrent_mutations_do_not_lose_updates() {
        // Many threads each flag a distinct row of the same block through
        // `mutate`; the mutation lock must serialise the read-modify-write
        // cycles so no tombstone is lost.
        let store = BlockStore::create_temp(1).unwrap(); // thrash: force reloads
        let id = store.append(block(0, 64)).unwrap();
        std::thread::scope(|scope| {
            for t in 0..8usize {
                let store = Arc::clone(&store);
                scope.spawn(move || {
                    for row in (t..64).step_by(8) {
                        let deleted = store
                            .mutate(id, |current| {
                                if current.is_deleted(row) {
                                    (None, false)
                                } else {
                                    let mut b = current.clone();
                                    b.delete(row);
                                    (Some(b), true)
                                }
                            })
                            .unwrap();
                        assert!(deleted, "row {row} deleted exactly once");
                    }
                });
            }
        });
        store.clear_cache();
        let pinned = store.pin(id).unwrap();
        assert_eq!(pinned.live_tuple_count(), 0, "all 64 tombstones survived");
        assert_eq!(store.with_summary(id, |s| s.deleted_count), 64);
    }

    #[test]
    fn open_of_empty_file_is_an_empty_store() {
        let path = temp_path("empty");
        drop(BlockStore::create(&path, 1024).unwrap());
        let reopened = BlockStore::reopen(&path, 1024).unwrap();
        assert_eq!(reopened.block_count(), 0);
        assert_eq!(reopened.cached_bytes(), 0);
        drop(reopened);
        remove_store_files(&path);
    }

    #[test]
    fn reopen_replays_manifest_without_payload_io() {
        let path = temp_path("reopen");
        {
            let store = BlockStore::create(&path, usize::MAX).unwrap();
            store.append(block(0, 800)).unwrap();
            let original = block(1, 900);
            let id = store.append(Arc::clone(&original)).unwrap();
            // a rewrite leaves a superseded frame — the manifest must resolve to
            // the new version
            let mut updated = (*original).clone();
            updated.delete(3);
            store.rewrite(id, Arc::new(updated)).unwrap();
        } // drop checkpoints
        let reopened = BlockStore::reopen(&path, usize::MAX).unwrap();
        assert_eq!(reopened.block_count(), 2);
        assert_eq!(reopened.with_summary(1, |s| s.deleted_count), 1);
        assert_eq!(
            reopened.stats().block_reads,
            0,
            "directory rebuilt without payload I/O"
        );
        let pinned = reopened.pin(1).unwrap();
        assert!(pinned.is_deleted(3));
        assert_eq!(pinned.live_tuple_count(), 899);
        drop(pinned);
        drop(reopened);
        remove_store_files(&path);
    }

    #[test]
    fn reopen_replays_incremental_log_after_simulated_crash() {
        // A crash leaves the incremental Put log (no clean-close checkpoint).
        // Simulate with a byte-level copy of the store files taken while the
        // store is still open.
        let path = temp_path("crash-src");
        let image = temp_path("crash-img");
        {
            let store = BlockStore::create(&path, usize::MAX).unwrap();
            let original = block(0, 400);
            let id = store.append(Arc::clone(&original)).unwrap();
            store.append(block(1, 300)).unwrap();
            let mut updated = (*original).clone();
            updated.delete(7);
            store.rewrite(id, Arc::new(updated)).unwrap();
            // crash image: data + manifest as they exist mid-life. The manifest
            // holds three Puts — two appends and a duplicate block id 0 from the
            // rewrite; replay must be last-writer-wins.
            std::fs::copy(&path, &image).unwrap();
            std::fs::copy(manifest_path(&path), manifest_path(&image)).unwrap();
        }
        let reopened = BlockStore::reopen(&image, usize::MAX).unwrap();
        assert_eq!(reopened.block_count(), 2);
        assert_eq!(
            reopened.with_summary(0, |s| s.deleted_count),
            1,
            "duplicate block id resolves to the last writer"
        );
        let pinned = reopened.pin(0).unwrap();
        assert!(pinned.is_deleted(7));
        drop(pinned);
        drop(reopened);
        remove_store_files(&path);
        remove_store_files(&image);
    }

    #[test]
    fn reopen_discards_torn_final_manifest_record_and_truncates() {
        let path = temp_path("torn");
        {
            let store = BlockStore::create(&path, usize::MAX).unwrap();
            store.append(block(0, 500)).unwrap();
            store.append(block(1, 600)).unwrap();
        }
        // Simulate a crash mid-manifest-append: tack the prefix of a valid
        // record onto the log.
        let torn = manifest_record_to_bytes(&ManifestRecord::Put {
            block_id: 9,
            generation: 0,
            offset: 123,
            len: 456,
            summary: BlockSummary::of(&block(9, 10)),
        });
        let mpath = manifest_path(&path);
        let clean_len = std::fs::metadata(&mpath).unwrap().len();
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&mpath).unwrap();
            f.write_all(&torn[..torn.len() / 2]).unwrap();
        }
        let reopened = BlockStore::reopen(&path, usize::MAX).unwrap();
        assert_eq!(reopened.block_count(), 2, "torn record discarded");
        assert_eq!(
            std::fs::metadata(&mpath).unwrap().len(),
            clean_len,
            "manifest truncated back to its valid prefix"
        );
        let pinned = reopened.pin(1).unwrap();
        assert_eq!(pinned.tuple_count(), 600);
        drop(pinned);
        drop(reopened);
        remove_store_files(&path);
    }

    /// Every file of the store at `path` (generations, manifest) and its bytes.
    fn store_image(path: &Path) -> Vec<(PathBuf, Vec<u8>)> {
        let name = path.file_name().unwrap().to_str().unwrap().to_string();
        let mut files: Vec<_> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .flatten()
            .map(|entry| entry.path())
            .filter(|p| p.file_name().unwrap().to_str().unwrap().starts_with(&name))
            .map(|p| {
                let bytes = std::fs::read(&p).unwrap();
                (p, bytes)
            })
            .collect();
        files.sort();
        files
    }

    /// A compacted store with two generation files and a checkpointed
    /// manifest of several records.
    fn store_with_two_generations(tag: &str) -> PathBuf {
        let path = temp_path(tag);
        {
            let store = BlockStore::create(&path, usize::MAX).unwrap();
            store.set_garbage_threshold(1.0);
            for tag in 0..3 {
                store.append(block(tag, 400)).unwrap();
            }
            store
                .mutate(1, |b| {
                    let mut updated = b.clone();
                    updated.delete(5);
                    (Some(updated), ())
                })
                .unwrap();
            store.compact().unwrap();
        }
        assert!(
            gen_path(&path, 1).exists(),
            "compaction rolled a generation"
        );
        path
    }

    #[test]
    fn reopen_refuses_an_older_manifest_version_and_changes_no_file() {
        let path = store_with_two_generations("oldmanifest");
        let mpath = manifest_path(&path);
        let bytes = std::fs::read(&mpath).unwrap();
        // the first record, then the final one, stamped with the version before
        for at in [0, bytes.len() - record_len_at_end(&bytes)] {
            let mut old = bytes.clone();
            old[at + 4..at + 8].copy_from_slice(&1u32.to_le_bytes());
            std::fs::write(&mpath, &old).unwrap();
            let before = store_image(&path);
            match BlockStore::reopen(&path, usize::MAX) {
                Err(StoreError::Frame(FrameError::UnsupportedVersion(1))) => {}
                other => panic!("record at {at}: expected UnsupportedVersion(1), got {other:?}"),
            }
            assert_eq!(store_image(&path), before, "record at {at}: files changed");
        }
        std::fs::write(&mpath, &bytes).unwrap();
        assert_eq!(
            BlockStore::reopen(&path, usize::MAX).unwrap().block_count(),
            3
        );
        remove_store_files(&path);
    }

    #[test]
    fn reopen_refuses_damage_before_the_final_manifest_record_and_changes_no_file() {
        let path = store_with_two_generations("midflip");
        let mpath = manifest_path(&path);
        let bytes = std::fs::read(&mpath).unwrap();
        // a body byte of the first record (the checkpoint's Snapshot)
        let mut flipped = bytes.clone();
        flipped[frame::MANIFEST_HEADER_LEN + 1] ^= 0x10;
        std::fs::write(&mpath, &flipped).unwrap();
        let before = store_image(&path);
        match BlockStore::reopen(&path, usize::MAX) {
            Err(StoreError::Frame(FrameError::ChecksumMismatch { .. })) => {}
            other => panic!("expected a checksum mismatch, got {other:?}"),
        }
        assert_eq!(store_image(&path), before, "a refused reopen changed files");
        std::fs::write(&mpath, &bytes).unwrap();
        assert_eq!(
            BlockStore::reopen(&path, usize::MAX).unwrap().block_count(),
            3
        );
        remove_store_files(&path);
    }

    /// Length of the final record of a well-formed manifest log.
    fn record_len_at_end(log: &[u8]) -> usize {
        let mut at = 0;
        loop {
            let (_, len) = frame::read_manifest_record(&log[at..]).unwrap();
            if at + len == log.len() {
                return len;
            }
            at += len;
        }
    }

    #[test]
    fn reopen_rejects_bit_flipped_manifest_tail() {
        let path = temp_path("flip");
        {
            let store = BlockStore::create(&path, usize::MAX).unwrap();
            store.append(block(0, 500)).unwrap();
            store.append(block(1, 600)).unwrap();
        }
        // Flip a byte inside the *final* record's body: replay keeps the valid
        // prefix and drops the corrupt tail. The final record here is a Put of
        // the clean-close checkpoint, so dropping it leaves fewer entries than
        // the checkpoint's Snapshot declared — which must surface as a loud
        // corruption error, not a silently shorter store.
        let mpath = manifest_path(&path);
        let bytes = std::fs::read(&mpath).unwrap();
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0xff;
        std::fs::write(&mpath, &flipped).unwrap();
        match BlockStore::reopen(&path, usize::MAX) {
            Err(StoreError::Frame(FrameError::Corrupt(msg))) => {
                assert!(msg.contains("torn"), "{msg}");
            }
            other => panic!("expected torn-checkpoint corruption, got {other:?}"),
        }
        // the failed reopen must unregister: a retry with a repaired manifest works
        std::fs::write(&mpath, &bytes).unwrap();
        let reopened = BlockStore::reopen(&path, usize::MAX).unwrap();
        assert_eq!(reopened.block_count(), 2);
        drop(reopened);
        remove_store_files(&path);
    }

    #[test]
    fn reopen_of_live_store_is_rejected() {
        let path = temp_path("live");
        let store = BlockStore::create(&path, usize::MAX).unwrap();
        store.append(block(0, 100)).unwrap();
        match BlockStore::reopen(&path, usize::MAX) {
            Err(StoreError::Io(err)) => {
                assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
                assert!(err.to_string().contains("live"), "{err}");
            }
            other => panic!("expected AlreadyExists, got {other:?}"),
        }
        // `create` over a live store is equally rejected
        assert_eq!(
            BlockStore::create(&path, usize::MAX).unwrap_err().kind(),
            io::ErrorKind::AlreadyExists
        );
        drop(store);
        // once closed, reopening works
        let reopened = BlockStore::reopen(&path, usize::MAX).unwrap();
        assert_eq!(reopened.block_count(), 1);
        drop(reopened);
        remove_store_files(&path);
    }

    #[test]
    fn compaction_reclaims_dead_frames() {
        let path = temp_path("compact");
        let store = BlockStore::create(&path, usize::MAX).unwrap();
        store.set_garbage_threshold(1.0); // explicit compaction only
        let mut blocks = Vec::new();
        for tag in 0..4 {
            let b = block(tag, 400);
            store.append(Arc::clone(&b)).unwrap();
            blocks.push(b);
        }
        // rewrite every block a few times: lots of dead frames in generation 0
        for round in 0..3 {
            for (id, b) in blocks.iter().enumerate() {
                let mut updated = (**b).clone();
                for r in 0..=round {
                    updated.delete(r);
                }
                store.rewrite(id, Arc::new(updated)).unwrap();
            }
        }
        let dead_before = store.dead_bytes();
        assert!(dead_before > 0);
        let gen0_size = std::fs::metadata(&path).unwrap().len();
        store.compact().unwrap();
        let stats = store.stats();
        assert_eq!(stats.compactions, 1);
        assert_eq!(stats.compacted_frames, 4);
        assert!(stats.compacted_bytes > 0);
        assert_eq!(store.dead_bytes(), 0, "all garbage reclaimed");
        // the store rolled to generation 1; generation 0's file is gone
        assert!(gen_path(&path, 1).exists());
        assert!(!path.exists() || std::fs::metadata(&path).unwrap().len() < gen0_size);
        for id in 0..4 {
            assert_eq!(store.entry_generation(id), 1);
        }
        // data survives, cold
        store.clear_cache();
        let pinned = store.pin(2).unwrap();
        assert!(pinned.is_deleted(0) && pinned.is_deleted(2));
        assert_eq!(pinned.live_tuple_count(), 397);
        drop(pinned);
        drop(store);
        remove_store_files(&path);
    }

    #[test]
    fn auto_compaction_triggers_on_garbage_threshold() {
        let store = BlockStore::create_temp(usize::MAX).unwrap();
        store.set_garbage_threshold(0.4);
        let original = block(0, 300);
        let id = store.append(Arc::clone(&original)).unwrap();
        // each rewrite deadens the previous frame; the ratio crosses 0.4 after
        // the first rewrite already (1 dead : 1 live)
        for row in 0..3 {
            let mut updated = (*original).clone();
            updated.delete(row);
            store.rewrite(id, Arc::new(updated)).unwrap();
        }
        let stats = store.stats();
        assert!(stats.compactions >= 1, "threshold must trigger: {stats:?}");
        let total = store.live_bytes() + store.dead_bytes();
        assert!(
            (store.dead_bytes() as f64) / (total as f64) <= 0.4 + f64::EPSILON,
            "garbage bounded after compaction"
        );
        store.clear_cache();
        let pinned = store.pin(id).unwrap();
        assert!(pinned.is_deleted(2), "last rewrite won");
    }

    #[test]
    fn compaction_never_moves_a_pinned_frame() {
        let path = temp_path("pinned");
        let store = BlockStore::create(&path, usize::MAX).unwrap();
        store.set_garbage_threshold(1.0);
        let id0 = store.append(block(0, 300)).unwrap();
        let original = block(1, 300);
        let id1 = store.append(Arc::clone(&original)).unwrap();
        let mut updated = (*original).clone();
        updated.delete(5);
        store.rewrite(id1, Arc::new(updated)).unwrap();

        let pin = store.pin(id0).unwrap(); // hold id0 across the compaction
        store.compact().unwrap();
        let stats = store.stats();
        assert_eq!(stats.compaction_pinned_skipped, 1);
        assert_eq!(stats.compacted_frames, 1, "only the unpinned block moved");
        assert_eq!(store.entry_generation(id0), 0, "pinned frame stayed put");
        assert_eq!(store.entry_generation(id1), 1);
        // generation 0 survives (a directory entry still references it), and the
        // pinned block keeps reading fine
        assert!(path.exists());
        assert_eq!(pin.get(0, 0), Value::Int(0));
        drop(pin);

        // with the pin gone, the next compaction moves it and reclaims gen 0 —
        // the base file (the store's on-disk identity) stays present but empty
        store.compact().unwrap();
        assert_eq!(store.entry_generation(id0), 2);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            0,
            "unreferenced base generation truncated to zero"
        );
        store.clear_cache();
        let pinned = store.pin(id0).unwrap();
        assert_eq!(pinned.get(0, 0), Value::Int(0));
        drop(pinned);
        drop(store);
        remove_store_files(&path);
    }

    #[test]
    fn reopen_after_compaction_round_trips() {
        let path = temp_path("compact-reopen");
        {
            let store = BlockStore::create(&path, usize::MAX).unwrap();
            store.set_garbage_threshold(1.0);
            let b = block(0, 200);
            let id = store.append(Arc::clone(&b)).unwrap();
            store.append(block(1, 250)).unwrap();
            let mut updated = (*b).clone();
            updated.delete(0);
            store.rewrite(id, Arc::new(updated)).unwrap();
            store.compact().unwrap();
        }
        let reopened = BlockStore::reopen(&path, usize::MAX).unwrap();
        assert_eq!(reopened.block_count(), 2);
        assert_eq!(reopened.entry_generation(0), 1);
        assert_eq!(reopened.with_summary(0, |s| s.deleted_count), 1);
        assert_eq!(reopened.dead_bytes(), 0);
        let pinned = reopened.pin(1).unwrap();
        assert_eq!(pinned.tuple_count(), 250);
        drop(pinned);
        drop(reopened);
        remove_store_files(&path);
    }

    #[test]
    fn corrupted_file_is_reported_not_decoded() {
        let store = BlockStore::create_temp(usize::MAX).unwrap();
        let id = store.append(block(0, 300)).unwrap();
        store.clear_cache();
        // flip a payload byte on disk behind the store's back
        let len = store.entry_len(id) as u64;
        let file = store.gen_file(0).expect("generation 0 open");
        let mut byte = [0u8; 1];
        file.raw().read_exact_at(&mut byte, len - 1).unwrap();
        file.raw().write_all_at(&[byte[0] ^ 0xff], len - 1).unwrap();
        match store.pin(id) {
            Err(StoreError::Frame(FrameError::ChecksumMismatch { .. })) => {}
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn frame_of_an_older_format_is_a_loud_cold_read_error() {
        let store = BlockStore::create_temp(usize::MAX).unwrap();
        let id = store.append(block(0, 300)).unwrap();
        // stamp the on-disk frame with version 1, the format before the
        // summary section went, then with version 2, which differs from 3
        // only in its checksum, then with 3, one checksum over one payload
        for old in [1u32, 2, 3] {
            store.clear_cache();
            let file = store.gen_file(0).expect("generation 0 open");
            file.raw().write_all_at(&old.to_le_bytes(), 4).unwrap();
            let err = store.pin_described(id).unwrap_err();
            assert_eq!((err.block_id, err.generation, err.offset), (id, 0, 0));
            assert!(
                err.detail
                    .contains(&format!("unsupported frame version {old}")),
                "{}",
                err.detail
            );
        }
    }

    /// A block of `columns` integer attributes, attribute `c` holding `c * 1000 + row`.
    fn wide_block(columns: usize, rows: i64) -> Arc<DataBlock> {
        let columns: Vec<_> = (0..columns as i64)
            .map(|c| int_column((0..rows).map(|r| c * 1000 + r).collect()))
            .collect();
        Arc::new(freeze(&columns))
    }

    /// Bytes of the sections of block `id`: the header section if `header`,
    /// and each attribute of `columns`.
    fn section_bytes(store: &BlockStore, id: BlockId, header: bool, columns: &[usize]) -> u64 {
        let table = store.sections(id).expect("section table known");
        let attributes: u64 = columns
            .iter()
            .map(|&c| table.attributes[c].len as u64)
            .sum();
        attributes + if header { table.header_len as u64 } else { 0 }
    }

    #[test]
    fn a_projected_pin_reads_the_header_and_the_named_sections_only() {
        let store = BlockStore::create_temp(usize::MAX).unwrap();
        let original = wide_block(4, 700);
        let id = store.append(Arc::clone(&original)).unwrap();
        store.clear_cache();
        store.reset_stats();
        let pinned = store.pin_columns(id, &[2]).unwrap();
        assert_eq!(pinned.get(5, 2), Value::Int(2005));
        assert!(!pinned.has_column(0) && !pinned.has_column(3));
        let stats = store.stats();
        assert_eq!((stats.block_reads, stats.cache_misses), (1, 1));
        assert_eq!(stats.bytes_read, section_bytes(&store, id, true, &[2]));
        assert_eq!(store.cached_bytes(), pinned.byte_size());
        drop(pinned);
        // the same attributes again: a hit
        drop(store.pin_columns(id, &[2]).unwrap());
        assert_eq!(store.stats().cache_hits, 1);
        // the whole block: the three missing sections, not the header again
        store.reset_stats();
        let whole = store.pin(id).unwrap();
        let stats = store.stats();
        assert_eq!(stats.block_reads, 1);
        assert_eq!(
            stats.bytes_read,
            section_bytes(&store, id, false, &[0, 1, 3])
        );
        assert_eq!(*whole, *original);
        assert_eq!(store.cached_bytes(), original.byte_size());
        // the header alone is a pin of no attribute
        store.clear_cache();
        drop(whole);
        store.clear_cache();
        store.reset_stats();
        let header = store.pin_columns(id, &[]).unwrap();
        assert_eq!(header.tuple_count(), 700);
        assert_eq!(
            store.stats().bytes_read,
            section_bytes(&store, id, true, &[])
        );
    }

    #[test]
    #[should_panic(expected = "attribute 1 of this Data Block was not paged in")]
    fn reading_an_attribute_a_pin_did_not_name_panics() {
        let store = BlockStore::create_temp(usize::MAX).unwrap();
        let id = store.append(wide_block(3, 100)).unwrap();
        store.clear_cache();
        let pinned = store.pin_columns(id, &[0, 2]).unwrap();
        pinned.get(0, 1);
    }

    #[test]
    fn after_a_reopen_the_first_page_in_learns_the_sections_from_the_header() {
        let path = temp_path("sections");
        let table = {
            let store = BlockStore::create(&path, usize::MAX).unwrap();
            let id = store.append(wide_block(3, 500)).unwrap();
            store.sections(id).unwrap()
        };
        let reopened = BlockStore::reopen(&path, usize::MAX).unwrap();
        assert_eq!(reopened.sections(0), None);
        let pinned = reopened.pin_columns(0, &[1]).unwrap();
        assert_eq!(pinned.get(499, 1), Value::Int(1499));
        assert_eq!(reopened.sections(0).as_deref(), Some(&*table));
        let stats = reopened.stats();
        assert_eq!(stats.block_reads, 1);
        assert_eq!(stats.bytes_read, section_bytes(&reopened, 0, true, &[1]));
        drop(pinned);
        drop(reopened);
        remove_store_files(&path);
    }

    #[test]
    fn a_version_3_frame_surfaces_as_a_cold_read_error() {
        const V3: &[u8] = include_bytes!("../../datablocks/testdata/every_scheme_block.v3.frame");
        let store = BlockStore::create_temp(usize::MAX).unwrap();
        let id = store.append(block(0, 300)).unwrap();
        store.clear_cache();
        let file = store.gen_file(0).expect("generation 0 open");
        file.raw().write_all_at(V3, 0).unwrap();
        for columns in [None, Some(&[1][..])] {
            let err = match columns {
                None => store.pin_described(id),
                Some(columns) => store.pin_columns_described(id, columns),
            }
            .unwrap_err();
            assert_eq!((err.block_id, err.generation, err.offset), (id, 0, 0));
            assert!(
                err.detail.contains("unsupported frame version 3"),
                "{}",
                err.detail
            );
        }
    }

    #[test]
    fn concurrent_projected_pins_merge_into_one_entry() {
        let store = BlockStore::create_temp(usize::MAX).unwrap();
        let original = wide_block(10, 2000);
        let id = store.append(Arc::clone(&original)).unwrap();
        let whole = frame::from_frame(&frame::to_frame(&original)).unwrap();
        for round in 0..4 {
            store.clear_cache();
            store.reset_stats();
            let start = std::sync::Barrier::new(8);
            std::thread::scope(|scope| {
                for t in 0..8usize {
                    let (store, start) = (Arc::clone(&store), &start);
                    scope.spawn(move || {
                        // overlapping sets over attributes 0..8; 8 and 9 stay on disk
                        let columns = [t, (t + 1) % 8, (t + round) % 8];
                        start.wait();
                        let pinned = store.pin_columns(id, &columns).unwrap();
                        for col in columns {
                            assert_eq!(pinned.get(7, col), Value::Int(col as i64 * 1000 + 7));
                        }
                    });
                }
            });
            let entry = store.pin_columns(id, &[]).unwrap();
            let loaded: Vec<usize> = (0..10).filter(|&c| entry.has_column(c)).collect();
            assert_eq!(loaded, (0..8).collect::<Vec<_>>(), "round {round}");
            for &col in &loaded {
                assert_eq!(
                    entry.column(col),
                    whole.column(col),
                    "round {round} col {col}"
                );
            }
            let accounted = entry.header_byte_size()
                + loaded
                    .iter()
                    .map(|&c| whole.column(c).byte_size())
                    .sum::<usize>();
            assert_eq!(store.cached_bytes(), accounted, "round {round}");
            drop(entry);
            // a later whole pin reads the two sections no thread named
            store.reset_stats();
            let full = store.pin(id).unwrap();
            assert_eq!(
                store.stats().bytes_read,
                section_bytes(&store, id, false, &[8, 9])
            );
            assert_eq!(*full, *original);
            assert_eq!(store.cached_bytes(), original.byte_size(), "round {round}");
        }
    }

    #[test]
    fn temp_file_removed_on_drop() {
        let store = BlockStore::create_temp(1024).unwrap();
        store.append(block(0, 100)).unwrap();
        let path = store.path().to_path_buf();
        let mpath = manifest_path(&path);
        assert!(path.exists());
        assert!(mpath.exists());
        drop(store);
        assert!(!path.exists());
        assert!(!mpath.exists());
    }

    #[test]
    fn error_display() {
        let io_err = StoreError::from(io::Error::other("boom"));
        assert!(io_err.to_string().contains("boom"));
        assert!(std::error::Error::source(&io_err).is_some());
        let frame_err = StoreError::from(FrameError::BadMagic);
        assert!(frame_err.to_string().contains("magic"));
        // StoreError -> io::Error keeps the kind / wraps frame errors as data
        let round: io::Error = StoreError::Io(io::Error::new(io::ErrorKind::NotFound, "x")).into();
        assert_eq!(round.kind(), io::ErrorKind::NotFound);
        let data: io::Error = StoreError::Frame(FrameError::BadMagic).into();
        assert_eq!(data.kind(), io::ErrorKind::InvalidData);
    }
}
