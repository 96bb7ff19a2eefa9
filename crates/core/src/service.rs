//! Building blocks for the `nanopowerd` persistent analysis service:
//! the bounded, crash-tolerant artifact memo, admission control with
//! bounded queueing and queue-wait load shedding, and lifetime
//! telemetry counters.
//!
//! The daemon binary (in `crates/bench`) owns the sockets and threads;
//! everything policy-shaped lives here so it can be unit-tested without
//! a socket in sight. Three pieces:
//!
//! - [`ArtifactMemo`] — a digest-keyed cache of rendered artifact
//!   outputs. The key is the FNV-1a hash of the request descriptor
//!   (artifact name + output form), and each entry carries the same
//!   `fnv1a:<16 hex>` output digest the crash-safe journal records, so
//!   a memo-served response exposes the digest a fresh run would.
//!   Correct because artifact rendering is deterministic — the whole
//!   repo is built on byte-identical reproduction (the golden-reference
//!   drift gate enforces it). The memo is **bounded** ([`MemoConfig`]
//!   entry and byte caps with least-recently-used eviction, so a
//!   long-lived daemon cannot grow without limit) and optionally
//!   **persistent**: [`ArtifactMemo::with_spill`] backs it with an
//!   fsync'd, torn-tail-tolerant spill file (`nanopower-memo/v1`, the
//!   same JSON-lines conventions as the crash-safe journal) that
//!   rehydrates warm state across a crash or restart.
//! - [`AdmissionGate`] — bounded concurrency plus a bounded wait queue.
//!   `max_inflight` requests execute at once; up to `queue_depth` more
//!   block waiting; anything beyond that is turned away immediately so
//!   the caller can answer with a typed `busy` response instead of
//!   stalling the socket. [`AdmissionGate::admit_within`] adds
//!   queue-wait load shedding: a waiter whose admission wait exceeds
//!   its budget is shed with [`Admission::Shed`] — the typed
//!   `overloaded` response, distinct from `busy` — instead of queueing
//!   unboundedly long. The gate also tracks how long the oldest
//!   admitted request has been executing
//!   ([`AdmissionGate::oldest_inflight_age`]), which the daemon's
//!   `health` endpoint compares with its stuck threshold.
//! - [`InFlight`] — the memo keys whose render is in progress, so an
//!   identical request that arrives meanwhile waits for that one render
//!   (and is then served from the memo) instead of repeating it.
//! - [`Quarantine`] — a bounded LRU of scenario-spec digests whose
//!   evaluation panicked, so a repeat offender is rejected O(1) with a
//!   typed `quarantined` record instead of burning a worker slot on a
//!   panic the daemon already caught once.
//! - [`ServiceCounters`] — the accepted/served/memo-hit/cancelled/
//!   rejected/shed/spec-rejection counters, which
//!   [`ServiceCounters::stats`] turns into the `{"stats": {}}` response.

use crate::engine::fnv1a64;
use crate::error::Error;
use crate::jsonio::{self, Json};
use crate::proto::StatsMsg;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// The memo spill-file schema identifier (header line), following the
/// `nanopower-journal/v1` conventions.
pub const SPILL_SCHEMA: &str = "nanopower-memo/v1";

/// One memoized artifact output: the rendered text and its
/// journal-style digest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoEntry {
    /// The rendered artifact output.
    pub output: String,
    /// `fnv1a:<16 hex digits>` digest of `output` — identical to
    /// [`crate::engine::JobRecord::digest`] for the same text.
    pub digest: String,
}

/// Size bounds for the in-memory half of an [`ArtifactMemo`].
///
/// Whichever cap is hit first evicts least-recently-used entries. The
/// spill file (when present) is compacted independently, so eviction
/// never loses persisted state before its time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoConfig {
    /// Maximum resident entries (min 1).
    pub max_entries: usize,
    /// Maximum resident output bytes across all entries (min 1 KiB).
    pub max_bytes: usize,
}

impl Default for MemoConfig {
    /// 256 entries / 64 MiB — generous for the 17-artifact registry,
    /// but a hard ceiling for a daemon serving arbitrary future specs.
    fn default() -> Self {
        MemoConfig {
            max_entries: 256,
            max_bytes: 64 << 20,
        }
    }
}

impl MemoConfig {
    fn clamped(self) -> Self {
        MemoConfig {
            max_entries: self.max_entries.max(1),
            max_bytes: self.max_bytes.max(1024),
        }
    }
}

/// What [`ArtifactMemo::with_spill`] found on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpillReport {
    /// Entries rehydrated into the memo.
    pub rehydrated: usize,
    /// Lines dropped (torn tail, digest mismatch, or unparseable).
    pub dropped: usize,
}

/// The append-mode spill writer backing a persistent memo.
#[derive(Debug)]
struct SpillFile {
    file: File,
    path: PathBuf,
    /// Entry lines written since the file was last compacted; once this
    /// outgrows the entry cap by 4x the file is rewritten from the
    /// resident entries.
    lines: u64,
}

/// Everything behind the memo's one lock: the resident entries, their
/// LRU order (front = coldest), the resident byte total, and the spill.
#[derive(Debug, Default)]
struct MemoState {
    entries: HashMap<u64, MemoEntry>,
    order: VecDeque<u64>,
    bytes: usize,
    spill: Option<SpillFile>,
}

/// A cross-request, digest-keyed, LRU-bounded memo of rendered artifact
/// outputs, optionally spilled to a crash-tolerant file.
///
/// Thread-safe; shared across every connection of a daemon process.
/// Entries never go stale — artifact outputs are deterministic, so a
/// cached entry is valid for the lifetime of the binary (and, via the
/// digest check on rehydration, across restarts of the same binary).
#[derive(Debug, Default)]
pub struct ArtifactMemo {
    state: Mutex<MemoState>,
    config: MemoConfig,
    evictions: AtomicU64,
    spill_errors: AtomicU64,
}

impl ArtifactMemo {
    /// An empty, unspilled memo with the default bounds.
    pub fn new() -> Self {
        Self::with_config(MemoConfig::default())
    }

    /// An empty, unspilled memo with explicit bounds.
    pub fn with_config(config: MemoConfig) -> Self {
        ArtifactMemo {
            config: config.clamped(),
            ..Self::default()
        }
    }

    /// A memo persisted at `path`: rehydrates whatever intact entries an
    /// existing spill holds (tolerating a torn tail and skipping any
    /// line whose digest no longer matches its output), then compacts
    /// the file to the retained set so a crash loop cannot grow it.
    ///
    /// # Errors
    ///
    /// [`Error::Journal`] when the spill cannot be read or (re)written.
    /// A corrupt or foreign-schema file is not an error: it is a cache,
    /// so it is reset to empty instead.
    pub fn with_spill(
        path: impl AsRef<Path>,
        config: MemoConfig,
    ) -> Result<(Self, SpillReport), Error> {
        let path = path.as_ref().to_path_buf();
        let memo = Self::with_config(config);
        let mut report = SpillReport::default();

        // Load whatever the previous process left. Later lines win, so
        // re-inserted entries keep their most recent position.
        let mut loaded: Vec<(u64, MemoEntry)> = Vec::new();
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                let mut lines = text.split_inclusive('\n');
                let header_ok = lines
                    .next()
                    .filter(|header| header.ends_with('\n'))
                    .and_then(|header| jsonio::parse(header.trim_end()).ok())
                    .and_then(|h| h.get("schema").and_then(Json::as_str).map(str::to_owned))
                    .is_some_and(|schema| schema == SPILL_SCHEMA);
                if header_ok {
                    for raw in lines {
                        let complete = raw.ends_with('\n');
                        let line = raw.trim_end_matches('\n');
                        if line.is_empty() {
                            continue;
                        }
                        match parse_spill_line(line) {
                            Some((key, entry)) if complete => loaded.push((key, entry)),
                            // A parseable newline-less tail may still be
                            // a prefix of a longer intended line: drop it
                            // like the journal does.
                            _ => report.dropped += 1,
                        }
                    }
                } else {
                    // Torn header or foreign schema: the whole file is
                    // unusable, start fresh.
                    report.dropped += text.lines().count();
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => {
                return Err(Error::Journal {
                    reason: format!("cannot read memo spill {}: {e}", path.display()),
                })
            }
        }

        {
            let mut state = memo.state.lock().unwrap_or_else(PoisonError::into_inner);
            for (key, entry) in loaded {
                insert_locked(&mut state, key, entry, memo.config, &memo.evictions);
            }
            report.rehydrated = state.entries.len();
            // Compact on open: dedups superseded lines, truncates any
            // torn tail, and applies the caps to the on-disk form.
            state.spill = Some(rewrite_spill(&path, &state.entries, &state.order)?);
        }
        Ok((memo, report))
    }

    /// The memo key for a request descriptor: FNV-1a over the artifact
    /// name and the output form.
    pub fn request_key(name: &str, csv: bool) -> u64 {
        let descriptor = format!("{name}\x1f{}", if csv { "csv" } else { "text" });
        fnv1a64(descriptor.as_bytes())
    }

    /// Looks up a memoized output, marking the entry most-recently-used.
    pub fn get(&self, key: u64) -> Option<MemoEntry> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let entry = state.entries.get(&key).cloned()?;
        touch(&mut state.order, key);
        Some(entry)
    }

    /// Memoizes a rendered output under `key`, computing its digest,
    /// evicting least-recently-used entries past the configured bounds,
    /// and (for a spilled memo) appending the entry to the spill file
    /// with an fsync before returning.
    pub fn insert(&self, key: u64, output: String) {
        let digest = format!("fnv1a:{:016x}", fnv1a64(output.as_bytes()));
        let entry = MemoEntry { output, digest };
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(spill) = state.spill.as_mut() {
            let line = spill_line(key, &entry);
            if spill
                .file
                .write_all(line.as_bytes())
                .and_then(|()| spill.file.sync_data())
                .is_err()
            {
                // A failing disk must not take the service down: fall
                // back to memory-only and count the degradation.
                state.spill = None;
                self.spill_errors.fetch_add(1, Ordering::Relaxed);
            } else {
                spill.lines += 1;
            }
        }
        insert_locked(&mut state, key, entry, self.config, &self.evictions);
        // Compact once the append-only file outgrows the resident set
        // 4x over; rewrite failure degrades to memory-only like above.
        let over = state
            .spill
            .as_ref()
            .is_some_and(|s| s.lines > (4 * self.config.max_entries as u64).max(64));
        if over {
            let path = state.spill.as_ref().map(|s| s.path.clone());
            if let Some(path) = path {
                match rewrite_spill(&path, &state.entries, &state.order) {
                    Ok(spill) => state.spill = Some(spill),
                    Err(_) => {
                        state.spill = None;
                        self.spill_errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
    }

    /// Number of entries currently resident.
    pub fn len(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entries
            .len()
    }

    /// Whether the memo holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate resident bytes (output text only).
    pub fn approx_bytes(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .bytes
    }

    /// Entries evicted by the entry/byte bounds over the memo's life.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Whether a spill file is still being written (false for unspilled
    /// memos and after a disk failure demoted the memo to memory-only).
    pub fn spill_active(&self) -> bool {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .spill
            .is_some()
    }

    /// Spill writes abandoned because of I/O failures.
    pub fn spill_errors(&self) -> u64 {
        self.spill_errors.load(Ordering::Relaxed)
    }
}

/// Moves `key` to the most-recently-used end of the order.
fn touch(order: &mut VecDeque<u64>, key: u64) {
    if let Some(pos) = order.iter().position(|&k| k == key) {
        order.remove(pos);
    }
    order.push_back(key);
}

/// Inserts into the resident set and evicts from the cold end until the
/// bounds hold again. An over-cap single entry still resides alone —
/// the memo must be able to serve the one thing it was just asked for.
fn insert_locked(
    state: &mut MemoState,
    key: u64,
    entry: MemoEntry,
    config: MemoConfig,
    evictions: &AtomicU64,
) {
    if let Some(old) = state.entries.insert(key, entry) {
        state.bytes -= old.output.len();
    }
    state.bytes += state.entries[&key].output.len();
    touch(&mut state.order, key);
    while state.entries.len() > config.max_entries
        || (state.bytes > config.max_bytes && state.entries.len() > 1)
    {
        let Some(cold) = state.order.pop_front() else {
            break;
        };
        if let Some(old) = state.entries.remove(&cold) {
            state.bytes -= old.output.len();
            evictions.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// One spill entry as a JSON line (trailing newline included).
fn spill_line(key: u64, entry: &MemoEntry) -> String {
    format!(
        "{{\"key\":\"{key:016x}\",\"digest\":{},\"output\":{}}}\n",
        jsonio::escape(&entry.digest),
        jsonio::escape(&entry.output),
    )
}

/// Parses and digest-verifies one spill entry line; `None` drops it.
fn parse_spill_line(line: &str) -> Option<(u64, MemoEntry)> {
    let fields = jsonio::parse(line).ok()?;
    let key = u64::from_str_radix(fields.get("key")?.as_str()?, 16).ok()?;
    let digest = fields.get("digest")?.as_str()?.to_owned();
    let output = fields.get("output")?.as_str()?.to_owned();
    // The digest recorded at write time must still match the stored
    // output — the same tamper/corruption guard the journal applies.
    if digest != format!("fnv1a:{:016x}", fnv1a64(output.as_bytes())) {
        return None;
    }
    Some((key, MemoEntry { output, digest }))
}

/// Rewrites the spill at `path` to exactly the resident entries (cold
/// to hot, so a reload preserves LRU order), atomically via a temp file
/// rename, and returns the fresh append handle.
fn rewrite_spill(
    path: &Path,
    entries: &HashMap<u64, MemoEntry>,
    order: &VecDeque<u64>,
) -> Result<SpillFile, Error> {
    let io_err = |op: &str, e: &std::io::Error| Error::Journal {
        reason: format!("cannot {op} memo spill {}: {e}", path.display()),
    };
    let tmp = path.with_extension("tmp");
    let mut file = File::create(&tmp).map_err(|e| io_err("create", &e))?;
    let mut text = format!("{{\"schema\":{}}}\n", jsonio::escape(SPILL_SCHEMA));
    for key in order {
        if let Some(entry) = entries.get(key) {
            text.push_str(&spill_line(*key, entry));
        }
    }
    file.write_all(text.as_bytes())
        .and_then(|()| file.sync_data())
        .map_err(|e| io_err("write", &e))?;
    drop(file);
    std::fs::rename(&tmp, path).map_err(|e| io_err("commit", &e))?;
    let file = std::fs::OpenOptions::new()
        .append(true)
        .open(path)
        .map_err(|e| io_err("reopen", &e))?;
    Ok(SpillFile {
        file,
        path: path.to_path_buf(),
        lines: 0,
    })
}

/// The outcome of [`AdmissionGate::admit_within`].
#[derive(Debug)]
pub enum Admission<'a> {
    /// Admitted; the permit releases the slot on drop.
    Admitted(AdmissionPermit<'a>),
    /// The wait queue is already full — answer `busy` immediately.
    QueueFull,
    /// The caller queued but its admission wait exceeded the shed
    /// budget — answer with the typed `overloaded` response.
    Shed {
        /// How long the caller waited before being shed.
        waited: Duration,
    },
}

/// Bounded-concurrency admission control with a bounded wait queue and
/// queue-wait load shedding.
///
/// At most `max_inflight` permits are out at once; up to `queue_depth`
/// callers block in [`AdmissionGate::admit_within`] waiting for one;
/// beyond that it returns [`Admission::QueueFull`] immediately —
/// backpressure the caller turns into a typed `busy` response. A queued
/// waiter whose wait exceeds the budget is shed ([`Admission::Shed`]).
#[derive(Debug)]
pub struct AdmissionGate {
    state: Mutex<GateState>,
    freed: Condvar,
    max_inflight: usize,
    queue_depth: usize,
}

#[derive(Debug, Default)]
struct GateState {
    inflight: usize,
    queued: usize,
    /// Start instant of every admitted request, keyed by permit token —
    /// what [`AdmissionGate::oldest_inflight_age`] reads.
    starts: HashMap<u64, Instant>,
    next_token: u64,
}

impl AdmissionGate {
    /// A gate allowing `max_inflight` concurrent permits (min 1) and
    /// `queue_depth` blocked waiters.
    pub fn new(max_inflight: usize, queue_depth: usize) -> Self {
        AdmissionGate {
            state: Mutex::new(GateState::default()),
            freed: Condvar::new(),
            max_inflight: max_inflight.max(1),
            queue_depth,
        }
    }

    /// Acquires a permit, queueing at most `budget` (forever when
    /// `None`). Distinguishes the two overload shapes: a full queue
    /// ([`Admission::QueueFull`], immediate) versus a queue wait past
    /// the budget ([`Admission::Shed`]).
    pub fn admit_within(&self, budget: Option<Duration>) -> Admission<'_> {
        let start = Instant::now();
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if state.inflight >= self.max_inflight {
            if state.queued >= self.queue_depth {
                return Admission::QueueFull;
            }
            state.queued += 1;
            while state.inflight >= self.max_inflight {
                match budget {
                    None => {
                        state = self
                            .freed
                            .wait(state)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                    Some(budget) => {
                        let waited = start.elapsed();
                        let Some(remaining) = budget.checked_sub(waited) else {
                            state.queued -= 1;
                            return Admission::Shed { waited };
                        };
                        let (next, _timeout) = self
                            .freed
                            .wait_timeout(state, remaining)
                            .unwrap_or_else(PoisonError::into_inner);
                        state = next;
                    }
                }
            }
            state.queued -= 1;
        }
        state.inflight += 1;
        let token = state.next_token;
        state.next_token += 1;
        state.starts.insert(token, Instant::now());
        Admission::Admitted(AdmissionPermit { gate: self, token })
    }

    /// Permits currently out.
    pub fn inflight(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .inflight
    }

    /// The concurrent-permit capacity.
    pub fn capacity(&self) -> usize {
        self.max_inflight
    }

    /// How long the oldest currently-admitted request has been holding
    /// its permit — `None` when nothing is inflight. The daemon's
    /// `health` compares this against a stuck threshold to fail the
    /// check when the worker pool has wedged.
    pub fn oldest_inflight_age(&self) -> Option<Duration> {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .starts
            .values()
            .map(Instant::elapsed)
            .max()
    }

    fn release(&self, token: u64) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.inflight = state.inflight.saturating_sub(1);
        state.starts.remove(&token);
        drop(state);
        self.freed.notify_one();
    }
}

/// An RAII admission permit; dropping it releases the slot and wakes
/// one queued waiter.
#[derive(Debug)]
pub struct AdmissionPermit<'a> {
    gate: &'a AdmissionGate,
    token: u64,
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        self.gate.release(self.token);
    }
}

/// The memo keys whose render is in progress, shared by every
/// connection of a daemon so identical concurrent requests render once.
///
/// The first request to miss the memo on a key [`claim`](Self::claim)s
/// it and renders. The claim is an RAII [`InFlightClaim`]: the renderer
/// memoizes (or quarantines) the outcome and then drops it, and a render
/// that fails, panics or is cancelled drops it all the same. Dropping
/// releases the key and wakes every waiter. A request that finds a key
/// claimed [`wait`](Self::wait)s for the release, within its own
/// deadline, and then reads the memo — a hit when the render succeeded —
/// or renders the key itself.
///
/// A request must hold no claim while it waits: it renders its own
/// claims first, waits for every key it found claimed, and only then
/// claims again, with no further waiting. A key claimed once more
/// meanwhile is rendered unclaimed. No request then waits on its own
/// claim, and no two requests, whatever order they name their keys in,
/// wait on each other.
#[derive(Debug, Default)]
pub struct InFlight {
    keys: Mutex<HashSet<u64>>,
    released: Condvar,
}

impl InFlight {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Claims `key` for the caller's render; `None` while another claim
    /// on it is live.
    pub fn claim(self: &Arc<Self>, key: u64) -> Option<InFlightClaim> {
        let mut keys = self.keys.lock().unwrap_or_else(PoisonError::into_inner);
        keys.insert(key).then(|| InFlightClaim {
            table: Arc::clone(self),
            key,
        })
    }

    /// Blocks until `key` is not claimed or `deadline` passes, whichever
    /// comes first; `true` when the key is free. A key nobody claimed is
    /// free at once.
    pub fn wait(&self, key: u64, deadline: Option<Instant>) -> bool {
        let mut keys = self.keys.lock().unwrap_or_else(PoisonError::into_inner);
        while keys.contains(&key) {
            match deadline {
                None => {
                    keys = self
                        .released
                        .wait(keys)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                Some(deadline) => {
                    let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                        return false;
                    };
                    keys = self
                        .released
                        .wait_timeout(keys, left)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0;
                }
            }
        }
        true
    }
}

/// A live claim on one [`InFlight`] key; dropping it releases the key
/// and wakes every request waiting for it.
#[derive(Debug)]
pub struct InFlightClaim {
    table: Arc<InFlight>,
    key: u64,
}

impl Drop for InFlightClaim {
    fn drop(&mut self) {
        let mut keys = self
            .table
            .keys
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        keys.remove(&self.key);
        drop(keys);
        self.table.released.notify_all();
    }
}

/// Everything behind the quarantine's one lock: the offending digests
/// (keyed like the memo, FNV-1a over the spec's canonical form), each
/// with the panic message it earned, plus their LRU order
/// (front = coldest).
#[derive(Debug, Default)]
struct QuarantineState {
    entries: HashMap<u64, String>,
    order: VecDeque<u64>,
}

/// A bounded LRU of scenario-spec digests whose evaluation panicked.
///
/// A worker panic is caught and reported as a typed `panicked` record —
/// but re-running the same spec would panic again, burning a worker
/// slot each time an abusive (or just unlucky) client repeats it. The
/// quarantine remembers the offending spec's canonical digest so a
/// repeat is rejected O(1) with a `quarantined` record carrying the
/// original panic message, without re-executing anything.
///
/// Bounded like the memo (`--quarantine-max`, LRU eviction) so a
/// panic-spraying client cannot grow daemon memory without limit;
/// occupancy is exposed through the `health` endpoint.
#[derive(Debug)]
pub struct Quarantine {
    state: Mutex<QuarantineState>,
    max_entries: usize,
}

impl Quarantine {
    /// Default digest capacity (`--quarantine-max`).
    pub const DEFAULT_MAX: usize = 1024;

    /// An empty quarantine holding at most `max_entries` digests
    /// (min 1).
    pub fn new(max_entries: usize) -> Self {
        Quarantine {
            state: Mutex::new(QuarantineState::default()),
            max_entries: max_entries.max(1),
        }
    }

    /// Whether `digest` is quarantined; a hit returns the original
    /// panic message and marks the digest most-recently-used (repeat
    /// offenders stay resident).
    pub fn check(&self, digest: u64) -> Option<String> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let message = state.entries.get(&digest).cloned()?;
        touch(&mut state.order, digest);
        Some(message)
    }

    /// Quarantines `digest` with the panic message a repeat will be
    /// answered with, evicting the least-recently-used digest past the
    /// capacity.
    pub fn insert(&self, digest: u64, message: String) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.entries.insert(digest, message);
        touch(&mut state.order, digest);
        while state.entries.len() > self.max_entries {
            let Some(cold) = state.order.pop_front() else {
                break;
            };
            state.entries.remove(&cold);
        }
    }

    /// Digests currently quarantined — the `health` occupancy field.
    pub fn len(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entries
            .len()
    }

    /// Whether the quarantine holds no digests.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for Quarantine {
    /// An empty quarantine at [`Quarantine::DEFAULT_MAX`] capacity.
    fn default() -> Self {
        Self::new(Self::DEFAULT_MAX)
    }
}

/// Lifetime service counters, surfaced by the `{"stats": {}}` request.
///
/// All counters are monotone and relaxed — they are telemetry, not
/// synchronization.
#[derive(Debug, Default)]
pub struct ServiceCounters {
    /// Requests admitted past the gate and executed.
    pub accepted: AtomicU64,
    /// Requests fully served (terminal report line written).
    pub served: AtomicU64,
    /// Records served from the artifact memo.
    pub memo_hits: AtomicU64,
    /// Requests whose deadline cancelled the run.
    pub cancelled: AtomicU64,
    /// Requests rejected with `busy` (queue full, immediate).
    pub rejected: AtomicU64,
    /// Requests shed with `overloaded` (queue wait past the budget).
    pub overloaded: AtomicU64,
    /// Connections turned away at the max-connections gate.
    pub conn_rejected: AtomicU64,
    /// Response writes abandoned because a slow client hit the
    /// per-connection write deadline.
    pub write_timeouts: AtomicU64,
    /// Malformed request lines answered with a protocol error.
    pub protocol_errors: AtomicU64,
    /// Scenario specs rejected at validation with `invalid_spec`.
    pub invalid_specs: AtomicU64,
    /// Requests rejected by the static spec cost gate.
    pub too_expensive: AtomicU64,
    /// Spec evaluations that panicked (caught and reported `panicked`).
    pub panicked: AtomicU64,
    /// Spec records answered straight from the panic quarantine.
    pub quarantined: AtomicU64,
}

impl ServiceCounters {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments one counter by 1.
    pub fn bump(&self, counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// The counters as a `stats` response (individual loads are
    /// relaxed; counters only ever grow). The memo and quarantine
    /// occupancy fields are left at zero for the caller, which owns
    /// those structures, to fill in.
    pub fn stats(&self) -> StatsMsg {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        StatsMsg {
            accepted: load(&self.accepted),
            served: load(&self.served),
            memo_hits: load(&self.memo_hits),
            cancelled: load(&self.cancelled),
            rejected: load(&self.rejected),
            overloaded: load(&self.overloaded),
            conn_rejected: load(&self.conn_rejected),
            write_timeouts: load(&self.write_timeouts),
            protocol_errors: load(&self.protocol_errors),
            invalid_specs: load(&self.invalid_specs),
            too_expensive: load(&self.too_expensive),
            panicked: load(&self.panicked),
            quarantined: load(&self.quarantined),
            ..StatsMsg::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    fn temp_spill(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "np-memo-{tag}-{}-{:?}.spill",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn memo_round_trips_and_counts() {
        let memo = ArtifactMemo::new();
        let key = ArtifactMemo::request_key("fig5", false);
        assert!(memo.get(key).is_none());
        memo.insert(key, "v,drop\n0,1\n".into());
        let entry = memo.get(key).expect("present after insert");
        assert_eq!(entry.output, "v,drop\n0,1\n");
        assert!(entry.digest.starts_with("fnv1a:"));
        assert_eq!(memo.len(), 1);
        assert_eq!(memo.approx_bytes(), "v,drop\n0,1\n".len());
        assert!(!memo.is_empty());
        assert!(!memo.spill_active(), "plain memo has no spill");
    }

    #[test]
    fn memo_keys_separate_name_and_form() {
        let text = ArtifactMemo::request_key("fig5", false);
        let csv = ArtifactMemo::request_key("fig5", true);
        let other = ArtifactMemo::request_key("fig6", false);
        assert_ne!(text, csv);
        assert_ne!(text, other);
        assert_eq!(text, ArtifactMemo::request_key("fig5", false));
    }

    #[test]
    fn memo_digest_matches_engine_digest() {
        use crate::engine::{Job, Session};
        let memo = ArtifactMemo::new();
        let key = ArtifactMemo::request_key("j", false);
        memo.insert(key, "payload\n".into());
        let report = Session::new(vec![Job::new("j", || Ok("payload\n".into()))])
            .workers(1)
            .run();
        assert_eq!(
            Some(memo.get(key).expect("inserted").digest),
            report.records[0].digest()
        );
    }

    #[test]
    fn memo_evicts_least_recently_used_past_entry_cap() {
        let memo = ArtifactMemo::with_config(MemoConfig {
            max_entries: 2,
            max_bytes: 1 << 20,
        });
        let (a, b, c) = (1u64, 2u64, 3u64);
        memo.insert(a, "aa".into());
        memo.insert(b, "bb".into());
        // Touch `a` so `b` is now the cold entry.
        assert!(memo.get(a).is_some());
        memo.insert(c, "cc".into());
        assert_eq!(memo.len(), 2);
        assert_eq!(memo.evictions(), 1);
        assert!(memo.get(b).is_none(), "LRU entry was evicted");
        assert!(memo.get(a).is_some());
        assert!(memo.get(c).is_some());
    }

    #[test]
    fn memo_evicts_on_byte_cap_but_keeps_the_newest_entry() {
        let memo = ArtifactMemo::with_config(MemoConfig {
            max_entries: 100,
            max_bytes: 1024, // clamp floor
        });
        memo.insert(1, "x".repeat(700));
        memo.insert(2, "y".repeat(700));
        assert_eq!(memo.len(), 1, "byte cap holds");
        assert!(memo.get(2).is_some(), "newest survives");
        // A single entry over the whole cap still resides.
        memo.insert(3, "z".repeat(5000));
        assert!(memo.get(3).is_some());
        assert_eq!(memo.len(), 1);
        assert!(memo.evictions() >= 2);
    }

    #[test]
    fn reinserting_a_key_replaces_without_double_counting_bytes() {
        let memo = ArtifactMemo::new();
        memo.insert(7, "short".into());
        memo.insert(7, "a longer replacement".into());
        assert_eq!(memo.len(), 1);
        assert_eq!(memo.approx_bytes(), "a longer replacement".len());
    }

    #[test]
    fn spill_round_trips_across_a_restart() {
        let path = temp_spill("roundtrip");
        let _ = std::fs::remove_file(&path);
        let key = ArtifactMemo::request_key("fig5", false);
        let digest = {
            let (memo, report) =
                ArtifactMemo::with_spill(&path, MemoConfig::default()).expect("fresh spill");
            assert_eq!(report, SpillReport::default());
            assert!(memo.spill_active());
            memo.insert(key, "persisted output\n".into());
            memo.get(key).expect("resident").digest
        };
        // "Restart": a new memo over the same file sees the entry with
        // an identical digest.
        let (memo, report) =
            ArtifactMemo::with_spill(&path, MemoConfig::default()).expect("rehydrate");
        assert_eq!(report.rehydrated, 1, "{report:?}");
        assert_eq!(report.dropped, 0);
        let entry = memo.get(key).expect("rehydrated entry");
        assert_eq!(entry.output, "persisted output\n");
        assert_eq!(entry.digest, digest);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn spill_survives_truncation_at_every_byte_offset() {
        let path = temp_spill("torn");
        let _ = std::fs::remove_file(&path);
        {
            let (memo, _) = ArtifactMemo::with_spill(&path, MemoConfig::default()).expect("create");
            memo.insert(1, "first output\n".into());
            memo.insert(2, "second \"quoted\" output\n".into());
        }
        let bytes = std::fs::read(&path).unwrap();
        let torn = temp_spill("torn-cut");
        for cut in 0..=bytes.len() {
            std::fs::write(&torn, &bytes[..cut]).unwrap();
            let (memo, report) = ArtifactMemo::with_spill(&torn, MemoConfig::default())
                .unwrap_or_else(|e| panic!("cut at byte {cut} must load: {e}"));
            // Whatever rehydrates must be intact: digests verified on
            // load, so a torn line is dropped, never corrupted.
            for key in [1u64, 2u64] {
                if let Some(entry) = memo.get(key) {
                    assert_eq!(
                        entry.digest,
                        format!("fnv1a:{:016x}", fnv1a64(entry.output.as_bytes())),
                        "cut {cut}: corrupt entry kept"
                    );
                }
            }
            assert!(report.rehydrated <= 2);
        }
        // A full-length copy rehydrates everything.
        std::fs::write(&torn, &bytes).unwrap();
        let (_, report) = ArtifactMemo::with_spill(&torn, MemoConfig::default()).unwrap();
        assert_eq!(report.rehydrated, 2);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&torn).ok();
    }

    #[test]
    fn tampered_spill_output_is_dropped_on_load() {
        let path = temp_spill("tamper");
        let _ = std::fs::remove_file(&path);
        {
            let (memo, _) = ArtifactMemo::with_spill(&path, MemoConfig::default()).expect("create");
            memo.insert(9, "authentic\n".into());
        }
        let text = std::fs::read_to_string(&path)
            .unwrap()
            .replace("authentic", "tampered!");
        std::fs::write(&path, text).unwrap();
        let (memo, report) = ArtifactMemo::with_spill(&path, MemoConfig::default()).unwrap();
        assert_eq!(report.rehydrated, 0);
        assert_eq!(report.dropped, 1);
        assert!(memo.get(9).is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn foreign_schema_spill_resets_to_empty() {
        let path = temp_spill("foreign");
        std::fs::write(&path, "{\"schema\":\"otherformat/v9\"}\ngarbage\n").unwrap();
        let (memo, report) = ArtifactMemo::with_spill(&path, MemoConfig::default()).unwrap();
        assert!(memo.is_empty());
        assert_eq!(report.dropped, 2);
        memo.insert(1, "fresh\n".into());
        let (memo, report) = ArtifactMemo::with_spill(&path, MemoConfig::default()).unwrap();
        assert_eq!(report.rehydrated, 1);
        assert!(memo.get(1).is_some());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn spill_compaction_bounds_the_file() {
        let path = temp_spill("compact");
        let _ = std::fs::remove_file(&path);
        let config = MemoConfig {
            max_entries: 4,
            max_bytes: 1 << 20,
        };
        {
            let (memo, _) = ArtifactMemo::with_spill(&path, config).expect("create");
            // Far more inserts than the compaction threshold (64 lines
            // floor): the file must end up bounded, not ~200 lines.
            for i in 0..200u64 {
                memo.insert(i, format!("output {i}\n"));
            }
            assert!(memo.evictions() > 0);
        }
        let lines = std::fs::read_to_string(&path).unwrap().lines().count();
        assert!(lines <= 1 + 64 + 4, "spill stayed bounded, {lines} lines");
        // Rehydration sees at most the resident cap.
        let (memo, report) = ArtifactMemo::with_spill(&path, config).unwrap();
        assert!(report.rehydrated <= 4, "{report:?}");
        assert!(memo.len() <= 4);
        std::fs::remove_file(&path).ok();
    }

    /// An unbudgeted admission: blocks in the bounded queue, `None` when
    /// the queue is already full.
    fn admit(gate: &AdmissionGate) -> Option<AdmissionPermit<'_>> {
        match gate.admit_within(None) {
            Admission::Admitted(permit) => Some(permit),
            _ => None,
        }
    }

    #[test]
    fn gate_limits_inflight_and_queues() {
        let gate = Arc::new(AdmissionGate::new(1, 1));
        let first = admit(&gate).expect("first admits immediately");
        assert_eq!(gate.inflight(), 1);
        assert!(gate.oldest_inflight_age().is_some());

        // One waiter fits in the queue; it blocks until the permit drops.
        let entered = Arc::new(AtomicUsize::new(0));
        let waiter = {
            let gate = Arc::clone(&gate);
            let entered = Arc::clone(&entered);
            std::thread::spawn(move || {
                let permit = admit(&gate);
                entered.store(1, Ordering::SeqCst);
                drop(permit);
            })
        };
        // Give the waiter time to enqueue, then confirm it is parked.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(entered.load(Ordering::SeqCst), 0, "waiter parked");
        drop(first);
        waiter.join().expect("waiter finishes after release");
        assert_eq!(entered.load(Ordering::SeqCst), 1);
        assert_eq!(gate.inflight(), 0);
        assert!(gate.oldest_inflight_age().is_none());
    }

    #[test]
    fn gate_rejects_beyond_queue_depth() {
        let gate = Arc::new(AdmissionGate::new(1, 0));
        let held = admit(&gate).expect("capacity 1");
        assert!(admit(&gate).is_none(), "zero queue depth rejects at once");
        assert!(
            matches!(
                gate.admit_within(Some(Duration::ZERO)),
                Admission::QueueFull
            ),
            "budgeted admit distinguishes a full queue"
        );
        drop(held);
        assert!(admit(&gate).is_some(), "slot reusable after release");
    }

    #[test]
    fn queue_wait_past_budget_sheds_with_typed_outcome() {
        let gate = Arc::new(AdmissionGate::new(1, 4));
        let held = admit(&gate).expect("capacity 1");
        let start = Instant::now();
        match gate.admit_within(Some(Duration::from_millis(50))) {
            Admission::Shed { waited } => {
                assert!(waited >= Duration::from_millis(50), "{waited:?}");
                assert!(start.elapsed() < Duration::from_secs(5));
            }
            other => panic!("expected shed, got {other:?}"),
        }
        // The shed waiter left the queue: a fresh waiter still fits and
        // admits once the slot frees.
        let waiter = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                matches!(
                    gate.admit_within(Some(Duration::from_secs(10))),
                    Admission::Admitted(_)
                )
            })
        };
        std::thread::sleep(Duration::from_millis(30));
        drop(held);
        assert!(waiter.join().expect("waiter"), "freed slot admits");
    }

    #[test]
    fn gate_clamps_zero_capacity_to_one() {
        let gate = AdmissionGate::new(0, 0);
        assert_eq!(gate.capacity(), 1);
        assert!(admit(&gate).is_some());
    }

    #[test]
    fn oldest_inflight_age_tracks_the_stuck_permit() {
        let gate = AdmissionGate::new(2, 0);
        let _stuck = admit(&gate).expect("first");
        std::thread::sleep(Duration::from_millis(30));
        let fresh = admit(&gate).expect("second");
        let oldest = gate.oldest_inflight_age().expect("two inflight");
        assert!(oldest >= Duration::from_millis(30), "{oldest:?}");
        drop(fresh);
        let oldest = gate.oldest_inflight_age().expect("stuck one remains");
        assert!(oldest >= Duration::from_millis(30), "{oldest:?}");
    }

    #[test]
    fn quarantine_rejects_repeats_with_the_original_message() {
        let q = Quarantine::new(8);
        assert!(q.is_empty());
        assert_eq!(q.check(1), None, "unknown digest passes");
        q.insert(1, "panicked: boom".into());
        assert_eq!(q.len(), 1);
        assert_eq!(q.check(1).as_deref(), Some("panicked: boom"));
        assert_eq!(q.check(1).as_deref(), Some("panicked: boom"));
        assert_eq!(q.check(2), None, "other digests unaffected");
    }

    #[test]
    fn quarantine_evicts_least_recently_used_past_capacity() {
        let q = Quarantine::new(2);
        q.insert(1, "one".into());
        q.insert(2, "two".into());
        // Touch 1 so 2 becomes the cold digest.
        assert!(q.check(1).is_some());
        q.insert(3, "three".into());
        assert_eq!(q.len(), 2);
        assert!(q.check(2).is_none(), "LRU digest evicted");
        assert!(q.check(1).is_some());
        assert!(q.check(3).is_some());
        // Eviction proceeds strictly cold-to-hot: 1 was touched after 3
        // was inserted, so the next insert evicts 3.
        assert!(q.check(1).is_some());
        q.insert(4, "four".into());
        assert!(q.check(3).is_none(), "second-coldest evicted next");
        assert!(q.check(1).is_some() && q.check(4).is_some());
    }

    #[test]
    fn quarantine_reinsert_updates_in_place() {
        let q = Quarantine::new(2);
        q.insert(1, "first message".into());
        q.insert(1, "second message".into());
        assert_eq!(q.len(), 1, "reinsert replaces, not duplicates");
        assert_eq!(q.check(1).as_deref(), Some("second message"));
    }

    #[test]
    fn quarantine_clamps_zero_capacity_to_one() {
        let q = Quarantine::new(0);
        q.insert(1, "a".into());
        q.insert(2, "b".into());
        assert_eq!(q.len(), 1);
        assert!(q.check(2).is_some(), "newest digest survives");
    }

    /// Claims `key`, or names the key that was already claimed.
    fn claimed(table: &Arc<InFlight>, key: u64) -> Result<InFlightClaim, String> {
        table
            .claim(key)
            .ok_or_else(|| format!("key {key} was already claimed"))
    }

    #[test]
    fn inflight_claims_are_exclusive_until_dropped() -> Result<(), String> {
        let table = Arc::new(InFlight::new());
        let claim = claimed(&table, 7)?;
        assert!(
            table.claim(7).is_none(),
            "a claimed key cannot be claimed again"
        );
        let other = claimed(&table, 8)?;
        drop(claim);
        assert!(table.wait(7, None), "a released key is free at once");
        let again = claimed(&table, 7)?;
        assert!(
            !table.wait(8, Some(Instant::now())),
            "the other claim is still live"
        );
        drop((again, other));
        assert!(table.wait(7, None) && table.wait(8, None));
        Ok(())
    }

    #[test]
    fn inflight_waiters_wake_when_the_claim_drops() -> Result<(), String> {
        let table = Arc::new(InFlight::new());
        let claim = claimed(&table, 1)?;
        let started = Arc::new(std::sync::Barrier::new(2));
        let waiter = {
            let (table, started) = (Arc::clone(&table), Arc::clone(&started));
            std::thread::spawn(move || {
                started.wait();
                let freed = table.wait(1, Some(Instant::now() + Duration::from_secs(30)));
                (freed, Instant::now())
            })
        };
        started.wait();
        std::thread::sleep(Duration::from_millis(50));
        let dropped_at = Instant::now();
        drop(claim);
        let (freed, woke_at) = waiter.join().map_err(|_| "waiter thread panicked")?;
        // Freed well before the deadline, and not before the claim dropped.
        assert!(freed);
        assert!(woke_at >= dropped_at);
        Ok(())
    }

    #[test]
    fn inflight_wait_gives_up_at_the_deadline() -> Result<(), String> {
        let table = Arc::new(InFlight::new());
        let _claim = claimed(&table, 3)?;
        let start = Instant::now();
        assert!(!table.wait(3, Some(start + Duration::from_millis(30))));
        assert!(start.elapsed() >= Duration::from_millis(30));
        assert!(
            !table.wait(3, Some(start)),
            "a passed deadline returns at once"
        );
        Ok(())
    }

    #[test]
    fn inflight_claim_is_released_when_its_holder_unwinds() -> Result<(), String> {
        let table = Arc::new(InFlight::new());
        let held = claimed(&table, 9)?;
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _held = held;
            std::panic::resume_unwind(Box::new("render panicked"));
        }));
        assert!(unwound.is_err());
        assert!(
            table.wait(9, Some(Instant::now())),
            "unwinding dropped the claim"
        );
        Ok(())
    }

    #[test]
    fn counters_snapshot() {
        let counters = ServiceCounters::new();
        counters.bump(&counters.accepted);
        counters.bump(&counters.accepted);
        counters.bump(&counters.rejected);
        counters.bump(&counters.overloaded);
        counters.bump(&counters.write_timeouts);
        counters.bump(&counters.conn_rejected);
        let stats = counters.stats();
        assert_eq!(stats.accepted, 2);
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.overloaded, 1);
        assert_eq!(stats.write_timeouts, 1);
        assert_eq!(stats.conn_rejected, 1);
        assert_eq!(stats.served, 0);
        // Occupancy belongs to the memo and quarantine, not the counters.
        assert_eq!((stats.memo_entries, stats.quarantine_entries), (0, 0));
    }
}
