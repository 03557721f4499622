//! Layer-boundary probes. They wrap the program's own traits from outside,
//! so the program is measured as it is, with no change to its code:
//!
//! * [`TimedStorage`] wraps a [`Storage`] device (a replica's WAL, the
//!   shard recorder) and counts appends, bytes and syncs, timing each sync;
//! * [`TimedSource`] wraps the [`SthPublisher`] as a [`TreeHeadSource`] and
//!   times head emission and proof generation, keeping every head it served
//!   for the tree-hash oracle;
//! * [`Spans`] collects the benchmark's own spans around its calls into a
//!   layer, keyed by operation.

use adlp_crypto::sha256::Digest;
use adlp_logger::merkle::{ConsistencyProof, InclusionProof};
use adlp_logger::sth::{SignedTreeHead, SthPublisher};
use adlp_logger::{LogError, Storage};
use adlp_pubsub::NodeId;
use adlp_witness::TreeHeadSource;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock()
        .expect("probe mutex poisoned by a panicking benchmark thread")
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds in a duration.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// One span: a named interval inside operation `op`.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    op: u64,
    dur: Duration,
}

/// Spans kept in memory during the run and reduced when it ends.
#[derive(Debug, Default)]
pub struct Spans {
    spans: Vec<Span>,
}

impl Spans {
    pub fn record(&mut self, name: &'static str, op: u64, dur: Duration) {
        self.spans.push(Span { name, op, dur });
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<Duration> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur)
            .collect()
    }

    /// Sum of the durations of each named span per operation.
    fn per_op(&self, name: &str) -> BTreeMap<u64, Duration> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *out.entry(s.op).or_insert(Duration::ZERO) += s.dur;
        }
        out
    }

    /// Per operation: span `whole` less the spans `parts` of the same
    /// operation, the time no recorded stage accounts for.
    pub fn residuals(&self, whole: &str, parts: &[&str]) -> Vec<Duration> {
        let parts: Vec<_> = parts.iter().map(|p| self.per_op(p)).collect();
        self.per_op(whole)
            .into_iter()
            .map(|(op, total)| {
                let staged: Duration = parts.iter().filter_map(|p| p.get(&op)).sum();
                total.saturating_sub(staged)
            })
            .collect()
    }
}

/// Counts of the calls a [`TimedStorage`] saw.
#[derive(Debug, Default, Clone, Copy)]
pub struct StorageCounts {
    pub appends: u64,
    pub append_bytes: u64,
    pub syncs: u64,
}

/// A [`Storage`] wrapper counting appends, appended bytes and syncs, and
/// timing every sync.
#[derive(Debug)]
pub struct TimedStorage {
    inner: Arc<dyn Storage>,
    appends: AtomicU64,
    append_bytes: AtomicU64,
    syncs: AtomicU64,
    sync_times: Mutex<Vec<Duration>>,
}

impl TimedStorage {
    pub fn new(inner: Arc<dyn Storage>) -> Self {
        TimedStorage {
            inner,
            appends: AtomicU64::new(0),
            append_bytes: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
            sync_times: Mutex::new(Vec::new()),
        }
    }

    pub fn counts(&self) -> StorageCounts {
        StorageCounts {
            appends: self.appends.load(Ordering::SeqCst),
            append_bytes: self.append_bytes.load(Ordering::SeqCst),
            syncs: self.syncs.load(Ordering::SeqCst),
        }
    }

    pub fn sync_times(&self) -> Vec<Duration> {
        lock(&self.sync_times).clone()
    }
}

impl Storage for TimedStorage {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, LogError> {
        self.inner.read(name)
    }

    fn append(&self, name: &str, bytes: &[u8]) -> Result<(), LogError> {
        self.appends.fetch_add(1, Ordering::SeqCst);
        self.append_bytes
            .fetch_add(bytes.len() as u64, Ordering::SeqCst);
        self.inner.append(name, bytes)
    }

    fn sync(&self, name: &str) -> Result<(), LogError> {
        let start = Instant::now();
        let out = self.inner.sync(name);
        let took = start.elapsed();
        self.syncs.fetch_add(1, Ordering::SeqCst);
        lock(&self.sync_times).push(took);
        out
    }

    fn truncate(&self, name: &str, len: u64) -> Result<(), LogError> {
        self.inner.truncate(name, len)
    }

    fn write_replace(&self, name: &str, bytes: &[u8]) -> Result<(), LogError> {
        self.inner.write_replace(name, bytes)
    }

    fn remove(&self, name: &str) -> Result<(), LogError> {
        self.inner.remove(name)
    }

    fn size_of(&self, name: &str) -> Result<Option<u64>, LogError> {
        self.inner.size_of(name)
    }
}

/// What one light-client audit asked of the source.
#[derive(Debug, Default, Clone)]
pub struct SourceCalls {
    pub emit: Duration,
    pub consistency: Duration,
    pub inclusion: Duration,
    pub head: Option<SignedTreeHead>,
    pub consistency_proof: Option<ConsistencyProof>,
    pub inclusion_proof: Option<(Digest, InclusionProof)>,
}

/// A [`TreeHeadSource`] wrapper timing the publisher's head emission and
/// proof generation. It keeps the `(size, root)` of every head it served.
#[derive(Debug)]
pub struct TimedSource {
    inner: Arc<SthPublisher>,
    calls: Mutex<SourceCalls>,
    heads: Mutex<Vec<(u64, Digest)>>,
}

impl TimedSource {
    pub fn new(inner: Arc<SthPublisher>) -> Self {
        TimedSource {
            inner,
            calls: Mutex::new(SourceCalls::default()),
            heads: Mutex::new(Vec::new()),
        }
    }

    /// The calls made since the last take.
    pub fn take_calls(&self) -> SourceCalls {
        std::mem::take(&mut *lock(&self.calls))
    }

    /// `(size, root)` of every head served, in order.
    pub fn heads(&self) -> Vec<(u64, Digest)> {
        lock(&self.heads).clone()
    }
}

impl TreeHeadSource for TimedSource {
    fn log_id(&self) -> NodeId {
        self.inner.log().clone()
    }

    fn latest(&self) -> Option<SignedTreeHead> {
        let start = Instant::now();
        let head = self.inner.latest_head();
        let took = start.elapsed();
        if let Some(h) = &head {
            lock(&self.heads).push((h.size, h.root));
        }
        let mut calls = lock(&self.calls);
        calls.emit += took;
        calls.head.clone_from(&head);
        head
    }

    fn consistency(&self, old_size: u64, new_size: u64) -> Option<ConsistencyProof> {
        let start = Instant::now();
        let proof = self.inner.prove_consistency(old_size, new_size);
        let took = start.elapsed();
        let mut calls = lock(&self.calls);
        calls.consistency += took;
        calls.consistency_proof.clone_from(&proof);
        proof
    }

    fn inclusion(&self, index: u64, size: u64) -> Option<(Digest, InclusionProof)> {
        let start = Instant::now();
        let proof = self.inner.prove_inclusion(index, size);
        let took = start.elapsed();
        let mut calls = lock(&self.calls);
        calls.inclusion += took;
        calls.inclusion_proof.clone_from(&proof);
        proof
    }
}

/// Words of a glibc `cpu_set_t` (1024 CPUs).
const CPU_SET_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread, and every thread it spawns afterwards, to
/// the highest-numbered CPU it may run on; returns that CPU.
///
/// On a shared host whose virtual CPUs are themselves scheduled by a
/// hypervisor, a round that hops between two of them waits for the idle one
/// to be woken up and scheduled each time; that wait ran to 20–40 % of the
/// run and changed with the neighbours' load. On one CPU the program's
/// threads hand off by plain context switches, and a run measures the
/// program rather than the host's scheduler.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask = [0u64; CPU_SET_WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes; pid 0 is the
    // calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..CPU_SET_WORDS * 64)
        .rev()
        .find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .ok_or("no CPU in the affinity mask")?;
    let mut one = [0u64; CPU_SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of `size` bytes; pid 0 is the
    // calling thread.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}
