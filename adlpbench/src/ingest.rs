//! The `ingest` workload: scan-size ADLP entries deposited into an
//! in-process replicated cluster (1 shard, R=3, W=2) whose replicas keep
//! durable WALs, synced on every append, with a shard forensic recorder
//! attached.
//!
//! Every device is an in-memory [`MemStorage`], which keeps the split
//! between appended and synced bytes and loses the unsynced ones in a
//! simulated power cut. The program runs the same WAL, sync, recording and
//! recovery code as on files; what is left out is the host disk's flush
//! latency, which on a shared virtual disk is set by the neighbours' I/O
//! (it moved the file-backed deposit rate by 1.45× between two consecutive
//! runs of the same code).
//!
//! Setup drives the program's own pipeline (two ADLP links, four
//! components) into a volatile logger to produce a corpus of genuine entry
//! pairs. The timed phase deposits that corpus into a fresh cluster in
//! bursts of non-blocking `submit`s, each burst closed by a `flush` that
//! returns once the burst is durable. An op is one deposit; its latency runs
//! from its `submit` to the end of its burst's `flush`. A pass deposits the
//! whole corpus once into fresh devices and is then checked, in full on
//! every fourth pass and the last; passes repeat until the run's time is
//! up.

use crate::link::{identity, CryptoProbe, Link};
use crate::oracle::Payloads;
use crate::probe::{StorageCounts, TimedStorage};
use crate::{median_ms, median_us, Args, Outcome};
use adlp_audit::ClusterAuditor;
use adlp_cluster::{ClusterConfig, ClusterLogClient, LoggerCluster};
use adlp_core::ComponentIdentity;
use adlp_dispute::{replay_window, ReplayContext};
use adlp_logger::{
    DurabilityConfig, DurableLog, LogEntry, LogServer, MemStorage, Storage, SyncPolicy,
};
use adlp_pubsub::{Master, NodeId, Topic};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Payload of one LIDAR scan: the paper's 8 705 B body less the 16 B
/// middleware header (Table III).
pub const SCAN_PAYLOAD_LEN: usize = 8_689;
/// Entries in the corpus, and deposits in one pass.
pub const CORPUS_ENTRIES: usize = 1_024;
/// Deposits per burst; each burst ends with a durable flush.
pub const BURST: usize = 64;
/// Setups per run; the median is reported as `setup_s`.
const SETUPS: usize = 3;
/// Replicas of the one shard.
const REPLICAS: usize = 3;
/// Corpus entries whose signatures the traced run re-checks.
const CRYPTO_SAMPLES: usize = 64;

/// The corpus: genuine ADLP entries in the order the logger stored them.
struct Corpus {
    entries: Vec<LogEntry>,
    encoded: Vec<Vec<u8>>,
    keys: Vec<(NodeId, adlp_crypto::RsaPublicKey)>,
    topology: Vec<(Topic, NodeId)>,
    identities: Vec<ComponentIdentity>,
}

fn corpus(seed: u64, key_seed: u64, keygen: &mut Vec<Duration>) -> Result<Corpus, String> {
    let mut rng = StdRng::seed_from_u64(key_seed);
    let front = identity("lidar_front", &mut rng, keygen);
    let rear = identity("lidar_rear", &mut rng, keygen);
    let fusion = identity("fusion", &mut rng, keygen);
    let planner = identity("planner", &mut rng, keygen);
    let master = Master::new();
    let server = LogServer::try_spawn().map_err(|e| format!("spawn logger: {e}"))?;
    let logger = server.handle();
    let store = logger.store().clone();
    let payloads = Payloads::new(seed, SCAN_PAYLOAD_LEN);
    let mut a = Link::new(
        &master,
        &logger,
        "scan_front",
        &front,
        std::slice::from_ref(&fusion),
        payloads.clone(),
        2,
    )?;
    let mut b = Link::new(
        &master,
        &logger,
        "scan_rear",
        &rear,
        std::slice::from_ref(&planner),
        payloads,
        3,
    )?;
    // Both links in flight at once, so the two subscribers sign in
    // parallel; each round stores one entry pair per link.
    while store.len() < CORPUS_ENTRIES {
        let target = store.len() + a.entries_per_round() + b.entries_per_round();
        let fa = a.start()?;
        let fb = b.start()?;
        a.finish(fa)?;
        b.finish(fb)?;
        crate::link::wait_until("corpus entries", || store.len() >= target)?;
    }
    a.flush()?;
    b.flush()?;
    let encoded = store.encoded_records();
    let entries = encoded
        .iter()
        .map(|bytes| LogEntry::decode(bytes).map_err(|e| format!("corpus entry: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let identities = vec![front, rear, fusion, planner];
    let keys = identities
        .iter()
        .map(|i| (i.id().clone(), i.public_key().clone()))
        .collect();
    Ok(Corpus {
        entries,
        encoded,
        keys,
        topology: master.topology(),
        identities,
    })
}

/// One pass's cluster, on fresh devices.
struct Pass {
    /// Each replica's device, as the program's storage sees it after a
    /// power cut.
    devices: Vec<MemStorage>,
    cluster: LoggerCluster,
    client: ClusterLogClient,
    wals: Vec<Arc<TimedStorage>>,
    recorder: Arc<TimedStorage>,
}

fn spawn_pass(corpus: &Corpus) -> Result<Pass, String> {
    let devices: Vec<MemStorage> = (0..REPLICAS).map(|_| MemStorage::new()).collect();
    let wals: Vec<Arc<TimedStorage>> = devices
        .iter()
        .map(|d| Arc::new(TimedStorage::new(Arc::new(d.clone()))))
        .collect();
    let storages = wals
        .iter()
        .map(|w| Arc::clone(w) as Arc<dyn Storage>)
        .collect();
    // Rotation is off (0): every append goes to the WAL and nothing is
    // rewritten, so a deposit's cost does not depend on the log's length.
    let cluster = LoggerCluster::spawn_durable(
        ClusterConfig::replicated(1),
        vec![storages],
        SyncPolicy::EveryAppend,
        0,
    )
    .map_err(|e| format!("spawn cluster: {e}"))?;
    let recorder = Arc::new(TimedStorage::new(Arc::new(MemStorage::new())));
    cluster
        .attach_shard_recorders(vec![Arc::clone(&recorder) as Arc<dyn Storage>])
        .map_err(|e| format!("attach recorder: {e}"))?;
    let client = ClusterLogClient::in_proc(&cluster);
    for (id, key) in &corpus.keys {
        client
            .register_key(id, key.clone())
            .map_err(|e| format!("register {id}: {e}"))?;
    }
    Ok(Pass {
        devices,
        cluster,
        client,
        wals,
        recorder,
    })
}

struct Rig {
    corpus: Corpus,
    pass: Pass,
}

fn setup(seed: u64, key_seed: u64, keygen: &mut Vec<Duration>) -> Result<Rig, String> {
    let corpus = corpus(seed, key_seed, keygen)?;
    let pass = spawn_pass(&corpus)?;
    Ok(Rig { corpus, pass })
}

/// What the passes of a run accumulate.
#[derive(Default)]
struct Layers {
    submits: Vec<Duration>,
    flushes: Vec<Duration>,
    wal: StorageCounts,
    recording: StorageCounts,
    sync_times: Vec<Duration>,
    recoveries: Vec<Duration>,
    replays: Vec<Duration>,
    audits: Vec<Duration>,
    chains: Vec<Duration>,
    deposits: u64,
    /// Deposits the cluster audit covered.
    audited: u64,
    store_bytes: u64,
    store_entries: u64,
}

/// Deposits the corpus through one pass's cluster, timing each op.
fn deposit(pass: &Pass, corpus: &Corpus, trace: bool, out: &mut Outcome, layers: &mut Layers) {
    let entries = corpus.entries.clone();
    let mut entries = entries.into_iter();
    let mut starts = Vec::with_capacity(BURST);
    loop {
        starts.clear();
        let burst_start = Instant::now();
        for entry in entries.by_ref().take(BURST) {
            out.attempted += 1;
            let start = Instant::now();
            let accepted = pass.client.submit(entry).is_accepted();
            if trace {
                layers.submits.push(start.elapsed());
            }
            if accepted {
                starts.push(start);
            } else {
                out.failed += 1;
                out.check(false, || "a deposit missed its write quorum".to_owned());
            }
        }
        if starts.is_empty() {
            break;
        }
        let flush_start = Instant::now();
        let flushed = pass.client.flush();
        let end = Instant::now();
        if trace {
            layers.flushes.push(end - flush_start);
        }
        out.check(flushed.is_ok(), || format!("flush: {flushed:?}"));
        out.intervals.push((starts.len() as u64, end - burst_start));
        out.op_latencies.extend(starts.iter().map(|s| end - *s));
    }
}

/// Every how many passes the full check runs (the first and the last pass
/// always get it). The full check takes about three times as long as the
/// deposits it checks; running it on every pass would leave a quarter of
/// the run to the timed work.
const FULL_CHECK_EVERY: u64 = 4;

/// Checks one finished pass and consumes it. Every pass: each replica's
/// store holds the corpus and replica 0's hash chain verifies. A full
/// check adds the cluster audit, the recording replay and each replica
/// reopened from its own device after a power cut.
fn check_pass(
    pass: Pass,
    corpus: &Corpus,
    full: bool,
    trace: bool,
    out: &mut Outcome,
    layers: &mut Layers,
) -> Result<(), String> {
    let n = corpus.entries.len();
    for r in 0..REPLICAS {
        let len = pass
            .cluster
            .replica(0, r)
            .ok_or_else(|| format!("no replica {r}"))?
            .handle()
            .store()
            .len();
        out.check(len == n, || {
            format!("replica {r} stored {len} of {n} deposits")
        });
    }
    let store = pass
        .cluster
        .replica(0, 0)
        .ok_or("no replica 0")?
        .handle()
        .store()
        .clone();
    let start = Instant::now();
    let chain = store.verify_chain();
    layers.chains.push(start.elapsed());
    out.check(chain.is_ok(), || format!("verify_chain: {chain:?}"));
    layers.store_bytes += store.total_bytes();
    layers.store_entries += store.len() as u64;
    drop(store);
    for wal in &pass.wals {
        let c = wal.counts();
        layers.wal.append_bytes += c.append_bytes;
        layers.wal.syncs += c.syncs;
        if trace {
            layers.sync_times.extend(wal.sync_times());
        }
    }
    let c = pass.recorder.counts();
    layers.recording.appends += c.appends;
    layers.recording.append_bytes += c.append_bytes;
    layers.deposits += n as u64;
    if !full {
        return Ok(());
    }

    let keys = pass.cluster.keys().clone();
    let start = Instant::now();
    let report = ClusterAuditor::new(keys.clone())
        .with_topology(corpus.topology.clone())
        .audit_view(&pass.cluster.view());
    layers.audits.push(start.elapsed());
    layers.audited += n as u64;
    out.check(report.all_clear(), || {
        "cluster audit is not all-clear".to_owned()
    });

    let recorder = pass.cluster.shard_recorder(0).ok_or("no shard recorder")?;
    recorder
        .sync()
        .map_err(|e| format!("sync recording: {e}"))?;
    let start = Instant::now();
    let window = pass
        .cluster
        .extract_recording(0, 0, u64::MAX)
        .map_err(|e| format!("extract recording: {e}"))?;
    let ctx = ReplayContext::new(keys).with_topology(corpus.topology.clone());
    let replay = replay_window(&window, &ctx).map_err(|e| format!("replay: {e}"))?;
    layers.replays.push(start.elapsed());
    out.check(replay.sound(), || {
        "recording replay is not sound".to_owned()
    });
    out.check(replay.entries == n, || {
        format!("replay covers {} of {n} deposits", replay.entries)
    });
    let dups = ((REPLICAS - 1) * n) as u64;
    out.check(replay.duplicates == dups, || {
        format!(
            "replay dropped {} duplicates, expected {dups}",
            replay.duplicates
        )
    });
    out.check(replay.report.all_clear(), || {
        "replayed audit is not all-clear".to_owned()
    });

    let devices = pass.devices.clone();
    drop(pass);
    for (r, device) in devices.into_iter().enumerate() {
        // A power cut: whatever the replica appended but never synced is
        // gone, and it recovers from its own device alone.
        device.crash();
        let start = Instant::now();
        let (_log, store, recovery) = DurableLog::open(&DurabilityConfig::new(Arc::new(device)))
            .map_err(|e| format!("reopen replica {r}: {e}"))?;
        layers.recoveries.push(start.elapsed());
        out.check(recovery.records_truncated == 0, || {
            format!(
                "replica {r} truncated {} records on reopen",
                recovery.records_truncated
            )
        });
        let records = store.encoded_records();
        out.check(records == corpus.encoded, || {
            format!(
                "replica {r} reopened with {} records unlike the corpus",
                records.len()
            )
        });
    }
    Ok(())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let mut keygen = Vec::new();
    let mut rig: Option<Rig> = None;
    for k in (0..SETUPS).rev() {
        drop(rig.take());
        let start = Instant::now();
        rig = Some(setup(
            args.seed,
            crate::key_seed(args.seed, k),
            &mut keygen,
        )?);
        out.setups.push(start.elapsed());
    }
    let Rig { corpus, pass } = rig.ok_or("no setup ran")?;

    let mut layers = Layers::default();
    let mut pass = Some(pass);
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut index = 0;
    while let Some(p) = pass.take() {
        deposit(&p, &corpus, args.trace, &mut out, &mut layers);
        let last = Instant::now() >= deadline || !out.errors.is_empty();
        let full = last || index % FULL_CHECK_EVERY == 0;
        check_pass(p, &corpus, full, args.trace, &mut out, &mut layers)?;
        if !last {
            index += 1;
            pass = Some(spawn_pass(&corpus)?);
        }
    }

    let deposits = layers.deposits as f64;
    let audit_time: Duration = layers.audits.iter().sum();
    out.audit_entries_per_s = layers.audited as f64 / audit_time.as_secs_f64();
    out.log_bytes_per_op = layers.store_bytes as f64 / layers.store_entries.max(1) as f64;

    if args.trace {
        let mut crypto = CryptoProbe::new();
        let signers: Vec<&ComponentIdentity> = corpus.identities.iter().collect();
        for entry in corpus.entries.iter().take(CRYPTO_SAMPLES) {
            crypto.probe(&signers, entry, &mut out);
        }
        crypto.count_sign_allocs(&corpus.identities[0], args.seed);
        crypto.report(&mut out);
        out.layer("crypto.keygen_ms", median_ms(&keygen));
        out.layer("cluster.submit_us", median_us(&layers.submits));
        out.layer("cluster.flush_ms", median_ms(&layers.flushes));
        out.layer(
            "logger.wal.syncs_per_entry",
            layers.wal.syncs as f64 / deposits,
        );
        out.layer("logger.wal.sync_us", median_us(&layers.sync_times));
        out.layer(
            "logger.wal.bytes_per_entry",
            layers.wal.append_bytes as f64 / deposits,
        );
        out.layer("logger.store.bytes_per_entry", out.log_bytes_per_op);
        out.layer("logger.recovery_ms", median_ms(&layers.recoveries));
        out.layer(
            "dispute.recording.bytes_per_entry",
            layers.recording.append_bytes as f64 / deposits,
        );
        out.layer(
            "dispute.recording.appends_per_entry",
            layers.recording.appends as f64 / deposits,
        );
        out.layer("dispute.replay_ms", median_ms(&layers.replays));
        out.layer("audit.audit_store_ms", median_ms(&layers.audits));
        out.layer("audit.verify_chain_ms", median_ms(&layers.chains));
    }
    Ok(out)
}
