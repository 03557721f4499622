//! The `link` workload, and the ADLP link every workload's traffic comes
//! from.
//!
//! One publisher and one subscriber on the in-process transport, ADLP
//! scheme, a volatile logger and 64 B steering-size payloads. An op is one
//! accountable round: the publication is delivered, its ack accepted and
//! both log entries stored; only then does the next publication go out.

use crate::oracle::Payloads;
use crate::probe::{ms, us, Spans};
use crate::{median, median_ms, median_us, Args, Outcome};
use adlp_audit::Auditor;
use adlp_core::node::PAPER_KEY_BITS;
use adlp_core::{AdlpNode, AdlpNodeBuilder, ComponentIdentity, Scheme};
use adlp_crypto::pkcs1;
use adlp_crypto::sha256::{binding_digest, sha256};
use adlp_logger::{Direction, LogEntry, LogServer, LogStore, LoggerHandle};
use adlp_pubsub::{Master, Publisher, Subscription};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::mpsc::{self, Receiver};
use std::time::{Duration, Instant};

/// How long any single wait inside a round may take before the round is
/// declared failed.
const TIMEOUT: Duration = Duration::from_secs(10);
/// Steering-size payload of the `link` and `light-audit` rounds.
pub const STEERING_LEN: usize = 64;
/// Rounds run during setup, before the first timed op.
pub const WARMUP_ROUNDS: u64 = 32;
/// Setups per run; the median is reported as `setup_s`.
pub const SETUPS: usize = 5;
/// Signs whose allocations are counted for `crypto.sign_allocs`.
const SIGN_ALLOC_SAMPLES: u64 = 32;

/// How long a wait spins (yielding) before it starts to sleep between
/// polls, leaving both cores to the program's own threads.
const SPIN: Duration = Duration::from_micros(200);
/// Sleep between polls once a wait has spun for [`SPIN`].
const POLL: Duration = Duration::from_micros(20);

/// Polls `ready` until it holds; returns when it was first seen to hold.
pub fn wait_until(what: &str, mut ready: impl FnMut() -> bool) -> Result<Instant, String> {
    let start = Instant::now();
    loop {
        if ready() {
            return Ok(Instant::now());
        }
        let waited = start.elapsed();
        if waited > TIMEOUT {
            return Err(format!("timed out waiting for {what}"));
        }
        if waited < SPIN {
            std::thread::yield_now();
        } else {
            std::thread::sleep(POLL);
        }
    }
}

/// An ADLP identity generated from the run's seed, timing the generation.
pub fn identity(id: &str, rng: &mut StdRng, keygen: &mut Vec<Duration>) -> ComponentIdentity {
    let start = Instant::now();
    let identity = ComponentIdentity::generate(id, PAPER_KEY_BITS, rng);
    keygen.push(start.elapsed());
    identity
}

/// A node running the ADLP scheme with a given identity.
pub fn adlp_node(
    master: &Master,
    logger: &LoggerHandle,
    identity: &ComponentIdentity,
) -> Result<AdlpNode, String> {
    // The identity is supplied, so `build` draws nothing from this rng.
    let mut unused = StdRng::seed_from_u64(0);
    AdlpNodeBuilder::new(identity.id().clone())
        .scheme(Scheme::adlp())
        .identity(identity.clone())
        .build(master, logger, &mut unused)
        .map_err(|e| format!("build node {}: {e}", identity.id()))
}

struct Delivery {
    subscriber: usize,
    seq: u64,
    payload: Vec<u8>,
    at: Instant,
}

/// Stage times of one round.
#[derive(Debug, Clone, Copy)]
pub struct RoundTimes {
    pub seq: u64,
    /// The `Publisher::publish` call.
    pub publish: Duration,
    /// From the publish call to the last subscriber callback.
    pub deliver: Duration,
    /// From the last callback to `pending_acks() == 0`.
    pub ack: Duration,
    /// From the accepted ack to every entry of the round being stored.
    pub deposit_lag: Duration,
}

/// A publication that is out, awaiting its deliveries and acks.
pub struct InFlight {
    seq: u64,
    payload: Vec<u8>,
    started: Instant,
    publish: Duration,
}

/// One ADLP link: a publisher and its subscribers on one topic, with
/// payloads drawn from the seed.
pub struct Link {
    pub topic: &'static str,
    pub publisher_node: AdlpNode,
    pub publisher_identity: ComponentIdentity,
    pub subscriber_identities: Vec<ComponentIdentity>,
    publisher: Publisher,
    subscribers: Vec<(AdlpNode, Subscription)>,
    deliveries: Receiver<Delivery>,
    payloads: Payloads,
    stream: u64,
    next: u64,
}

impl Link {
    pub fn new(
        master: &Master,
        logger: &LoggerHandle,
        topic: &'static str,
        publisher: &ComponentIdentity,
        subscribers: &[ComponentIdentity],
        payloads: Payloads,
        stream: u64,
    ) -> Result<Self, String> {
        let publisher_node = adlp_node(master, logger, publisher)?;
        let publisher_handle = publisher_node
            .advertise(topic)
            .map_err(|e| format!("advertise {topic}: {e}"))?;
        let (tx, deliveries) = mpsc::channel();
        let mut subs = Vec::with_capacity(subscribers.len());
        for (i, identity) in subscribers.iter().enumerate() {
            let node = adlp_node(master, logger, identity)?;
            let tx = tx.clone();
            let subscription = node
                .subscribe(topic, move |msg| {
                    let at = Instant::now();
                    // The receiver outlives every subscription of the link.
                    let _ = tx.send(Delivery {
                        subscriber: i,
                        seq: msg.header.seq,
                        payload: msg.payload.to_vec(),
                        at,
                    });
                })
                .map_err(|e| format!("subscribe {topic}: {e}"))?;
            subs.push((node, subscription));
        }
        let want = subscribers.len();
        wait_until("subscriber connections", || {
            publisher_handle.connection_count() >= want
        })?;
        Ok(Link {
            topic,
            publisher_node,
            publisher_identity: publisher.clone(),
            subscriber_identities: subscribers.to_vec(),
            publisher: publisher_handle,
            subscribers: subs,
            deliveries,
            payloads,
            stream,
            next: 0,
        })
    }

    /// Log entries one round stores: one per subscriber on each side.
    pub fn entries_per_round(&self) -> usize {
        2 * self.subscribers.len()
    }

    /// Sends the next publication.
    pub fn start(&mut self) -> Result<InFlight, String> {
        let payload = self.payloads.get(self.stream, self.next);
        self.next += 1;
        let started = Instant::now();
        let report = self
            .publisher
            .publish(&payload)
            .map_err(|e| format!("publish on {}: {e}", self.topic))?;
        let publish = started.elapsed();
        if report.sent != self.subscribers.len() {
            return Err(format!(
                "publication {} on {} went to {} of {} subscribers",
                report.seq,
                self.topic,
                report.sent,
                self.subscribers.len()
            ));
        }
        Ok(InFlight {
            seq: report.seq,
            payload,
            started,
            publish,
        })
    }

    /// Waits for a publication's deliveries, checking every payload byte
    /// for byte, then for its acks to be accepted. Returns the stage times
    /// up to the accepted ack and the instant it was seen.
    pub fn finish(&mut self, flight: InFlight) -> Result<(RoundTimes, Instant), String> {
        let mut got = vec![false; self.subscribers.len()];
        let mut last = flight.started;
        for _ in 0..self.subscribers.len() {
            let d = self.deliveries.recv_timeout(TIMEOUT).map_err(|_| {
                format!("publication {} on {} not delivered", flight.seq, self.topic)
            })?;
            if d.seq != flight.seq || d.payload != flight.payload {
                return Err(format!(
                    "subscriber {} on {} got publication {} ({} B), expected {} ({} B)",
                    d.subscriber,
                    self.topic,
                    d.seq,
                    d.payload.len(),
                    flight.seq,
                    flight.payload.len()
                ));
            }
            match got.get_mut(d.subscriber) {
                Some(seen) if !*seen => *seen = true,
                _ => return Err(format!("duplicate delivery of {} on {}", d.seq, self.topic)),
            }
            last = last.max(d.at);
        }
        let acked = wait_until("acknowledgement", || {
            self.publisher_node.pending_acks() == 0
        })?;
        let times = RoundTimes {
            seq: flight.seq,
            publish: flight.publish,
            deliver: last.saturating_duration_since(flight.started),
            ack: acked.saturating_duration_since(last),
            deposit_lag: Duration::ZERO,
        };
        Ok((times, acked))
    }

    /// One whole round: publish, deliver, ack, and wait until the round's
    /// entries are stored in `store`.
    pub fn round(&mut self, store: &LogStore) -> Result<RoundTimes, String> {
        let target = store.len() + self.entries_per_round();
        let flight = self.start()?;
        let (mut times, acked) = self.finish(flight)?;
        let stored = wait_until("log entries", || store.len() >= target)?;
        times.deposit_lag = stored.saturating_duration_since(acked);
        Ok(times)
    }

    /// Flushes every node of the link into the logger.
    pub fn flush(&self) -> Result<(), String> {
        self.publisher_node
            .flush()
            .map_err(|e| format!("flush: {e}"))?;
        for (node, _) in &self.subscribers {
            node.flush().map_err(|e| format!("flush: {e}"))?;
        }
        Ok(())
    }
}

/// The outside-in crypto probe of one round: re-sign both entries' binding
/// digests with their components' keys (PKCS#1 v1.5 is deterministic, so
/// the result must equal the logged signature) and verify it.
pub struct CryptoProbe {
    signs: Vec<Duration>,
    verifies: Vec<Duration>,
    sign_allocs: f64,
    sha_us_per_kib: Vec<f64>,
}

impl CryptoProbe {
    pub fn new() -> Self {
        CryptoProbe {
            signs: Vec::new(),
            verifies: Vec::new(),
            sign_allocs: 0.0,
            sha_us_per_kib: Vec::new(),
        }
    }

    /// Counts the calling thread's allocations while `signer` signs digests
    /// drawn from the seed alone. Logged digests cover timestamps, which
    /// differ between runs; these do not, so the count repeats exactly.
    pub fn count_sign_allocs(&mut self, signer: &ComponentIdentity, seed: u64) {
        let payloads = Payloads::new(seed, STEERING_LEN);
        let mut total = 0;
        for i in 0..SIGN_ALLOC_SAMPLES {
            let digest = binding_digest("sign-allocs", i, &sha256(&payloads.get(u64::MAX, i)));
            let before = crate::alloc::thread_allocs();
            let signed = signer.sign_digest(&digest);
            total += crate::alloc::thread_allocs() - before;
            drop(signed);
        }
        self.sign_allocs = total as f64 / SIGN_ALLOC_SAMPLES as f64;
    }

    /// Probes the entries a round of `link` stored at `indices`; each must
    /// carry the round's sequence number.
    pub fn probe_round(
        &mut self,
        link: &Link,
        store: &LogStore,
        indices: std::ops::Range<usize>,
        seq: u64,
        out: &mut Outcome,
    ) {
        let mut signers = vec![&link.publisher_identity];
        signers.extend(&link.subscriber_identities);
        for index in indices {
            match store.entry(index) {
                Ok(entry) => {
                    out.check(entry.seq == seq, || {
                        format!("entry {index} has seq {}, expected {seq}", entry.seq)
                    });
                    self.probe(&signers, &entry, out);
                }
                Err(e) => out.check(false, || format!("entry {index} does not decode: {e}")),
            }
        }
    }

    /// Hashes one entry, re-signs its binding digest with its component's
    /// key and verifies the signature.
    pub fn probe(&mut self, signers: &[&ComponentIdentity], entry: &LogEntry, out: &mut Outcome) {
        let encoded = entry.encode();
        let start = Instant::now();
        std::hint::black_box(sha256(std::hint::black_box(&encoded)));
        let took = start.elapsed();
        self.sha_us_per_kib
            .push(us(took) / (encoded.len() as f64 / 1024.0));

        let Some(signer) = signers.iter().find(|s| *s.id() == entry.component) else {
            out.check(false, || {
                format!("entry from unknown component {}", entry.component)
            });
            return;
        };
        let binding = binding_digest(entry.topic.as_str(), entry.seq, &entry.payload.digest());
        let start = Instant::now();
        let sig = signer.sign_digest(&binding);
        self.signs.push(start.elapsed());
        let Ok(sig) = sig else {
            out.check(false, || {
                format!("re-signing {} seq {} failed", entry.topic, entry.seq)
            });
            return;
        };
        out.check(entry.own_sig.as_ref() == Some(&sig), || {
            format!(
                "{} seq {}: logged signature differs from a re-sign",
                entry.topic, entry.seq
            )
        });
        let start = Instant::now();
        let valid = pkcs1::verify_digest(signer.public_key(), &binding, &sig);
        self.verifies.push(start.elapsed());
        out.check(valid, || {
            format!(
                "{} seq {}: signature does not verify",
                entry.topic, entry.seq
            )
        });
    }

    pub fn report(&self, out: &mut Outcome) {
        out.layer("crypto.sign_us", median_us(&self.signs));
        out.layer("crypto.verify_us", median_us(&self.verifies));
        out.layer("crypto.sign_allocs", self.sign_allocs);
        out.layer("crypto.sha256_us_per_kib", median(&self.sha_us_per_kib));
    }
}

/// Audits of one store, of which the quickest is kept. The audit is the
/// same work each time; a repeat that the host slowed down is dropped.
const AUDIT_REPEATS: usize = 3;

/// Time spent auditing stores, summed over every store audited.
#[derive(Debug, Default)]
pub struct StoreAudits {
    pub audit: Duration,
    pub chain: Duration,
    pub entries: u64,
    pub bytes: u64,
    pub audits: u64,
}

impl StoreAudits {
    /// Checks the chain and audits the whole store [`AUDIT_REPEATS`] times,
    /// keeping the quickest. Every audit must be all-clear with exactly
    /// `valid` valid entries.
    pub fn audit(&mut self, store: &LogStore, auditor: &Auditor, valid: usize, out: &mut Outcome) {
        let start = Instant::now();
        let chain = store.verify_chain();
        self.chain += start.elapsed();
        out.check(chain.is_ok(), || format!("verify_chain: {chain:?}"));
        let mut quickest = Duration::MAX;
        for _ in 0..AUDIT_REPEATS {
            let start = Instant::now();
            let report = auditor.audit_store(store);
            quickest = quickest.min(start.elapsed());
            out.check(report.all_clear(), || "audit is not all-clear".to_owned());
            let found: usize = report.verdicts.values().map(|v| v.valid_entries).sum();
            out.check(found == valid, || {
                format!("audit found {found} valid entries, expected {valid}")
            });
        }
        self.audit += quickest;
        self.entries += store.len() as u64;
        self.bytes += store.total_bytes();
        self.audits += 1;
    }

    /// Reports the audit rate over every log audited, and the audit layers.
    pub fn report(&self, out: &mut Outcome) {
        out.audit_entries_per_s = self.entries as f64 / self.audit.as_secs_f64();
        let audits = self.audits.max(1) as f64;
        out.layer("audit.audit_store_ms", ms(self.audit) / audits);
        out.layer("audit.verify_chain_ms", ms(self.chain) / audits);
        out.layer(
            "logger.store.bytes_per_entry",
            self.bytes as f64 / self.entries.max(1) as f64,
        );
    }
}

/// Records one round's span and its stage spans.
pub fn record_round(spans: &mut Spans, op: u64, r: &RoundTimes, latency: Duration) {
    spans.record("core.round", op, latency);
    spans.record("pubsub.publish", op, r.publish);
    spans.record("core.deliver", op, r.deliver);
    spans.record("core.ack", op, r.ack);
    spans.record("core.deposit_lag", op, r.deposit_lag);
}

/// Reduces the round spans into the `pubsub.*` and `core.*` layers.
pub fn report_rounds(spans: &Spans, allocs: &[u64], out: &mut Outcome) {
    out.layer(
        "pubsub.publish_us",
        median_us(&spans.durations("pubsub.publish")),
    );
    out.layer(
        "core.deliver_ms",
        median_ms(&spans.durations("core.deliver")),
    );
    out.layer("core.ack_ms", median_ms(&spans.durations("core.ack")));
    out.layer(
        "core.deposit_lag_ms",
        median_ms(&spans.durations("core.deposit_lag")),
    );
    // `core.deliver` starts at the publish call, so `pubsub.publish` lies
    // inside it and is not subtracted again.
    let stages = ["core.deliver", "core.ack", "core.deposit_lag"];
    out.layer(
        "core.unattributed_ms",
        median_ms(&spans.residuals("core.round", &stages)),
    );
    let per_op = allocs.iter().sum::<u64>() as f64 / allocs.len().max(1) as f64;
    out.layer("core.allocs_per_op", per_op);
}

/// Indices of a round's entries: the last `n` of the store.
pub fn last_entries(store: &LogStore, n: usize) -> std::ops::Range<usize> {
    let len = store.len();
    len.saturating_sub(n)..len
}

/// The index of the publisher's entry among the last `n` stored.
pub fn publisher_entry(store: &LogStore, n: usize) -> Option<usize> {
    last_entries(store, n).find(|&i| {
        store
            .entry(i)
            .is_ok_and(|e: LogEntry| e.direction == Direction::Out)
    })
}

/// Ops per block. Each block runs on a fresh logger and fresh nodes, so
/// the log, and with it the heap, stops growing at the same size in every
/// run however fast the host is; every block's log is audited.
const BLOCK_OPS: u64 = 4096;

/// One block's state: a volatile logger and one ADLP link.
struct Rig {
    master: Master,
    logger: LoggerHandle,
    link: Link,
    // Dropped last: the server outlives the nodes depositing into it.
    _server: LogServer,
}

/// The link's two identities.
struct Parties {
    teleop: ComponentIdentity,
    actuator: ComponentIdentity,
}

fn parties(seed: u64, keygen: &mut Vec<Duration>) -> Parties {
    let mut rng = StdRng::seed_from_u64(seed);
    Parties {
        teleop: identity("teleop", &mut rng, keygen),
        actuator: identity("actuator", &mut rng, keygen),
    }
}

fn spawn(parties: &Parties, seed: u64) -> Result<Rig, String> {
    let master = Master::new();
    let server = LogServer::try_spawn().map_err(|e| format!("spawn logger: {e}"))?;
    let logger = server.handle();
    let mut link = Link::new(
        &master,
        &logger,
        "steering",
        &parties.teleop,
        std::slice::from_ref(&parties.actuator),
        Payloads::new(seed, STEERING_LEN),
        0,
    )?;
    for _ in 0..WARMUP_ROUNDS {
        link.round(logger.store())?;
    }
    Ok(Rig {
        master,
        logger,
        link,
        _server: server,
    })
}

/// Flushes a finished block and audits its whole log.
fn close(rig: Rig, ops: u64, audits: &mut StoreAudits, out: &mut Outcome) -> Result<(), String> {
    rig.link.flush()?;
    let auditor = Auditor::new(rig.logger.keys().clone()).with_topology(rig.master.topology());
    let valid = rig.link.entries_per_round() * (WARMUP_ROUNDS + ops) as usize;
    audits.audit(rig.logger.store(), &auditor, valid, out);
    Ok(())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let mut keygen = Vec::new();
    let mut setup = None;
    for k in (0..SETUPS).rev() {
        drop(setup.take());
        let start = Instant::now();
        let parties = parties(crate::key_seed(args.seed, k), &mut keygen);
        let rig = spawn(&parties, args.seed)?;
        out.setups.push(start.elapsed());
        setup = Some((parties, rig));
    }
    let (parties, mut rig) = setup.ok_or("no setup ran")?;

    let mut spans = Spans::default();
    let mut crypto = CryptoProbe::new();
    let mut audits = StoreAudits::default();
    let mut allocs = Vec::new();
    let mut log_bytes = 0;
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    'blocks: loop {
        let store = rig.logger.store().clone();
        let bytes_before = store.total_bytes();
        let mut block_ops = 0;
        while block_ops < BLOCK_OPS && Instant::now() < deadline {
            let op = out.attempted;
            out.attempted += 1;
            let allocs_before = crate::alloc::process_allocs();
            let start = Instant::now();
            let round = rig.link.round(&store);
            let latency = start.elapsed();
            let round = match round {
                Ok(r) => r,
                Err(e) => {
                    out.failed += 1;
                    out.errors.push(e);
                    break 'blocks;
                }
            };
            block_ops += 1;
            out.op_latencies.push(latency);
            out.intervals.push((1, latency));
            if args.trace {
                allocs.push(crate::alloc::process_allocs() - allocs_before);
                record_round(&mut spans, op, &round, latency);
                crypto.probe_round(
                    &rig.link,
                    &store,
                    last_entries(&store, 2),
                    round.seq,
                    &mut out,
                );
            }
        }
        log_bytes += store.total_bytes() - bytes_before;
        close(rig, block_ops, &mut audits, &mut out)?;
        if Instant::now() >= deadline {
            break;
        }
        rig = spawn(&parties, args.seed)?;
    }
    out.log_bytes_per_op = log_bytes as f64 / out.op_latencies.len().max(1) as f64;
    audits.report(&mut out);

    if args.trace {
        report_rounds(&spans, &allocs, &mut out);
        crypto.count_sign_allocs(&parties.teleop, args.seed);
        crypto.report(&mut out);
        out.layer("crypto.keygen_ms", median_ms(&keygen));
    }
    Ok(out)
}
