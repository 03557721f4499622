//! The `light-audit` workload: the `link` round on a log that setup has
//! pre-filled through the same pipeline, each round followed by a
//! `LightClient::audit_ack` of the publisher's entry against an on-demand
//! `SthPublisher` over the logger's store.

use crate::link::{
    identity, last_entries, publisher_entry, record_round, report_rounds, CryptoProbe, Link,
    StoreAudits, STEERING_LEN,
};
use crate::oracle::{mth, tree_roots, Payloads};
use crate::probe::{SourceCalls, Spans, TimedSource};
use crate::{median_ms, Args, Outcome};
use adlp_audit::Auditor;
use adlp_crypto::rsa::RsaPrivateKey;
use adlp_crypto::{sha256, Digest};
use adlp_logger::merkle::MerkleTree;
use adlp_logger::sth::{SthPublisher, TreeHeadSigner};
use adlp_logger::{LogServer, LoggerHandle};
use adlp_pubsub::{Master, NodeId};
use adlp_witness::{LightClient, SthKeyring};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Records the log holds before the first timed op.
pub const PREFILL_RECORDS: usize = 10_000;
/// Subscribers of the pre-fill topic: each publication stores two entries
/// per subscriber, and their signatures run in parallel.
pub const PREFILL_SUBSCRIBERS: usize = 8;
/// Setups per run; the median is reported as `setup_s`. Each pre-fills
/// its own log, so there are fewer than for `link`.
const SETUPS: usize = 3;
/// Audited rounds run during setup (the first one anchors the client).
const WARMUP_AUDITS: u64 = 2;

struct Rig {
    master: Master,
    logger: LoggerHandle,
    link: Link,
    prefill: Link,
    source: TimedSource,
    keyring: SthKeyring,
    client: LightClient,
    prefill_rounds: u64,
    _server: LogServer,
}

fn setup(seed: u64, key_seed: u64, keygen: &mut Vec<Duration>) -> Result<Rig, String> {
    let mut rng = StdRng::seed_from_u64(key_seed);
    let teleop = identity("teleop", &mut rng, keygen);
    let actuator = identity("actuator", &mut rng, keygen);
    let lidar = identity("lidar", &mut rng, keygen);
    let sinks: Vec<_> = (0..PREFILL_SUBSCRIBERS)
        .map(|i| identity(&format!("sink{i}"), &mut rng, keygen))
        .collect();
    let log_identity = identity("logger", &mut rng, keygen);
    let log_key = RsaPrivateKey::from_bytes(&log_identity.private_key().to_bytes())
        .map_err(|e| format!("logger key: {e}"))?;

    let master = Master::new();
    let server = LogServer::try_spawn().map_err(|e| format!("spawn logger: {e}"))?;
    let logger = server.handle();
    let store = logger.store().clone();

    let mut prefill = Link::new(
        &master,
        &logger,
        "scan",
        &lidar,
        &sinks,
        Payloads::new(seed, STEERING_LEN),
        1,
    )?;
    let mut prefill_rounds = 0;
    while store.len() < PREFILL_RECORDS {
        prefill.round(&store)?;
        prefill_rounds += 1;
    }
    let link = Link::new(
        &master,
        &logger,
        "steering",
        &teleop,
        &[actuator],
        Payloads::new(seed, STEERING_LEN),
        0,
    )?;

    let log_id = NodeId::new("logger");
    let publisher = SthPublisher::new(TreeHeadSigner::new(log_id.clone(), log_key), store.clone());
    let source = TimedSource::new(Arc::new(publisher));
    let keyring = SthKeyring::new().with_log(log_id, log_identity.public_key().clone());
    let client = LightClient::new(keyring.clone());
    let mut rig = Rig {
        master,
        logger,
        link,
        prefill,
        source,
        keyring,
        client,
        prefill_rounds,
        _server: server,
    };
    for _ in 0..WARMUP_AUDITS {
        rig.link.round(&store)?;
        let index = publisher_entry(&store, 2).ok_or("no publisher entry")?;
        rig.client
            .audit_ack(&rig.source, index as u64)
            .map_err(|e| format!("warm-up audit: {e}"))?;
    }
    rig.source.take_calls();
    Ok(rig)
}

/// Re-verifies, from outside, what one audit verified: the head's
/// signature, its consistency with the previous head and the inclusion.
fn reverify(keyring: &SthKeyring, prev_root: Option<Digest>, calls: &SourceCalls) -> bool {
    let Some(head) = &calls.head else {
        return false;
    };
    let mut ok = keyring.verify(head);
    if let (Some(prev), Some(proof)) = (prev_root, &calls.consistency_proof) {
        ok &= MerkleTree::verify_consistency(&prev, &head.root, proof);
    }
    if let Some((leaf, proof)) = &calls.inclusion_proof {
        ok &= MerkleTree::verify(&head.root, head.size as usize, leaf, proof);
    }
    ok
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let mut keygen = Vec::new();
    let mut rig = None;
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
    let mut rig = rig.ok_or("no setup ran")?;
    let store = rig.logger.store().clone();
    let log_id = NodeId::new("logger");

    let mut spans = Spans::default();
    let mut crypto = CryptoProbe::new();
    let mut allocs = Vec::new();
    let bytes_before = store.total_bytes();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    while Instant::now() < deadline {
        let op = out.attempted;
        out.attempted += 1;
        let prev_root = if args.trace {
            rig.client.latest_head(&log_id).map(|h| h.root)
        } else {
            None
        };
        let allocs_before = crate::alloc::process_allocs();
        let start = Instant::now();
        let round = rig.link.round(&store);
        let round_latency = start.elapsed();
        let audited = round.and_then(|round| {
            let index = publisher_entry(&store, 2).ok_or("no publisher entry")?;
            let audit_start = Instant::now();
            let verdict = rig.client.audit_ack(&rig.source, index as u64);
            let audit = audit_start.elapsed();
            verdict.map_err(|e| format!("audit_ack of entry {index}: {e}"))?;
            Ok((round, audit))
        });
        let latency = start.elapsed();
        let calls = rig.source.take_calls();
        let (round, audit) = match audited {
            Ok(r) => r,
            Err(e) => {
                out.failed += 1;
                out.errors.push(e);
                break;
            }
        };
        out.op_latencies.push(latency);
        out.intervals.push((1, latency));
        if args.trace {
            allocs.push(crate::alloc::process_allocs() - allocs_before);
            record_round(&mut spans, op, &round, round_latency);
            crypto.probe_round(
                &rig.link,
                &store,
                last_entries(&store, 2),
                round.seq,
                &mut out,
            );
            spans.record("logger.sth.emit", op, calls.emit);
            spans.record("logger.sth.consistency", op, calls.consistency);
            spans.record("logger.sth.inclusion", op, calls.inclusion);
            spans.record("witness.light_audit", op, audit);
            let verify_start = Instant::now();
            let valid = reverify(&rig.keyring, prev_root, &calls);
            let verify = verify_start.elapsed();
            out.check(valid, || {
                format!("op {op}: the audited head or proofs do not re-verify")
            });
            spans.record("witness.verify", op, verify);
        }
    }
    let ops = out.op_latencies.len() as u64;
    out.log_bytes_per_op = (store.total_bytes() - bytes_before) as f64 / ops.max(1) as f64;

    let audits = WARMUP_AUDITS + ops;
    out.check(rig.client.verified_acks() == audits, || {
        format!(
            "light client verified {} acks, expected {audits}",
            rig.client.verified_acks()
        )
    });
    out.check(rig.client.sth_verify_failures() == 0, || {
        format!(
            "{} tree-head verification failures",
            rig.client.sth_verify_failures()
        )
    });

    // The tree-hash oracle: every signed head's root must equal the RFC
    // 6962 hash this benchmark computes over the stored records.
    let heads = rig.source.heads();
    let records = store.encoded_records();
    let sizes: Vec<u64> = heads.iter().map(|(size, _)| *size).collect();
    out.check(sizes.windows(2).all(|w| w[0] <= w[1]), || {
        "head sizes went backwards".to_owned()
    });
    let roots = tree_roots(&records, &sizes);
    let matching = heads
        .iter()
        .zip(&roots)
        .filter(|((_, signed), ours)| ours.as_ref() == Some(signed))
        .count();
    out.check(matching == heads.len(), || {
        format!(
            "{} of {} signed roots differ from the RFC 6962 oracle",
            heads.len() - matching,
            heads.len()
        )
    });
    if let Some(&(size, root)) = heads.last() {
        let digests: Vec<_> = records
            .iter()
            .take(size as usize)
            .map(|r| sha256(r))
            .collect();
        out.check(mth(&digests) == Some(root), || {
            "recursive MTH disagrees with the last head".to_owned()
        });
    }

    rig.link.flush()?;
    rig.prefill.flush()?;
    let auditor = Auditor::new(rig.logger.keys().clone()).with_topology(rig.master.topology());
    let entries = rig.prefill_rounds as usize * rig.prefill.entries_per_round()
        + rig.link.entries_per_round() * (WARMUP_AUDITS + ops) as usize;
    let mut audits = StoreAudits::default();
    audits.audit(&store, &auditor, entries, &mut out);
    audits.report(&mut out);

    if args.trace {
        report_rounds(&spans, &allocs, &mut out);
        crypto.count_sign_allocs(&rig.link.publisher_identity, args.seed);
        crypto.report(&mut out);
        out.layer("crypto.keygen_ms", median_ms(&keygen));
        for (span, layer) in [
            ("logger.sth.emit", "logger.sth.emit_ms"),
            ("logger.sth.consistency", "logger.sth.consistency_ms"),
            ("logger.sth.inclusion", "logger.sth.inclusion_ms"),
            ("witness.light_audit", "witness.light_audit_ms"),
            ("witness.verify", "witness.verify_ms"),
        ] {
            out.layer(layer, median_ms(&spans.durations(span)));
        }
        let stages = [
            "logger.sth.emit",
            "logger.sth.consistency",
            "logger.sth.inclusion",
            "witness.verify",
        ];
        let residuals = spans.residuals("witness.light_audit", &stages);
        out.layer("witness.unattributed_ms", median_ms(&residuals));
    }
    Ok(out)
}
