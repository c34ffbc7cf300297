//! `serve-requests`: a seeded stream of small requests through the
//! durable two-blade cluster, with the journal and the router's content
//! cache on.
//!
//! A round boots a fresh `DurableCluster`, feeds it the round's stream
//! (open loop in simulated time: arrivals are fixed before the run and
//! do not wait for replies), checks every delivered response and shuts
//! the cluster down. A quarter of the payloads repeat an earlier one,
//! so the cache serves them.

use std::time::Instant;

use cell_cluster::ClusterConfig;
use cell_core::{MachineProfile, OpProfile};
use cell_durable::journal::encode_frame;
use cell_durable::{DurableCluster, DurableClusterConfig, Record, StableStorage};
use cell_fault::FaultPlan;
use cell_serve::{Outcome, Request, Response, ServeConfig};
use cell_trace::TraceConfig;
use marvel::app::MarvelModels;
use marvel::image::ColorImage;
use portkit::recovery::RetryPolicy;

use crate::common::{secs, stream, Counts, Layers, Mode, RoundOut, Workload};
use crate::oracle::{check_analysis, expected_analysis, ExpectedAnalysis};
use crate::spans::SpanLog;
use crate::stats;

const REQUESTS: usize = 64;
const WIDTH: usize = 48;
const HEIGHT: usize = 32;
/// Mean arrival gap in PPE cycles (0.6 ms simulated). Gaps are uniform
/// in `[MEAN_GAP / 2, 3 * MEAN_GAP / 2)`.
const MEAN_GAP: u64 = 2_000_000;
/// Exactly one payload in `REPEAT_ONE_IN` repeats an earlier one.
const REPEAT_ONE_IN: u64 = 4;
/// Queue and degradation thresholds far above the stream's depth, so
/// nothing is shed or degraded however slowly the host polls.
const QUEUE: usize = 64;
const BLADES: usize = 2;
/// Journal appends per flush barrier.
const GROUP_COMMIT: usize = 4;
/// Per-attempt reply deadline, in PPE cycles: far beyond any reply, so
/// the engine never retries. With the default 2 M cycles, a reply held
/// up on the host past the deadline plus the engine's wall-clock grace
/// is retried, and the duplicate execution can corrupt a reallocated
/// wrapper: about one round in two thousand then failed its payload
/// checksum on a 2-CPU host (fault 7 in the README), which would make
/// the failed share differ from run to run.
const REPLY_DEADLINE: u64 = 1 << 48;

pub struct ServeRequests {
    model_seed: u64,
    requests: Vec<Request>,
    expected: Vec<ExpectedAnalysis>,
    rounds: u64,
    profiles: Vec<OpProfile>,
    responses: Vec<Response>,
    latencies: Vec<f64>,
    retransmits: u64,
    max_queue_depth: u64,
    cache_hits: u64,
    cache_lookups: u64,
    fallback_routed: u64,
    appends: u64,
    flushes: u64,
    journal_bytes: u64,
    traced_requests: u64,
}

impl ServeRequests {
    pub fn new(seed: u64) -> Self {
        let model_seed = stream(seed, 2).next_u64();
        let models = MarvelModels::synthetic(model_seed);
        let mut rng = stream(seed, 4);
        // Exactly one request in REPEAT_ONE_IN repeats an earlier payload;
        // the seed picks which ones and what they repeat.
        let mut order: Vec<usize> = (1..REQUESTS).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.next_below(i as u64 + 1) as usize);
        }
        let mut repeats = [false; REQUESTS];
        for &i in &order[..REQUESTS / REPEAT_ONE_IN as usize] {
            repeats[i] = true;
        }
        let mut images: Vec<ColorImage> = Vec::new();
        let mut requests = Vec::new();
        let mut arrival = 0u64;
        for id in 0..REQUESTS as u64 {
            let image = if repeats[id as usize] {
                images[rng.next_below(images.len() as u64) as usize].clone()
            } else {
                ColorImage::synthetic(WIDTH, HEIGHT, rng.next_u64()).expect("request size is legal")
            };
            arrival += MEAN_GAP / 2 + rng.next_below(MEAN_GAP);
            images.push(image.clone());
            requests.push(Request {
                id,
                arrival,
                deadline: u64::MAX / 2,
                image,
            });
        }
        let expected = images
            .iter()
            .map(|i| expected_analysis(i, &models))
            .collect();
        ServeRequests {
            model_seed,
            requests,
            expected,
            rounds: 0,
            profiles: Vec::new(),
            responses: Vec::new(),
            latencies: Vec::new(),
            retransmits: 0,
            max_queue_depth: 0,
            cache_hits: 0,
            cache_lookups: 0,
            fallback_routed: 0,
            appends: 0,
            flushes: 0,
            journal_bytes: 0,
            traced_requests: 0,
        }
    }

    fn config(&self, trace: TraceConfig) -> DurableClusterConfig {
        DurableClusterConfig {
            cluster: ClusterConfig {
                blades: BLADES,
                cache: true,
                serve: ServeConfig {
                    seed: self.model_seed,
                    queue_capacity: QUEUE,
                    degrade_high: QUEUE,
                    degrade_critical: QUEUE,
                    policy: RetryPolicy {
                        timeout_cycles: REPLY_DEADLINE,
                        ..RetryPolicy::default()
                    },
                    trace,
                    ..ServeConfig::default()
                },
                trace,
                ..ClusterConfig::default()
            },
            journal: true,
            group_commit: GROUP_COMMIT,
            checkpoint_every: 8,
        }
    }

    /// Per request: served once, undegraded, with the oracle's output.
    /// Also returns whether a run-level invariant broke (a request shed,
    /// delivered twice, or under an unknown id).
    fn check(&self, delivered: &[Outcome]) -> (Vec<Result<(), String>>, bool) {
        let mut results: Vec<Result<(), String>> =
            vec![Err("never delivered".to_string()); self.requests.len()];
        let mut seen = vec![false; self.requests.len()];
        let mut broken = false;
        for outcome in delivered {
            let (id, result) = match outcome {
                Outcome::Served(r) if r.degradation != 0 => {
                    (r.id, Err(format!("degraded to level {}", r.degradation)))
                }
                Outcome::Served(r) => match self.expected.get(r.id as usize) {
                    Some(want) => (r.id, check_analysis(&r.features, &r.scores, want)),
                    None => (r.id, Err("unknown id".to_string())),
                },
                Outcome::Shed { id, reason } => {
                    broken = true;
                    (*id, Err(format!("shed: {reason:?}")))
                }
            };
            let Some(slot) = seen.get_mut(id as usize) else {
                broken = true;
                continue;
            };
            if *slot {
                broken = true;
                eprintln!("serve-requests: request {id} delivered twice");
            }
            *slot = true;
            results[id as usize] = result;
        }
        (results, broken)
    }
}

impl Workload for ServeRequests {
    fn op_name(&self) -> &'static str {
        "request"
    }

    /// Every round boots a cluster and reports its set-up time, so no
    /// extra cluster is built to sample it.
    fn setup_sample(&mut self) -> Option<f64> {
        None
    }

    /// Every round boots its own cluster, kept or not: the journal and
    /// the cache grow with every request a cluster serves, so a kept
    /// cluster would tie memory to run length.
    fn round(&mut self, spans: &mut SpanLog, mode: Mode, counts: &mut Counts) -> RoundOut {
        let traced = mode == Mode::Fresh { traced: true };
        self.rounds += 1;
        let n = self.requests.len() as u64;
        let first_id = (self.rounds - 1) * n;
        let mut out = RoundOut::default();
        let config = self.config(if traced {
            TraceConfig::Full
        } else {
            TraceConfig::Off
        });
        let t = Instant::now();
        let booted = spans.scope("cell-durable", "DurableCluster::boot", first_id, || {
            DurableCluster::boot(config, &FaultPlan::new())
        });
        let mut cluster = match booted {
            Ok(c) => c,
            Err(e) => {
                eprintln!("serve-requests: boot failed: {e}");
                out.tally.record_lost(n);
                return out;
            }
        };
        out.setup_s = Some(secs(t));

        let open = spans.enter("cell-durable", "run_stream", first_id);
        let t = Instant::now();
        let ran = cluster.run_stream(&self.requests);
        out.program_s = secs(t);
        spans.exit(open);
        if let Err(e) = ran {
            eprintln!("serve-requests: stream failed: {e}");
            out.tally.record_lost(n);
            let _ = cluster.into_disks();
            return out;
        }
        let finished = spans.scope("cell-durable", "finish", first_id, || cluster.finish());
        let output = match finished {
            Ok(o) => o,
            Err(e) => {
                eprintln!("serve-requests: finish failed: {e}");
                out.tally.record_lost(n);
                return out;
            }
        };

        let open = spans.enter("perfbench", "check", first_id);
        let (results, broken) = self.check(&output.delivered);
        out.broken = broken;
        for (id, r) in results.into_iter().enumerate() {
            if let Some(e) = out.tally.record(r) {
                eprintln!("serve-requests: request {id}: {e}");
            }
        }
        spans.exit(open);

        // Simulated SPE kernel cycles: the PPE-side latency counts host
        // poll iterations, so it is reported per layer only.
        let spe = MachineProfile::spe_optimized();
        let reports = output
            .cluster
            .blade_outputs
            .iter()
            .flatten()
            .flat_map(|o| o.spe_reports.iter());
        out.sim_cycles = reports
            .map(|r| spe.compute_cycles(&r.counters.to_profile()).get() as f64)
            .sum();

        if traced {
            counts.ops += n;
            self.traced_requests += n;
            for blade in output.cluster.blade_outputs.iter().flatten() {
                counts.add_spe_reports(&blade.spe_reports);
                counts.add_trace(&blade.trace);
                self.retransmits += blade.report.retransmits;
                self.max_queue_depth = self
                    .max_queue_depth
                    .max(blade.report.max_queue_depth as u64);
            }
            counts.add_trace(&output.cluster.trace);
            let cr = &output.cluster.report;
            self.cache_hits += cr.cache_hits;
            self.cache_lookups += cr.cache_hits + cr.cache_misses;
            self.fallback_routed += cr.fallback_routed;
            self.appends += output.report.appends;
            self.flushes += output.report.flushes;
            self.journal_bytes += output.report.journal_bytes;
            self.responses.clear();
            for o in &output.delivered {
                if let Outcome::Served(r) = o {
                    self.latencies.push(r.latency() as f64);
                    self.responses.push((**r).clone());
                }
            }
            self.profiles = output
                .cluster
                .blade_outputs
                .iter()
                .flatten()
                .flat_map(|o| o.spe_reports.iter().map(|r| r.profile.clone()))
                .collect();
        }
        out
    }

    fn layer_timings(&mut self, spans: &mut SpanLog, out: &mut Layers) {
        out.set(
            "cell-serve.latency_p50_cycles",
            stats::median(&self.latencies),
        );
        out.set(
            "cell-serve.latency_p95_cycles",
            stats::percentile(&self.latencies, 950),
        );
        let per_req = |v: u64| v as f64 / self.traced_requests.max(1) as f64;
        out.set("cell-serve.retransmits", self.retransmits as f64);
        out.set("cell-serve.max_queue_depth", self.max_queue_depth as f64);
        out.set("cell-cluster.cache_hits", per_req(self.cache_hits));
        out.set(
            "cell-cluster.cache_hit_ratio",
            self.cache_hits as f64 / self.cache_lookups.max(1) as f64,
        );
        out.set(
            "cell-cluster.fallback_routed",
            per_req(self.fallback_routed),
        );
        out.set("cell-durable.appends", per_req(self.appends));
        out.set("cell-durable.flushes", per_req(self.flushes));
        out.set("cell-durable.journal_bytes", per_req(self.journal_bytes));

        // Encode and append records of this run's sizes: one admit per
        // request and one commit per response, flushed every GROUP_COMMIT
        // appends as the cluster does.
        let mut records: Vec<Record> = self.requests.iter().map(Record::admit).collect();
        records.extend(self.responses.iter().map(Record::commit));
        let append_ns = spans.scope("cell-durable", "StableStorage::append", 0, || {
            crate::common::time_per_call(20, records.len(), {
                let mut storage = StableStorage::new(&FaultPlan::new());
                let mut i = 0usize;
                move || {
                    let frame = encode_frame(std::hint::black_box(&records[i % records.len()]), 0);
                    storage.append(&frame);
                    i += 1;
                    if i.is_multiple_of(GROUP_COMMIT) {
                        storage.flush();
                    }
                    if i.is_multiple_of(records.len()) {
                        storage = StableStorage::new(&FaultPlan::new());
                    }
                }
            })
        });
        out.set("cell-durable.append_us", append_ns / 1e3);
    }

    fn profiles(&self) -> Vec<OpProfile> {
        self.profiles.clone()
    }

    fn copy_sizes(&self) -> Vec<usize> {
        vec![WIDTH * HEIGHT * 3]
    }
}
