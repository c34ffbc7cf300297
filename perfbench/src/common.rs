//! What every workload shares: the per-round result, the per-layer
//! counter accumulator, and small helpers.

use std::collections::BTreeMap;
use std::time::Instant;

use cell_core::{Frequency, OpProfile, SplitMix64, VirtualDuration};
use cell_sys::SpeReport;
use cell_trace::{Counter, TraceReport};

use crate::oracle::Tally;
use crate::spans::SpanLog;

/// Simulated cycles of a virtual duration on the modelled 3.2 GHz Cell.
pub fn sim_cycles(d: VirtualDuration) -> f64 {
    Frequency::ghz(3.2).cycles_in(d).get() as f64
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// A generator stream derived from the run's seed and a fixed label, so
/// each kind of input draws from its own stream.
pub fn stream(seed: u64, label: u64) -> SplitMix64 {
    SplitMix64::new(seed ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// What one round measured.
#[derive(Debug, Default)]
pub struct RoundOut {
    /// Host seconds spent building the system before the first timed
    /// call; `None` when set-up itself failed.
    pub setup_s: Option<f64>,
    /// Host seconds of the timed calls.
    pub program_s: f64,
    /// Simulated cycles of the timed operations.
    pub sim_cycles: f64,
    pub tally: Tally,
    /// Host seconds of the whole round, set-up and teardown included.
    pub wall_s: f64,
    /// A run-level invariant broke (not a single operation's output): a
    /// request delivered twice, something shed.
    pub broken: bool,
}

/// Per-layer counters summed over the traced rounds.
#[derive(Debug, Default)]
pub struct Counts {
    pub ops: u64,
    pub mfc_bytes_in: u64,
    pub mfc_bytes_out: u64,
    pub mfc_transfers: u64,
    pub mfc_stall_cycles: u64,
    pub eib_transfers: u64,
    pub eib_queued_cycles: u64,
    pub eib_data_cycles: u64,
    /// Slot-cycles to the horizon: ring slots times the horizon.
    pub eib_slot_cycles: u64,
    pub spu_issues: u64,
    pub mailbox_words: u64,
    pub mailbox_stall_cycles: u64,
    pub retries: u64,
    pub failovers: u64,
    pub dispatches: u64,
    pub mem_bytes: u64,
}

impl Counts {
    /// MFC and SPU tallies the SPE reports carry.
    pub fn add_spe_reports(&mut self, reports: &[SpeReport]) {
        for r in reports {
            self.mfc_bytes_in += r.mfc.bytes_in;
            self.mfc_bytes_out += r.mfc.bytes_out;
            self.mfc_transfers += r.mfc.transfers;
            self.mfc_stall_cycles += r.mfc.stall_cycles;
            self.spu_issues += r.counters.total();
        }
    }

    /// Mailbox, EIB, engine and dispatch counters of a whole-machine
    /// trace. Mailbox words are counted once, at the sender.
    pub fn add_trace(&mut self, trace: &TraceReport) {
        self.mailbox_words += trace.counter(Counter::MailboxSends);
        self.mailbox_stall_cycles += trace.counter(Counter::MailboxStallCycles);
        self.retries += trace.counter(Counter::Retries);
        self.failovers += trace.counter(Counter::Failovers);
        self.dispatches += trace.counter(Counter::Dispatches);
        self.eib_transfers += trace.counter(Counter::EibTransfers);
        self.eib_queued_cycles += trace.counter(Counter::EibQueuedCycles);
        self.eib_data_cycles += trace.counter(Counter::EibDataCycles);
        self.eib_slot_cycles +=
            trace.counter(Counter::EibHorizon) * trace.counter(Counter::EibSlotCapacity);
    }

    /// The per-layer metrics these counters give, per operation.
    pub fn metrics(&self, out: &mut Layers) {
        let per_op = |v: u64| v as f64 / self.ops.max(1) as f64;
        out.set("cell-mfc.bytes_in", per_op(self.mfc_bytes_in));
        out.set("cell-mfc.bytes_out", per_op(self.mfc_bytes_out));
        out.set("cell-mfc.transfers", per_op(self.mfc_transfers));
        out.set("cell-mfc.stall_cycles", per_op(self.mfc_stall_cycles));
        out.set("cell-eib.transfers", per_op(self.eib_transfers));
        out.set("cell-eib.queued_cycles", per_op(self.eib_queued_cycles));
        out.set(
            "cell-eib.busy_ratio",
            self.eib_data_cycles as f64 / self.eib_slot_cycles.max(1) as f64,
        );
        out.set("cell-spu.issues", per_op(self.spu_issues));
        out.set("cell-sys.mailbox_words", per_op(self.mailbox_words));
        out.set(
            "cell-sys.mailbox_stall_cycles",
            per_op(self.mailbox_stall_cycles),
        );
        out.set("cell-engine.retries", self.retries as f64);
        out.set("cell-engine.failovers", self.failovers as f64);
        out.set("portkit.dispatches", per_op(self.dispatches));
        out.set("cell-mem.bytes_moved", per_op(self.mem_bytes));
    }
}

/// Per-layer metric values by name; names the workload never sets
/// report 0 (the layer does no work in it, or the program does not
/// expose the counter there).
#[derive(Debug, Default)]
pub struct Layers(pub BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }
}

/// Median host time of `iters` calls of `f`, timed in batches of
/// `batch` calls, in nanoseconds per call.
pub fn time_per_call(iters: usize, batch: usize, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    crate::stats::median(&samples)
}

/// Where a round's system comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The timed run: every round streams through one system, built by
    /// the first round and kept until [`Workload::finish`], as a user
    /// feeding one machine a stream would.
    Kept,
    /// The traced run: each round builds its own system and tears it
    /// down; `traced` arms the program's tracing and collects counters.
    Fresh { traced: bool },
}

/// Everything a workload implements.
pub trait Workload {
    /// One operation's name in the report ("frame", "request", ...).
    fn op_name(&self) -> &'static str;

    /// Build one system and tear it down; the host seconds the build
    /// took, or `None` if it failed or the workload's rounds already
    /// build their own systems and report it.
    fn setup_sample(&mut self) -> Option<f64>;

    /// One round: run the round's operations on a system as `mode` says
    /// and check every output. A traced round adds its counters to
    /// `counts`.
    fn round(&mut self, spans: &mut SpanLog, mode: Mode, counts: &mut Counts) -> RoundOut;

    /// Tear down the system kept by [`Mode::Kept`] rounds, if any.
    fn finish(&mut self) {}

    /// Outside timings of the layers this workload uses (traced run
    /// only); called after the traced rounds.
    fn layer_timings(&mut self, spans: &mut SpanLog, out: &mut Layers);

    /// The op profiles of the last traced round, which the
    /// `cell-core` costing timing evaluates.
    fn profiles(&self) -> Vec<OpProfile>;

    /// Buffer sizes the workload moves through main memory, for the
    /// `cell-mem` copy timing.
    fn copy_sizes(&self) -> Vec<usize>;
}
