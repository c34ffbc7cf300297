//! Seeded end-to-end and per-layer benchmark of the Cell porting stack.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload marvel-frames --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One process and one driving thread; the SPE threads belong to the
//! program under test. A run repeats whole rounds of the workload until
//! `--seconds` have passed, checks every output against an oracle of
//! its own, and prints one line per metric followed by one JSON object
//! as the last line. `--trace 0` prints the end-to-end metrics;
//! `--trace 1` arms the program's tracing, records the benchmark's own
//! spans around every call into a layer, writes them to
//! `perfbench/out/`, and prints the per-layer metrics.

mod common;
mod isa_kernels;
mod layers;
mod marvel_frames;
mod metrics;
mod oracle;
mod serve_requests;
mod spans;
mod stats;
mod stencil_sweeps;

use std::fmt::Write as _;
use std::time::Instant;

use common::{secs, Counts, Layers, Mode, RoundOut, Workload};
use oracle::Tally;
use spans::SpanLog;

const WORKLOADS: [&str; 4] = [
    "marvel-frames",
    "serve-requests",
    "stencil-sweeps",
    "isa-kernels",
];
/// Share of a traced run spent alternating traced and untraced rounds;
/// the rest goes to the outside timings of the layers.
const TRACED_SHARE: f64 = 0.6;
/// The timed run samples set-up before every this many rounds.
const SETUP_EVERY: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn make_workload(name: &str, seed: u64) -> Box<dyn Workload> {
    match name {
        "marvel-frames" => Box::new(marvel_frames::MarvelFrames::new(seed)),
        "serve-requests" => Box::new(serve_requests::ServeRequests::new(seed)),
        "stencil-sweeps" => Box::new(stencil_sweeps::StencilSweeps::new(seed)),
        "isa-kernels" => Box::new(isa_kernels::IsaKernels::new(seed)),
        _ => unreachable!("workload names are checked in parse_args"),
    }
}

/// The process's resident-set high-water mark in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One round, wrapped in a benchmark span and timed whole.
fn run_round(
    w: &mut dyn Workload,
    spans: &mut SpanLog,
    mode: Mode,
    counts: &mut Counts,
) -> RoundOut {
    let t = Instant::now();
    let open = spans.enter("perfbench", "round", 0);
    let mut r = w.round(spans, mode, counts);
    spans.exit(open);
    r.wall_s = secs(t);
    r
}

/// One printed metric: its value and, for a timing, the samples it is
/// the median of.
struct Line {
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: Option<stats::Summary>,
}

impl Line {
    fn plain(name: &'static str, unit: &'static str, value: f64) -> Line {
        Line {
            name,
            unit,
            value,
            samples: None,
        }
    }

    fn timing(name: &'static str, unit: &'static str, samples: &[f64]) -> Line {
        let s = stats::summarize(samples);
        Line {
            name,
            unit,
            value: s.median,
            samples: Some(s),
        }
    }

    fn render(&self) -> String {
        let mut out = format!("{:<34} {:>16.6} {}", self.name, self.value, self.unit);
        if let Some(s) = &self.samples {
            let _ = write!(out, "  (median of n={}", s.n);
            if let Some((p, v)) = s.tail {
                let _ = write!(out, "; p{p} {v:.6}");
            }
            out.push(')');
        }
        out
    }
}

/// Per-round operation rates after the warm-up: the first tenth of the
/// rounds, at least one, warms caches, the allocator and the host's
/// scheduler. Rounds that follow a set-up sample are left out too: the
/// sample's teardown disturbs them. With a single round nothing is
/// skipped.
fn steady(rounds: &[RoundOut]) -> Vec<f64> {
    if let [only] = rounds {
        return vec![only.tally.attempted as f64 / only.program_s];
    }
    let warm_up = rounds.len().div_ceil(10);
    rounds
        .iter()
        .enumerate()
        .filter(|(i, r)| {
            *i >= warm_up
                && !i.is_multiple_of(SETUP_EVERY)
                && r.program_s > 0.0
                && r.tally.attempted > 0
        })
        .map(|(_, r)| r.tally.attempted as f64 / r.program_s)
        .collect()
}

fn end_to_end(rounds: &[RoundOut], mut setup: Vec<f64>) -> Vec<Line> {
    setup.extend(rounds.iter().filter_map(|r| r.setup_s));
    let sim: Vec<f64> = rounds
        .iter()
        .filter(|r| r.tally.attempted > 0 && r.sim_cycles > 0.0)
        .map(|r| r.sim_cycles / r.tally.attempted as f64)
        .collect();
    let [setup_s, rss, rate, cycles] = metrics::END_TO_END;
    vec![
        Line::timing(setup_s.0, setup_s.1, &setup),
        Line::plain(rss.0, rss.1, peak_rss_mib()),
        Line::timing(rate.0, rate.1, &steady(rounds)),
        Line::timing(cycles.0, cycles.1, &sim),
    ]
}

/// The traced run: traced and untraced rounds alternate (so the tracing
/// overhead compares like with like), then the layers' outside timings.
fn traced_run(w: &mut dyn Workload, args: &Args, rounds: &mut Vec<RoundOut>) -> Vec<Line> {
    let start = Instant::now();
    let mut spans = SpanLog::new(true);
    let mut counts = Counts::default();
    let mut traced_wall = Vec::new();
    let mut plain_wall = Vec::new();
    while plain_wall.len() < 2 || secs(start) < args.seconds * TRACED_SHARE {
        spans.set_enabled(true);
        let r = run_round(w, &mut spans, Mode::Fresh { traced: true }, &mut counts);
        traced_wall.push(r.wall_s);
        rounds.push(r);
        spans.set_enabled(false);
        let mut ignored = Counts::default();
        let r = run_round(w, &mut spans, Mode::Fresh { traced: false }, &mut ignored);
        plain_wall.push(r.wall_s);
        rounds.push(r);
    }
    spans.set_enabled(true);
    let mut layers = Layers::default();
    counts.metrics(&mut layers);
    let open = spans.enter("perfbench", "layer_timings", 0);
    w.layer_timings(&mut spans, &mut layers);
    let profiles = w.profiles();
    layers::measure(&mut spans, &profiles, &w.copy_sizes(), &mut layers);
    spans.exit(open);
    layers.set(
        "cell-trace.overhead_x",
        stats::median(&traced_wall) / stats::median(&plain_wall),
    );
    for (layer, ns) in spans.self_ns() {
        if let Some((name, _)) = metrics::PER_LAYER
            .iter()
            .find(|(n, _)| n.strip_prefix("self_ms.") == Some(layer))
        {
            layers.set(name, ns as f64 / 1e6);
        }
    }
    write_spans(&spans, args);
    metrics::PER_LAYER
        .iter()
        .map(|&(name, unit)| Line::plain(name, unit, layers.0.get(name).copied().unwrap_or(0.0)))
        .collect()
}

fn write_spans(spans: &SpanLog, args: &Args) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-seed{}.json", args.workload, args.seed));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans.to_chrome_json()));
    match written {
        Ok(()) => eprintln!("spans: {} ({} spans)", path.display(), spans.spans().len()),
        Err(e) => eprintln!("spans: could not write {}: {e}", path.display()),
    }
}

/// The timed run: every round streams through one kept system. Before
/// every [`SETUP_EVERY`]th round a separate system is built and torn
/// down only to time set-up, so set-up is sampled across the whole run.
fn timed_run(w: &mut dyn Workload, args: &Args, rounds: &mut Vec<RoundOut>) -> Vec<Line> {
    let start = Instant::now();
    let mut setups = Vec::new();
    let mut spans = SpanLog::new(false);
    let mut counts = Counts::default();
    while rounds.len() < 2 || secs(start) < args.seconds {
        if rounds.len().is_multiple_of(SETUP_EVERY) {
            setups.extend(w.setup_sample());
        }
        rounds.push(run_round(w, &mut spans, Mode::Kept, &mut counts));
    }
    w.finish();
    end_to_end(rounds, setups)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let mut w = make_workload(&args.workload, args.seed);
    let mut rounds = Vec::new();
    let lines = if args.trace {
        traced_run(w.as_mut(), &args, &mut rounds)
    } else {
        timed_run(w.as_mut(), &args, &mut rounds)
    };

    let mut tally = Tally::default();
    for r in &rounds {
        tally.attempted += r.tally.attempted;
        tally.failed += r.tally.failed;
    }
    let correct = tally.attempted > 0 && !rounds.iter().any(|r| r.broken);
    println!(
        "workload {} seed {} trace {}: {} rounds, {} {}s attempted, {} failed",
        args.workload,
        args.seed,
        u8::from(args.trace),
        rounds.len(),
        tally.attempted,
        w.op_name(),
        tally.failed
    );
    let mut json = String::new();
    for (i, line) in lines.iter().enumerate() {
        println!("{}", line.render());
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(
            json,
            "{sep}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            line.name,
            json_number(line.value),
            line.unit
        );
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{json}}}}}",
        tally.attempted, tally.failed
    );
}

/// A finite JSON number with all its digits (non-finite values print 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}
