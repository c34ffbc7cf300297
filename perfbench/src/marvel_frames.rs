//! `marvel-frames`: the ported MARVEL application over a seeded stream
//! of compressed frames, through the engine-pipelined batch path.
//!
//! A round pushes the round's frames through `analyze_batch_engine` on a
//! `CellMarvel` (five resident SPE kernels, parallel extraction) and
//! checks every frame. Most frames are the paper's 352×240; one is
//! 176×120 and fits the local store whole, one is 704×480 and must be
//! sliced through it.

use std::sync::Arc;
use std::time::Instant;

use cell_core::{CellResult, OpProfile};
use cell_engine::Engine;
use cell_sys::CellMachine;
use cell_trace::TraceConfig;
use marvel::app::{CellMarvel, MarvelModels, ReferenceMarvel, Scenario, EXTRACT_KINDS};
use marvel::codec::{self, Compressed};
use marvel::features::KernelKind;
use marvel::image::ColorImage;
use marvel::kernels::{
    collect_detect, collect_extract, detect_dispatcher, extract_dispatcher, prepare_detect,
    prepare_extract,
};
use marvel::wire::{upload_image, upload_model};
use portkit::interface::ReplyMode;

use crate::common::{secs, sim_cycles, stream, Counts, Layers, Mode, RoundOut, Workload};
use crate::oracle::{check_analysis, expected_analysis, ExpectedAnalysis, Tally};
use crate::spans::SpanLog;

/// Frame sizes of one round, in order. The order is fixed so that every
/// seed pipelines the same shapes; the seed draws the frames' content.
const ROUND_SIZES: [(usize, usize); 8] = [
    (352, 240),
    (352, 240),
    (176, 120),
    (352, 240),
    (352, 240),
    (704, 480),
    (352, 240),
    (352, 240),
];
const PAPER_SIZE: (usize, usize) = (352, 240);
const QUALITY: u8 = 90;

pub struct MarvelFrames {
    model_seed: u64,
    frames: Vec<Compressed>,
    decoded: Vec<ColorImage>,
    expected: Vec<ExpectedAnalysis>,
    rounds: u64,
    /// The machine the timed run streams every round through.
    kept: Option<CellMarvel>,
    /// SPE op profiles of the last traced round (costing input).
    profiles: Vec<OpProfile>,
}

impl MarvelFrames {
    pub fn new(seed: u64) -> Self {
        let model_seed = stream(seed, 2).next_u64();
        let models = MarvelModels::synthetic(model_seed);
        let mut content = stream(seed, 3);
        let mut frames = Vec::new();
        let mut decoded = Vec::new();
        let mut expected = Vec::new();
        for (w, h) in ROUND_SIZES {
            let img = ColorImage::synthetic(w, h, content.next_u64()).expect("frame size is legal");
            let c = codec::encode(&img, QUALITY);
            let d = codec::decode(&c).expect("a freshly encoded frame decodes");
            expected.push(expected_analysis(&d, &models));
            decoded.push(d);
            frames.push(c);
        }
        MarvelFrames {
            model_seed,
            frames,
            decoded,
            expected,
            rounds: 0,
            kept: None,
            profiles: Vec::new(),
        }
    }

    fn build(&self, trace: TraceConfig) -> CellResult<CellMarvel> {
        CellMarvel::with_trace(Scenario::ParallelExtract, true, self.model_seed, trace)
    }

    fn paper_frames(&self) -> impl Iterator<Item = (&Compressed, &ColorImage)> {
        self.frames
            .iter()
            .zip(&self.decoded)
            .filter(|(_, d)| (d.width(), d.height()) == PAPER_SIZE)
    }

    /// Each kernel dispatched alone on its own SPE, per paper-size
    /// frame: host ms and simulated cycles, in `KernelKind::ALL` order.
    /// Detection covers the frame's four scores.
    fn kernels_alone(&self, spans: &mut SpanLog) -> CellResult<[(f64, f64); 5]> {
        let mut machine = CellMachine::cell_be();
        let mut ppe = machine.ppe();
        let mem = Arc::clone(machine.mem());
        let mut handles = Vec::new();
        let mut ops = Vec::new();
        for (spe, kind) in EXTRACT_KINDS.into_iter().enumerate() {
            let (d, o) = extract_dispatcher(kind, true, false, ReplyMode::Polling);
            handles.push(machine.spawn(spe, Box::new(d))?);
            ops.push(o.extract);
        }
        let (cd, cd_op) = detect_dispatcher(ReplyMode::Polling);
        handles.push(machine.spawn(4, Box::new(cd))?);
        let models = MarvelModels::synthetic(self.model_seed);
        let mut model_eas = Vec::new();
        for kind in EXTRACT_KINDS {
            model_eas.push(upload_model(&mem, models.get(kind))?);
        }
        let mut engine = Engine::new(5);
        let mut sums = [(0.0f64, 0.0f64); 5];
        let mut frames = 0u64;
        for (id, (_, img)) in self.paper_frames().enumerate() {
            let ea = upload_image(&mem, img)?;
            let mut features = Vec::new();
            for (spe, kind) in EXTRACT_KINDS.into_iter().enumerate() {
                let (wr, wire) = prepare_extract(&mem, kind, ea, img.width(), img.height())?;
                let open = spans.enter("cell-engine", "extract_alone", id as u64);
                let (t, c0) = (Instant::now(), ppe.elapsed());
                let tk =
                    engine.submit_to_spe(&mut ppe, spe, kind.name(), ops[spe], wr.addr_word()?)?;
                engine.complete(&mut ppe, tk)?;
                sums[spe].0 += secs(t) * 1e3;
                sums[spe].1 += sim_cycles(ppe.elapsed() - c0);
                spans.exit(open);
                features.push(collect_extract(&wr, &wire)?);
                wr.free()?;
            }
            for (f, &(model_ea, bytes)) in features.iter().zip(&model_eas) {
                let (dw, dwire) = prepare_detect(&mem, f, model_ea, bytes)?;
                let open = spans.enter("cell-engine", "detect_alone", id as u64);
                let (t, c0) = (Instant::now(), ppe.elapsed());
                let tk = engine.submit_to_spe(
                    &mut ppe,
                    4,
                    KernelKind::Cd.name(),
                    cd_op,
                    dw.addr_word()?,
                )?;
                engine.complete(&mut ppe, tk)?;
                sums[4].0 += secs(t) * 1e3;
                sums[4].1 += sim_cycles(ppe.elapsed() - c0);
                spans.exit(open);
                collect_detect(&dw, &dwire)?;
                dw.free()?;
            }
            mem.free(ea)?;
            frames += 1;
        }
        engine.close(&mut ppe)?;
        for h in handles {
            h.join()?;
        }
        machine.shutdown();
        let n = frames.max(1) as f64;
        Ok(sums.map(|(ms, cyc)| (ms / n, cyc / n)))
    }
}

impl Workload for MarvelFrames {
    fn op_name(&self) -> &'static str {
        "frame"
    }

    fn setup_sample(&mut self) -> Option<f64> {
        let t = Instant::now();
        let cell = self.build(TraceConfig::Off).ok()?;
        let s = secs(t);
        cell.finish().ok()?;
        Some(s)
    }

    fn round(&mut self, spans: &mut SpanLog, mode: Mode, counts: &mut Counts) -> RoundOut {
        self.rounds += 1;
        let first_id = (self.rounds - 1) * self.frames.len() as u64;
        let n = self.frames.len() as u64;
        let mut out = RoundOut::default();
        let traced = mode == Mode::Fresh { traced: true };
        let kept = if mode == Mode::Kept {
            self.kept.take()
        } else {
            None
        };
        let mut cell = match kept {
            Some(cell) => cell,
            None => {
                let config = if traced {
                    TraceConfig::Full
                } else {
                    TraceConfig::Off
                };
                let t = Instant::now();
                let built = spans.scope("marvel", "CellMarvel::with_trace", first_id, || {
                    self.build(config)
                });
                match built {
                    Ok(cell) => {
                        out.setup_s = Some(secs(t));
                        cell
                    }
                    Err(e) => {
                        eprintln!("marvel-frames: set-up failed: {e}");
                        out.tally.record_lost(n);
                        return out;
                    }
                }
            }
        };

        let c0 = cell.elapsed();
        let open = spans.enter("marvel", "analyze_batch_engine", first_id);
        let t = Instant::now();
        let result = cell.analyze_batch_engine(&self.frames);
        out.program_s = secs(t);
        spans.exit(open);
        out.sim_cycles = sim_cycles(cell.elapsed() - c0);

        let open = spans.enter("perfbench", "check", first_id);
        let mut tally = Tally::default();
        match &result {
            Ok(analyses) if analyses.len() == self.frames.len() => {
                for (i, (a, want)) in analyses.iter().zip(&self.expected).enumerate() {
                    if let Some(e) = tally.record(check_analysis(&a.features, &a.scores, want)) {
                        eprintln!("marvel-frames: frame {i}: {e}");
                    }
                }
            }
            Ok(analyses) => {
                eprintln!("marvel-frames: {} results for {n} frames", analyses.len());
                tally.record_lost(n);
            }
            Err(e) => {
                eprintln!("marvel-frames: batch failed: {e}");
                tally.record_lost(n);
            }
        }
        spans.exit(open);
        out.tally = tally;

        // A kept machine serves the next round unless this batch failed,
        // which may have left it unusable.
        if mode == Mode::Kept && result.is_ok() {
            self.kept = Some(cell);
            return out;
        }
        let finished = spans.scope("marvel", "finish_traced", first_id, || cell.finish_traced());
        match finished {
            Ok((_, reports, trace)) if traced => {
                counts.ops += n;
                counts.add_spe_reports(&reports);
                counts.add_trace(&trace);
                self.profiles = reports.into_iter().map(|r| r.profile).collect();
            }
            Ok(_) => {}
            Err(e) => eprintln!("marvel-frames: teardown failed: {e}"),
        }
        out
    }

    fn finish(&mut self) {
        if let Some(cell) = self.kept.take() {
            if let Err(e) = cell.finish() {
                eprintln!("marvel-frames: teardown failed: {e}");
            }
        }
    }

    fn layer_timings(&mut self, spans: &mut SpanLog, out: &mut Layers) {
        let owned: Vec<Compressed> = self.paper_frames().map(|(c, _)| c.clone()).collect();
        let paper = &owned;
        let decode_ns = spans.scope("marvel", "codec::decode", 0, || {
            crate::common::time_per_call(5, paper.len(), {
                let mut i = 0;
                move || {
                    let d = codec::decode(std::hint::black_box(&paper[i % paper.len()]));
                    std::hint::black_box(d.expect("frame decodes"));
                    i += 1;
                }
            })
        });
        out.set("marvel.decode_ms", decode_ns / 1e6);

        let mut reference = ReferenceMarvel::new(self.model_seed);
        let ref_ns = spans.scope("marvel", "ReferenceMarvel::analyze", 0, || {
            crate::common::time_per_call(1, paper.len(), {
                let mut i = 0;
                move || {
                    let a = reference.analyze(std::hint::black_box(&paper[i % paper.len()]));
                    std::hint::black_box(a.expect("reference analysis"));
                    i += 1;
                }
            })
        });
        out.set("marvel.ref_ms", ref_ns / 1e6);

        match self.kernels_alone(spans) {
            Ok(per_kernel) => {
                const MS: [&str; 5] = [
                    "marvel.kernel_ms.ch",
                    "marvel.kernel_ms.cc",
                    "marvel.kernel_ms.tx",
                    "marvel.kernel_ms.eh",
                    "marvel.kernel_ms.cd",
                ];
                const CYCLES: [&str; 5] = [
                    "marvel.kernel_cycles.ch",
                    "marvel.kernel_cycles.cc",
                    "marvel.kernel_cycles.tx",
                    "marvel.kernel_cycles.eh",
                    "marvel.kernel_cycles.cd",
                ];
                for (i, (ms, cycles)) in per_kernel.into_iter().enumerate() {
                    out.set(MS[i], ms);
                    out.set(CYCLES[i], cycles);
                }
            }
            Err(e) => eprintln!("marvel-frames: kernel timing failed: {e}"),
        }
    }

    fn profiles(&self) -> Vec<OpProfile> {
        self.profiles.clone()
    }

    fn copy_sizes(&self) -> Vec<usize> {
        vec![PAPER_SIZE.0 * PAPER_SIZE.1 * 3]
    }
}
