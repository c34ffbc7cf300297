//! `isa-kernels`: the three hand-assembled SPU images (`gray`, `hist`,
//! `jacobi`) on the `cell-isa` interpreter, over seeded inputs of the
//! largest size one DMA command can move into the local store (16 KB).
//!
//! A round runs every kernel [`REPEATS`] times, one at a time, through
//! the offload engine on a machine with one dispatcher per image on SPEs
//! 0–2 and the inputs uploaded, and checks each output.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use cell_core::{CellResult, OpProfile};
use cell_engine::Engine;
use cell_isa::{
    build_gray_kernel, build_hist_kernel, build_jacobi_kernel, decode, write_header, ExecTrace,
    IsaImage, KernelHeader, HIST_BINS,
};
use cell_sys::{CellMachine, Ppe, SpeReport};
use cell_trace::{TraceConfig, TraceReport};
use portkit::dispatcher::{IsaTraceSink, KernelDispatcher};
use portkit::interface::ReplyMode;

use crate::common::{secs, sim_cycles, stream, Counts, Layers, Mode, RoundOut, Workload};
use crate::oracle::{check_words, gray, hist, sweep};
use crate::spans::SpanLog;
use crate::stats;

/// Bytes one DMA command may move: every kernel input is this large.
const DMA_MAX: usize = 16 * 1024;
const GRAY_PIXELS: usize = DMA_MAX / 4;
const HIST_BYTES: usize = DMA_MAX;
/// Histogram inputs are pre-quantized bin indices below this bound.
const HIST_LEVELS: u64 = 166;
const JACOBI_W: usize = 64;
const JACOBI_H: usize = DMA_MAX / 4 / JACOBI_W;
/// Runs of each kernel per round.
pub const REPEATS: usize = 4;

const NAMES: [&str; 3] = ["gray", "hist", "jacobi"];

struct Kernel {
    name: &'static str,
    image: IsaImage,
    input: Vec<u8>,
    out_len: usize,
    count: u32,
    param: u32,
    want: Vec<u32>,
}

/// A machine with each kernel on an SPE of its own, because an image
/// the dispatcher places at a nonzero LS code base computes wrong
/// results (fault 5 in the README).
struct Rig {
    machine: CellMachine,
    ppe: Ppe,
    engine: Engine,
    handles: Vec<cell_sys::SpeHandle>,
    /// Per kernel (its SPE is its index): opcode, header EA, output EA.
    slots: Vec<(u32, u64, u64)>,
}

pub struct IsaKernels {
    kernels: Vec<Kernel>,
    rounds: u64,
    /// The machine the timed run streams every round through.
    kept: Option<Rig>,
    /// Interpreter counters merged over the traced rounds.
    exec: ExecTrace,
    traced_runs: u64,
    kernel_ms: [Vec<f64>; 3],
    profiles: Vec<OpProfile>,
}

impl IsaKernels {
    pub fn new(seed: u64) -> Self {
        let mut rng = stream(seed, 6);
        let gray_in: Vec<u8> = (0..GRAY_PIXELS * 4).map(|_| rng.next_u64() as u8).collect();
        let hist_in: Vec<u8> = (0..HIST_BYTES)
            .map(|_| rng.next_below(HIST_LEVELS) as u8)
            .collect();
        let cells: Vec<f32> = (0..JACOBI_W * JACOBI_H)
            .map(|_| rng.next_below(10_000) as f32 / 100.0)
            .collect();
        let jacobi_in: Vec<u8> = cells.iter().flat_map(|c| c.to_le_bytes()).collect();
        let jacobi_want: Vec<u32> = sweep(&cells, JACOBI_W, JACOBI_H)
            .iter()
            .map(|c| c.to_bits())
            .collect();
        let kernels = vec![
            Kernel {
                name: NAMES[0],
                image: build_gray_kernel().expect("gray assembles"),
                want: gray(&gray_in),
                input: gray_in,
                out_len: GRAY_PIXELS * 4,
                count: GRAY_PIXELS as u32,
                param: 0,
            },
            Kernel {
                name: NAMES[1],
                image: build_hist_kernel().expect("hist assembles"),
                want: hist(&hist_in, HIST_BINS),
                input: hist_in,
                out_len: HIST_BINS * 4,
                count: HIST_BYTES as u32,
                param: 0,
            },
            Kernel {
                name: NAMES[2],
                image: build_jacobi_kernel().expect("jacobi assembles"),
                want: jacobi_want,
                input: jacobi_in,
                out_len: JACOBI_W * JACOBI_H * 4,
                count: (JACOBI_W * JACOBI_H) as u32,
                param: (JACOBI_W | (JACOBI_H << 16)) as u32,
            },
        ];
        IsaKernels {
            kernels,
            rounds: 0,
            kept: None,
            exec: ExecTrace::default(),
            traced_runs: 0,
            kernel_ms: Default::default(),
            profiles: Vec::new(),
        }
    }

    /// Build a machine; with a `sink` it is traced and the interpreter's
    /// counters merge into the sink.
    fn build(&self, sink: Option<&IsaTraceSink>) -> CellResult<Rig> {
        let mut machine = CellMachine::cell_be();
        if sink.is_some() {
            machine.set_trace_config(TraceConfig::Full);
        }
        let ppe = machine.ppe();
        let mem = Arc::clone(machine.mem());
        let mut slots = Vec::new();
        let mut handles = Vec::new();
        for (spe, k) in self.kernels.iter().enumerate() {
            let mut d = KernelDispatcher::new(k.name, ReplyMode::Polling);
            if let Some(sink) = sink {
                d.set_isa_trace_sink(Arc::clone(sink));
            }
            let op = d.register_image(k.name, k.image.clone());
            handles.push(machine.spawn(spe, Box::new(d))?);
            let in_ea = mem.alloc(k.input.len(), 128)?;
            mem.write(in_ea, &k.input)?;
            let out_ea = mem.alloc(k.out_len, 128)?;
            let hdr_ea = mem.alloc(16, 16)?;
            write_header(
                &mem,
                hdr_ea,
                KernelHeader {
                    in_ea: u32::try_from(in_ea).expect("arena fits 32-bit EAs"),
                    out_ea: u32::try_from(out_ea).expect("arena fits 32-bit EAs"),
                    count: k.count,
                    param: k.param,
                },
            )?;
            slots.push((op, hdr_ea, out_ea));
        }
        Ok(Rig {
            machine,
            ppe,
            engine: Engine::new(self.kernels.len()),
            handles,
            slots,
        })
    }

    /// Run kernel `k` once; returns its output words.
    fn run(&self, rig: &mut Rig, k: usize) -> CellResult<Vec<u32>> {
        let (op, hdr_ea, out_ea) = rig.slots[k];
        let kernel = &self.kernels[k];
        let mem = Arc::clone(rig.machine.mem());
        mem.fill(out_ea, 0, kernel.out_len)?;
        let arg = u32::try_from(hdr_ea).expect("arena fits 32-bit EAs");
        let t = rig
            .engine
            .submit_to_spe(&mut rig.ppe, k, kernel.name, op, arg)?;
        let reply = rig.engine.complete(&mut rig.ppe, t)?;
        if reply != kernel.count {
            return Err(cell_core::CellError::BadData {
                message: format!("{} replied {reply}, not {}", kernel.name, kernel.count),
            });
        }
        let mut bytes = vec![0u8; kernel.out_len];
        mem.read(out_ea, &mut bytes)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|w| u32::from_le_bytes([w[0], w[1], w[2], w[3]]))
            .collect())
    }

    fn teardown(rig: Rig) -> CellResult<(Vec<SpeReport>, TraceReport, u64)> {
        let Rig {
            machine,
            mut ppe,
            mut engine,
            handles,
            ..
        } = rig;
        engine.close(&mut ppe)?;
        let reports = handles
            .into_iter()
            .map(cell_sys::SpeHandle::join)
            .collect::<CellResult<Vec<_>>>()?;
        let mem = machine.mem();
        let bytes = mem.bytes_read() + mem.bytes_written();
        let mut tracks = vec![ppe.take_trace()];
        tracks.extend(reports.iter().map(|r| r.trace.clone()));
        tracks.push(machine.take_eib_trace());
        machine.shutdown();
        Ok((reports, TraceReport { tracks }, bytes))
    }
}

impl Workload for IsaKernels {
    fn op_name(&self) -> &'static str {
        "kernel run"
    }

    fn setup_sample(&mut self) -> Option<f64> {
        let t = Instant::now();
        let rig = self.build(None).ok()?;
        let s = secs(t);
        Self::teardown(rig).ok()?;
        Some(s)
    }

    fn round(&mut self, spans: &mut SpanLog, mode: Mode, counts: &mut Counts) -> RoundOut {
        self.rounds += 1;
        let n = (REPEATS * self.kernels.len()) as u64;
        let first_id = (self.rounds - 1) * n;
        let mut out = RoundOut::default();
        let traced = mode == Mode::Fresh { traced: true };
        let sink: IsaTraceSink = Arc::new(Mutex::new(ExecTrace::default()));
        let kept = if mode == Mode::Kept {
            self.kept.take()
        } else {
            None
        };
        let mut rig = match kept {
            Some(rig) => rig,
            None => {
                let t = Instant::now();
                let built = spans.scope("cell-sys", "CellMachine::spawn", first_id, || {
                    self.build(traced.then_some(&sink))
                });
                match built {
                    Ok(rig) => {
                        out.setup_s = Some(secs(t));
                        rig
                    }
                    Err(e) => {
                        eprintln!("isa-kernels: set-up failed: {e}");
                        out.tally.record_lost(n);
                        return out;
                    }
                }
            }
        };

        let mut healthy = true;
        let mut id = first_id;
        for _ in 0..REPEATS {
            for (k, &name) in NAMES.iter().enumerate() {
                let open = spans.enter("cell-engine", name, id);
                let (t, c0) = (Instant::now(), rig.ppe.elapsed());
                let ran = self.run(&mut rig, k);
                let host_s = secs(t);
                out.sim_cycles += sim_cycles(rig.ppe.elapsed() - c0);
                spans.exit(open);
                out.program_s += host_s;
                self.kernel_ms[k].push(host_s * 1e3);
                let open = spans.enter("perfbench", "check", id);
                healthy &= ran.is_ok();
                let check = ran
                    .map_err(|e| e.to_string())
                    .and_then(|got| check_words(&got, &self.kernels[k].want, name));
                if let Some(e) = out.tally.record(check) {
                    eprintln!("isa-kernels: {name}: {e}");
                }
                spans.exit(open);
                id += 1;
            }
        }

        // A kept machine serves the next round unless a run errored.
        if mode == Mode::Kept && healthy {
            self.kept = Some(rig);
            return out;
        }
        match spans.scope("cell-sys", "SpeHandle::join", first_id, || {
            Self::teardown(rig)
        }) {
            Ok((reports, trace, bytes)) if traced => {
                counts.ops += n;
                self.traced_runs += n;
                counts.mem_bytes += bytes;
                counts.add_spe_reports(&reports);
                counts.add_trace(&trace);
                self.exec
                    .merge(&sink.lock().expect("no SPE thread is left holding the sink"));
                self.profiles = vec![self.exec.to_profile()];
            }
            Ok(_) => {}
            Err(e) => eprintln!("isa-kernels: teardown failed: {e}"),
        }
        out
    }

    fn finish(&mut self) {
        if let Some(rig) = self.kept.take() {
            if let Err(e) = Self::teardown(rig) {
                eprintln!("isa-kernels: teardown failed: {e}");
            }
        }
    }

    fn layer_timings(&mut self, spans: &mut SpanLog, out: &mut Layers) {
        let words: Vec<u32> = self
            .kernels
            .iter()
            .flat_map(|k| {
                k.image
                    .bytes
                    .chunks_exact(4)
                    .map(|w| u32::from_be_bytes([w[0], w[1], w[2], w[3]]))
                    .collect::<Vec<_>>()
            })
            .collect();
        let ns = spans.scope("cell-isa", "decode", 0, || {
            crate::common::time_per_call(50, words.len(), {
                let mut i = 0usize;
                move || {
                    std::hint::black_box(decode(std::hint::black_box(words[i % words.len()])));
                    i += 1;
                }
            })
        });
        out.set("cell-isa.decode_ns", ns);
        const MS: [&str; 3] = [
            "cell-isa.kernel_ms.gray",
            "cell-isa.kernel_ms.hist",
            "cell-isa.kernel_ms.jacobi",
        ];
        for (name, samples) in MS.iter().zip(&self.kernel_ms) {
            out.set(name, stats::median(samples));
        }
        out.set(
            "cell-isa.instructions",
            self.exec.instructions as f64 / self.traced_runs.max(1) as f64,
        );
        out.set(
            "cell-isa.dual_issue_ratio",
            self.exec.dual_issues as f64 / self.exec.instructions.max(1) as f64,
        );
    }

    fn profiles(&self) -> Vec<OpProfile> {
        self.profiles.clone()
    }

    fn copy_sizes(&self) -> Vec<usize> {
        vec![DMA_MAX]
    }
}
