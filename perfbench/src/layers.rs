//! Outside timings of layers every workload uses, run once per traced
//! run on inputs of the workload's own sizes: cost-model evaluation,
//! main-memory copies, MFC DMA, and the engine's mailbox round trip.

use std::sync::Arc;
use std::time::Instant;

use cell_core::{CellResult, MachineProfile, OpProfile};
use cell_engine::Engine;
use cell_mem::MainMemory;
use cell_sys::{CellMachine, SpeEnv};
use portkit::dispatcher::KernelDispatcher;
use portkit::interface::ReplyMode;

use crate::common::{secs, time_per_call, Layers};
use crate::spans::SpanLog;

/// DMA chunk of the MFC loop: the largest single command.
const DMA_CHUNK: usize = 16 * 1024;
/// Get/put pairs per MFC round trip.
const DMA_PAIRS: u32 = 64;
/// Engine round trips per round-trip sample.
const ROUND_TRIPS: usize = 200;
/// Calls per `SPU_BATCH` frame (the engine's maximum).
const BATCH: usize = 16;

/// Run every generic timing and record it in `out`.
pub fn measure(
    spans: &mut SpanLog,
    profiles: &[OpProfile],
    copy_sizes: &[usize],
    out: &mut Layers,
) {
    let cost = spans.scope("cell-core", "MachineProfile::compute_cycles", 0, || {
        cost_eval_ns(profiles)
    });
    out.set("cell-core.cost_eval_ns", cost);
    let copy = spans.scope("cell-mem", "MainMemory::write+read", 0, || {
        copy_ns_per_kib(copy_sizes)
    });
    out.set("cell-mem.copy_ns_per_kib", copy);
    match spans.scope("cell-mfc", "dma_get+put", 0, mfc_ns_per_kib) {
        Ok(v) => out.set("cell-mfc.get_ns_per_kib", v),
        Err(e) => eprintln!("cell-mfc timing failed: {e}"),
    }
    match spans.scope("cell-engine", "round_trip", 0, round_trip_us) {
        Ok((single, batched)) => {
            out.set("cell-sys.roundtrip_us", single);
            out.set("cell-engine.batched_call_us", batched);
        }
        Err(e) => eprintln!("cell-engine timing failed: {e}"),
    }
}

/// Host ns per `MachineProfile` costing of one of `profiles`, on the
/// SPE and PPE models.
fn cost_eval_ns(profiles: &[OpProfile]) -> f64 {
    if profiles.is_empty() {
        return 0.0;
    }
    let models = [MachineProfile::spe_optimized(), MachineProfile::ppe()];
    let mut i = 0usize;
    time_per_call(50, 200, || {
        let p = &profiles[i % profiles.len()];
        let m = &models[i % models.len()];
        std::hint::black_box(m.compute_cycles(std::hint::black_box(p)));
        i += 1;
    })
}

/// Host ns per KiB of `MainMemory::write` then `read` of buffers of the
/// given sizes.
fn copy_ns_per_kib(sizes: &[usize]) -> f64 {
    let Some(&largest) = sizes.iter().max() else {
        return 0.0;
    };
    let mem = MainMemory::new((largest * 2).next_power_of_two().max(1 << 20));
    let ea = mem.alloc(largest, 128).expect("arena holds the buffer");
    let src: Vec<u8> = (0..largest).map(|i| i as u8).collect();
    let mut dst = vec![0u8; largest];
    let kib: f64 = sizes.iter().map(|&s| 2.0 * s as f64 / 1024.0).sum();
    let ns = time_per_call(30, 1, || {
        for &s in sizes {
            mem.write(ea, &src[..s]).expect("write in bounds");
            mem.read(ea, &mut dst[..s]).expect("read in bounds");
        }
        std::hint::black_box(&dst);
    });
    ns / kib
}

/// Host ns per KiB of a synchronous DMA get + put loop on a one-SPE
/// machine, timed from the PPE around one mailbox round trip.
fn mfc_ns_per_kib() -> CellResult<f64> {
    let mut machine = CellMachine::cell_be();
    let mut ppe = machine.ppe();
    let mem = Arc::clone(machine.mem());
    let ea = mem.alloc(DMA_CHUNK, 128)?;
    let program = move |env: &mut SpeEnv| -> CellResult<()> {
        let la = env.ls.alloc(DMA_CHUNK, 128)?;
        loop {
            let pairs = env.read_in_mbox()?;
            if pairs == 0 {
                return Ok(());
            }
            for _ in 0..pairs {
                env.dma_get_sync(la, ea, DMA_CHUNK, 0)?;
                env.dma_put_sync(la, ea, DMA_CHUNK, 0)?;
            }
            env.write_out_mbox(pairs)?;
        }
    };
    let handle = machine.spawn(0, Box::new(program))?;
    let mut samples = Vec::new();
    for _ in 0..20 {
        let t = Instant::now();
        ppe.write_in_mbox(0, DMA_PAIRS)?;
        ppe.read_out_mbox(0)?;
        let kib = f64::from(DMA_PAIRS) * 2.0 * DMA_CHUNK as f64 / 1024.0;
        samples.push(secs(t) * 1e9 / kib);
    }
    ppe.write_in_mbox(0, 0)?;
    handle.join()?;
    machine.shutdown();
    Ok(crate::stats::median(&samples))
}

/// Host µs of one empty-kernel round trip through `Engine::submit_to_spe`
/// and `complete`, and per call inside `SPU_BATCH` frames.
fn round_trip_us() -> CellResult<(f64, f64)> {
    let mut machine = CellMachine::cell_be();
    let mut ppe = machine.ppe();
    let mut d = KernelDispatcher::new("empty", ReplyMode::Polling);
    let op = d.register("empty", |_env: &mut SpeEnv, arg: u32| Ok(arg));
    let handle = machine.spawn(0, Box::new(d))?;
    let mut engine = Engine::new(1);
    let mut single = Vec::new();
    let mut batched = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        for i in 0..ROUND_TRIPS {
            let tk = engine.submit_to_spe(&mut ppe, 0, "empty", op, i as u32)?;
            engine.complete(&mut ppe, tk)?;
        }
        single.push(secs(t) * 1e6 / ROUND_TRIPS as f64);
        let calls: Vec<(u32, u32)> = (0..BATCH as u32).map(|i| (op, i)).collect();
        let frames = ROUND_TRIPS / BATCH;
        let t = Instant::now();
        for _ in 0..frames {
            let tk = engine.submit_batch_to_spe(&mut ppe, 0, "empty", &calls)?;
            engine.complete(&mut ppe, tk)?;
        }
        batched.push(secs(t) * 1e6 / (frames * BATCH) as f64);
    }
    engine.close(&mut ppe)?;
    handle.join()?;
    machine.shutdown();
    Ok((
        crate::stats::median(&single),
        crate::stats::median(&batched),
    ))
}
