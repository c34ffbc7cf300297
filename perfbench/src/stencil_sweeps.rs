//! `stencil-sweeps`: the Jacobi port on seeded grids larger than the
//! local store, so the SPE streams every sweep through DMA in bands.
//!
//! A round solves each grid once on a `StencilApp` (one SPE) and checks
//! it. Grid shapes are fixed; the seed draws the boundary and the
//! starting interior.

use std::time::Instant;

use cell_core::OpProfile;
use cell_stencil::offload::plain_solve;
use cell_stencil::{Grid, StencilApp};

use crate::common::{secs, sim_cycles, stream, Counts, Layers, Mode, RoundOut, Workload};
use crate::oracle::{boundary_range, check_grid, sweeps};
use crate::spans::SpanLog;
use crate::stats;

/// Both exceed the 256 KB local store many times over (1.5 MB and
/// 2.5 MB of f32), so every sweep streams the grid through it in bands.
const SHAPES: [(usize, usize); 2] = [(768, 512), (1024, 640)];
/// Sweeps per solve: one mailbox round trip covers all of them.
pub const SWEEPS: u32 = 4;

struct Case {
    grid: Grid,
    want: Vec<f32>,
    range: (f32, f32),
}

pub struct StencilSweeps {
    cases: Vec<Case>,
    rounds: u64,
    /// The app the timed run streams every round through.
    kept: Option<StencilApp>,
    profiles: Vec<OpProfile>,
    /// Host ms of each solve, per case, over every round of the run.
    solve_ms: Vec<Vec<f64>>,
}

impl StencilSweeps {
    pub fn new(seed: u64) -> Self {
        let mut rng = stream(seed, 5);
        let mut cases = Vec::new();
        for (w, h) in SHAPES {
            let mut cells = vec![0f32; w * h];
            let edge = |i: usize| {
                let (x, y) = (i % w, i / w);
                x == 0 || y == 0 || x == w - 1 || y == h - 1
            };
            for (i, c) in cells.iter_mut().enumerate() {
                if edge(i) {
                    *c = rng.next_below(10_000) as f32 / 100.0;
                }
            }
            let range = boundary_range(&cells, w, h);
            for (i, c) in cells.iter_mut().enumerate() {
                if !edge(i) {
                    let t = rng.next_below(1 << 16) as f32 / (1 << 16) as f32;
                    *c = range.0 + t * (range.1 - range.0);
                }
            }
            let mut grid = Grid::new(w, h).expect("grid shape is legal");
            grid.data_mut().copy_from_slice(&cells);
            let want = sweeps(&cells, w, h, SWEEPS);
            cases.push(Case { grid, want, range });
        }
        let solve_ms = vec![Vec::new(); cases.len()];
        StencilSweeps {
            cases,
            rounds: 0,
            kept: None,
            profiles: Vec::new(),
            solve_ms,
        }
    }
}

impl Workload for StencilSweeps {
    fn op_name(&self) -> &'static str {
        "solve"
    }

    fn setup_sample(&mut self) -> Option<f64> {
        let t = Instant::now();
        let app = StencilApp::new().ok()?;
        let s = secs(t);
        app.finish().ok()?;
        Some(s)
    }

    fn round(&mut self, spans: &mut SpanLog, mode: Mode, counts: &mut Counts) -> RoundOut {
        self.rounds += 1;
        let n = self.cases.len() as u64;
        let first_id = (self.rounds - 1) * n;
        let mut out = RoundOut::default();
        let kept = if mode == Mode::Kept {
            self.kept.take()
        } else {
            None
        };
        let mut app = match kept {
            Some(app) => app,
            None => {
                let t = Instant::now();
                match spans.scope("cell-stencil", "StencilApp::new", first_id, StencilApp::new) {
                    Ok(app) => {
                        out.setup_s = Some(secs(t));
                        app
                    }
                    Err(e) => {
                        eprintln!("stencil-sweeps: set-up failed: {e}");
                        out.tally.record_lost(n);
                        return out;
                    }
                }
            }
        };

        let mut healthy = true;
        for (i, case) in self.cases.iter().enumerate() {
            let id = first_id + i as u64;
            let open = spans.enter("cell-stencil", "solve", id);
            let t = Instant::now();
            let solved = app.solve(&case.grid, SWEEPS);
            let host_s = secs(t);
            spans.exit(open);
            out.program_s += host_s;
            self.solve_ms[i].push(host_s * 1e3);
            let open = spans.enter("perfbench", "check", id);
            let check = match solved {
                Ok((grid, elapsed)) => {
                    out.sim_cycles += sim_cycles(elapsed);
                    check_grid(grid.data(), &case.want, case.range)
                }
                Err(e) => {
                    healthy = false;
                    Err(format!("solve failed: {e}"))
                }
            };
            if let Some(e) = out.tally.record(check) {
                eprintln!("stencil-sweeps: grid {i}: {e}");
            }
            spans.exit(open);
        }

        // A kept app serves the next round unless a solve errored.
        if mode == Mode::Kept && healthy {
            self.kept = Some(app);
            return out;
        }
        match spans.scope("cell-stencil", "finish", first_id, || app.finish()) {
            Ok(reports) if mode == (Mode::Fresh { traced: true }) => {
                counts.ops += n;
                counts.add_spe_reports(&reports);
                self.profiles = reports.into_iter().map(|r| r.profile).collect();
            }
            Ok(_) => {}
            Err(e) => eprintln!("stencil-sweeps: teardown failed: {e}"),
        }
        out
    }

    fn finish(&mut self) {
        if let Some(app) = self.kept.take() {
            if let Err(e) = app.finish() {
                eprintln!("stencil-sweeps: teardown failed: {e}");
            }
        }
    }

    fn layer_timings(&mut self, spans: &mut SpanLog, out: &mut Layers) {
        let mut plain_ms = Vec::new();
        let mut overhead = Vec::new();
        for (i, case) in self.cases.iter().enumerate() {
            let ns = spans.scope("cell-stencil", "plain_solve", i as u64, || {
                crate::common::time_per_call(5, 1, || {
                    std::hint::black_box(plain_solve(std::hint::black_box(&case.grid), SWEEPS));
                })
            });
            let ms = ns / 1e6;
            plain_ms.push(ms / f64::from(SWEEPS));
            overhead.push(stats::median(&self.solve_ms[i]) / ms);
        }
        out.set("cell-stencil.plain_ms_per_sweep", stats::median(&plain_ms));
        out.set("cell-stencil.sim_overhead_x", stats::median(&overhead));
    }

    fn profiles(&self) -> Vec<OpProfile> {
        self.profiles.clone()
    }

    fn copy_sizes(&self) -> Vec<usize> {
        self.cases
            .iter()
            .map(|c| Grid::row_stride_bytes(c.grid.width()) * c.grid.height())
            .collect()
    }
}
