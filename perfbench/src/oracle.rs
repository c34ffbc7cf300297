//! Correctness oracles, computed apart from the code under test.
//!
//! * MARVEL features must be byte-identical to the scalar extractors
//!   run on the decoded frame; SVM scores must lie within a relative
//!   1e-3 of the scalar `SvmModel::score`, because the SPE sums in SIMD
//!   order.
//! * Grids must be bit-identical to this file's own 5-point sweep and
//!   obey the discrete maximum principle.
//! * The ISA kernels must match direct formulas: luma, a byte count,
//!   one sweep.

use marvel::app::{MarvelModels, EXTRACT_KINDS};
use marvel::features::{correlogram, edge, histogram, texture, Feature, KernelKind};
use marvel::image::ColorImage;

/// Relative tolerance of SPE scores against the scalar SVM.
const SCORE_RTOL: f32 = 1e-3;

/// Operations attempted and failed so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one operation; it failed if its check did. Returns the
    /// check's message for the first report.
    pub fn record(&mut self, check: Result<(), String>) -> Option<String> {
        self.attempted += 1;
        match check {
            Ok(()) => None,
            Err(e) => {
                self.failed += 1;
                Some(e)
            }
        }
    }

    /// Count `n` operations that all failed together (the call that
    /// should have produced them returned an error).
    pub fn record_lost(&mut self, n: u64) {
        self.attempted += n;
        self.failed += n;
    }
}

/// What one analysed image must produce.
#[derive(Debug, Clone)]
pub struct ExpectedAnalysis {
    pub features: Vec<(KernelKind, Feature)>,
    pub scores: Vec<(KernelKind, f32)>,
}

/// Scalar features and scores of `img` under `models`.
pub fn expected_analysis(img: &ColorImage, models: &MarvelModels) -> ExpectedAnalysis {
    let features: Vec<(KernelKind, Feature)> = EXTRACT_KINDS
        .iter()
        .map(|&k| {
            let f = match k {
                KernelKind::Ch => histogram::extract(img),
                KernelKind::Cc => correlogram::extract(img),
                KernelKind::Tx => texture::extract(img),
                KernelKind::Eh => edge::extract(img),
                KernelKind::Cd => unreachable!("detection is not an extraction"),
            };
            (k, f)
        })
        .collect();
    let scores = features
        .iter()
        .map(|(k, f)| {
            let s = models
                .get(*k)
                .score(f)
                .expect("model dimension matches its feature kind");
            (*k, s)
        })
        .collect();
    ExpectedAnalysis { features, scores }
}

fn lookup<T>(pairs: &[(KernelKind, T)], kind: KernelKind) -> Option<&T> {
    pairs.iter().find(|(k, _)| *k == kind).map(|(_, v)| v)
}

/// Check one analysis against its expectation.
pub fn check_analysis(
    features: &[(KernelKind, Feature)],
    scores: &[(KernelKind, f32)],
    want: &ExpectedAnalysis,
) -> Result<(), String> {
    for (kind, wf) in &want.features {
        let gf = lookup(features, *kind).ok_or_else(|| format!("{} missing", kind.name()))?;
        let same =
            gf.len() == wf.len() && gf.iter().zip(wf).all(|(g, w)| g.to_bits() == w.to_bits());
        if !same {
            return Err(format!("{} feature differs", kind.name()));
        }
    }
    for (kind, ws) in &want.scores {
        let gs = lookup(scores, *kind).ok_or_else(|| format!("{} score missing", kind.name()))?;
        if (gs - ws).abs() >= SCORE_RTOL * ws.abs().max(1.0) || gs.is_nan() {
            return Err(format!("{} score {gs} vs {ws}", kind.name()));
        }
    }
    Ok(())
}

/// One 5-point sweep of a row-major `w × h` grid: interior cells become
/// `((l + r) + (u + d)) * 0.25`, boundary cells are copied.
pub fn sweep(src: &[f32], w: usize, h: usize) -> Vec<f32> {
    let mut dst = src.to_vec();
    for y in 1..h - 1 {
        for x in 1..w - 1 {
            let l = src[y * w + x - 1];
            let r = src[y * w + x + 1];
            let u = src[(y - 1) * w + x];
            let d = src[(y + 1) * w + x];
            dst[y * w + x] = ((l + r) + (u + d)) * 0.25;
        }
    }
    dst
}

/// `iters` sweeps of [`sweep`].
pub fn sweeps(src: &[f32], w: usize, h: usize, iters: u32) -> Vec<f32> {
    (0..iters).fold(src.to_vec(), |g, _| sweep(&g, w, h))
}

/// Smallest and largest boundary value of a `w × h` grid.
pub fn boundary_range(grid: &[f32], w: usize, h: usize) -> (f32, f32) {
    let on_edge = |i: usize| {
        let (x, y) = (i % w, i / w);
        x == 0 || y == 0 || x == w - 1 || y == h - 1
    };
    grid.iter()
        .enumerate()
        .filter(|(i, _)| on_edge(*i))
        .fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), (_, &v)| {
            (lo.min(v), hi.max(v))
        })
}

/// A relaxed grid must equal the oracle bit for bit and lie within the
/// boundary's range.
pub fn check_grid(got: &[f32], want: &[f32], range: (f32, f32)) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("grid has {} cells, want {}", got.len(), want.len()));
    }
    if let Some(i) = got
        .iter()
        .zip(want)
        .position(|(g, w)| g.to_bits() != w.to_bits())
    {
        return Err(format!("cell {i}: {} vs {}", got[i], want[i]));
    }
    if let Some(i) = got.iter().position(|&v| v < range.0 || v > range.1) {
        return Err(format!("cell {i} = {} outside {range:?}", got[i]));
    }
    Ok(())
}

/// Luma of packed `r | g << 8 | b << 16` pixels: `(77r + 150g + 29b) >> 8`.
pub fn gray(input: &[u8]) -> Vec<u32> {
    input
        .chunks_exact(4)
        .map(|p| (77 * u32::from(p[0]) + 150 * u32::from(p[1]) + 29 * u32::from(p[2])) >> 8)
        .collect()
}

/// A direct count of each byte value into `bins` bins.
pub fn hist(input: &[u8], bins: usize) -> Vec<u32> {
    let mut out = vec![0u32; bins];
    for &b in input {
        out[usize::from(b)] += 1;
    }
    out
}

/// Words must match exactly.
pub fn check_words(got: &[u32], want: &[u32], what: &str) -> Result<(), String> {
    match got.iter().zip(want).position(|(g, w)| g != w) {
        _ if got.len() != want.len() => {
            Err(format!("{what}: {} words, want {}", got.len(), want.len()))
        }
        Some(i) => Err(format!("{what}: word {i} is {} not {}", got[i], want[i])),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flip_byte(v: f32) -> f32 {
        f32::from_bits(v.to_bits() ^ 0x0000_0100)
    }

    #[test]
    fn a_flipped_feature_byte_fails_its_frame() {
        let img = ColorImage::synthetic(48, 32, 5).unwrap();
        let models = MarvelModels::synthetic(9);
        let want = expected_analysis(&img, &models);
        let mut tally = Tally::default();
        assert!(tally
            .record(check_analysis(&want.features, &want.scores, &want))
            .is_none());

        let mut features = want.features.clone();
        features[2].1[0] = flip_byte(features[2].1[0]);
        let err = tally.record(check_analysis(&features, &want.scores, &want));
        assert!(err.unwrap().contains("TXExtract"));
        assert_eq!(
            tally,
            Tally {
                attempted: 2,
                failed: 1
            }
        );
    }

    #[test]
    fn scores_pass_within_tolerance_and_fail_beyond_it() {
        let img = ColorImage::synthetic(48, 32, 6).unwrap();
        let want = expected_analysis(&img, &MarvelModels::synthetic(2));
        let nudge = |d: f32| -> Vec<(KernelKind, f32)> {
            want.scores
                .iter()
                .map(|(k, s)| (*k, s + d * s.abs().max(1.0)))
                .collect()
        };
        assert!(check_analysis(&want.features, &nudge(5e-4), &want).is_ok());
        assert!(check_analysis(&want.features, &nudge(2e-3), &want).is_err());
    }

    #[test]
    fn one_corrupted_grid_cell_fails_its_solve() {
        let (w, h) = (9, 7);
        let mut grid: Vec<f32> = (0..w * h).map(|i| (i % 13) as f32).collect();
        grid[..w].fill(20.0);
        let range = boundary_range(&grid, w, h);
        let want = sweeps(&grid, w, h, 3);
        assert!(check_grid(&want, &want, range).is_ok());

        let mut tally = Tally::default();
        let mut got = want.clone();
        got[w * 3 + 4] = f32::from_bits(got[w * 3 + 4].to_bits() + 1);
        assert!(tally.record(check_grid(&got, &want, range)).is_some());
        assert_eq!(tally.failed, 1);
    }

    #[test]
    fn the_maximum_principle_is_checked_even_when_bits_agree() {
        let want = vec![0.0, 5.0, 11.0];
        assert!(check_grid(&want, &want, (0.0, 10.0)).is_err());
    }

    #[test]
    fn sweep_keeps_the_boundary_and_averages_the_interior() {
        let grid = vec![1.0, 2.0, 3.0, 4.0, 0.0, 6.0, 7.0, 8.0, 9.0];
        let out = sweep(&grid, 3, 3);
        assert_eq!(out[4], ((4.0 + 6.0) + (2.0 + 8.0)) * 0.25);
        assert_eq!(out[0], 1.0);
        assert_eq!(out[8], 9.0);
    }

    #[test]
    fn one_corrupted_histogram_bin_fails_its_kernel_run() {
        let input: Vec<u8> = (0..64u8).map(|i| i % 5).collect();
        let want = hist(&input, 8);
        assert_eq!(want[..5], [13, 13, 13, 13, 12]);
        let mut got = want.clone();
        got[3] += 1;
        let mut tally = Tally::default();
        assert!(tally.record(check_words(&got, &want, "hist")).is_some());
        assert!(tally.record(check_words(&want, &want, "hist")).is_none());
        assert_eq!(
            tally,
            Tally {
                attempted: 2,
                failed: 1
            }
        );
    }

    #[test]
    fn gray_is_the_fixed_point_luma() {
        assert_eq!(gray(&[255, 255, 255, 0, 0, 10, 0, 99]), vec![255, 5]);
    }
}
