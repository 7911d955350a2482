//! Tensor contraction (block matrix multiplication) kernel.
//!
//! Every tensor contraction over tiles can be cast as a matrix
//! multiplication `C[m, n] += Σ_k A[m, k] · B[k, n]` once the free and
//! contracted indices are grouped — this is exactly how NWChem's TCE lowers
//! its contractions. The spec therefore only carries the three combined
//! extents `(m, n, k)`.

use crate::tile::{Tile, TileShape};
use serde::Serialize;

/// A contraction `C[m, n] += Σ_k A[m, k] · B[k, n]` between two tiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct ContractionSpec {
    /// Combined extent of the free indices of `A` (rows of the result).
    pub m: usize,
    /// Combined extent of the free indices of `B` (columns of the result).
    pub n: usize,
    /// Combined extent of the contracted indices.
    pub k: usize,
}

impl ContractionSpec {
    /// Creates a spec.
    pub fn new(m: usize, n: usize, k: usize) -> Self {
        ContractionSpec { m, n, k }
    }

    /// Floating-point operations performed (multiply + add).
    pub fn flops(&self) -> u64 {
        2 * self.m as u64 * self.n as u64 * self.k as u64
    }

    /// Bytes of input data read (A and B tiles).
    pub fn input_bytes(&self) -> u64 {
        ((self.m * self.k + self.k * self.n) * std::mem::size_of::<f64>()) as u64
    }

    /// Bytes of output data produced (C tile).
    pub fn output_bytes(&self) -> u64 {
        (self.m * self.n * std::mem::size_of::<f64>()) as u64
    }

    /// Shape of the `A` operand.
    pub fn a_shape(&self) -> TileShape {
        TileShape::matrix(self.m, self.k)
    }

    /// Shape of the `B` operand.
    pub fn b_shape(&self) -> TileShape {
        TileShape::matrix(self.k, self.n)
    }

    /// Shape of the `C` result.
    pub fn c_shape(&self) -> TileShape {
        TileShape::matrix(self.m, self.n)
    }
}

/// Performs `C += A · B` with a simple ikj loop nest (cache-friendlier than
/// the naive ijk order; the kernel is here for functional fidelity, not to
/// compete with a tuned BLAS).
///
/// # Panics
/// Panics if the operand shapes do not match `spec`.
pub fn contract(spec: ContractionSpec, a: &Tile, b: &Tile, c: &mut Tile) {
    assert_eq!(a.shape(), spec.a_shape(), "A operand shape mismatch");
    assert_eq!(b.shape(), spec.b_shape(), "B operand shape mismatch");
    assert_eq!(c.shape(), spec.c_shape(), "C operand shape mismatch");
    let (m, n, k) = (spec.m, spec.n, spec.k);
    let a_data = a.data();
    let b_data = b.data();
    let c_data = c.data_mut();
    for i in 0..m {
        for p in 0..k {
            let a_ip = a_data[i * k + p];
            if a_ip == 0.0 {
                continue;
            }
            let b_row = &b_data[p * n..(p + 1) * n];
            let c_row = &mut c_data[i * n..(i + 1) * n];
            for j in 0..n {
                c_row[j] += a_ip * b_row[j];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn reference(spec: ContractionSpec, a: &Tile, b: &Tile) -> Tile {
        let mut c = Tile::zeros(spec.c_shape());
        for i in 0..spec.m {
            for j in 0..spec.n {
                let mut acc = 0.0;
                for p in 0..spec.k {
                    acc += a.data()[i * spec.k + p] * b.data()[p * spec.n + j];
                }
                c.data_mut()[i * spec.n + j] = acc;
            }
        }
        c
    }

    #[test]
    fn small_contraction_matches_reference() {
        let spec = ContractionSpec::new(2, 3, 4);
        let mut rng = StdRng::seed_from_u64(5);
        let a = Tile::random(spec.a_shape(), &mut rng);
        let b = Tile::random(spec.b_shape(), &mut rng);
        let mut c = Tile::zeros(spec.c_shape());
        contract(spec, &a, &b, &mut c);
        let r = reference(spec, &a, &b);
        for (x, y) in c.data().iter().zip(r.data()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn accumulation_adds_to_existing_c() {
        let spec = ContractionSpec::new(2, 2, 2);
        let a = Tile::from_data(spec.a_shape(), vec![1.0, 0.0, 0.0, 1.0]);
        let b = Tile::from_data(spec.b_shape(), vec![1.0, 2.0, 3.0, 4.0]);
        let mut c = Tile::from_data(spec.c_shape(), vec![10.0, 10.0, 10.0, 10.0]);
        contract(spec, &a, &b, &mut c);
        assert_eq!(c.data(), &[11.0, 12.0, 13.0, 14.0]);
    }

    #[test]
    fn flop_and_byte_accounting() {
        let spec = ContractionSpec::new(100, 100, 100);
        assert_eq!(spec.flops(), 2_000_000);
        assert_eq!(spec.input_bytes(), 160_000);
        assert_eq!(spec.output_bytes(), 80_000);
    }

    #[test]
    fn larger_contraction_matches_reference() {
        let spec = ContractionSpec::new(17, 23, 31);
        let mut rng = StdRng::seed_from_u64(11);
        let a = Tile::random(spec.a_shape(), &mut rng);
        let b = Tile::random(spec.b_shape(), &mut rng);
        let mut c = Tile::zeros(spec.c_shape());
        contract(spec, &a, &b, &mut c);
        let r = reference(spec, &a, &b);
        let diff: f64 = c
            .data()
            .iter()
            .zip(r.data())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max);
        assert!(diff < 1e-10);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn mismatched_shapes_panic() {
        let spec = ContractionSpec::new(2, 2, 2);
        let a = Tile::zeros(TileShape::matrix(3, 2));
        let b = Tile::zeros(spec.b_shape());
        let mut c = Tile::zeros(spec.c_shape());
        contract(spec, &a, &b, &mut c);
    }
}
