//! Dense tensor tiles.

use rand::distributions::{Distribution, Uniform};
use rand::Rng;
use serde::Serialize;
use std::fmt;

/// Shape of a tile: up to four dimensions (HF works with 2-index tiles of
/// the Fock/density matrices, CCSD with 4-index amplitude/integral tiles).
/// Unused trailing dimensions are 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct TileShape {
    /// Extent of each of the four dimensions (1 for unused dimensions).
    pub dims: [usize; 4],
}

impl TileShape {
    /// A 2-dimensional (matrix) tile.
    pub fn matrix(rows: usize, cols: usize) -> Self {
        TileShape {
            dims: [rows, cols, 1, 1],
        }
    }

    /// A 4-dimensional tile.
    pub fn rank4(d0: usize, d1: usize, d2: usize, d3: usize) -> Self {
        TileShape {
            dims: [d0, d1, d2, d3],
        }
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// `true` iff the tile holds no element (any dimension is zero).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size in bytes for `f64` elements.
    pub fn bytes(&self) -> u64 {
        self.len() as u64 * std::mem::size_of::<f64>() as u64
    }

    /// Row-major strides.
    pub fn strides(&self) -> [usize; 4] {
        let d = self.dims;
        [d[1] * d[2] * d[3], d[2] * d[3], d[3], 1]
    }

    /// Flattens a 4-index coordinate into a linear offset.
    pub fn offset(&self, idx: [usize; 4]) -> usize {
        let s = self.strides();
        idx[0] * s[0] + idx[1] * s[1] + idx[2] * s[2] + idx[3] * s[3]
    }
}

impl fmt::Display for TileShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{}x{}x{}",
            self.dims[0], self.dims[1], self.dims[2], self.dims[3]
        )
    }
}

/// A dense tile of `f64` values.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Tile {
    shape: TileShape,
    data: Vec<f64>,
}

impl Tile {
    /// Creates a zero-filled tile.
    pub fn zeros(shape: TileShape) -> Self {
        Tile {
            data: vec![0.0; shape.len()],
            shape,
        }
    }

    /// Creates a tile filled with uniform random values in `[-1, 1]`.
    pub fn random<R: Rng + ?Sized>(shape: TileShape, rng: &mut R) -> Self {
        let dist = Uniform::new_inclusive(-1.0f64, 1.0);
        Tile {
            data: (0..shape.len()).map(|_| dist.sample(rng)).collect(),
            shape,
        }
    }

    /// Creates a tile from existing data.
    ///
    /// # Panics
    /// Panics if `data.len()` does not match the shape.
    pub fn from_data(shape: TileShape, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), shape.len(), "data length must match the shape");
        Tile { shape, data }
    }

    /// The tile's shape.
    pub fn shape(&self) -> TileShape {
        self.shape
    }

    /// The underlying storage (row-major).
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the underlying storage.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Element access by 4-index coordinate.
    pub fn get(&self, idx: [usize; 4]) -> f64 {
        self.data[self.shape.offset(idx)]
    }

    /// Mutable element access by 4-index coordinate.
    pub fn set(&mut self, idx: [usize; 4], value: f64) {
        let off = self.shape.offset(idx);
        self.data[off] = value;
    }

    /// Size in bytes of the tile's data.
    pub fn bytes(&self) -> u64 {
        self.shape.bytes()
    }

    /// Frobenius norm (used by tests as a permutation-invariant checksum).
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn shapes_and_strides() {
        let s = TileShape::matrix(3, 5);
        assert_eq!(s.len(), 15);
        assert_eq!(s.bytes(), 120);
        assert_eq!(s.strides(), [5, 1, 1, 1]);
        assert_eq!(s.offset([2, 3, 0, 0]), 13);
        let r4 = TileShape::rank4(2, 3, 4, 5);
        assert_eq!(r4.len(), 120);
        assert_eq!(r4.strides(), [60, 20, 5, 1]);
        assert_eq!(r4.offset([1, 2, 3, 4]), 60 + 40 + 15 + 4);
        assert_eq!(r4.to_string(), "2x3x4x5");
        assert!(!r4.is_empty());
        assert!(TileShape::matrix(0, 7).is_empty());
    }

    #[test]
    fn tile_construction_and_access() {
        let shape = TileShape::matrix(2, 2);
        let mut t = Tile::zeros(shape);
        assert_eq!(t.norm(), 0.0);
        t.set([0, 1, 0, 0], 3.0);
        t.set([1, 0, 0, 0], 4.0);
        assert_eq!(t.get([0, 1, 0, 0]), 3.0);
        assert_eq!(t.norm(), 5.0);
        assert_eq!(t.bytes(), 32);
        let u = Tile::from_data(shape, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(u.get([1, 1, 0, 0]), 4.0);
    }

    #[test]
    fn random_tiles_are_reproducible_and_bounded() {
        let shape = TileShape::rank4(3, 3, 3, 3);
        let a = Tile::random(shape, &mut StdRng::seed_from_u64(1));
        let b = Tile::random(shape, &mut StdRng::seed_from_u64(1));
        assert_eq!(a, b);
        assert!(a.data().iter().all(|x| (-1.0..=1.0).contains(x)));
    }

    #[test]
    #[should_panic]
    fn mismatched_data_length_panics() {
        let _ = Tile::from_data(TileShape::matrix(2, 2), vec![1.0]);
    }
}
