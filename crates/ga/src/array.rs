//! Tiled global arrays with deterministic tile ownership.

use dts_tensor::TileShape;
use serde::Serialize;

/// A tiled, distributed array. Tiles are identified by a flat index into
/// `tile_shapes`; ownership is assigned round-robin over the worker
/// processes, which is how NWChem's TCE distributes its block-sparse tensors
/// by default.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct GlobalArray {
    /// Human-readable name (e.g. `"fock"`, `"t2"`, `"v2"`).
    pub name: String,
    /// Shape of each tile.
    tile_shapes: Vec<TileShape>,
    /// Number of worker processes over which tiles are distributed.
    n_processes: usize,
}

impl GlobalArray {
    /// Creates a global array from the shapes of its tiles.
    ///
    /// # Panics
    /// Panics if there are no tiles or no processes.
    pub fn new(name: impl Into<String>, tile_shapes: Vec<TileShape>, n_processes: usize) -> Self {
        assert!(
            !tile_shapes.is_empty(),
            "a global array needs at least one tile"
        );
        assert!(n_processes > 0, "a global array needs at least one process");
        GlobalArray {
            name: name.into(),
            tile_shapes,
            n_processes,
        }
    }

    /// Number of tiles.
    pub fn n_tiles(&self) -> usize {
        self.tile_shapes.len()
    }

    /// Shape of tile `index`.
    pub fn tile_shape(&self, index: usize) -> TileShape {
        self.tile_shapes[index]
    }

    /// Size in bytes of tile `index`.
    pub fn tile_bytes(&self, index: usize) -> u64 {
        self.tile_shapes[index].bytes()
    }

    /// Owner (process rank) of tile `index`: round-robin distribution.
    pub fn owner_of(&self, index: usize) -> usize {
        assert!(index < self.n_tiles(), "tile index {index} out of range");
        index % self.n_processes
    }

    /// Total size of the array in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.tile_shapes.iter().map(|s| s.bytes()).sum()
    }

    /// Bytes owned by a given process rank.
    pub fn bytes_owned_by(&self, rank: usize) -> u64 {
        self.tile_shapes
            .iter()
            .enumerate()
            .filter(|(i, _)| self.owner_of(*i) == rank)
            .map(|(_, s)| s.bytes())
            .sum()
    }

    /// Largest tile in bytes (relevant for the minimum memory capacity of
    /// the traces).
    pub fn max_tile_bytes(&self) -> u64 {
        self.tile_shapes
            .iter()
            .map(|s| s.bytes())
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> GlobalArray {
        GlobalArray::new(
            "fock",
            vec![
                TileShape::matrix(100, 100),
                TileShape::matrix(100, 50),
                TileShape::matrix(50, 100),
                TileShape::matrix(50, 50),
            ],
            3,
        )
    }

    #[test]
    fn ownership_is_round_robin() {
        let ga = sample();
        assert_eq!(ga.n_tiles(), 4);
        assert_eq!(ga.owner_of(0), 0);
        assert_eq!(ga.owner_of(1), 1);
        assert_eq!(ga.owner_of(2), 2);
        assert_eq!(ga.owner_of(3), 0);
    }

    #[test]
    fn byte_accounting() {
        let ga = sample();
        assert_eq!(ga.tile_bytes(0), 80_000);
        assert_eq!(ga.tile_bytes(3), 20_000);
        assert_eq!(ga.total_bytes(), 80_000 + 40_000 + 40_000 + 20_000);
        assert_eq!(ga.bytes_owned_by(0), 80_000 + 20_000);
        assert_eq!(ga.max_tile_bytes(), 80_000);
    }

    #[test]
    fn load_balance_of_round_robin_is_reasonable() {
        // With homogeneous tiles every process owns (almost) the same amount.
        let shapes = vec![TileShape::matrix(64, 64); 100];
        let ga = GlobalArray::new("dense", shapes, 7);
        let per_rank: Vec<u64> = (0..7).map(|r| ga.bytes_owned_by(r)).collect();
        let min = per_rank.iter().min().unwrap();
        let max = per_rank.iter().max().unwrap();
        assert!(max - min <= TileShape::matrix(64, 64).bytes());
        assert_eq!(per_rank.iter().sum::<u64>(), ga.total_bytes());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn owner_of_invalid_tile_panics() {
        sample().owner_of(99);
    }

    #[test]
    #[should_panic(expected = "at least one tile")]
    fn empty_array_panics() {
        GlobalArray::new("empty", vec![], 2);
    }
}
