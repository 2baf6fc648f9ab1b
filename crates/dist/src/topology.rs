//! Rank topology: which contiguous slice of pipeline stages each
//! process owns.
//!
//! The decomposition is a chain, exactly the paper's setting scaled to
//! stage *groups*: rank `r` owns layer stages `[bounds[r], bounds[r+1])`
//! of the full pipeline, receives activations from rank `r-1`, and sends
//! them to rank `r+1`. The loss stage is implicit on the last rank.
//! Every rank derives its per-stage version lags from the *global* stage
//! index and the *global* pipeline depth, so Eq. 5's
//! `D_s = 2(S − 1 − s)` is preserved no matter how stages are grouped —
//! grouping changes who executes a stage, never the schedule contract.

use crate::error::DistError;

/// A contiguous partition of `layer_stages` stages over `world` ranks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    layer_stages: usize,
    /// `world + 1` ascending stage boundaries; rank `r` owns
    /// `bounds[r]..bounds[r+1]`.
    bounds: Vec<usize>,
}

impl Topology {
    /// Balanced contiguous partition by count —
    /// [`pbp_pipeline::contiguous_bounds`], the uniform-cost case of the
    /// one rule ([`pbp_pipeline::partition_bounds`]) that also cuts a
    /// threaded run into workers. Errors when a rank would own nothing.
    pub fn contiguous(layer_stages: usize, world: usize) -> Result<Self, DistError> {
        if world == 0 {
            return Err(DistError::Spec("world size must be at least 1".into()));
        }
        if world > layer_stages {
            return Err(DistError::Spec(format!(
                "world {world} exceeds {layer_stages} layer stages; every rank must own a stage"
            )));
        }
        Ok(Topology {
            layer_stages,
            bounds: pbp_pipeline::contiguous_bounds(layer_stages, world),
        })
    }

    /// Number of ranks.
    pub fn world(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Number of layer stages in the full pipeline.
    pub fn layer_stages(&self) -> usize {
        self.layer_stages
    }

    /// Number of pipeline stages including the loss stage — the `S` in
    /// Eq. 5, identical on every rank.
    pub fn pipeline_stages(&self) -> usize {
        self.layer_stages + 1
    }

    /// The contiguous range of layer stages rank `r` owns.
    pub fn range(&self, rank: usize) -> std::ops::Range<usize> {
        self.bounds[rank]..self.bounds[rank + 1]
    }

    /// The rank owning layer stage `s`.
    pub fn rank_of_stage(&self, s: usize) -> usize {
        (0..self.world())
            .find(|&r| self.range(r).contains(&s))
            .expect("stage within pipeline")
    }

    /// A digest of the partition, folded into the handshake digest so
    /// mismatched launches refuse to talk to each other.
    pub fn digest(&self) -> u64 {
        let mut h = fold(0x9E37_79B9_7F4A_7C15, self.layer_stages as u64);
        for &b in &self.bounds {
            h = fold(h, b as u64);
        }
        h
    }
}

/// One step of splitmix64-style mixing: deterministic, dependency-free.
pub(crate) fn fold(state: u64, value: u64) -> u64 {
    let mut z = state
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(value.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_partition_covers_all_stages_in_order() {
        let t = Topology::contiguous(7, 3).unwrap();
        assert_eq!(t.world(), 3);
        assert_eq!(t.range(0), 0..3);
        assert_eq!(t.range(1), 3..5);
        assert_eq!(t.range(2), 5..7);
        assert_eq!(t.pipeline_stages(), 8);
        for s in 0..7 {
            let r = t.rank_of_stage(s);
            assert!(t.range(r).contains(&s));
        }
    }

    #[test]
    fn one_rank_per_stage_and_single_rank_both_work() {
        let per_stage = Topology::contiguous(4, 4).unwrap();
        for r in 0..4 {
            assert_eq!(per_stage.range(r), r..r + 1);
        }
        let single = Topology::contiguous(4, 1).unwrap();
        assert_eq!(single.range(0), 0..4);
    }

    #[test]
    fn invalid_worlds_are_typed_spec_errors() {
        assert!(matches!(
            Topology::contiguous(3, 0),
            Err(DistError::Spec(_))
        ));
        assert!(matches!(
            Topology::contiguous(3, 4),
            Err(DistError::Spec(_))
        ));
    }

    #[test]
    fn digests_distinguish_partitions() {
        let a = Topology::contiguous(6, 2).unwrap().digest();
        let b = Topology::contiguous(6, 3).unwrap().digest();
        let c = Topology::contiguous(7, 2).unwrap().digest();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, Topology::contiguous(6, 2).unwrap().digest());
    }
}
