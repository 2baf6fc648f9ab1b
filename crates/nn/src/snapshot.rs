//! Network ⇄ snapshot-container bridging.
//!
//! Two sections describe a network completely:
//!
//! * `"net"` — the parameters, in the snapshot codec every other
//!   section uses: stage count, then per stage a count-prefixed tensor
//!   list (rank, dims, bit-exact `f32` data). Only parameters are stored
//!   here; optimizer state (velocities, weight-version queues) travels in
//!   the engines' own sections.
//! * `"net.state"` — per-layer non-parameter state (batch-norm running
//!   statistics, online-norm streaming control variables, dropout RNG
//!   position), keyed positionally: stage count, then per stage the
//!   layer count and one optional byte buffer per layer.
//!
//! Activation stashes are deliberately absent: snapshots are only taken
//! with an empty pipeline (nothing in flight), which every engine
//! guarantees between training calls.

use crate::network::Network;
use pbp_snapshot::{SnapshotArchive, SnapshotBuilder, SnapshotError, StateReader, StateWriter};

/// Section holding the parameters.
pub const SECTION_NET: &str = "net";

/// Section holding per-layer non-parameter state.
pub const SECTION_NET_STATE: &str = "net.state";

/// Adds the `"net"` and `"net.state"` sections for `net` to a builder.
pub fn write_network(net: &Network, snap: &mut SnapshotBuilder) {
    let mut w = StateWriter::new();
    w.put_u32(net.num_stages() as u32);
    for stage in net.stages() {
        w.put_tensor_refs(&stage.params());
    }
    snap.add_section(SECTION_NET, w.into_bytes());

    let mut w = StateWriter::new();
    w.put_u32(net.num_stages() as u32);
    for stage in net.stages() {
        w.put_u32(stage.layers().len() as u32);
        for layer in stage.layers() {
            match layer.state_bytes() {
                Some(bytes) => {
                    w.put_bool(true);
                    w.put_bytes(&bytes);
                }
                None => w.put_bool(false),
            }
        }
    }
    snap.add_section(SECTION_NET_STATE, w.into_bytes());
}

/// Restores parameters and per-layer state for `net` from an archive.
///
/// The network must have the same architecture the snapshot was taken
/// from; layout disagreements are reported as typed errors.
pub fn read_network(net: &mut Network, archive: &SnapshotArchive) -> Result<(), SnapshotError> {
    let mut r = StateReader::new(archive.section(SECTION_NET)?);
    let stages = r.take_u32()? as usize;
    if stages != net.num_stages() {
        return Err(SnapshotError::Mismatch(format!(
            "checkpoint has {stages} stages, network has {}",
            net.num_stages()
        )));
    }
    for s in 0..stages {
        let mut params = net.stage_mut(s).params_mut();
        let stored = r.take_u32()? as usize;
        if stored != params.len() {
            return Err(SnapshotError::Mismatch(format!(
                "stage {s}: checkpoint has {stored} tensors, network has {}",
                params.len()
            )));
        }
        for (i, param) in params.iter_mut().enumerate() {
            let tensor = r.take_tensor()?;
            if tensor.shape() != param.shape() {
                return Err(SnapshotError::Mismatch(format!(
                    "stage {s} param {i}: checkpoint shape {:?} vs network {:?}",
                    tensor.shape(),
                    param.shape()
                )));
            }
            param.as_mut_slice().copy_from_slice(tensor.as_slice());
        }
    }
    r.finish()?;

    let mut r = StateReader::new(archive.section(SECTION_NET_STATE)?);
    let stages = r.take_u32()? as usize;
    if stages != net.num_stages() {
        return Err(SnapshotError::Mismatch(format!(
            "net state has {stages} stages, network has {}",
            net.num_stages()
        )));
    }
    for s in 0..stages {
        let stage = net.stage_mut(s);
        let layers = r.take_u32()? as usize;
        if layers != stage.layers().len() {
            return Err(SnapshotError::Mismatch(format!(
                "stage {s}: state has {layers} layers, stage has {}",
                stage.layers().len()
            )));
        }
        for (l, layer) in stage.layers_mut().iter_mut().enumerate() {
            let has_state = r.take_bool()?;
            let stored = has_state.then(|| r.take_bytes()).transpose()?;
            match (stored, layer.state_bytes().is_some()) {
                (Some(bytes), true) => layer.load_state_bytes(bytes)?,
                (None, false) => {}
                (stored, expects) => {
                    return Err(SnapshotError::Mismatch(format!(
                        "stage {s} layer {l} ({}): stored state {}, layer expects {}",
                        layer.name(),
                        if stored.is_some() {
                            "present"
                        } else {
                            "absent"
                        },
                        if expects { "present" } else { "absent" },
                    )))
                }
            }
        }
    }
    r.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{BatchNorm2d, Dropout, Linear, OnlineNorm, Relu};
    use crate::network::Stage;
    use pbp_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn stateful_net(seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        Network::new(vec![
            Stage::new(
                "conv-ish",
                vec![
                    Box::new(Linear::new(8, 8, true, &mut rng)),
                    Box::new(Dropout::new(0.3, 99)),
                ],
            ),
            Stage::new(
                "norms",
                vec![
                    Box::new(BatchNorm2d::new(2)),
                    Box::new(OnlineNorm::new(2)),
                    Box::new(Relu::new()),
                ],
            ),
        ])
    }

    fn drive_stateful_layers(net: &mut Network) {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..5 {
            // Stage 0 path: vector through linear + dropout.
            let mut stack = vec![pbp_tensor::normal(&[1, 8], 0.0, 1.0, &mut rng)];
            net.stage_mut(0).forward(&mut stack);
            net.stage_mut(0).clear_stash();
            // Stage 1 path: NCHW image through the norm layers.
            let mut stack = vec![pbp_tensor::normal(&[1, 2, 3, 3], 1.0, 2.0, &mut rng)];
            net.stage_mut(1).forward(&mut stack);
            net.stage_mut(1).clear_stash();
        }
    }

    #[test]
    fn layer_state_round_trips_through_the_container() {
        let mut net = stateful_net(1);
        drive_stateful_layers(&mut net);

        let mut restored = stateful_net(1);
        read_network(&mut restored, &archived(&net)).unwrap();

        // Every stateful layer must report byte-identical state, and the
        // restored dropout RNG must continue the original's sequence.
        for s in 0..net.num_stages() {
            for (a, b) in net.stage(s).layers().iter().zip(restored.stage(s).layers()) {
                assert_eq!(a.state_bytes(), b.state_bytes(), "stage {s}");
            }
        }
        drive_stateful_layers(&mut net);
        drive_stateful_layers(&mut restored);
        for s in 0..net.num_stages() {
            for (a, b) in net.stage(s).layers().iter().zip(restored.stage(s).layers()) {
                assert_eq!(a.state_bytes(), b.state_bytes(), "post-drive stage {s}");
            }
        }
    }

    /// Builds an archive holding `net`.
    fn archived(net: &Network) -> SnapshotArchive {
        let mut builder = SnapshotBuilder::new();
        write_network(net, &mut builder);
        SnapshotArchive::from_bytes(&builder.to_bytes()).unwrap()
    }

    #[test]
    fn parameters_round_trip_bit_exactly() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = crate::models::simple_cnn(3, 6, 3, 4, &mut rng);
        let mut rng = StdRng::seed_from_u64(999); // different init
        let mut other = crate::models::simple_cnn(3, 6, 3, 4, &mut rng);
        read_network(&mut other, &archived(&net)).unwrap();
        for s in 0..net.num_stages() {
            for (p, q) in net.stage(s).params().iter().zip(other.stage(s).params()) {
                assert_eq!(p.as_slice(), q.as_slice(), "stage {s}");
            }
        }
    }

    /// A `"net"` section that is not one — foreign bytes, or a real one
    /// cut short — is typed corruption, whatever the bytes claim.
    #[test]
    fn foreign_or_truncated_net_sections_are_typed_errors() {
        let mut rng = StdRng::seed_from_u64(1);
        let net = crate::models::mlp(&[2, 4, 2], &mut rng);
        let good = archived(&net);
        let whole = good.section(SECTION_NET).unwrap();
        let sections: [&[u8]; 3] = [
            b"definitely not a checkpoint",
            &whole[..whole.len() / 2],
            &[whole, &[0u8][..]].concat(),
        ];
        for bytes in sections {
            let mut builder = SnapshotBuilder::new();
            builder.add_section(SECTION_NET, bytes.to_vec());
            builder.add_section(
                SECTION_NET_STATE,
                good.section(SECTION_NET_STATE).unwrap().to_vec(),
            );
            let archive = SnapshotArchive::from_bytes(&builder.to_bytes()).unwrap();
            let mut target = crate::models::mlp(&[2, 4, 2], &mut rng);
            let err = read_network(&mut target, &archive).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Corrupt(_) | SnapshotError::Mismatch(_)),
                "{err}"
            );
        }
    }

    /// Each layout check, by its message: stage count, tensor count,
    /// shape per tensor.
    #[test]
    fn architecture_mismatch_is_typed_error() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut linear = |width: usize, bias: bool| {
            let layer = Linear::new(4, width, bias, &mut rng);
            Network::new(vec![Stage::new("fc", vec![Box::new(layer)])])
        };
        let cases = [
            (archived(&stateful_net(4)), linear(6, true), "2 stages"),
            (archived(&linear(6, true)), linear(6, false), "2 tensors"),
            (archived(&linear(6, true)), linear(8, true), "shape"),
        ];
        for (archive, mut other, what) in cases {
            let err = read_network(&mut other, &archive).unwrap_err();
            assert!(matches!(err, SnapshotError::Mismatch(_)), "{err}");
            assert!(err.to_string().contains(what), "{what}: {err}");
        }
    }

    #[test]
    fn missing_sections_are_typed_errors() {
        let archive = SnapshotArchive::from_bytes(&SnapshotBuilder::new().to_bytes()).unwrap();
        let mut net = stateful_net(6);
        let err = read_network(&mut net, &archive).unwrap_err();
        assert!(matches!(err, SnapshotError::MissingSection(_)), "{err}");
    }

    #[test]
    fn stateless_layer_rejects_unexpected_state_buffer() {
        let mut relu = Relu::new();
        let err = crate::Layer::load_state_bytes(&mut relu, &[1, 2, 3]).unwrap_err();
        assert!(matches!(err, SnapshotError::Mismatch(_)), "{err}");
        let _ = Tensor::zeros(&[1]);
    }
}
