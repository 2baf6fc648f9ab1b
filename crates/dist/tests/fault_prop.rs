//! The wire half of the one fault script
//! ([`FaultPlan`](pbp_pipeline::FaultPlan); its script-level properties
//! live beside it in `pbp_pipeline::fault`), driven through the session
//! layer that applies it: every injected corruption must surface from a
//! [`ReliableConn`] as a typed [`DistError`] — never a panic, never a
//! livelock — with delivery exactly-once and in order up to the first
//! loss, arbitrary duplicate storms must be discarded, control frames
//! must not count as data, and a process rank must refuse the rank
//! kinds it has no seam for.

use pbp_dist::codec::Frame;
use pbp_dist::reliable::{LinkEndpoint, LinkIdentity, LinkOptions, ReliableConn};
use pbp_dist::transport::{loopback_pair, Connection};
use pbp_dist::{run_rank, DistError, RankRecovery, RankSpec, Topology};
use pbp_pipeline::{FaultPlan, FaultSpec, LinkDir, LinkFault, MicrobatchSchedule};
use pbp_tensor::Tensor;
use proptest::prelude::*;
use std::time::Duration;

const STALL: Duration = Duration::from_millis(500);

fn activation(microbatch: u64) -> Frame {
    Frame::Activation {
        seq: 0,
        microbatch,
        weight_version: 0,
        label: 3,
        lanes: vec![Tensor::from_vec(vec![microbatch as f32; 4], &[4]).unwrap()],
    }
}

fn gradient(microbatch: u64) -> Frame {
    Frame::Gradient {
        seq: 0,
        microbatch,
        weight_version: 0,
        loss: 0.25,
        lanes: vec![Tensor::from_vec(vec![1.0; 4], &[4]).unwrap()],
    }
}

fn microbatch_of(frame: &Frame) -> u64 {
    match frame {
        Frame::Activation { microbatch, .. } | Frame::Gradient { microbatch, .. } => *microbatch,
        other => panic!("expected data frame, got {}", other.kind_name()),
    }
}

fn identity(my_rank: u32, peer_rank: u32) -> LinkIdentity {
    LinkIdentity {
        my_rank,
        peer_rank,
        world: 2,
        digest: 99,
    }
}

/// The receiving end of link 0 under `plan`, over a fixed loopback
/// connection (no reconnect: every wire fault surfaces), its peer's
/// hello already on the wire. Returns it with the raw sending end.
fn faulted_receiver(plan: &FaultPlan) -> (ReliableConn, impl Connection) {
    let (mut a, b_end) = loopback_pair();
    a.send(&Frame::Hello {
        rank: 0,
        world: 2,
        digest: 99,
        epoch: 0,
        last_seq: 0,
    })
    .unwrap();
    let mut b = ReliableConn::new(
        LinkEndpoint::Conn(Box::new(b_end)),
        identity(1, 0),
        LinkOptions {
            injector: plan.link_injector(0, LinkDir::Down),
            stall: STALL,
            ..LinkOptions::default()
        },
    );
    b.establish().expect("handshake over loopback");
    (b, a)
}

/// `activation(mb)` as the sender's session layer would stamp it.
fn sequenced(mb: u64) -> Frame {
    let mut frame = activation(mb);
    frame.set_seq(mb + 1);
    frame
}

proptest! {
    // Each case ships real frames through the codec (and may sleep on
    // Delay faults), so keep the case count moderate.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn arbitrary_fault_plans_yield_typed_errors_never_panics(
        seed in 0u64..u64::MAX,
        frames in 1u64..24,
    ) {
        let plan = FaultPlan::random(seed, 0, 1, frames);
        let (mut b, mut a) = faulted_receiver(&plan);
        for mb in 0..frames {
            a.send(&sequenced(mb)).map_err(|e| TestCaseError::fail(e.to_string()))?;
        }
        drop(a); // sender gone: the tail of the stream is a clean close
        let mut delivered = Vec::new();
        let mut closed = false;
        // Every receive consumes at least one wire frame or the close —
        // this bound can only be hit by a livelock.
        for _ in 0..2 * frames + 8 {
            match b.recv_data(STALL) {
                Ok(frame) => delivered.push(microbatch_of(&frame)),
                Err(DistError::PeerClosed) => {
                    closed = true;
                    break;
                }
                // A damaged frame, or the sequence gap a lost one leaves.
                Err(DistError::Corrupt(_) | DistError::ChecksumMismatch) => {}
                Err(other) => {
                    return Err(TestCaseError::fail(format!(
                        "fault surfaced as untyped error: {other:?}"
                    )))
                }
            }
        }
        prop_assert!(closed, "receive loop never saw the close: {delivered:?}");
        // Whatever was dropped or damaged, what the session delivers is
        // exactly-once and in order: a prefix of what was sent (with no
        // reconnect budget nothing past the first loss can be delivered).
        let prefix: Vec<u64> = (0..delivered.len() as u64).collect();
        prop_assert_eq!(&delivered, &prefix, "plan {}", plan.spec_string());
        let lossless = plan.link_specs().iter().all(|(_, dir, spec)| {
            *dir == LinkDir::Up || matches!(spec.kind, LinkFault::Duplicate | LinkFault::Delay(_))
        });
        if lossless {
            prop_assert_eq!(delivered.len() as u64, frames, "plan {}", plan.spec_string());
        }
    }
}

/// Control frames pass through un-faulted and un-counted: the flip
/// scripted for data frame 1 lands on the second *data* frame however
/// many heartbeats precede it, and surfaces typed.
#[test]
fn heartbeats_are_not_data_frames() {
    let flip = FaultSpec::new(1, LinkFault::BitFlip);
    let plan = FaultPlan::new(0).at_link(0, LinkDir::Down, flip);
    let (mut b, mut a) = faulted_receiver(&plan);
    a.send(&sequenced(0)).unwrap();
    for beat in 0..3 {
        a.send(&Frame::Heartbeat { rank: 0, beat }).unwrap();
    }
    a.send(&sequenced(1)).unwrap();
    assert_eq!(microbatch_of(&b.recv_data(STALL).unwrap()), 0);
    assert!(matches!(
        b.recv_data(STALL),
        Err(DistError::ChecksumMismatch)
    ));
}

/// Outside input: a plan asking a rank *process* to stall, sever or
/// jitter is a bad spec, not a silently clean run.
#[test]
fn a_process_rank_refuses_rank_kinds_it_cannot_apply() {
    use rand::SeedableRng;
    for clause in ["rank:0:stall:5@3", "rank:0:sever@3", "rank:0:jitter:2@3"] {
        let spec = RankSpec {
            rank: 0,
            topology: Topology::contiguous(2, 1).unwrap(),
            plan: MicrobatchSchedule::PipelinedBackprop,
            mitigation: pbp_optim::Mitigation::None,
            weight_stashing: false,
            schedule: pbp_optim::LrSchedule::constant(pbp_optim::Hyperparams::new(0.05, 0.9)),
            seed: 1,
            total_microbatches: 4,
            stall: STALL,
            snapshots: None,
            resume_at: 0,
            abort_after: None,
            recovery: RankRecovery {
                net_faults: Some(FaultPlan::parse(clause).unwrap()),
                ..RankRecovery::default()
            },
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let net = pbp_nn::models::mlp(&[2, 4, 3], &mut rng);
        let data = pbp_data::spirals(3, 4, 0.05, 2);
        match run_rank(net, &data, &spec, None, None, None) {
            Err(DistError::Spec(msg)) => assert!(msg.contains("can only crash"), "{msg}"),
            other => panic!(
                "{clause}: expected a spec error, got {:?}",
                other.map(|_| ())
            ),
        }
    }
}

proptest! {
    // Each case spins up a two-thread reliable session.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn duplicate_storms_are_discarded_exactly_once(
        dup_frames in proptest::collection::vec(0u64..8, 1..5),
    ) {
        const SENDS: u64 = 8;
        let dup_frames: std::collections::BTreeSet<u64> = dup_frames.into_iter().collect();
        let mut plan = FaultPlan::new(0);
        for &frame in &dup_frames {
            plan = plan.at_link(0, LinkDir::Down, FaultSpec::new(frame, LinkFault::Duplicate));
        }
        let (a_end, b_end) = loopback_pair();
        let b_injector = plan.link_injector(0, LinkDir::Down);
        let b_thread = std::thread::spawn(move || {
            let mut b = ReliableConn::new(
                LinkEndpoint::Conn(Box::new(b_end)),
                identity(1, 0),
                LinkOptions {
                    injector: b_injector,
                    stall: STALL,
                    ..LinkOptions::default()
                },
            );
            b.establish()?;
            let mut got = Vec::new();
            for _ in 0..SENDS {
                got.push(microbatch_of(&b.recv_data(STALL)?));
            }
            b.send(&gradient(0))?;
            Ok::<_, DistError>(got)
        });
        let mut a = ReliableConn::new(
            LinkEndpoint::Conn(Box::new(a_end)),
            identity(0, 1),
            LinkOptions {
                stall: STALL,
                ..LinkOptions::default()
            },
        );
        a.establish().map_err(|e| TestCaseError::fail(e.to_string()))?;
        for mb in 0..SENDS {
            a.send(&activation(mb)).map_err(|e| TestCaseError::fail(e.to_string()))?;
        }
        // Receiving the return gradient forces A through the ack stream.
        let grad = a.recv_data(STALL).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(microbatch_of(&grad), 0);
        let got = b_thread
            .join()
            .expect("receiver thread panicked")
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        // Every microbatch exactly once, in order — no matter where the
        // duplicate storm landed.
        prop_assert_eq!(got, (0..SENDS).collect::<Vec<_>>());
        prop_assert_eq!(a.replay_len(), 0);
        prop_assert_eq!(a.reconnects(), 0);
    }
}
