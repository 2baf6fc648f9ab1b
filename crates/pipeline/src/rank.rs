//! The one rank loop (DESIGN §12 is the full description).
//!
//! A pipeline worker does one thing (paper §2, Fig. 2): take an
//! activation from upstream, run its stages, hand the result on, and
//! later take the gradient back. [`RankLoop`] is that worker — a
//! [`StageGroup`] plus the one scheduling decision above it,
//! [`RankLoop::next_step`] — and a [`Link`] is what joins two of them:
//! in-process channels under [`ThreadedPipeline`](crate::ThreadedPipeline),
//! sockets under `pbp-dist`, in-memory queues on a virtual cost clock under
//! [`VirtualHost`](crate::VirtualHost), which draws the schedule, nothing
//! at all in the world of one that is [`ScheduledTrainer`](crate::ScheduledTrainer).
//! Only [`RankLoop::step`] drives a group. Fill&drain, PB, 1F1B and 2BP
//! differ only in the version lags and in-flight caps the plan hands the
//! group, never in this loop. Waiting policy (bounded waits, heartbeats, abort flags, stall
//! windows, reconnects) belongs to the link; fault and snapshot hooks
//! belong to the caller, keyed off the [`Step`] the loop reports.

use crate::engine::batch_of_one;
use crate::group::StageGroup;
use pbp_nn::{LaneStack, Stage};
use pbp_tensor::Tensor;
use std::collections::VecDeque;
use std::time::Instant;

/// What crosses a [`Link`], in microbatch order and exactly once.
#[derive(Debug)]
pub enum Message {
    /// Microbatch `mb`'s forward activations, flowing downstream; the
    /// label rides along so only the loss-owning rank needs the dataset.
    Activation {
        mb: usize,
        label: usize,
        lanes: LaneStack,
    },
    /// Microbatch `mb`'s input gradients, flowing upstream with its loss,
    /// so every rank accumulates the identical f64 loss sum.
    Gradient {
        mb: usize,
        loss: f32,
        lanes: LaneStack,
    },
}

impl Message {
    /// The activation that feeds sample `x` (no batch dimension) into the
    /// first stage as microbatch `mb`.
    pub fn sample(mb: usize, x: &Tensor, label: usize) -> Message {
        Message::Activation {
            mb,
            label,
            lanes: vec![batch_of_one(x)],
        }
    }

    /// The step this message is the input of.
    pub fn step(&self) -> Step {
        match *self {
            Message::Activation { mb, .. } => Step::Forward(mb),
            Message::Gradient { mb, .. } => Step::Backward(mb),
        }
    }
}

/// One end of a connection between adjacent ranks.
pub trait Link {
    /// Why a message could not be moved.
    type Error;

    /// Hands `msg` to the peer.
    fn send(&mut self, msg: Message) -> Result<(), Self::Error>;

    /// Waits for the peer's next message.
    fn recv(&mut self) -> Result<Message, Self::Error>;
}

/// Where a rank's activations come from.
pub enum Upstream<'a, L> {
    /// Rank 0, on every host: the closure yields microbatch `mb`'s
    /// [`Message::sample`], so no thread or process but the rank's own
    /// handles a sample on its way in.
    Feed(&'a mut dyn FnMut(usize) -> Message),
    /// Every other rank: the link to the rank above.
    Link(&'a mut L),
}

/// One unit of a rank's work, tagged with its global microbatch index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    Forward(usize),
    Backward(usize),
}

/// Why [`RankLoop::step`] did not run.
#[derive(Debug, PartialEq)]
pub enum RankError<E> {
    /// The link failed.
    Link(E),
    /// The link delivered `got`'s input where `expected`'s was due;
    /// nothing was executed.
    Desync { expected: Step, got: Step },
}

/// A rank of the pipeline (see the module docs).
pub struct RankLoop {
    /// The rank's executor: cursors, counters, cells. Only
    /// [`RankLoop::step`] runs it; between steps the caller may trace,
    /// snapshot and — with nothing in flight — restore it.
    pub group: StageGroup,
    /// Loss gradients awaiting their backward turn (last rank only).
    pending: VecDeque<(Tensor, f32)>,
    /// Sum of the losses of every completed microbatch, in microbatch
    /// order.
    pub loss_sum: f64,
    /// The loss of the microbatch the latest backward retired.
    pub last_loss: f32,
    /// Wall-clock nanoseconds spent in successful [`RankLoop::step`]s,
    /// link waits included.
    pub train_ns: u128,
}

impl RankLoop {
    /// A rank executing `group`, with nothing in flight.
    pub fn new(group: StageGroup) -> Self {
        RankLoop {
            group,
            pending: VecDeque::new(),
            loss_sum: 0.0,
            last_loss: 0.0,
            train_ns: 0,
        }
    }

    /// The scheduling decision: forward microbatch `forwarded()` while it
    /// is below `fwd_limit` — the end of the call, or an earlier drain
    /// barrier — and the group's run-ahead rule allows; otherwise retire
    /// backward `completed()`; `None` once nothing is in flight either.
    pub fn next_step(&self, fwd_limit: usize) -> Option<Step> {
        let (fwd, bwd) = (self.group.forwarded(), self.group.completed());
        if fwd < fwd_limit && self.group.can_forward() {
            Some(Step::Forward(fwd))
        } else if bwd < fwd {
            Some(Step::Backward(bwd))
        } else {
            None
        }
    }

    /// Runs [`RankLoop::next_step`] on `stages` (the group's slice of the
    /// network) and reports it. A forward takes its activation from `up`
    /// and sends the result `down`, or — on the last rank, which has no
    /// downstream link — computes the loss and queues its gradient; a
    /// backward takes its gradient from `down` (or the queue) and sends
    /// the input gradient on to an upstream link.
    pub fn step<L: Link>(
        &mut self,
        stages: &mut [Stage],
        up: Upstream<'_, L>,
        down: Option<&mut L>,
        fwd_limit: usize,
    ) -> Result<Option<Step>, RankError<L::Error>> {
        let Some(step) = self.next_step(fwd_limit) else {
            return Ok(None);
        };
        let start = Instant::now();
        let desync = |msg: Message| RankError::Desync {
            expected: step,
            got: msg.step(),
        };
        match step {
            Step::Forward(mb) => {
                let msg = match up {
                    Upstream::Feed(feed) => feed(mb),
                    Upstream::Link(link) => link.recv().map_err(RankError::Link)?,
                };
                let (label, mut lanes) = match msg {
                    Message::Activation {
                        mb: m,
                        label,
                        lanes,
                    } if m == mb => (label, lanes),
                    msg => return Err(desync(msg)),
                };
                self.group.forward(stages, &mut lanes, mb);
                if let Some(link) = down {
                    let msg = Message::Activation { mb, label, lanes };
                    link.send(msg).map_err(RankError::Link)?;
                } else {
                    assert_eq!(lanes.len(), 1, "network must reduce to a single lane");
                    let (loss, grad) = self.group.loss(&lanes[0], label);
                    self.pending.push_back((grad, loss));
                }
            }
            Step::Backward(mb) => {
                let (loss, mut lanes) = match down {
                    Some(link) => match link.recv().map_err(RankError::Link)? {
                        Message::Gradient { mb: m, loss, lanes } if m == mb => (loss, lanes),
                        msg => return Err(desync(msg)),
                    },
                    None => {
                        let queued = self.pending.pop_front();
                        let (grad, loss) = queued.expect("one queued gradient per microbatch");
                        (loss, vec![grad])
                    }
                };
                self.loss_sum += loss as f64;
                self.last_loss = loss;
                self.group.backward(stages, &mut lanes, mb);
                // Under `Upstream::Feed` the group owns stage 0, whose cell
                // leaves no input gradient: nothing goes upstream.
                if let Upstream::Link(link) = up {
                    let msg = Message::Gradient { mb, loss, lanes };
                    link.send(msg).map_err(RankError::Link)?;
                }
            }
        }
        self.train_ns += start.elapsed().as_nanos();
        Ok(Some(step))
    }
}

#[cfg(test)]
mod tests {
    //! The ordering contract, checked rather than soaked: the loops of a
    //! [`VirtualHost`], stepped on its cost clock or in whatever legal order
    //! a proptest picks, must match a plain sweep of the whole network bit
    //! for bit. The sweep is this module's own ([`Reference`]): every
    //! engine, the sequential one included, is a `RankLoop`, so none of
    //! them can be the yardstick.

    use super::*;
    use crate::engine::TrainEngine;
    use crate::metrics::StageCounters;
    use crate::scheduled::{ScheduledConfig, ScheduledTrainer};
    use crate::timeline::VirtualHost;
    use pbp_data::{spirals, Dataset};
    use pbp_nn::models::mlp;
    use pbp_nn::Network;
    use pbp_optim::{scale_hyperparams, Hyperparams, LrSchedule, Mitigation};
    use pbp_trace::Tracer;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const LAYERS: [usize; 6] = [2, 8, 8, 8, 8, 3];
    const SAMPLES: usize = 24;

    fn schedule() -> LrSchedule {
        LrSchedule::constant(scale_hyperparams(Hyperparams::new(0.1, 0.9), 8, 1))
    }

    fn fresh_net() -> Network {
        mlp(&LAYERS, &mut StdRng::seed_from_u64(5))
    }

    fn data() -> Dataset {
        spirals(3, 8, 0.05, 3)
    }

    fn configs() -> Vec<ScheduledConfig> {
        vec![
            ScheduledConfig::pb(schedule()),
            ScheduledConfig::pb(schedule()).with_mitigation(Mitigation::lwpv_scd()),
            ScheduledConfig::pb(schedule()).with_weight_stashing(),
            ScheduledConfig::one_f_one_b(4, schedule()),
            ScheduledConfig::two_bp(4, schedule()),
            ScheduledConfig::fill_drain(4, schedule()),
        ]
    }

    /// `workers` loops over a fresh network, to run `SAMPLES` microbatches.
    fn host(config: &ScheduledConfig, workers: usize) -> VirtualHost {
        VirtualHost::new(fresh_net(), config, workers, SAMPLES, &Tracer::disabled())
    }

    /// Loop 0's feed: microbatch `mb` is sample `mb` of `data`, cyclically.
    fn feed(data: &Dataset) -> impl FnMut(usize) -> Message + '_ {
        |mb| {
            let (x, label) = data.sample(mb % data.len());
            Message::sample(mb, x, label)
        }
    }

    /// What `SAMPLES` microbatches must come to, computed without
    /// [`RankLoop::step`]: the three direct calls on a whole-network group,
    /// one microbatch at a time.
    struct Reference {
        losses: Vec<f32>,
        net: Network,
        group: StageGroup,
    }

    impl Reference {
        fn run(config: &ScheduledConfig) -> Reference {
            let data = data();
            let mut net = fresh_net();
            let mut group = StageGroup::new(&net, 0..net.num_stages(), config);
            let mut losses = Vec::new();
            for mb in 0..SAMPLES {
                let (x, label) = data.sample(mb % data.len());
                let mut stack = vec![batch_of_one(x)];
                group.forward(net.stages_mut(), &mut stack, mb);
                let (loss, grad) = group.loss(&stack[0], label);
                group.backward(net.stages_mut(), &mut vec![grad], mb);
                losses.push(loss);
            }
            Reference { losses, net, group }
        }

        /// Per-microbatch f32 losses, update counts, Eq. 5 histograms and
        /// weights, all bit for bit.
        fn assert_matches<'a>(
            &self,
            context: &str,
            losses: &[f32],
            counters: impl Iterator<Item = &'a StageCounters>,
            stages: impl Iterator<Item = &'a Stage>,
        ) {
            assert_eq!(losses, self.losses, "{context}: loss record");
            for (s, (got, want)) in counters.zip(self.group.counters()).enumerate() {
                assert_eq!(got.updates, want.updates, "{context}: stage {s} updates");
                assert_eq!(
                    got.delay_hist, want.delay_hist,
                    "{context}: stage {s} delays"
                );
            }
            for (s, stage) in stages.enumerate() {
                for (p, q) in stage.params().iter().zip(self.net.stage(s).params()) {
                    assert_eq!(p.as_slice(), q.as_slice(), "{context}: stage {s} weights");
                }
            }
        }
    }

    /// Holds a host whose loops stopped to the reference sweep: every loop
    /// done, with the reference's f64 loss sum, and loop 0's loss record,
    /// the histograms and the weights bit for bit.
    fn assert_finished(host: &VirtualHost, config: &ScheduledConfig, context: &str) {
        let reference = Reference::run(config);
        let want_sum: f64 = reference.losses.iter().map(|&l| l as f64).sum();
        for (r, rank) in host.loops.iter().enumerate() {
            assert_eq!(rank.next_step(SAMPLES), None, "{context}: rank {r} stuck");
            assert_eq!(rank.group.completed(), SAMPLES, "{context}: rank {r}");
            assert_eq!(
                rank.loss_sum.to_bits(),
                want_sum.to_bits(),
                "{context}: rank {r} loss sum"
            );
        }
        let counters = host.loops.iter().flat_map(|rank| rank.group.counters());
        let stages = host.stages.iter().flatten();
        reference.assert_matches(context, &host.losses, counters, stages);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        // Which ready loop steps next: `prefer` narrows the choice to loops
        // about to run that kind of step when there are any (`Some(false)`
        // = strictly backward-first, `Some(true)` = maximally
        // forward-greedy), `picks` breaks the remaining ties.
        #[test]
        fn any_legal_interleaving_matches_the_reference_sweep(
            world in 2usize..=4,
            prefer in 0usize..3,
            picks in proptest::collection::vec(0usize..64, 1..48),
        ) {
            let prefer = [None, Some(false), Some(true)][prefer];
            let data = data();
            for config in configs() {
                let context = format!("{} world {world} prefer {prefer:?}", config.label());
                let mut host = host(&config, world);
                for turn in 0.. {
                    let ready: Vec<(usize, Step)> =
                        (0..world).filter_map(|r| Some((r, host.ready(r)?.0))).collect();
                    let forward = |&(_, step): &(usize, Step)| matches!(step, Step::Forward(_));
                    let preferred: Vec<(usize, Step)> = ready
                        .iter()
                        .copied()
                        .filter(|pick| prefer.is_none_or(|fwd| forward(pick) == fwd))
                        .collect();
                    let pool = if preferred.is_empty() { &ready } else { &preferred };
                    if pool.is_empty() {
                        break;
                    }
                    let (r, step) = pool[picks[turn % picks.len()] % pool.len()];
                    assert_eq!(host.step(r, &mut feed(&data)), Ok(Some(step)), "{context}");
                }
                assert_finished(&host, &config, &context);
            }
        }
    }

    /// Stepped earliest-first on the cost clock — one loop, two, and one
    /// per stage — the host's run is a run of the executor.
    #[test]
    fn the_virtual_clock_run_matches_the_reference_sweep() {
        let data = data();
        for config in configs() {
            for world in [1, 2, LAYERS.len() - 1] {
                let mut host = host(&config, world);
                host.run(&mut feed(&data));
                let context = format!("{} on the clock, world {world}", config.label());
                assert_finished(&host, &config, &context);
            }
        }
    }

    /// The sequential engine is that world of one: `train_sample` returns
    /// the reference's f32 losses and leaves its weights and histograms.
    #[test]
    fn the_sequential_engine_matches_the_reference_sweep() {
        let data = data();
        for config in configs() {
            let reference = Reference::run(&config);
            let mut engine = ScheduledTrainer::new(fresh_net(), config.clone());
            let losses: Vec<f32> = (0..SAMPLES)
                .map(|mb| {
                    let (x, label) = data.sample(mb % data.len());
                    engine.train_sample(x, label)
                })
                .collect();
            let metrics = TrainEngine::metrics(&engine);
            let net = engine.into_network();
            let stages = (0..net.num_stages()).map(|s| net.stage(s));
            reference.assert_matches(&config.label(), &losses, metrics.stages.iter(), stages);
        }
    }

    #[test]
    fn a_desynchronized_link_is_a_typed_error() {
        let config = ScheduledConfig::pb(schedule());
        let data = data();
        let (x, label) = data.sample(0);
        // The feed hands rank 0 the wrong microbatch.
        let mut host = host(&config, 2);
        let mut wrong = |mb: usize| Message::sample(mb + 5, x, label);
        assert_eq!(
            host.step(0, &mut wrong),
            Err(RankError::Desync {
                expected: Step::Forward(0),
                got: Step::Forward(5),
            })
        );
        // The link hands rank 1 a later activation, then a gradient where
        // an activation is due.
        let mut unused = |_: usize| unreachable!("rank 1 has an upstream link");
        let later = Message::sample(3, x, label);
        host.acts[0].borrow_mut().push_back((0, later));
        assert_eq!(
            host.step(1, &mut unused),
            Err(RankError::Desync {
                expected: Step::Forward(0),
                got: Step::Forward(3),
            })
        );
        let gradient = Message::Gradient {
            mb: 0,
            loss: 0.0,
            lanes: Vec::new(),
        };
        host.acts[0].borrow_mut().push_back((0, gradient));
        assert_eq!(
            host.step(1, &mut unused),
            Err(RankError::Desync {
                expected: Step::Forward(0),
                got: Step::Backward(0),
            })
        );
        // Nothing ran: the group's cursors have not moved.
        assert_eq!(host.loops[1].group.forwarded(), 0);
        // A link failure passes through untouched.
        assert_eq!(
            host.step(1, &mut unused),
            Err(RankError::Link("empty wire"))
        );
    }
}
