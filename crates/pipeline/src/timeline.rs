//! The schedule diagram as a run of the executor: [`VirtualHost`] steps W
//! [`RankLoop`]s on one thread, on a virtual cost clock, and draws what
//! they ran into the trace's virtual process ([`pbp_trace::PID_VIRTUAL`]).
//!
//! A wall-clock trace cannot show the bubbles a schedule costs W workers.
//! The host runs them: W loops over [`partition_bounds`] of the
//! [`stage_cost`]s, joined by in-memory queue links whose every message
//! carries the virtual time it was sent. It always steps the loop whose
//! [`RankLoop::next_step`] can start earliest — the later of its previous
//! step's end and its input's arrival — and charges each action its
//! [`action_cost`] (flop-equivalents, drawn as nanoseconds) as one span on
//! its stage's lane `sched-stage-{s}`, tagged like the wall-clock span
//! [`StageGroup`] records for it: Figure 2, drawn by the code that runs it.
//! [`VirtualHost::bubble_fraction`] is the idle share of W loops × the
//! makespan.
//!
//! Fill&drain (version lag 0) drains after every microbatch, here as in the
//! executor: at W = S its bubble is exactly `1 − 1/S`, whatever the update
//! size. The Eq. 1 grids of [`ScheduleModel`](crate::ScheduleModel), which
//! stream an update window before draining, stay the analytic model.
//!
//! Costs are read once, before the first step: a convolution whose builder
//! did not say its input size is costed by its parameters for the whole
//! run (see [`stage_cost`]). `rank.rs`'s interleaving proptest steps the
//! same host in whatever ready order it picks.

use crate::group::{action_cost, partition_bounds, stage_cost, StageGroup, ACTION_PHASES};
use crate::rank::{Link, Message, RankError, RankLoop, Step, Upstream};
use crate::scheduled::ScheduledConfig;
use pbp_nn::{Network, Stage};
use pbp_trace::{Lane, TracePhase, Tracer, PID_VIRTUAL};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

/// One direction of a queue link: messages in send order, each with the
/// virtual time it was sent.
pub(crate) type Wire = Rc<RefCell<VecDeque<(u64, Message)>>>;

/// A loop's end of a queue link for one step, stamping what it sends with
/// the step's end. An empty wire is an error, so a loop stepped before its
/// input arrived fails instead of hanging.
struct QueueLink {
    tx: Wire,
    rx: Wire,
    sent: u64,
}

impl Link for QueueLink {
    type Error = &'static str;

    fn send(&mut self, msg: Message) -> Result<(), Self::Error> {
        self.tx.borrow_mut().push_back((self.sent, msg));
        Ok(())
    }

    fn recv(&mut self) -> Result<Message, Self::Error> {
        let front = self.rx.borrow_mut().pop_front();
        front.map(|(_, msg)| msg).ok_or("empty wire")
    }
}

/// W rank loops on a virtual cost clock (see the module docs).
pub struct VirtualHost {
    /// The loops, first to last; loop `r` runs `stages[r]`.
    pub(crate) loops: Vec<RankLoop>,
    pub(crate) stages: Vec<Vec<Stage>>,
    /// `acts[r]` / `grads[r]` join loop `r` and loop `r + 1`.
    pub(crate) acts: Vec<Wire>,
    pub(crate) grads: Vec<Wire>,
    /// Every (stage, action phase)'s [`action_cost`], read before the
    /// first step.
    costs: BTreeMap<(usize, TracePhase), u64>,
    /// One virtual lane per stage.
    lanes: Vec<Lane>,
    /// Per loop: when its latest step ended, and its steps' summed cost.
    free: Vec<u64>,
    busy: Vec<u64>,
    /// Microbatches the run forwards.
    end: usize,
    /// Each microbatch's loss, as loop 0 retires it.
    pub(crate) losses: Vec<f32>,
}

impl VirtualHost {
    /// `workers` loops over `net`'s stages under `config`, cut by
    /// [`partition_bounds`] of their [`stage_cost`]s, to run
    /// `microbatches` microbatches. `tracer` receives the virtual lanes
    /// and each loop group's wall-clock ones.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= workers <= net.num_stages()`.
    pub fn new(
        net: Network,
        config: &ScheduledConfig,
        workers: usize,
        microbatches: usize,
        tracer: &Tracer,
    ) -> Self {
        let bounds = partition_bounds(&net.stages().map(stage_cost).collect::<Vec<_>>(), workers);
        let loops = bounds.windows(2).map(|run| {
            let mut group = StageGroup::new(&net, run[0]..run[1], config);
            group.set_tracer(tracer, "");
            RankLoop::new(group)
        });
        let costs = net.stages().enumerate().flat_map(|(s, stage)| {
            ACTION_PHASES.map(|phase| ((s, phase), action_cost(stage, phase)))
        });
        let lanes = (0..net.num_stages())
            .map(|s| tracer.lane(PID_VIRTUAL, format!("sched-stage-{s}"), s as i64))
            .collect();
        let (loops, costs) = (loops.collect(), costs.collect());
        let mut rest = net.into_stages().into_iter();
        let run = |w: &[usize]| rest.by_ref().take(w[1] - w[0]).collect();
        let stages = bounds.windows(2).map(run).collect();
        let wires = || (1..workers).map(|_| Wire::default()).collect();
        VirtualHost {
            loops,
            stages,
            acts: wires(),
            grads: wires(),
            costs,
            lanes,
            free: vec![0; workers],
            busy: vec![0; workers],
            end: microbatches,
            losses: Vec::new(),
        }
    }

    /// When the input of loop `r`'s `step` was sent: at once for loop 0's
    /// samples and the last loop's own loss gradients, at the stamp of the
    /// message at the front of its wire otherwise; `None` while that wire
    /// is empty.
    fn arrival(&self, r: usize, step: Step) -> Option<u64> {
        let wire = match step {
            Step::Forward(_) if r > 0 => &self.acts[r - 1],
            Step::Backward(_) if r + 1 < self.loops.len() => &self.grads[r],
            _ => return Some(0),
        };
        wire.borrow().front().map(|&(sent, _)| sent)
    }

    /// The step loop `r` takes next and the virtual time it can start, or
    /// `None` while its input has not arrived and once it is done.
    pub(crate) fn ready(&self, r: usize) -> Option<(Step, u64)> {
        let step = self.loops[r].next_step(self.end)?;
        Some((step, self.arrival(r, step)?.max(self.free[r])))
    }

    /// Runs loop `r`'s [`RankLoop::step`] — loop 0 takes microbatch `mb`
    /// as `feed(mb)` — at the virtual time it can start, then draws each
    /// action it ran at that action's cost.
    pub(crate) fn step(
        &mut self,
        r: usize,
        feed: &mut dyn FnMut(usize) -> Message,
    ) -> Result<Option<Step>, RankError<&'static str>> {
        let Some(next) = self.loops[r].next_step(self.end) else {
            return Ok(None);
        };
        let start = self.arrival(r, next).unwrap_or(0).max(self.free[r]);
        let spans = self.loops[r].group.spans(&self.stages[r], next);
        let cost = |&(s, phase, ..): &(usize, TracePhase, usize, u64)| self.costs[&(s, phase)];
        let end = start + spans.iter().map(cost).sum::<u64>();
        let link = |tx: &Wire, rx: &Wire| QueueLink {
            tx: Rc::clone(tx),
            rx: Rc::clone(rx),
            sent: end,
        };
        let mut up = (r > 0).then(|| link(&self.grads[r - 1], &self.acts[r - 1]));
        let mut down = (r + 1 < self.loops.len()).then(|| link(&self.acts[r], &self.grads[r]));
        let up = match up.as_mut() {
            Some(link) => Upstream::Link(link),
            None => Upstream::Feed(feed),
        };
        let ran = self.loops[r].step(&mut self.stages[r], up, down.as_mut(), self.end)?;
        let mut t = start;
        for (s, phase, mb, version) in spans {
            let cost = self.costs[&(s, phase)];
            self.lanes[s].span_at(t, t + cost, phase, Some(mb as u64), Some(version));
            t += cost;
        }
        self.free[r] = end;
        self.busy[r] += end - start;
        if r == 0 && matches!(next, Step::Backward(_)) {
            self.losses.push(self.loops[0].last_loss);
        }
        Ok(ran)
    }

    /// Steps the loop that can start earliest (the first, on a tie) until
    /// every loop is done.
    ///
    /// # Panics
    ///
    /// Panics if a loop fails, or none is ready before all are done.
    pub fn run(&mut self, feed: &mut dyn FnMut(usize) -> Message) {
        let earliest = |host: &Self| {
            let ready = (0..host.loops.len()).filter_map(|r| Some((host.ready(r)?.1, r)));
            ready.min().map(|(_, r)| r)
        };
        while let Some(r) = earliest(self) {
            self.step(r, feed).expect("a ready loop steps");
        }
        let done = self.loops.iter().all(|l| l.next_step(self.end).is_none());
        assert!(done, "no loop is ready, yet not every loop is done");
    }

    /// The share of W loops × the makespan that no step covers (0 before
    /// the first step).
    pub fn bubble_fraction(&self) -> f64 {
        let makespan = self.free.iter().copied().max().unwrap_or(0);
        let area = self.loops.len() as f64 * makespan as f64;
        if area == 0.0 {
            return 0.0;
        }
        1.0 - self.busy.iter().sum::<u64>() as f64 / area
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::MicrobatchSchedule::{
        self, FillDrain, OneFOneB, PipelinedBackprop, TwoBP,
    };
    use pbp_nn::models::mlp;
    use pbp_optim::{Hyperparams, LrSchedule};
    use pbp_tensor::Tensor;
    use pbp_trace::analysis::TraceAnalysis;
    use pbp_trace::{Span, Trace, TraceLane, PID_WALL};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// In descending order of bubble.
    const PLANS: [MicrobatchSchedule; 4] = [
        FillDrain { update_size: 8 },
        TwoBP {
            microbatches_per_update: 8,
        },
        OneFOneB {
            microbatches_per_update: 8,
        },
        PipelinedBackprop,
    ];

    /// `mlp(layers)` under `plan` on `workers` loops, 64 microbatches on
    /// the clock: the host's bubble fraction and the trace it drew.
    fn run(layers: &[usize], plan: MicrobatchSchedule, workers: usize) -> (f64, Trace) {
        let tracer = Tracer::new();
        let net = mlp(layers, &mut StdRng::seed_from_u64(3));
        let config = ScheduledConfig::new(plan, LrSchedule::constant(Hyperparams::new(0.01, 0.9)));
        let mut host = VirtualHost::new(net, &config, workers, 64, &tracer);
        let x = Tensor::from_vec(vec![0.5, -1.0], &[2]).expect("a sample");
        host.run(&mut |mb| Message::sample(mb, &x, mb % 3));
        let bubble = host.bubble_fraction();
        drop(host);
        (bubble, tracer.finish())
    }

    #[test]
    fn fill_drain_on_a_loop_per_stage_idles_all_but_one_and_one_loop_never_idles() {
        for stages in [4, 8] {
            let hidden = [2].into_iter().chain([8; 7]).take(stages);
            let layers: Vec<usize> = hidden.chain([3]).collect();
            let (bubble, _) = run(&layers, PLANS[0], stages);
            assert_eq!(bubble, 1.0 - 1.0 / stages as f64, "{stages} stages");
        }
        for plan in PLANS {
            assert_eq!(run(&[2, 8, 8, 8, 3], plan, 1).0, 0.0, "{plan:?}");
        }
    }

    #[test]
    fn bubbles_order_the_plans_and_repeat_to_the_timestamp() {
        let virtual_spans = |trace: &Trace| {
            let lanes = trace.lanes_of(PID_VIRTUAL);
            lanes.map(|lane| lane.spans.clone()).collect::<Vec<_>>()
        };
        let bubbles: Vec<f64> = PLANS
            .iter()
            .map(|&plan| {
                let (bubble, trace) = run(&[2, 8, 8, 8, 3], plan, 4);
                let again = run(&[2, 8, 8, 8, 3], plan, 4).1;
                assert_eq!(virtual_spans(&trace), virtual_spans(&again), "{plan:?}");
                bubble
            })
            .collect();
        assert!(bubbles.windows(2).all(|w| w[0] > w[1]), "{bubbles:?}");
    }

    /// Each stage's virtual lane is its wall-clock lane on the cost clock:
    /// the same spans, none overlapping, each forward after the one that
    /// fed it and each input gradient after the one it was fed — at W = S
    /// and where one loop runs two stages.
    #[test]
    fn each_virtual_lane_draws_its_wall_lanes_spans() {
        let tags = |lane: &TraceLane| -> Vec<_> {
            let tag = |sp: &Span| (sp.phase, sp.microbatch, sp.weight_version);
            lane.spans.iter().map(tag).collect()
        };
        let of = |lane: &TraceLane, phase| -> Vec<Span> {
            let spans = lane.spans.iter().filter(|sp| sp.phase == phase);
            spans.cloned().collect()
        };
        let ordered = |first: Vec<Span>, then: Vec<Span>| {
            let mut pairs = first.iter().zip(&then);
            pairs.all(|(a, b)| b.start_ns >= a.end_ns())
        };
        for (plan, workers) in PLANS.into_iter().flat_map(|p| [(p, 2), (p, 4)]) {
            let (bubble, trace) = run(&[2, 8, 8, 8, 3], plan, workers);
            let analysis = TraceAnalysis::of(&trace, PID_VIRTUAL);
            assert!(!analysis.any_overlap(), "{plan:?}");
            if workers == 4 {
                let lanes_bubble = analysis.bubble_fraction();
                assert!((lanes_bubble - bubble).abs() < 1e-12, "{plan:?}");
            }
            let lane = |pid, name: String| trace.lane(pid, &name).expect("a lane");
            let drawn = |s| lane(PID_VIRTUAL, format!("sched-stage-{s}"));
            for s in 0..4 {
                let wall = lane(PID_WALL, format!("stage-{s}"));
                assert_eq!(tags(drawn(s)), tags(wall), "{plan:?} W={workers} stage {s}");
            }
            for s in 1..4 {
                let (up, down) = (drawn(s - 1), drawn(s));
                let what = format!("{plan:?} W={workers} stages {} and {s}", s - 1);
                let (fwd, bwd) = (TracePhase::Forward, TracePhase::BackwardInput);
                assert!(ordered(of(up, fwd), of(down, fwd)), "{what}: forwards");
                assert!(ordered(of(down, bwd), of(up, bwd)), "{what}: gradients");
            }
        }
    }
}
