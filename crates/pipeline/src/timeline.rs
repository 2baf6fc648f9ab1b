//! The schedule diagram as a run of the executor: [`VirtualHost`] steps W
//! [`RankLoop`]s on one thread, on a virtual cost clock, and draws what
//! they ran into the trace's virtual process ([`pbp_trace::PID_VIRTUAL`]).
//!
//! A wall-clock trace cannot show the bubbles a schedule costs W workers.
//! The host runs them: W loops over [`partition_bounds`] of the
//! [`stage_cost`]s, each a [`RankHost`], joined by in-memory queue links
//! whose every message carries the virtual time it was sent. It always steps the loop whose
//! [`RankLoop::next_step`] can start earliest — the later of its previous
//! step's end and its input's arrival — and charges each action its
//! [`action_cost`] (flop-equivalents, drawn as nanoseconds) as one span on
//! its stage's lane `sched-stage-{s}`, tagged like the wall-clock span
//! [`StageGroup`] records for it: Figure 2, drawn by the code that runs it
//! ([`schedule_diagram`] runs a plan and draws it as text).
//! [`VirtualHost::bubble_fraction`] is the idle share of W loops × the
//! makespan.
//!
//! Fill&drain streams its update window of `N` down and back before it
//! drains, here as in the executor: at W = S on stages that each cost `c`
//! a microbatch and `u` an update, its bubble is GPipe's
//! `(S−1)(c+u)/((N+S−1)c + S·u)` — `(S−1)/(N+S−1)` when updates are free.
//! Eq. 1's `N/(N+2S−2)` counts a stage's forward and backward in one slot;
//! a worker that runs them in turn idles as GPipe does.
//!
//! Costs are read once, before the first step: a convolution whose builder
//! did not say its input size is costed by its parameters for the whole
//! run (see [`stage_cost`]). `rank.rs`'s interleaving proptest steps the
//! same host in whatever ready order it picks.

use crate::group::{action_cost, partition_bounds, stage_cost, StageGroup, ACTION_PHASES};
use crate::host::RankHost;
use crate::rank::{Link, Message, RankError, RankLoop, Step};
use crate::schedule::MicrobatchSchedule;
use crate::scheduled::ScheduledConfig;
use pbp_nn::layers::{Conv2d, GlobalAvgPool2d};
use pbp_nn::{Layer, Network, Stage};
use pbp_optim::{Hyperparams, LrSchedule};
use pbp_tensor::Tensor;
use pbp_trace::{Lane, TraceLane, TracePhase, Tracer, PID_VIRTUAL};
use rand::{rngs::StdRng, SeedableRng};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

/// Figure 2's pipeline: `stages` equal 3×3 convolutions of four channels
/// on a 5×9 map, the last averaged into four logits. On that map an update
/// (45 flop-equivalents a parameter, [`action_cost`]) costs half a forward
/// (2 flops a weight a pixel).
fn equal_conv_stages(stages: usize) -> Network {
    let stage = |s| {
        let conv = Conv2d::new(4, 4, 3, 1, 1, false, &mut StdRng::seed_from_u64(s as u64));
        let mut layers: Vec<Box<dyn Layer>> = vec![Box::new(conv.with_input_size(5, 9))];
        layers.extend((s + 1 == stages).then(|| Box::new(GlobalAvgPool2d::new()) as _));
        Stage::new(format!("conv{s}"), layers)
    };
    Network::new((0..stages).map(stage).collect())
}

/// Runs `plan` over `stages` equal stages (Figure 2's pipeline: 3×3
/// convolutions on a 5×9 map, where an update costs half a forward), a
/// [`VirtualHost`] loop each, for `microbatches`, and draws what the loops
/// ran: the host's bubble fraction, and a line `stage {s}: …` per stage of
/// at most `width` columns, each as long as the shortest span — 'F', 'B',
/// 'W' or 'U' where the stage ran a forward, an input- or weight-gradient
/// backward or an update, '.' where it idled. No sample value or
/// hyperparameter changes a cost.
pub fn schedule_diagram(
    plan: MicrobatchSchedule,
    stages: usize,
    microbatches: usize,
    width: usize,
) -> (f64, String) {
    let (tracer, x) = (Tracer::new(), Tensor::zeros(&[4, 5, 9]));
    let config = ScheduledConfig::new(plan, LrSchedule::constant(Hyperparams::new(0.01, 0.9)));
    let net = equal_conv_stages(stages);
    let feed = |mb| Message::sample(mb, &x, 0);
    let mut host = VirtualHost::new(net, &config, stages, microbatches, &tracer, feed);
    host.run();
    let bubble = host.bubble_fraction();
    drop(host);
    let trace = tracer.finish();
    let lanes: Vec<_> = trace.lanes_of(PID_VIRTUAL).collect();
    let spans = || lanes.iter().flat_map(|lane| &lane.spans);
    let unit = spans().map(|span| span.dur_ns).min().unwrap_or(1).max(1);
    let end = spans().map(|span| span.end_ns() / unit).max().unwrap_or(0);
    let width = width.min(end as usize);
    let row = |(s, lane): (usize, &&TraceLane)| {
        let mut row = vec!['.'; width];
        for span in &lane.spans {
            let glyph = match span.phase {
                TracePhase::Forward => 'F',
                TracePhase::BackwardInput => 'B',
                TracePhase::BackwardWeight => 'W',
                _ => 'U',
            };
            let [start, end] =
                [span.start_ns, span.end_ns()].map(|t| ((t / unit) as usize).min(width));
            row[start..end].fill(glyph);
        }
        format!("stage {s}: {}", row.into_iter().collect::<String>())
    };
    let rows: Vec<String> = lanes.iter().enumerate().map(row).collect();
    (bubble, rows.join("\n"))
}

/// One direction of a queue link: messages in send order, each with the
/// virtual time it was sent.
pub(crate) type Wire = Rc<RefCell<VecDeque<(u64, Message)>>>;

/// A loop's end of a queue link, stamping what it sends with the end of
/// the step being run. An empty wire is an error, so a loop stepped before
/// its input arrived fails instead of hanging.
pub(crate) struct QueueLink {
    tx: Wire,
    rx: Wire,
    sent: Rc<Cell<u64>>,
}

impl Link for QueueLink {
    type Error = &'static str;

    fn send(&mut self, msg: Message) -> Result<(), Self::Error> {
        self.tx.borrow_mut().push_back((self.sent.get(), msg));
        Ok(())
    }

    fn recv(&mut self) -> Result<Message, Self::Error> {
        let front = self.rx.borrow_mut().pop_front();
        front.map(|(_, msg)| msg).ok_or("empty wire")
    }
}

/// W rank loops on a virtual cost clock (see the module docs), each the
/// [`RankHost`] a worker thread or a rank process is.
pub struct VirtualHost<'a> {
    /// The loops' hosts, first to last; host `r` runs `stages[r]`.
    pub(crate) hosts: Vec<RankHost<'a, QueueLink>>,
    pub(crate) stages: Vec<Vec<Stage>>,
    /// `acts[r]` / `grads[r]` join loop `r` and loop `r + 1`.
    pub(crate) acts: Vec<Wire>,
    pub(crate) grads: Vec<Wire>,
    /// When the step being run ends: the stamp its links send with.
    clock: Rc<Cell<u64>>,
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
}

impl<'a> VirtualHost<'a> {
    /// `workers` loops over `net`'s stages under `config`, cut by
    /// [`partition_bounds`] of their [`stage_cost`]s, to run
    /// `microbatches` microbatches, loop 0 taking microbatch `mb` as
    /// `feed(mb)`. `tracer` receives the virtual lanes and each loop
    /// group's wall-clock ones.
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
        feed: impl FnMut(usize) -> Message + Send + 'a,
    ) -> Self {
        let bounds = partition_bounds(&net.stages().map(stage_cost).collect::<Vec<_>>(), workers);
        let wires = || (1..workers).map(|_| Wire::default()).collect::<Vec<_>>();
        let (acts, grads, clock) = (wires(), wires(), Rc::new(Cell::new(0)));
        let link = |tx: &Wire, rx: &Wire| QueueLink {
            tx: Rc::clone(tx),
            rx: Rc::clone(rx),
            sent: Rc::clone(&clock),
        };
        let hosts = bounds.windows(2).enumerate().map(|(r, run)| {
            let mut group = StageGroup::new(&net, run[0]..run[1], config);
            group.set_tracer(tracer, "");
            let up = (r > 0).then(|| link(&grads[r - 1], &acts[r - 1]));
            let down = (r + 1 < workers).then(|| link(&acts[r], &grads[r]));
            RankHost::new(RankLoop::new(group), up, down)
        });
        let mut hosts: Vec<_> = hosts.collect();
        hosts[0].set_feed(feed);
        let costs = net.stages().enumerate().flat_map(|(s, stage)| {
            ACTION_PHASES.map(|phase| ((s, phase), action_cost(stage, phase)))
        });
        let lanes = (0..net.num_stages())
            .map(|s| tracer.lane(PID_VIRTUAL, format!("sched-stage-{s}"), s as i64))
            .collect();
        let costs = costs.collect();
        let mut rest = net.into_stages().into_iter();
        let run = |w: &[usize]| rest.by_ref().take(w[1] - w[0]).collect();
        let stages = bounds.windows(2).map(run).collect();
        VirtualHost {
            hosts,
            stages,
            acts,
            grads,
            clock,
            costs,
            lanes,
            free: vec![0; workers],
            busy: vec![0; workers],
            end: microbatches,
        }
    }

    /// When the input of loop `r`'s `step` was sent: at once for loop 0's
    /// samples and the last loop's own loss gradients, at the stamp of the
    /// message at the front of its wire otherwise; `None` while that wire
    /// is empty.
    fn arrival(&self, r: usize, step: Step) -> Option<u64> {
        let wire = match step {
            Step::Forward(_) if r > 0 => &self.acts[r - 1],
            Step::Backward { .. } if r + 1 < self.hosts.len() => &self.grads[r],
            _ => return Some(0),
        };
        wire.borrow().front().map(|&(sent, _)| sent)
    }

    /// The step loop `r` takes next and the virtual time it can start, or
    /// `None` while its input has not arrived and once it is done.
    pub(crate) fn ready(&self, r: usize) -> Option<(Step, u64)> {
        let step = self.hosts[r].rank.next_step(self.end)?;
        Some((step, self.arrival(r, step)?.max(self.free[r])))
    }

    /// Runs loop `r`'s [`RankHost::step`] at the virtual time it can
    /// start, then draws each action it ran at that action's cost.
    pub(crate) fn step(&mut self, r: usize) -> Result<Option<Step>, RankError<&'static str>> {
        let Some(next) = self.hosts[r].rank.next_step(self.end) else {
            return Ok(None);
        };
        let start = self.arrival(r, next).unwrap_or(0).max(self.free[r]);
        let spans = self.hosts[r].rank.group.spans(&self.stages[r], next);
        let cost = |&(s, phase, ..): &(usize, TracePhase, usize, u64)| self.costs[&(s, phase)];
        let end = start + spans.iter().map(cost).sum::<u64>();
        self.clock.set(end);
        let ran = self.hosts[r].step(&mut self.stages[r], self.end)?;
        let mut t = start;
        for (s, phase, mb, version) in spans {
            let cost = self.costs[&(s, phase)];
            self.lanes[s].span_at(t, t + cost, phase, Some(mb as u64), Some(version));
            t += cost;
        }
        self.free[r] = end;
        self.busy[r] += end - start;
        Ok(ran)
    }

    /// Steps the loop that can start earliest (the first, on a tie) until
    /// every loop is done.
    ///
    /// # Panics
    ///
    /// Panics if a loop fails, or none is ready before all are done.
    pub fn run(&mut self) {
        let earliest = |host: &Self| {
            let ready = (0..host.hosts.len()).filter_map(|r| Some((host.ready(r)?.1, r)));
            ready.min().map(|(_, r)| r)
        };
        while let Some(r) = earliest(self) {
            self.step(r).expect("a ready loop steps");
        }
        let done = self
            .hosts
            .iter()
            .all(|h| h.rank.next_step(self.end).is_none());
        assert!(done, "no loop is ready, yet not every loop is done");
    }

    /// The share of W loops × the makespan that no step covers (0 before
    /// the first step).
    pub fn bubble_fraction(&self) -> f64 {
        let makespan = self.free.iter().copied().max().unwrap_or(0);
        let area = self.hosts.len() as f64 * makespan as f64;
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
    use pbp_trace::{Span, Trace, PID_WALL};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Fill&drain, then the accumulating pipelined plans, then PB.
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
        let x = Tensor::from_vec(vec![0.5, -1.0], &[2]).expect("a sample");
        let feed = |mb| Message::sample(mb, &x, mb % 3);
        let mut host = VirtualHost::new(net, &config, workers, 64, &tracer, feed);
        host.run();
        let bubble = host.bubble_fraction();
        drop(host);
        (bubble, tracer.finish())
    }

    /// GPipe's bubble, run rather than drawn: at W = S on stages that
    /// each cost `c` per microbatch (forward and both backward halves) and
    /// `u` per update, fill&drain streams its window of `N` down and back
    /// and every stage's update holds the gradient it sends up, so each
    /// window idles `(S−1)(c+u)` of every loop's `(N+S−1)c + S·u` —
    /// GPipe's `(S−1)/(N+S−1)` when updates are free, `1 − 1/S` at
    /// `N = 1`. One loop hosting every stage never idles, under any plan.
    #[test]
    fn fill_drain_bubble_is_gpipes_on_equal_stages_and_one_loop_never_idles() {
        let stage = equal_conv_stages(1).into_stages().remove(0);
        let [f, b, w, u] = ACTION_PHASES.map(|phase| action_cost(&stage, phase) as f64);
        let c = f + b + w;
        for stages in [4usize, 6] {
            let s = stages as f64;
            for n in [1usize, 4, 16] {
                let plan = FillDrain { update_size: n };
                let (bubble, _) = schedule_diagram(plan, stages, 2 * n, 0);
                let gpipe = (s - 1.0) * (c + u) / ((n as f64 + s - 1.0) * c + s * u);
                let what = format!("S={stages} N={n}: {bubble} against {gpipe}");
                assert!((bubble - gpipe).abs() < 1e-12, "{what}");
            }
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
        // [fill&drain, 2BP, 1F1B, PB] at M = N = 8 read [0.621, 0.656,
        // 0.580, 0.341]: PB idles least; 2BP, whose weight halves pile up
        // at the window's close, more than 1F1B; and fill&drain, streaming
        // its window, less than the `1 − 1/W` of draining every microbatch.
        let [fill_drain, two_bp, one_f_one_b, pb] = bubbles[..] else {
            unreachable!("one bubble per plan")
        };
        assert!(bubbles[..3].iter().all(|&b| b > pb), "{bubbles:?}");
        assert!(two_bp > one_f_one_b, "{bubbles:?}");
        assert!(fill_drain < 1.0 - 1.0 / 4.0, "{bubbles:?}");
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
