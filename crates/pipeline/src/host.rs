//! The one rank host (DESIGN §12): what a worker thread, a rank process
//! and a loop of the [`VirtualHost`](crate::VirtualHost) each wrap around
//! their [`RankLoop`]. What differs between them happens between steps, at
//! the call site: a worker thread watches the abort flag, beats to its
//! supervisor and reports under `catch_unwind`; a rank process caps
//! forwards at its drain barriers, snapshots, and drains its links at
//! shutdown. An injected `crash` is a panic on every host: the thread
//! supervisor catches it, a rank process exits non-zero for its launcher.

use crate::fault::{FaultInjector, RankFault};
use crate::rank::{Link, Message, RankError, RankLoop, Step, Upstream};
use pbp_nn::Stage;
use pbp_trace::TracePhase;

/// A rank of the pipeline: its loop, rank 0's feed or else the link
/// above, the link below, the fault injectors of the stages it owns and
/// rank 0's record of losses.
pub struct RankHost<'a, L> {
    /// The rank's loop: executor, cursors, loss sum, step time.
    pub rank: RankLoop,
    /// Rank 0's feed, yielding microbatch `mb`'s [`Message::sample`];
    /// every other rank reads the link above.
    feed: Option<Box<dyn FnMut(usize) -> Message + Send + 'a>>,
    up: Option<L>,
    /// `None` on the last rank, which computes the loss.
    down: Option<L>,
    /// One per owned stage from the first, none without a plan.
    injectors: Vec<FaultInjector<RankFault>>,
    /// Told the stage an injected stall or jitter is about to silence.
    quiet: Box<dyn FnMut(usize) + Send + 'a>,
    /// The stage a crash report names: the one an injected crash struck,
    /// otherwise the first owned.
    pub(crate) struck: usize,
    /// The loss of each microbatch retired, in order (rank 0 only).
    pub(crate) losses: Vec<f32>,
}

impl<'a, L: Link> RankHost<'a, L> {
    /// A host stepping `rank` between the link above — `None` on rank 0,
    /// which has a [feed](RankHost::set_feed) — and the link below.
    pub fn new(rank: RankLoop, up: Option<L>, down: Option<L>) -> Self {
        RankHost {
            struck: rank.group.range().start,
            rank,
            feed: None,
            up,
            down,
            injectors: Vec::new(),
            quiet: Box::new(|_| {}),
            losses: Vec::new(),
        }
    }

    /// Makes this rank 0, fed microbatch `mb` as `feed(mb)` when a forward
    /// takes it.
    pub fn set_feed(&mut self, feed: impl FnMut(usize) -> Message + Send + 'a) {
        self.feed = Some(Box::new(feed));
    }

    /// Arms the owned stages' injectors, first stage first, and the hook
    /// told which stage an injected stall silences before it sleeps.
    pub fn set_faults(
        &mut self,
        injectors: Vec<FaultInjector<RankFault>>,
        quiet: impl FnMut(usize) + Send + 'a,
    ) {
        self.injectors = injectors;
        self.quiet = Box::new(quiet);
    }

    /// The rank's links, the one above first.
    pub fn links(&mut self) -> impl Iterator<Item = &mut L> {
        self.up.iter_mut().chain(self.down.iter_mut())
    }

    /// Runs [`RankLoop::step`] on `stages` (the group's slice of the
    /// network: a worker thread owns its run, a rank process slices its
    /// whole network), forwarding below `fwd_limit`, after consulting the
    /// injected faults as the rank turns to a backward; records the loss
    /// rank 0 retires.
    ///
    /// # Panics
    ///
    /// Panics where an injected crash strikes, and if rank 0 steps without
    /// a feed.
    pub fn step(
        &mut self,
        stages: &mut [Stage],
        fwd_limit: usize,
    ) -> Result<Option<Step>, RankError<L::Error>> {
        // Without a plan there is nothing to consult, nor a step to look at.
        // A pair turns to both its backwards at once.
        if !self.injectors.is_empty() {
            if let Some(step) = self.rank.next_step(fwd_limit) {
                step.retires().for_each(|k| self.inject(k));
            }
        }
        let up = match self.up.as_mut() {
            Some(link) => Upstream::Link(link),
            None => Upstream::Feed(self.feed.as_mut().expect("rank 0 is fed").as_mut()),
        };
        let step = self.rank.step(stages, up, self.down.as_mut(), fwd_limit)?;
        if self.feed.is_some() && step.is_some_and(|step| !step.retires().is_empty()) {
            self.losses.extend_from_slice(self.rank.last_losses());
        }
        Ok(step)
    }

    /// Fault-injection point: an `@k` rank fault strikes as the rank turns
    /// to backward `k`, exactly where a real stage dies — for a pair, before
    /// either of its backwards; the owned stages are consulted in backward
    /// order, last to first.
    fn inject(&mut self, k: usize) {
        let owned = self.rank.group.range().zip(&self.injectors).rev();
        for (stage, injector) in owned {
            match injector.on_backward(k as u64) {
                None => {}
                Some(RankFault::Crash) => {
                    self.struck = stage;
                    panic!("injected fault: stage {stage} panics at update {k}")
                }
                Some(RankFault::Stall(d) | RankFault::Jitter(d)) => {
                    // The silence that follows is this stage's.
                    (self.quiet)(stage);
                    let lane = self.rank.group.lane(stage);
                    lane.begin(TracePhase::Stall, None, None);
                    std::thread::sleep(d);
                    lane.end();
                }
                Some(RankFault::Sever) => {
                    self.up.iter_mut().chain(&mut self.down).for_each(L::sever);
                }
            }
        }
    }
}
