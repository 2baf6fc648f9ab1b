//! The first-class [`MicrobatchSchedule`] abstraction the engines execute
//! (Section 2, Figure 2), and Eq. 1's fill&drain utilization bound.
//!
//! A schedule is a deterministic per-stage stream of [`Action`]s — one
//! short action list per microbatch index. The engines interpret the same
//! vocabulary (`Forward`, `BackwardInput`, `BackwardWeight`, `Update`)
//! under their own execution model: the sequential emulation core replays
//! the stream per stage with delayed weight versions, the threaded runtime
//! maps it onto worker loops, and the uniform-delay simulator applies it
//! network-wide. Pure pipelined backpropagation and fill-and-drain SGD are
//! two instances of the same machinery, differing only in their streams
//! and per-stage weight-version lags.

/// One unit of work in a stage's deterministic schedule stream.
///
/// Microbatch indices are global and 0-based; every schedule emits the
/// actions of microbatch `i` through
/// [`MicrobatchSchedule::stage_actions`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Forward pass of microbatch `i` under the stage's scheduled
    /// (possibly lagged or predicted) weight version.
    Forward(usize),
    /// Input-gradient half of microbatch `i`'s backward pass. Reads the
    /// stage weights (current, stashed or re-predicted, depending on the
    /// engine's consistency setting), so it stays on the critical path.
    BackwardInput(usize),
    /// Weight-gradient half of microbatch `i`'s backward pass. Depends
    /// only on values stashed at [`Action::BackwardInput`] time — never on
    /// the current weights — which is what lets split-backward schedules
    /// (2BP) defer it off the critical path.
    BackwardWeight(usize),
    /// Optimizer update with the gradients accumulated since the previous
    /// update.
    Update,
}

/// Whether `actions`, one microbatch's
/// [`MicrobatchSchedule::stage_actions`], make that microbatch its own
/// update window: its forward, its backward's two halves and the update,
/// and nothing else. PB (and `UniformDelay`) always do; fill&drain, 1F1B
/// and 2BP do at an update size of one.
pub(crate) fn is_own_update_window(actions: &[Action]) -> bool {
    matches!(
        actions,
        [Action::Forward(f), Action::BackwardInput(i), Action::BackwardWeight(j), Action::Update]
            if f == i && i == j
    )
}

/// A first-class microbatch schedule: which actions every stage performs
/// per microbatch, and the delay structure those actions induce.
///
/// Two distinct delay notions fall out of a schedule:
///
/// * [`MicrobatchSchedule::stage_version_lag`] — how many *microbatches*
///   behind a stage's forward pass runs: forward `i` reads the weights
///   after `max(0, ⌊(i − D_s)/M⌋)` updates;
/// * [`MicrobatchSchedule::stage_delay`] — the staleness of an applied
///   gradient in *updates*, which is what the mitigation methods
///   (Section 3) compensate for and what the delay histograms record.
///
/// At update size one the two coincide (`D_s = 2(S−1−s)`, Eq. 5); with
/// `M` microbatches per update the version lag stays `D_s` while the
/// update-staleness contracts to `⌈D_s/M⌉`, and a stage keeps one weight
/// version per update, `⌈D_s/M⌉ + 1` of them. How far a stage may run
/// ahead is a third, separate rule: [`MicrobatchSchedule::in_flight_cap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MicrobatchSchedule {
    /// Fine-grained pipelined backpropagation: every microbatch runs a
    /// full backward and an immediate update (Figure 2, bottom).
    PipelinedBackprop,
    /// Fill-and-drain SGD: the pipeline streams `update_size` microbatches
    /// down and back, accumulating their gradients, and drains at each
    /// update, so forward and backward always see the same weights
    /// (version lag 0, delay 0) — GPipe's schedule.
    FillDrain {
        /// Microbatches per optimizer update (the batch size `N`).
        update_size: usize,
    },
    /// 1F1B: pipelined-backpropagation dataflow (one forward and one
    /// backward in flight per stage per microbatch, version lag `D_s`)
    /// with gradient accumulation over `microbatches_per_update`
    /// microbatches. At `M = 1` this *is* pipelined backpropagation.
    OneFOneB {
        /// Microbatches accumulated per optimizer update (`M`).
        microbatches_per_update: usize,
    },
    /// 2BP: the 1F1B dataflow with backward split in two — the
    /// input-gradient half stays on the critical path, the weight-gradient
    /// half is deferred to the update boundary.
    TwoBP {
        /// Microbatches accumulated per optimizer update (`M`).
        microbatches_per_update: usize,
    },
    /// A uniform delay of `delay` updates at every stage — the Appendix
    /// G.2 simulator's schedule, where one "microbatch" is a whole batch.
    UniformDelay {
        /// Gradient delay in updates, identical across stages.
        delay: usize,
    },
}

impl MicrobatchSchedule {
    /// Microbatches accumulated per optimizer update.
    ///
    /// # Panics
    ///
    /// Panics if the schedule was constructed with a zero update size.
    pub fn microbatches_per_update(&self) -> usize {
        let m = match self {
            MicrobatchSchedule::PipelinedBackprop | MicrobatchSchedule::UniformDelay { .. } => 1,
            MicrobatchSchedule::FillDrain { update_size } => *update_size,
            MicrobatchSchedule::OneFOneB {
                microbatches_per_update,
            }
            | MicrobatchSchedule::TwoBP {
                microbatches_per_update,
            } => *microbatches_per_update,
        };
        assert!(m > 0, "schedule needs a positive update size");
        m
    }

    /// Whether the schedule separates [`Action::BackwardWeight`] from its
    /// [`Action::BackwardInput`] in time (2BP's defining property).
    pub fn splits_backward(&self) -> bool {
        matches!(self, MicrobatchSchedule::TwoBP { .. })
    }

    /// The deterministic action stream every stage executes for microbatch
    /// `i`. Fused-backward schedules emit `BackwardWeight(i)` immediately
    /// after `BackwardInput(i)`; 2BP defers the weight halves of a whole
    /// accumulation window to its closing microbatch, just before the
    /// `Update`, retiring them in FIFO (sample) order.
    pub fn stage_actions(&self, i: usize) -> Vec<Action> {
        let m = self.microbatches_per_update();
        let closes_update = (i + 1).is_multiple_of(m);
        match self {
            MicrobatchSchedule::PipelinedBackprop | MicrobatchSchedule::UniformDelay { .. } => {
                vec![
                    Action::Forward(i),
                    Action::BackwardInput(i),
                    Action::BackwardWeight(i),
                    Action::Update,
                ]
            }
            MicrobatchSchedule::FillDrain { .. } | MicrobatchSchedule::OneFOneB { .. } => {
                let mut actions = vec![
                    Action::Forward(i),
                    Action::BackwardInput(i),
                    Action::BackwardWeight(i),
                ];
                if closes_update {
                    actions.push(Action::Update);
                }
                actions
            }
            MicrobatchSchedule::TwoBP { .. } => {
                let mut actions = vec![Action::Forward(i), Action::BackwardInput(i)];
                if closes_update {
                    actions.extend((i + 1 - m..=i).map(Action::BackwardWeight));
                    actions.push(Action::Update);
                }
                actions
            }
        }
    }

    /// Forward weight-version lag of stage `s` in *microbatches*: how many
    /// microbatch backward passes complete at the stage between the push
    /// of a weight version and the forward pass that consumes it.
    ///
    /// # Panics
    ///
    /// Panics if `s >= num_stages` (pipelined schedules only).
    pub fn stage_version_lag(&self, s: usize, num_stages: usize) -> usize {
        match self {
            MicrobatchSchedule::PipelinedBackprop
            | MicrobatchSchedule::OneFOneB { .. }
            | MicrobatchSchedule::TwoBP { .. } => stage_delay(s, num_stages),
            MicrobatchSchedule::FillDrain { .. } => 0,
            MicrobatchSchedule::UniformDelay { delay } => *delay,
        }
    }

    /// The most microbatches a stage whose forwards lag `lag` microbatches
    /// behind may hold in flight (forwarded, not yet backwarded) — its
    /// activation-stash budget. PB, `UniformDelay`, 1F1B and 2BP run `lag`
    /// forwards ahead of their oldest backward, `lag + 1` in flight;
    /// fill&drain streams its whole open window of `N` before draining
    /// (GPipe), every one of them under the window's one version.
    pub fn in_flight_cap(&self, lag: usize) -> usize {
        match self {
            MicrobatchSchedule::FillDrain { update_size } => *update_size,
            _ => lag + 1,
        }
    }

    /// Effective gradient staleness of stage `s` in *updates* — the value
    /// the mitigation methods compensate for and the delay histograms
    /// record. `⌈D_s/M⌉` for the accumulating pipelined schedules: the
    /// version lag `D_s` is measured in microbatches, and `M` microbatches
    /// share each update.
    ///
    /// # Panics
    ///
    /// Panics if `s >= num_stages` (pipelined schedules only).
    pub fn stage_delay(&self, s: usize, num_stages: usize) -> usize {
        match self {
            MicrobatchSchedule::PipelinedBackprop => stage_delay(s, num_stages),
            MicrobatchSchedule::FillDrain { .. } => 0,
            MicrobatchSchedule::OneFOneB { .. } | MicrobatchSchedule::TwoBP { .. } => {
                stage_delay(s, num_stages).div_ceil(self.microbatches_per_update())
            }
            MicrobatchSchedule::UniformDelay { delay } => *delay,
        }
    }

    /// Short display name used in engine labels.
    pub fn label(&self) -> String {
        match self {
            MicrobatchSchedule::PipelinedBackprop => "PB".to_string(),
            MicrobatchSchedule::FillDrain { update_size } => {
                format!("Fill&Drain SGDM (N={update_size})")
            }
            MicrobatchSchedule::OneFOneB {
                microbatches_per_update,
            } => format!("1F1B (M={microbatches_per_update})"),
            MicrobatchSchedule::TwoBP {
                microbatches_per_update,
            } => format!("2BP (M={microbatches_per_update})"),
            MicrobatchSchedule::UniformDelay { delay } => format!("Uniform (D={delay})"),
        }
    }
}

/// Gradient delay (in updates) of stage `s` in an `S`-stage pipeline at
/// update size one: `D_s = 2(S − 1 − s)` (Eq. 5).
///
/// The final stage (`s = S−1`, the loss) has delay 0; stage 0 has the
/// maximum delay `2(S−1)`.
///
/// # Panics
///
/// Panics if `s >= num_stages`.
pub fn stage_delay(s: usize, num_stages: usize) -> usize {
    assert!(
        s < num_stages,
        "stage {s} out of range for {num_stages} stages"
    );
    2 * (num_stages - 1 - s)
}

/// Utilization upper bound of fill-and-drain pipeline SGD with update size
/// `n` over `s` stages: `N / (N + 2S − 2)` (the exact form of Eq. 1's
/// `N/(N+2S)` approximation).
///
/// # Example
///
/// ```
/// use pbp_pipeline::fill_drain_utilization;
///
/// // ResNet20's 34-stage pipeline at update size one wastes ~98.5% of
/// // its capacity filling and draining:
/// assert!(fill_drain_utilization(1, 34) < 0.02);
/// // Large batches amortize the overhead:
/// assert!(fill_drain_utilization(1024, 34) > 0.9);
/// ```
///
/// # Panics
///
/// Panics if `n == 0` or `s == 0`.
pub fn fill_drain_utilization(n: usize, s: usize) -> f64 {
    assert!(n > 0 && s > 0, "batch and stage counts must be positive");
    n as f64 / (n + 2 * s - 2) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_decrease_toward_the_end_of_the_pipeline() {
        assert_eq!(stage_delay(0, 4), 6);
        assert_eq!(stage_delay(1, 4), 4);
        assert_eq!(stage_delay(3, 4), 0);
    }

    #[test]
    fn utilization_bound_matches_eq1() {
        // N >> S: utilization → 1.
        assert!(fill_drain_utilization(10_000, 4) > 0.99);
        // N = 1, S = 34 (ResNet20): 1/67 ≈ 1.5%.
        let u = fill_drain_utilization(1, 34);
        assert!((u - 1.0 / 67.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn stage_delay_bounds_checked() {
        stage_delay(4, 4);
    }

    #[test]
    fn pb_actions_update_every_microbatch() {
        let plan = MicrobatchSchedule::PipelinedBackprop;
        for i in [0usize, 1, 7] {
            assert_eq!(
                plan.stage_actions(i),
                vec![
                    Action::Forward(i),
                    Action::BackwardInput(i),
                    Action::BackwardWeight(i),
                    Action::Update,
                ]
            );
        }
    }

    #[test]
    fn one_f_one_b_at_m1_emits_the_pb_stream() {
        let pb = MicrobatchSchedule::PipelinedBackprop;
        let ofob = MicrobatchSchedule::OneFOneB {
            microbatches_per_update: 1,
        };
        for i in 0..5 {
            assert_eq!(pb.stage_actions(i), ofob.stage_actions(i));
        }
        for s in 0..4 {
            assert_eq!(pb.stage_delay(s, 4), ofob.stage_delay(s, 4));
            assert_eq!(pb.stage_version_lag(s, 4), ofob.stage_version_lag(s, 4));
        }
    }

    #[test]
    fn accumulating_schedules_update_at_window_boundaries() {
        let plan = MicrobatchSchedule::OneFOneB {
            microbatches_per_update: 3,
        };
        assert!(!plan.stage_actions(0).contains(&Action::Update));
        assert!(!plan.stage_actions(1).contains(&Action::Update));
        assert!(plan.stage_actions(2).contains(&Action::Update));
        assert!(plan.stage_actions(5).contains(&Action::Update));
        let fd = MicrobatchSchedule::FillDrain { update_size: 4 };
        assert!(!fd.stage_actions(6).contains(&Action::Update));
        assert!(fd.stage_actions(7).contains(&Action::Update));
    }

    #[test]
    fn two_bp_defers_weight_halves_to_the_update_boundary() {
        let plan = MicrobatchSchedule::TwoBP {
            microbatches_per_update: 3,
        };
        assert!(plan.splits_backward());
        assert_eq!(
            plan.stage_actions(1),
            vec![Action::Forward(1), Action::BackwardInput(1)]
        );
        // The closing microbatch retires the whole window in FIFO order.
        assert_eq!(
            plan.stage_actions(5),
            vec![
                Action::Forward(5),
                Action::BackwardInput(5),
                Action::BackwardWeight(3),
                Action::BackwardWeight(4),
                Action::BackwardWeight(5),
                Action::Update,
            ]
        );
        // Every BackwardInput is paired with exactly one BackwardWeight.
        let mut inputs = 0usize;
        let mut weights = 0usize;
        for i in 0..12 {
            for a in plan.stage_actions(i) {
                match a {
                    Action::BackwardInput(_) => inputs += 1,
                    Action::BackwardWeight(_) => weights += 1,
                    _ => {}
                }
            }
        }
        assert_eq!(inputs, weights);
    }

    #[test]
    fn accumulating_delay_is_ceil_of_eq5_over_m() {
        // S = 4 pipeline stages: D_s = 6, 4, 2 for the layer stages.
        let plan = MicrobatchSchedule::OneFOneB {
            microbatches_per_update: 4,
        };
        assert_eq!(plan.stage_delay(0, 4), 2); // ⌈6/4⌉
        assert_eq!(plan.stage_delay(1, 4), 1); // ⌈4/4⌉
        assert_eq!(plan.stage_delay(2, 4), 1); // ⌈2/4⌉
        assert_eq!(plan.stage_delay(3, 4), 0);
        // The version lag stays in microbatch units.
        assert_eq!(plan.stage_version_lag(0, 4), 6);
        let bp2 = MicrobatchSchedule::TwoBP {
            microbatches_per_update: 4,
        };
        for s in 0..4 {
            assert_eq!(plan.stage_delay(s, 4), bp2.stage_delay(s, 4));
        }
        let fd = MicrobatchSchedule::FillDrain { update_size: 8 };
        assert_eq!(fd.stage_delay(0, 4), 0);
        assert_eq!(fd.stage_version_lag(0, 4), 0);
        let ud = MicrobatchSchedule::UniformDelay { delay: 3 };
        assert_eq!(ud.stage_delay(2, 4), 3);
    }

    #[test]
    fn schedule_labels_name_the_cadence() {
        assert_eq!(MicrobatchSchedule::PipelinedBackprop.label(), "PB");
        assert_eq!(
            MicrobatchSchedule::OneFOneB {
                microbatches_per_update: 4
            }
            .label(),
            "1F1B (M=4)"
        );
        assert_eq!(
            MicrobatchSchedule::TwoBP {
                microbatches_per_update: 8
            }
            .label(),
            "2BP (M=8)"
        );
    }
}
