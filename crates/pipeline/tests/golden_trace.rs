//! Golden-trace verification: the schedule-executing engines — one
//! thread or threaded workers, however few — must emit traces whose structure is
//! *exactly* derivable from their schedule's action stream — same span
//! counts, sequential lanes, and bit-identical structure across same-seed
//! runs. The MFU report built from a traced run must land in (0, 1].

use pbp_data::spirals;
use pbp_nn::models::mlp;
use pbp_optim::{Hyperparams, LrSchedule};
use pbp_pipeline::{
    Action, EngineSpec, MicrobatchSchedule, ScheduledConfig, ScheduledTrainer, ThreadedConfig,
    TrainEngine,
};
use pbp_trace::analysis::TraceAnalysis;
use pbp_trace::mfu::{measure_peak_gflops, model_flops, MfuReport};
use pbp_trace::{Trace, TracePhase, Tracer, PID_WALL};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn schedule() -> LrSchedule {
    LrSchedule::constant(Hyperparams::new(0.05, 0.9))
}

/// The four traced plans of the bench lane, at a small update size.
fn plans() -> Vec<MicrobatchSchedule> {
    vec![
        MicrobatchSchedule::PipelinedBackprop,
        MicrobatchSchedule::FillDrain { update_size: 4 },
        MicrobatchSchedule::OneFOneB {
            microbatches_per_update: 4,
        },
        MicrobatchSchedule::TwoBP {
            microbatches_per_update: 4,
        },
    ]
}

/// Which substrate executes the plan.
#[derive(Debug, Clone, Copy)]
enum Substrate {
    Sequential,
    Threaded,
}

const SUBSTRATES: [Substrate; 2] = [Substrate::Sequential, Substrate::Threaded];

/// Runs `n` microbatches of `plan` on `substrate` under a tracer; returns
/// the trace, the per-stage has-parameters mask, and the loss sum.
fn traced_run(
    substrate: Substrate,
    plan: MicrobatchSchedule,
    widths: &[usize],
    n: usize,
    seed: u64,
) -> (Trace, Vec<bool>, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let net = mlp(widths, &mut rng);
    let has_params: Vec<bool> = (0..net.num_stages())
        .map(|s| !net.stage(s).params().is_empty())
        .collect();
    let data = spirals(3, 16, 0.05, 7);
    let run = ScheduledConfig::new(plan, schedule());
    let mut engine = match substrate {
        Substrate::Sequential => EngineSpec::Scheduled(run),
        Substrate::Threaded => EngineSpec::Threaded(ThreadedConfig::new(run)),
    }
    .build(net);
    let tracer = Tracer::new();
    engine.set_tracer(tracer.clone());
    let order: Vec<usize> = (0..n).map(|i| i % data.len()).collect();
    let (loss, _) = engine.train_range(&data, &order);
    assert!(engine.take_fault().is_none(), "{substrate:?} run faulted");
    (tracer.finish(), has_params, loss)
}

/// Counts each action kind in `plan`'s stream over `n` microbatches —
/// the golden reference every stage lane must match.
fn expected_counts(plan: &MicrobatchSchedule, n: usize) -> (usize, usize, usize, usize) {
    let (mut f, mut bi, mut bw, mut u) = (0, 0, 0, 0);
    for i in 0..n {
        for a in plan.stage_actions(i) {
            match a {
                Action::Forward(_) => f += 1,
                Action::BackwardInput(_) => bi += 1,
                Action::BackwardWeight(_) => bw += 1,
                Action::Update => u += 1,
            }
        }
    }
    (f, bi, bw, u)
}

fn phase_count(lane: &pbp_trace::TraceLane, phase: TracePhase) -> usize {
    lane.spans.iter().filter(|s| s.phase == phase).count()
}

#[test]
fn span_counts_match_the_action_stream_exactly() {
    let n = 16;
    for (substrate, plan) in SUBSTRATES
        .into_iter()
        .flat_map(|s| plans().into_iter().map(move |p| (s, p)))
    {
        let what = format!("{substrate:?} {}", plan.label());
        let (trace, has_params, _) = traced_run(substrate, plan, &[2, 8, 3], n, 1);
        let (f, bi, bw, u) = expected_counts(&plan, n);
        for (s, &params) in has_params.iter().enumerate() {
            let lane = trace
                .lane(PID_WALL, &format!("stage-{s}"))
                .unwrap_or_else(|| panic!("{what}: no lane for stage {s}"));
            assert_eq!(lane.unmatched_begins, 0, "{what}: dangling begins");
            assert_eq!(
                phase_count(lane, TracePhase::Forward),
                f,
                "{what} stage {s}: forwards"
            );
            assert_eq!(
                phase_count(lane, TracePhase::BackwardInput),
                bi,
                "{what} stage {s}: backward-input halves"
            );
            assert_eq!(
                phase_count(lane, TracePhase::BackwardWeight),
                bw,
                "{what} stage {s}: backward-weight halves"
            );
            // Parameterless stages have no optimizer step to record.
            let want_u = if params { u } else { 0 };
            assert_eq!(
                phase_count(lane, TracePhase::Update),
                want_u,
                "{what} stage {s}: updates"
            );
        }
    }
}

#[test]
fn stage_lanes_are_sequential_and_monotonic() {
    for (substrate, plan) in SUBSTRATES
        .into_iter()
        .flat_map(|s| plans().into_iter().map(move |p| (s, p)))
    {
        let what = format!("{substrate:?} {}", plan.label());
        let (trace, _, _) = traced_run(substrate, plan, &[2, 8, 8, 3], 12, 2);
        let analysis = TraceAnalysis::of(&trace, PID_WALL);
        assert!(
            !analysis.any_overlap(),
            "{what}: spans overlap within a stage lane"
        );
        for lane in trace.lanes_of(PID_WALL) {
            for pair in lane.spans.windows(2) {
                assert!(
                    pair[1].start_ns >= pair[0].start_ns,
                    "{what} lane {}: spans out of order",
                    lane.name
                );
            }
        }
    }
}

#[test]
fn same_seed_runs_have_identical_structure() {
    for plan in plans() {
        let (a, _, loss_a) = traced_run(Substrate::Sequential, plan, &[2, 8, 3], 16, 3);
        let (b, _, loss_b) = traced_run(Substrate::Sequential, plan, &[2, 8, 3], 16, 3);
        assert_eq!(loss_a, loss_b, "{}: runs diverged", plan.label());
        assert_eq!(
            a.structural_signature(),
            b.structural_signature(),
            "{}: same-seed traces differ structurally",
            plan.label()
        );
    }
}

#[test]
fn mfu_of_a_real_run_is_positive_and_bounded() {
    let mut rng = StdRng::seed_from_u64(4);
    let net = mlp(&[2, 32, 32, 3], &mut rng);
    let fwd_flops: u64 = (0..net.num_stages())
        .map(|s| net.stage(s).flops_per_sample())
        .sum();
    let data = spirals(3, 32, 0.05, 5);
    let mut engine = ScheduledTrainer::new(
        net,
        ScheduledConfig::new(
            MicrobatchSchedule::OneFOneB {
                microbatches_per_update: 8,
            },
            schedule(),
        ),
    );
    let order: Vec<usize> = (0..64).map(|i| i % data.len()).collect();
    let started = std::time::Instant::now();
    TrainEngine::train_range(&mut engine, &data, &order);
    let wall = started.elapsed().as_secs_f64();
    let peak = measure_peak_gflops();
    let report = MfuReport::new(model_flops(fwd_flops, order.len()), wall, peak);
    assert!(report.peak_gflops > 0.0, "peak probe failed: {report:?}");
    assert!(
        report.mfu > 0.0 && report.mfu <= 1.0,
        "MFU out of bounds: {report:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_schedules_emit_balanced_monotonic_lanes(
        seed in 0u64..10_000,
        hidden in 4usize..12,
        windows in 1usize..5,
        plan_idx in 0usize..4,
    ) {
        let m = 4;
        let plan = match plan_idx {
            0 => MicrobatchSchedule::PipelinedBackprop,
            1 => MicrobatchSchedule::FillDrain { update_size: m },
            2 => MicrobatchSchedule::OneFOneB { microbatches_per_update: m },
            _ => MicrobatchSchedule::TwoBP { microbatches_per_update: m },
        };
        let n = windows * m;
        let (trace, _, _) = traced_run(Substrate::Sequential, plan, &[2, hidden, 3], n, seed);
        let analysis = TraceAnalysis::of(&trace, PID_WALL);
        for lane in trace.lanes_of(PID_WALL) {
            // Every begin was closed.
            prop_assert_eq!(lane.unmatched_begins, 0);
            // Per-lane spans carry monotonically increasing start times.
            for pair in lane.spans.windows(2) {
                prop_assert!(pair[1].start_ns >= pair[0].start_ns);
            }
        }
        for stats in &analysis.lanes {
            // Busy and stall partition the lane's observed window.
            prop_assert_eq!(stats.busy_ns + stats.stall_ns, stats.window_ns);
            prop_assert!(!stats.overlapping);
        }
    }
}
