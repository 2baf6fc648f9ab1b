//! The experiments that train networks: the paper's CIFAR / ImageNet
//! tables and curves on their synthetic stand-ins, the delayed-gradient
//! studies of the appendices, and the Discussion section's ablations.
//! Every run goes through [`sweep`].

use super::analytic::{overcompensation_is_optimal, ALPHA};
use super::{all, arg_best, ensure, rows, Claim, Experiment, POINT};
use crate::families::{cifar_data, family_data, imagenet_data, Family};
use crate::report::{RecordError, Rel, Rel::*, Report, Table, View};
use crate::suite::{mean_of, pb, pct_pm, reference_hp, sgdm, sweep, Budget, Scale};
use pbp_data::Dataset;
use pbp_nn::models::{resnet50_like, simple_cnn, simple_cnn_ws, vgg, VggVariant};
use pbp_nn::Network;
use pbp_optim::{scale_hyperparams, Hyperparams, LrSchedule, LwpForm, Mitigation as M};
use pbp_pipeline::{
    fill_drain_utilization, DelayDistribution, DelayedConfig, EngineSpec, RunConfig,
    ScheduledConfig, TrainReport,
};
use rand::rngs::StdRng;
use EngineSpec::{Delayed, Scheduled};
use Family::{ResNet, ResNet50, Vgg};
use VggVariant::{Vgg11, Vgg13, Vgg16};

const FINAL: fn(&TrainReport) -> f64 = TrainReport::final_val_acc;

type Build<'a> = &'a dyn Fn(&mut StdRng) -> Network;

/// What the runs of one experiment share: a dataset at a budget.
struct Study {
    budget: Budget,
    data: (Dataset, Dataset),
}

impl Study {
    /// `size`-pixel CIFAR-sim at the budget `full` scaled.
    fn cifar(size: usize, full: [usize; 4], scale: Scale) -> Self {
        let budget = Budget::new(full, scale);
        let data = cifar_data(size, budget.train_samples, budget.val_samples);
        Study { budget, data }
    }

    /// One run per seed, validated after its last epoch only.
    fn sweep(&self, spec: &EngineSpec, build: Build, seed_base: (u64, u64)) -> Vec<TrainReport> {
        let run = RunConfig::new(self.budget.epochs, seed_base.1).eval_last_only();
        sweep(spec, build, &self.data, self.budget.seeds, seed_base.0, run)
    }

    /// One run per seed, validated after every epoch (Figs. 8, 9, 16, 17).
    fn curves(&self, spec: &EngineSpec, build: Build, seed_base: (u64, u64)) -> Vec<TrainReport> {
        let run = RunConfig::new(self.budget.epochs, seed_base.1);
        sweep(spec, build, &self.data, self.budget.seeds, seed_base.0, run)
    }
}

/// PB at update size one under each mitigation.
fn pbs<const N: usize>(mitigations: [M; N]) -> [EngineSpec; N] {
    mitigations.map(|m| Scheduled(pb(m)))
}

fn pb_ws() -> EngineSpec {
    Scheduled(pb(M::None).with_weight_stashing())
}

// ---- Tables 1–6: families × methods ----------------------------------------

/// Stage counts and `mean±std` final accuracies, one row per family, after
/// 6 epochs over 1500/300 samples; `{seeds}` in the title is the seed count.
fn families(title: &str, seeds: usize, nets: &[Family], specs: &[EngineSpec], s: Scale) -> Report {
    let budget = Budget::new([1500, 300, 6, seeds], s);
    let methods = specs.iter().map(EngineSpec::label);
    let mut table = Table::new("network", ["stages".to_string()].into_iter().chain(methods));
    for family in nets {
        let data = family_data(*family, budget.train_samples, budget.val_samples);
        let classes = data.0.num_classes();
        let study = Study { budget, data };
        let build = |rng: &mut StdRng| family.build(classes, rng);
        let accuracy = |spec| pct_pm(&study.sweep(spec, &build, (1000, 0)), 2, FINAL);
        let stages = [family.stage_count().to_string()].into_iter();
        table.row(family.name(), stages.chain(specs.iter().map(accuracy)));
    }
    Report::titled(title.replace("{seeds}", &budget.seeds.to_string()), table)
}

/// The same clauses between columns on each of the rows `nets`.
fn per_row(t: &View, nets: &[&str], clauses: &[(&str, Rel, &str)]) -> Claim {
    let mut results = Vec::new();
    for net in nets {
        for &(a, rel, b) in clauses {
            results.push(t.is((net, a), rel, (net, b))?);
        }
    }
    Ok(all(results))
}

fn table1(scale: Scale) -> Report {
    let [pb, fix] = pbs([M::None, M::lwpv_scd()]);
    let title =
        "== Table 1 / Table 5: CIFAR-sim, {seeds} seeds (paper: 5-run means on CIFAR-10) ==";
    families(title, 3, &Family::table1(), &[sgdm(32), pb, fix], scale)
}

pub const TABLE1: Experiment = Experiment::new(
    true,
    ("table1_cifar_families", "Table 1 / Table 5"),
    table1,
    "PB ends below SGDM on every network; the gap is larger on the\n\
     169-stage RN110 than on the 34-stage RN20; PB+LWPvD+SCD recovers more\n\
     than half of the gap on every network but the deepest.",
    |r| {
        let t = r.nth(0, 0.0)?;
        let gap = |net| Ok::<f64, RecordError>(t.at(net, "SGDM")?.mean - t.at(net, "PB")?.mean);
        let mut clauses = vec![per_row(&t, &t.labels(), &[("SGDM", Above, "PB")])?];
        for net in t.labels().into_iter().filter(|&net| net != "RN110") {
            let (pb, fix) = (t.at(net, "PB")?, t.at(net, "PB+LWPvD+SCD")?);
            let recovered = (fix.mean - pb.mean) / gap(net)?;
            let why = || format!("{fix} recovers {recovered:.2} of column 'SGDM' − {pb}");
            clauses.push(ensure(recovered > 0.5, why));
        }
        let (shallow, deep) = (gap("RN20")?, gap("RN110")?);
        clauses.push(ensure(deep > shallow, || {
            let gap = "columns 'SGDM' − 'PB'";
            format!("row 'RN110': {gap} = {deep:.1} does not exceed row 'RN20''s {shallow:.1}")
        }));
        Ok(all(clauses))
    },
)
.not_reproduced("3 seeds");

fn table2(scale: Scale) -> Report {
    let nets = [Vgg(Vgg11), Vgg(Vgg16), ResNet(20), ResNet(56)];
    let title = "== Table 2: weight stashing ablation ({seeds} seeds) ==";
    let [pb] = pbs([M::None]);
    families(title, 3, &nets, &[sgdm(32), pb, pb_ws()], scale)
}

pub const TABLE2: Experiment = Experiment::new(
    true,
    ("table2_weight_stashing", "Table 2 (App. B)"),
    table2,
    "weight stashing does not help PB at update size one: PB+WS is within\n\
     one pooled std of PB on every network, and SGDM is above both.",
    |r| {
        let (t, sgdm, pb, ws) = (r.nth(0, 0.0)?, "SGDM", "PB", "PB+WS");
        let clauses = [(ws, Matches, pb), (sgdm, Above, pb), (sgdm, Above, ws)];
        per_row(&t, &t.labels(), &clauses)
    },
);

fn table3(scale: Scale) -> Report {
    let nets = [Vgg(Vgg13), ResNet(20), ResNet(56), ResNet50];
    let title = "== Table 3: SpecTrain comparison ({seeds} seeds) ==";
    let [pb, fix, spectrain] = pbs([M::None, M::lwpv_scd(), M::SpecTrain]);
    families(title, 2, &nets, &[sgdm(32), pb, fix, spectrain], scale)
}

pub const TABLE3: Experiment = Experiment::new(
    true,
    ("table3_spectrain", "Table 3 (App. C.1)"),
    table3,
    "on every ResNet row SpecTrain and PB+LWPvD+SCD are both above PB and\n\
     within one pooled std of each other.",
    |r| {
        let (pb, fix, spec) = ("PB", "PB+LWPvD+SCD", "PB+SpecTrain");
        let clauses = [(fix, Above, pb), (spec, Above, pb), (spec, Matches, fix)];
        per_row(&r.nth(0, 0.0)?, &["RN20", "RN56", "RN50"], &clauses)
    },
)
.not_reproduced("2 seeds");

const TABLE4_NETS: [Family; 4] = [Vgg(Vgg11), ResNet(20), ResNet(56), ResNet(110)];

fn table4(size: Scale) -> Report {
    let (form, scale) = (LwpForm::Velocity, 2.0);
    let (lwp2d, sc2d) = (M::Lwp { form, scale }, M::Sc { scale });
    let methods = pbs([M::None, M::lwpd(), lwp2d, M::scd(), sc2d]);
    let title = "== Table 4: overcompensation ablation ({seeds} seeds) ==";
    families(title, 2, &TABLE4_NETS, &methods, size)
}

pub const TABLE4: Experiment = Experiment::new(
    true,
    ("table4_overcompensation", "Table 4 (App. E)"),
    table4,
    "doubling the horizon (LWPv2D) or the effective delay (SC2D) does not\n\
     hurt on pipelines up to 88 stages, and on the 169-stage RN110 the\n\
     doubled horizon destabilises training: LWPvD is at or above LWPv2D.",
    |r| {
        let t = r.nth(0, 0.0)?;
        let (lwp, lwp2, sc, sc2) = ("PB+LWPvD", "PB+LWPv2D", "PB+SCD", "PB+SC2D");
        let helps = [(lwp2, NotBelow, lwp), (sc2, NotBelow, sc)];
        let shallow = per_row(&t, &["VGG11", "RN20", "RN56"], &helps)?;
        Ok(all([
            shallow,
            per_row(&t, &["RN110"], &[(lwp, NotBelow, lwp2)])?,
        ]))
    },
)
.not_reproduced("2 seeds");

fn table6(scale: Scale) -> Report {
    let title = "== Table 6: LWPvD+SCD vs LWPwD+SCD ({seeds} seeds) ==";
    let [pb, velocity, weight] = pbs([M::None, M::lwpv_scd(), M::lwpw_scd()]);
    let methods = [sgdm(32), pb, velocity, weight];
    families(title, 2, &TABLE4_NETS, &methods, scale)
}

pub const TABLE6: Experiment = Experiment::new(
    true,
    ("table6_lwp_forms", "Table 6 (App. H.5)"),
    table6,
    "both forms of the combined mitigation end above PB, and the velocity\n\
     form LWPvD+SCD matches or beats the weight-difference form LWPwD+SCD\n\
     on every network.",
    |r| {
        let (t, v, w) = (r.nth(0, 0.0)?, "PB+LWPvD+SCD", "PB+LWPwD+SCD");
        let clauses = [(v, Above, "PB"), (w, Above, "PB"), (v, NotBelow, w)];
        per_row(&t, &t.labels(), &clauses)
    },
)
.not_reproduced("2 seeds");

// ---- Figures 8 and 9: validation curves of the five methods ----------------

fn curves(title: String, study: Study, build: Build, seed_base: (u64, u64)) -> Report {
    // SGDM at batch 32 (hyperparameters scaled from the 128 reference so the
    // per-sample contribution matches PB's), then PB at update size one.
    let mitigated = pbs([M::None, M::lwpd(), M::scd(), M::lwpv_scd()]);
    let specs = [sgdm(32)].into_iter().chain(mitigated);
    let runs = specs.flat_map(|spec| study.curves(&spec, build, seed_base));
    let runs: Vec<TrainReport> = runs.collect();

    let mut table = Table::new("epoch", runs.iter().map(|run| run.label.clone()));
    for epoch in 0..study.budget.epochs {
        let acc = |run: &TrainReport| format!("{:.1}%", 100.0 * run.records[epoch].val_acc);
        table.row(epoch, runs.iter().map(acc));
    }
    let mut finals = Table::new("method", ["val acc"]);
    for run in &runs {
        finals.row(&run.label, [format!("{:.1}%", 100.0 * run.final_val_acc())]);
    }
    let mut r = Report::titled(title, table);
    r.line("final validation accuracy:").table(finals);
    r
}

/// What Figures 8 and 9 share: PB below SGDM, every mitigation above PB,
/// the combination at or above both single mitigations and SGDM.
fn curves_claim(r: &Report) -> Claim {
    let t = r.nth(1, POINT)?;
    let (lwp, sc, both) = ("PB+LWPvD", "PB+SCD", "PB+LWPvD+SCD");
    let mut clauses = Vec::new();
    for method in ["SGDM", lwp, sc, both] {
        clauses.push(t.is((method, "val acc"), Above, ("PB", "val acc"))?);
    }
    for method in [lwp, sc, "SGDM"] {
        clauses.push(t.is((both, "val acc"), NotBelow, (method, "val acc"))?);
    }
    Ok(all(clauses))
}

fn fig8(scale: Scale) -> Report {
    let study = Study::cifar(16, [1500, 300, 8, 1], scale);
    let stages = ResNet(20).stage_count();
    let title = format!("== Figure 8: ResNet20 ({stages} stages) on CIFAR-sim ==");
    curves(title, study, &|rng| ResNet(20).build(10, rng), (1000, 7))
}

pub const FIG8: Experiment = Experiment::new(
    true,
    ("fig8_cifar_rn20", "Fig. 8"),
    fig8,
    "on the 34-stage ResNet20 PB ends below SGDM, every mitigation ends\n\
     above PB, and PB+LWPvD+SCD is at or above both single mitigations and\n\
     reaches SGDM (margin: one point).",
    curves_claim,
);

fn fig9(scale: Scale) -> Report {
    let budget = Budget::new([2000, 400, 8, 1], scale);
    let data = imagenet_data(24, budget.train_samples, budget.val_samples);
    let stages = ResNet50.stage_count();
    let title = format!("== Figure 9: ResNet50-like ({stages} stages) on ImageNet-sim ==");
    let build = |rng: &mut StdRng| resnet50_like(4, 3, 20, rng);
    curves(title, Study { budget, data }, &build, (2000, 9))
}

pub const FIG9: Experiment = Experiment::new(
    true,
    ("fig9_imagenet_rn50", "Fig. 9"),
    fig9,
    "on the 78-stage ResNet50 PB ends below SGDM by more than on ResNet20\n\
     (Fig. 8's record), every mitigation ends above PB, and PB+LWPvD+SCD is\n\
     at or above both single mitigations and reaches SGDM (margin: one\n\
     point).",
    |r| {
        let gap = |r: &Report| {
            let t = r.nth(1, POINT)?;
            Ok::<f64, RecordError>(t.at("SGDM", "val acc")?.mean - t.at("PB", "val acc")?.mean)
        };
        let (deep, shallow) = (gap(r)?, gap(&r.sibling("fig8_cifar_rn20")?)?);
        let deeper = ensure(deep > shallow, || {
            let gap = "rows 'SGDM' − 'PB', column 'val acc'";
            format!("{gap} = {deep:.1} does not exceed ResNet20's {shallow:.1} (fig8_cifar_rn20)")
        });
        Ok(all([curves_claim(r)?, deeper]))
    },
)
.not_reproduced("1 seed each");

// ---- The small-CNN delay studies -------------------------------------------

const BATCH: usize = 8;
const DELAYS: [usize; 5] = [0, 4, 8, 16, 32];

/// The setting Figures 10, 13, 14 and three ablations share: 12×12
/// CIFAR-sim, 1200/300 samples, 8 epochs, 2 seeds, batch 8.
fn delay_study(scale: Scale) -> Study {
    Study::cifar(12, [1200, 300, 8, 2], scale)
}

/// … and its network, the simple GroupNorm CNN.
fn small_cnn(rng: &mut StdRng) -> Network {
    simple_cnn(3, 12, 6, 10, rng)
}

fn delayed(hp: Hyperparams, delay: usize, consistent: bool) -> DelayedConfig {
    let schedule = LrSchedule::constant(hp);
    match consistent {
        true => DelayedConfig::consistent(delay, BATCH, schedule),
        false => DelayedConfig::inconsistent(delay, BATCH, schedule),
    }
}

/// The small CNN trained under `config`, seed `i` initialised from `init + i`.
fn cnn_runs(study: &Study, config: DelayedConfig, init: u64) -> Vec<TrainReport> {
    study.sweep(&Delayed(config), &small_cnn, (init, 0))
}

/// `mean±std` final accuracy, as the delay ablations print it.
fn pm_acc(runs: Vec<TrainReport>) -> String {
    format!("{}%", pct_pm(&runs, 1, FINAL))
}

/// "`better` tolerates delay more than `baseline`": at or above it on
/// every row, above it on one or more.
fn more_tolerant(r: &Report, better: &str, baseline: &str) -> Claim {
    let t = r.nth(0, 0.0)?;
    let (b, a) = (t.column(better)?, t.column(baseline)?);
    let somewhere = ensure(rows(&b, Above, &a).iter().any(Result::is_ok), || {
        format!("column '{better}' is above column '{baseline}' on no row")
    });
    Ok(all(rows(&b, NotBelow, &a).into_iter().chain([somewhere])))
}

fn fig10(scale: Scale) -> Report {
    let (study, hp) = (delay_study(scale), reference_hp(BATCH));
    let mut table = Table::new("delay", ["consistent", "forward delay only", "gap"]);
    for delay in [0, 1, 2, 4, 8, 16, 32] {
        let runs = |consistent| cnn_runs(&study, delayed(hp, delay, consistent), 3000);
        let (c, f) = (mean_of(&runs(true), FINAL), mean_of(&runs(false), FINAL));
        let pct = |x: f64| format!("{:.1}%", 100.0 * x);
        let gap = format!("{:+.1}%", 100.0 * (c - f));
        table.row(delay, [pct(c), pct(f), gap]);
    }
    let title = format!(
        "== Figure 10: delayed gradients with consistent vs inconsistent weights ==\n   \
         (simple CNN w/ GroupNorm, batch {BATCH}, uniform delay in updates)"
    );
    Report::titled(title, table)
}

pub const FIG10: Experiment = Experiment::new(
    true,
    ("fig10_inconsistency", "Fig. 10 (App. B)"),
    fig10,
    "accuracy falls with the delay even with consistent weights; forward-\n\
     only delay (inconsistent weights) matches it at delays ≤ 2, is never\n\
     above it, and is below it at the largest delay (margin: one point).",
    |r| {
        let t = r.nth(0, POINT)?;
        let (consistent, forward) = (t.column("consistent")?, t.column("forward delay only")?);
        let (first, last) = (&consistent[0], &consistent[consistent.len() - 1]);
        let falls = [
            first.is(Above, last),
            last.is(Above, &forward[forward.len() - 1]),
        ];
        // The first three rows are delays 0, 1 and 2.
        let same = rows(&forward, Matches, &consistent).into_iter().take(3);
        let never_above = rows(&consistent, NotBelow, &forward);
        Ok(all(falls.into_iter().chain(same).chain(never_above)))
    },
)
.not_reproduced("means of 2 seeds");

fn fig13(scale: Scale) -> Report {
    let (study, hp, delay) = (delay_study(scale), reference_hp(BATCH), 4usize);
    let mut table = Table::new(ALPHA, ["final train loss", "val acc"]);
    for alpha in [0.0f32, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0] {
        let (form, scale) = (LwpForm::Velocity, alpha);
        let mitigation = match alpha == 0.0 {
            true => M::None,
            false => M::Lwp { form, scale },
        };
        let runs = cnn_runs(
            &study,
            delayed(hp, delay, true).with_mitigation(mitigation),
            4000,
        );
        let last = |run: &TrainReport| run.records[run.records.len() - 1];
        let loss = mean_of(&runs, |run| last(run).train_loss);
        let acc = 100.0 * mean_of(&runs, |run| last(run).val_acc);
        table.row(alpha, [format!("{loss:.4}"), format!("{acc:.1}%")]);
    }
    let title =
        format!("== Figure 13: prediction scale α sweep (uniform delay D={delay}, consistent) ==");
    Report::titled(title, table)
}

pub const FIG13: Experiment = Experiment::new(
    true,
    ("fig13_prediction_scale_nn", "Fig. 13 (App. E)"),
    fig13,
    "training a network under delay D=4, final loss falls from α=0 to α=1\n\
     to α=2, its minimum lies at 2 ≤ α ≤ 4, and accuracy at α=2 is above\n\
     accuracy at α=0 (margin: one point) — Fig. 12's curve.",
    |r| {
        let (exact, t) = (r.nth(0, 0.0)?, r.nth(0, POINT)?);
        let accuracy = t.is(("2", "val acc"), Above, ("0", "val acc"))?;
        let loss = overcompensation_is_optimal(&exact, "final train loss")?;
        Ok(all([loss, accuracy]))
    },
);

const FIG14_METHODS: [&str; 4] = ["D=12", "SCD", "LWPD", "LWPvD+SCD"];

fn fig14(scale: Scale) -> Report {
    let (study, delay) = (delay_study(scale), 12usize);
    let mut r = Report::default();
    for (consistent, panel) in [(true, "(a) consistent"), (false, "(b) inconsistent")] {
        let mut table = Table::new("-log10(1-m)", ["no delay"].into_iter().chain(FIG14_METHODS));
        for m in [0.0f32, 0.9, 0.99, 0.999, 0.9999] {
            // For each momentum the learning rate keeps every gradient's
            // total contribution to the weights at the reference's
            // (η=0.1, m=0.9, N=128): Eq. 9's second rule.
            let lr = (1.0 - m) * BATCH as f32 / ((1.0 - 0.9) * 128.0) * 0.1;
            let acc = |mitigation, delay, consistent| {
                let config = delayed(Hyperparams::new(lr, m), delay, consistent);
                let runs = cnn_runs(&study, config.with_mitigation(mitigation), 5000);
                format!("{:.1}%", 100.0 * mean_of(&runs, FINAL))
            };
            let momentum = match m == 0.0 {
                true => "m=0".to_string(),
                false => format!("{:.0}", -(1.0 - m).log10()),
            };
            let methods = [M::None, M::scd(), M::lwpd(), M::lwpv_scd()];
            let delayed = methods.map(|mitigation| acc(mitigation, delay, consistent));
            table.row(momentum, [acc(M::None, 0, true)].into_iter().chain(delayed));
        }
        let title = format!("== Figure 14{panel} weights: momentum sweep, delay D={delay} ==\n");
        r.line(title).table(table);
    }
    r
}

pub const FIG14: Experiment = Experiment::new(
    true,
    ("fig14_momentum_sweep", "Fig. 14 (App. F)"),
    fig14,
    "without mitigation the delay costs more at m=0.99 than at m=0; with\n\
     LWPvD+SCD the best momentum is larger than without, and its best\n\
     accuracy reaches the no-delay baseline's; with inconsistent weights\n\
     every delayed method at m=0 falls below its consistent-weight value\n\
     (margin: one point).",
    |r| {
        let (a, b) = (r.nth(0, POINT)?, r.nth(1, POINT)?);
        let (undelayed, plain) = (a.column("no delay")?, a.column("D=12")?);
        let both = a.column("LWPvD+SCD")?;
        let cost =
            |row| Ok::<f64, RecordError>(a.at(row, "no delay")?.mean - a.at(row, "D=12")?.mean);
        let (low, high) = (cost("m=0")?, cost("2")?);
        let (best_plain, best_both) = (arg_best(&plain, -1.0), arg_best(&both, -1.0));
        let mut clauses = vec![
            ensure(high > low + POINT, || {
                let cost = "columns 'no delay' − 'D=12'";
                format!("row '2': {cost} = {high:.1} does not exceed row 'm=0''s {low:.1}")
            }),
            ensure(best_both > best_plain, || {
                let (both, plain) = (&both[best_both], &plain[best_plain]);
                format!("{both} is its column's best, at no larger a momentum than {plain}")
            }),
            both[best_both].is(NotBelow, &undelayed[arg_best(&undelayed, -1.0)]),
        ];
        for method in FIG14_METHODS {
            let falls = a.at("m=0", method)?.is(Above, &b.at("m=0", method)?);
            clauses.push(falls.map_err(|why| format!("panel (a) against (b): {why}")));
        }
        Ok(all(clauses))
    },
)
.not_reproduced("means of 2 seeds");

/// The per-epoch table of Figures 16 and 17: two engines' `mean±std`
/// validation accuracy and the distance between the means.
fn paired_curves(headers: [&str; 2], a: &[TrainReport], b: &[TrainReport], epochs: usize) -> Table {
    let mut table = Table::new("epoch", [headers[0], headers[1], "|Δ|"]);
    for epoch in 0..epochs {
        let acc = |run: &TrainReport| run.records[epoch].val_acc;
        let delta = 100.0 * (mean_of(a, acc) - mean_of(b, acc)).abs();
        let pm = |runs| format!("{}%", pct_pm(runs, 1, acc));
        table.row(epoch, [pm(a), pm(b), format!("{delta:.2}%")]);
    }
    table
}

fn fig16(scale: Scale) -> Report {
    let study = Study::cifar(32, [1200, 300, 6, 4], scale);
    let (batch, schedule) = (32usize, LrSchedule::constant(reference_hp(32)));
    let build = |rng: &mut StdRng| vgg(Vgg11, 16, 3, 10, 0.2, rng);
    let fill_drain = Scheduled(ScheduledConfig::fill_drain(batch, schedule));
    let a = study.curves(&sgdm(batch), &build, (6000, 0));
    let b = study.curves(&fill_drain, &build, (6000, 0));
    let headers = ["batch SGD val acc", "fill&drain val acc"];
    let table = paired_curves(headers, &a, &b, study.budget.epochs);
    let seeds = study.budget.seeds;
    let title =
        format!("== Figure 16: batch-parallel SGD vs fill&drain SGD (VGG11, {seeds} seeds) ==");
    let mut r = Report::titled(title, table);
    let stages = Vgg11.expected_stage_count();
    r.line(format!(
        "fill&drain pipeline utilization at N={batch} over {stages} stages: {:.1}% (Eq. 1 bound)\n",
        100.0 * fill_drain_utilization(batch, stages)
    ));
    r
}

pub const FIG16: Experiment = Experiment::new(
    true,
    ("fig16_filldrain_validation", "Fig. 16 (App. H.2)"),
    fig16,
    "batch-parallel SGD and fill&drain pipeline SGD reach validation\n\
     accuracies within one pooled std of each other at every epoch.",
    |r| {
        let t = r.nth(0, 0.0)?;
        let (batch, fill_drain) = ("batch SGD val acc", "fill&drain val acc");
        Ok(all(rows(
            &t.column(batch)?,
            Matches,
            &t.column(fill_drain)?,
        )))
    },
);

fn fig17(scale: Scale) -> Report {
    let study = Study::cifar(12, [1500, 300, 6, 3], scale);
    let reference = reference_hp(32);
    let scaled = scale_hyperparams(reference, 32, 1);
    let run = |batch, hp| {
        let spec = Delayed(DelayedConfig::sgdm(batch, LrSchedule::constant(hp)));
        study.curves(&spec, &small_cnn, (7000, 0))
    };
    let (big, one) = (run(32, reference), run(1, scaled));
    let headers = ["batch 32", "batch 1 (scaled)"];
    let table = paired_curves(headers, &big, &one, study.budget.epochs);
    let title = format!(
        "== Figure 17: Eq. 9 hyperparameter scaling, batch 32 vs batch 1 ==\n\
         reference: lr={:.4} m={:.4}   scaled (N=1): lr={:.6} m={:.6}",
        reference.lr, reference.momentum, scaled.lr, scaled.momentum
    );
    Report::titled(title, table)
}

pub const FIG17: Experiment = Experiment::new(
    true,
    ("fig17_hparam_scaling", "Fig. 17 (App. H.4)"),
    fig17,
    "batch-1 training with Eq. 9's scaled (η, m) tracks the batch-32\n\
     reference within one pooled std at every epoch.",
    |r| {
        let t = r.nth(0, 0.0)?;
        let (big, one) = (t.column("batch 32")?, t.column("batch 1 (scaled)")?);
        Ok(all(rows(&big, Matches, &one)))
    },
);

// ---- Discussion-section ablations ------------------------------------------

/// The setting two ablations share: 16×16 CIFAR-sim, 1500/300 samples,
/// 6 epochs, 2 seeds.
fn resnet32_study(scale: Scale) -> Study {
    Study::cifar(16, [1500, 300, 6, 2], scale)
}

/// … and the `mean±std` final accuracy of ResNet32 under `spec` there.
fn resnet32_acc(study: &Study, spec: &EngineSpec, init: u64) -> String {
    let build = |rng: &mut StdRng| ResNet(32).build(10, rng);
    pct_pm(&study.sweep(spec, &build, (init, 0)), 2, FINAL)
}

fn resnet32_setting(study: &Study) -> String {
    let (stages, seeds) = (ResNet(32).stage_count(), study.budget.seeds);
    format!("ResNet32, {stages} stages, {seeds} seeds")
}

fn baselines(scale: Scale) -> Report {
    let study = resnet32_study(scale);
    let shrink = M::GradShrink { factor: 0.98 };
    let singles = pbs([shrink, M::scd(), M::lwpd(), M::SpecTrain]);
    let [pb, both] = pbs([M::None, M::lwpv_scd()]);
    let specs = [sgdm(32), pb, pb_ws()].into_iter().chain(singles);
    let mut table = Table::new("method", ["final val acc"]);
    for spec in specs.chain([both]) {
        table.row(spec.label(), [resnet32_acc(&study, &spec, 1000)]);
    }
    let title = "== Ablation: mitigation building blocks and related-work baselines ==";
    Report::titled(format!("{title}\n({})", resnet32_setting(&study)), table)
}

pub const BASELINES: Experiment = Experiment::new(
    true,
    ("ablation_baselines", "Sections 3–4, App. B–C"),
    baselines,
    "on ResNet32 weight stashing and gradient shrinking stay within one\n\
     pooled std of plain PB, SCD and LWPvD each end above all three,\n\
     PB+LWPvD+SCD is at or above both, and SGDM is at or above it.",
    |r| {
        let t = r.nth(0, 0.0)?;
        let is = |a, rel, b| t.is((a, "final val acc"), rel, (b, "final val acc"));
        let (stashing, shrinking, both) = ("PB+WS", "PB+Shrink(0.98)", "PB+LWPvD+SCD");
        let mut clauses = vec![is(stashing, Matches, "PB")?, is(shrinking, Matches, "PB")?];
        for single in ["PB+SCD", "PB+LWPvD"] {
            for weak in ["PB", stashing, shrinking] {
                clauses.push(is(single, Above, weak)?);
            }
            clauses.push(is(both, NotBelow, single)?);
        }
        clauses.push(is("SGDM", NotBelow, both)?);
        Ok(all(clauses))
    },
)
.not_reproduced("2 seeds");

fn warmup(scale: Scale) -> Report {
    let study = resnet32_study(scale);
    let mut table = Table::new("method", ["no warmup", "1-epoch warmup"]);
    for mitigation in [M::None, M::scd(), M::lwpv_scd()] {
        let acc = |warmup_samples| {
            let schedule = LrSchedule::constant(reference_hp(1)).with_warmup(warmup_samples);
            let config = ScheduledConfig::pb(schedule).with_mitigation(mitigation);
            resnet32_acc(&study, &Scheduled(config), 8000)
        };
        // One epoch, linear.
        table.row(
            mitigation.label(),
            [acc(0), acc(study.budget.train_samples)],
        );
    }
    let title = format!(
        "== Ablation: LR warmup for PB ({}) ==",
        resnet32_setting(&study)
    );
    Report::titled(title, table)
}

pub const WARMUP: Experiment = Experiment::new(
    true,
    ("ablation_warmup", "Discussion"),
    warmup,
    "a one-epoch learning-rate warmup lifts plain PB, and lifts it by\n\
     more than it lifts PB+LWPvD+SCD.",
    |r| {
        let t = r.nth(0, 0.0)?;
        let (with, without) = ("1-epoch warmup", "no warmup");
        let lift = |row| Ok::<f64, RecordError>(t.at(row, with)?.mean - t.at(row, without)?.mean);
        let (plain, mitigated) = (lift("PB")?, lift("PB+LWPvD+SCD")?);
        let more = ensure(plain > mitigated, || {
            let lift = format!("row 'PB': columns '{with}' − '{without}' = {plain:.1}");
            format!("{lift} does not exceed row 'PB+LWPvD+SCD''s {mitigated:.1}")
        });
        Ok(all([t.is(("PB", with), Above, ("PB", without))?, more]))
    },
)
.not_reproduced("2 seeds");

fn weight_standardization(scale: Scale) -> Report {
    let (study, hp) = (delay_study(scale), reference_hp(BATCH));
    let mut table = Table::new("delay", ["conv+GN", "WS-conv+GN"]);
    for delay in DELAYS {
        let spec = Delayed(delayed(hp, delay, true));
        let acc = |build: Build| pm_acc(study.sweep(&spec, build, (9000, 0)));
        let plain = acc(&small_cnn);
        table.row(delay, [plain, acc(&|rng| simple_cnn_ws(3, 12, 6, 10, rng))]);
    }
    let seeds = study.budget.seeds;
    let title =
        format!("== Ablation: Weight Standardization and delay tolerance ({seeds} seeds) ==");
    Report::titled(title, table)
}

pub const WS_CONV: Experiment = Experiment::new(
    true,
    ("ablation_weight_standardization", "Discussion"),
    weight_standardization,
    "Weight Standardization boosts delay tolerance: WS-conv+GN is at or\n\
     above conv+GN at every delay and above it at one or more.",
    |r| more_tolerant(r, "WS-conv+GN", "conv+GN"),
)
.not_reproduced("2 seeds");

fn adam_delay(scale: Scale) -> Report {
    let (study, hp, adam_lr) = (delay_study(scale), reference_hp(BATCH), 1e-3f32);
    let mut table = Table::new("delay", ["SGDM", "Adam"]);
    for delay in DELAYS {
        let sgdm = pm_acc(cnn_runs(&study, delayed(hp, delay, true), 9500));
        let adam = DelayedConfig::adam(delay, BATCH, adam_lr);
        table.row(delay, [sgdm, pm_acc(cnn_runs(&study, adam, 9500))]);
    }
    let title = format!(
        "== Ablation: Adam vs SGDM under gradient delay ({} seeds) ==\n\
         (SGDM lr={:.4} m={:.4}; Adam lr={adam_lr})",
        study.budget.seeds, hp.lr, hp.momentum
    );
    Report::titled(title, table)
}

pub const ADAM_DELAY: Experiment = Experiment::new(
    true,
    ("ablation_adam_delay", "Discussion"),
    adam_delay,
    "Adam increases delay tolerance: it is at or above SGDM at every\n\
     delay and above it at one or more.",
    |r| more_tolerant(r, "Adam", "SGDM"),
);

fn asgd(scale: Scale) -> Report {
    let mut study = delay_study(scale);
    // Each seed draws its delays from its own stream, so it is a one-seed
    // sweep of its own spec.
    let seeds = std::mem::replace(&mut study.budget.seeds, 1) as u64;
    // Three distributions with mean delay 8, and the no-delay reference.
    let geometric = DelayDistribution::Geometric { p: 0.889, max: 64 };
    let cases = [
        ("constant D=8", DelayDistribution::Constant(8)),
        ("uniform 0..=16", DelayDistribution::Uniform { max: 16 }),
        ("geometric tail (p=.889, max=64)", geometric),
        ("no delay", DelayDistribution::Constant(0)),
    ];
    let mut table = Table::new("distribution", ["mean delay", "val acc"]);
    for (name, dist) in cases {
        let one = |seed| {
            let schedule = LrSchedule::constant(reference_hp(BATCH));
            let config = DelayedConfig::asgd(dist, BATCH, schedule, 31 + seed);
            study.sweep(&Delayed(config), &small_cnn, (9700 + seed, seed))
        };
        let acc = pm_acc((0..seeds).flat_map(one).collect());
        table.row(name, [format!("{:.1}", dist.mean()), acc]);
    }
    let title = format!("== Ablation: ASGD-style random delays ({seeds} seeds) ==");
    Report::titled(title, table)
}

pub const ASGD: Experiment = Experiment::new(
    true,
    ("ablation_asgd", "App. G.2"),
    asgd,
    "random gradient delays hurt like fixed ones: constant, uniform and\n\
     straggler-tailed delays of mean 8 all end below the no-delay run.",
    |r| {
        let t = r.nth(0, 0.0)?;
        let mut clauses = Vec::new();
        for row in t.labels().into_iter().filter(|&row| row != "no delay") {
            clauses.push(t.is(("no delay", "val acc"), Above, (row, "val acc"))?);
        }
        Ok(all(clauses))
    },
);
