//! The closed-form experiments: schedule utilisation, the
//! convex-quadratic delay analysis and the memory model. Exact and
//! seedless, so `tests/paper_claims.rs` re-runs them and compares with
//! their records byte for byte.

use super::{all, arg_best, ensure, rising, rows, Claim, Experiment};
use crate::report::{Cell, Rel::*, Report, Table, View};
use crate::suite::Scale;
use pbp_pipeline::{
    fill_drain_utilization, schedule_diagram, MemoryModel, MicrobatchSchedule as Plan,
};
use pbp_quadratic::{
    dominant_root_magnitude, min_halflife, root_heatmap, simulate_delayed_quadratic,
    HalflifeSearch, Method, MomentumGrid,
};

/// A method at (momentum, delay), with its defaults for that delay.
type MethodAt = fn(f64, usize) -> Method;
const GDM: MethodAt = |_, _| Method::Gdm;
const LWPD: MethodAt = |_, d| Method::lwpd(d);

fn fig2(_: Scale) -> Report {
    // Stage counts match the paper's networks (Table 1).
    let headers = ["S", "N=1", "N=32", "N=256", "PB (steady state)"];
    let mut table = Table::new("network", headers);
    for (name, s) in [("VGG11", 29), ("RN20", 34), ("RN50", 78), ("RN110", 169)] {
        let util = |n| format!("{:.1}%", 100.0 * fill_drain_utilization(n, s));
        let pb = "100.0%".to_string();
        table.row(name, [s.to_string(), util(1), util(32), util(256), pb]);
    }
    let title = "== Figure 2 / Eq. 1: utilization of pipeline-parallel training ==";
    let mut r = Report::titled(title, table);

    // Figure 2's panels, run on six equal stages, a worker each.
    for (title, plan, microbatches) in [
        ("Fill & drain, N=1", Plan::FillDrain { update_size: 1 }, 2),
        ("Fill & drain, N=8", Plan::FillDrain { update_size: 8 }, 8),
        ("Pipelined backpropagation", Plan::PipelinedBackprop, 24),
    ] {
        let (bubble, rows) = schedule_diagram(plan, 6, microbatches, 96);
        r.line(format!(
            "{title} (bubble {:.1}%):\n{rows}\n",
            100.0 * bubble
        ));
    }
    r.line(
        "Legend: '.' idle, 'F' forward, 'B' input-gradient backward, 'W' weight-gradient \
         backward, 'U' update; equal stages, an update costing half a forward, at most 96 \
         columns\n\n\
         Eq. 1 counts a stage's forward and backward in one slot; a worker that runs them in \
         turn has GPipe's bubble (S−1)/(N+S−1) instead.\n",
    );
    r
}

pub const FIG2: Experiment = Experiment::new(
    false,
    ("fig2_utilization", "Eq. 1 / Fig. 2"),
    fig2,
    "fill&drain utilisation is N/(N+2S−2) — Eq. 1's N/(N+2S) bound in exact\n\
     form — at every batch size and depth, and PB removes the bound (100 %\n\
     in steady state).",
    |r| {
        let t = r.nth(0, 0.0)?;
        let mut clauses = Vec::new();
        for net in t.labels() {
            let s = t.at(net, "S")?.mean;
            for n in [1.0, 32.0, 256.0] {
                let cell = t.at(net, &format!("N={n}"))?;
                let exact = 100.0 * n / (n + 2.0 * s - 2.0);
                let holds = (cell.mean - exact).abs() <= 0.05;
                clauses.push(ensure(holds, || format!("{cell} is not {exact:.1}%")));
            }
            let pb = t.at(net, "PB (steady state)")?;
            clauses.push(ensure(pb.mean == 100.0, || format!("{pb} is not 100%")));
        }
        Ok(all(clauses))
    },
);

const FIG4_PANELS: [(&str, usize, MethodAt); 6] = [
    ("GDM for D=0", 0, GDM),
    ("GDM for D=1", 1, GDM),
    ("SCD for D=1", 1, Method::scd),
    ("Nesterov for D=0", 0, |_, _| Method::Nesterov),
    ("LWPD for D=1", 1, LWPD),
    ("LWPwD+SCD for D=1", 1, Method::lwpd_scd),
];
const FIG4_COLUMNS: [&str; 2] = ["stable cell fraction", "max stable ηλ at m=1−1e-3"];

fn fig4(scale: Scale) -> Report {
    let grid_n = scale.apply(36, 4);
    let momenta = MomentumGrid::paper_default(grid_n / 2);
    let (lo, hi) = (1e-9, 10f64.powf(0.5));
    let mut r = Report::default();
    let mut summary = Table::new("panel", FIG4_COLUMNS);
    for (name, delay, method) in FIG4_PANELS {
        let hm = root_heatmap(&|m| method(m, delay), delay, &momenta, lo, hi, grid_n);
        let axes = "(rows: momentum 0 → 1−1e-5; cols: ηλ 1e-9 → 10^0.5)";
        r.line(format!("\n=== {name} ===  {axes}\n"));
        // An ASCII ramp, darker = slower convergence: log(1−|r|) mapped
        // onto [0, 1), the unstable region (|r| ≥ 1) the densest character.
        const RAMP: &[u8] = b" .:-=+*#%@";
        let shade = |&v: &f64| {
            let slow = 1.0 - ((1.0 - v).max(1e-6).log10() + 6.0) / 6.5;
            let t: f64 = if v >= 1.0 { 1.0 } else { slow };
            RAMP[(t.clamp(0.0, 1.0) * (RAMP.len() - 1) as f64).round() as usize] as char
        };
        for row in hm.values.chunks(hm.rates.len()) {
            r.line(format!("|{}|", row.iter().map(shade).collect::<String>()));
        }
        let high_m = hm.momenta.iter().position(|&m| m >= 0.999);
        let high_m = high_m.unwrap_or(hm.momenta.len() - 1);
        let stable = (0..hm.rates.len()).rev().find(|&i| hm.at(high_m, i) < 1.0);
        let max_stable = stable.map_or(f64::NAN, |i| hm.rates[i]);
        let fraction = format!("{:.3}", hm.stable_fraction());
        summary.row(name, [fraction, format!("{max_stable:.2e}")]);
    }
    r.line("\n== Stability summary ==").table(summary);
    r
}

pub const FIG4: Experiment = Experiment::new(
    false,
    ("fig4_root_heatmaps", "Fig. 4"),
    fig4,
    "a delay of one shrinks GDM's stable region, most at high momentum;\n\
     SCD and LWPD each enlarge it again, LWPwD+SCD enlarges it further, and\n\
     none of the delayed methods exceeds the no-delay baselines.",
    |r| {
        let t = r.nth(0, 0.0)?;
        let [area, high_m] = FIG4_COLUMNS;
        let [gdm0, gdm, scd, nesterov, lwpd, both] = FIG4_PANELS.map(|(name, ..)| name);
        let is = |a, rel, b| t.is((a, area), rel, (b, area));
        Ok(all([
            is(gdm0, Above, gdm)?,
            t.is((gdm0, high_m), Above, (gdm, high_m))?,
            is(scd, Above, gdm)?,
            is(lwpd, Above, gdm)?,
            is(both, Above, scd)?,
            is(both, Above, lwpd)?,
            is(gdm0, NotBelow, both)?,
            is(nesterov, NotBelow, both)?,
        ]))
    },
);

const FIG5_METHODS: [(&str, usize, MethodAt); 5] = [
    ("GDM D=1", 1, GDM),
    ("SCD D=1", 1, Method::scd),
    ("LWPD D=1", 1, LWPD),
    ("LWPwD+SCD D=1", 1, Method::lwpd_scd),
    ("GDM D=0", 0, GDM),
];

fn fig5(scale: Scale) -> Report {
    let mut table = Table::new("κ", FIG5_METHODS.map(|(name, ..)| name));
    for exp in 0..=scale.apply(5, 1) {
        let kappa = 10f64.powi(exp as i32);
        let halflife = |method: MethodAt, d| min_halflife(&|m| method(m, d), d, kappa);
        let cells = FIG5_METHODS.map(|(_, d, method)| format!("{:.1}", halflife(method, d)));
        table.row(format!("1e{exp}"), cells);
    }
    let title = "== Figure 5: minimum half-life vs condition number (delay D=1) ==";
    Report::titled(title, table)
}

pub const FIG5: Experiment = Experiment::new(
    false,
    ("fig5_halflife_vs_kappa", "Fig. 5"),
    fig5,
    "half-life grows with κ for every method; for every κ > 1 each\n\
     mitigation improves on delayed GDM by a factor that grows with κ,\n\
     LWPwD+SCD is the best of them, and no-delay GDM stays below all.",
    |r| {
        let t = r.nth(0, 0.0)?;
        let [gdm, scd, lwpd, both, undelayed] = FIG5_METHODS.map(|(name, ..)| name);
        let mut clauses = Vec::new();
        for column in [gdm, scd, lwpd, both, undelayed] {
            clauses.extend(rising(&t.column(column)?));
        }
        let mut last_factor = 0.0;
        for kappa in t.labels().into_iter().skip(1) {
            let is = |a, rel, b| t.is((kappa, a), rel, (kappa, b));
            clauses.extend([is(gdm, Above, scd)?, is(gdm, Above, lwpd)?]);
            clauses.extend([is(scd, NotBelow, both)?, is(lwpd, NotBelow, both)?]);
            clauses.push(is(both, Above, undelayed)?);
            let factor = t.at(kappa, gdm)?.mean / t.at(kappa, both)?.mean;
            clauses.push(ensure(factor > last_factor, || {
                format!("row '{kappa}': columns '{gdm}' / '{both}' = {factor:.2} does not grow")
            }));
            last_factor = factor;
        }
        Ok(all(clauses))
    },
);

fn fig6(scale: Scale) -> Report {
    let mut table = Table::new("delay", ["GDM", "LWPD", "LWPwD+SCD"]);
    for d in (0..=scale.apply(16, 2)).step_by(2) {
        let halflife = |method: MethodAt| min_halflife(&|m| method(m, d), d, 1e3);
        let methods = [GDM, LWPD, Method::lwpd_scd];
        table.row(d, methods.map(|method| format!("{:.1}", halflife(method))));
    }
    let title = "== Figure 6: minimum half-life vs delay (κ = 1e3) ==";
    Report::titled(title, table)
}

pub const FIG6: Experiment = Experiment::new(
    false,
    ("fig6_halflife_vs_delay", "Fig. 6"),
    fig6,
    "half-life grows with the delay for every method; at every delay\n\
     LWPD improves on GDM and LWPwD+SCD is the lowest of the three.",
    |r| {
        let t = r.nth(0, 0.0)?;
        let (gdm, lwpd, both) = (t.column("GDM")?, t.column("LWPD")?, t.column("LWPwD+SCD")?);
        let growth = [&gdm, &lwpd, &both].into_iter().flat_map(|c| rising(c));
        // Row 0 is D=0, where the three coincide.
        let order = [rows(&gdm, Above, &lwpd), rows(&lwpd, Above, &both)];
        let order = order.into_iter().flat_map(|rows| rows.into_iter().skip(1));
        Ok(all(growth.chain(order)))
    },
);

const FIG7_HORIZONS: [f64; 5] = [0.0, 3.0, 5.0, 10.0, 20.0];

fn fig7(_: Scale) -> Report {
    let (kappa, d) = (1e3, 5usize);
    let search = HalflifeSearch::default();
    let horizons = FIG7_HORIZONS.map(|t| format!("LWP T={t}"));
    let headers = horizons.into_iter().chain(["LWPwD+SCD".to_string()]);
    let mut table = Table::new("-log10(1-m)", headers);
    for m in [0.0f64, 0.9, 0.99, 0.999, 0.9999, 0.99999] {
        let momentum = match m == 0.0 {
            true => "0 (m=0)".to_string(),
            false => format!("{:.0}", -(1.0 - m).log10()),
        };
        let methods = FIG7_HORIZONS.iter().map(|&t| Method::Lwp { t });
        let methods = methods.chain([Method::lwpd_scd(m, d)]);
        let halflife = |method| search.min_halflife_fixed_momentum(method, m, d, kappa);
        table.row(
            momentum,
            methods.map(|method| format!("{:.0}", halflife(method))),
        );
    }
    let title = "== Figure 7: half-life vs momentum for LWP horizons (κ=1e3, D=5) ==";
    Report::titled(title, table)
}

pub const FIG7: Experiment = Experiment::new(
    false,
    ("fig7_horizon_momentum", "Fig. 7"),
    fig7,
    "at T=0 (delayed GDM) zero momentum is optimal; longer horizons move\n\
     the optimum to larger momentum; T=2D=10 is the best pure-LWP horizon\n\
     and still does not beat LWPwD+SCD.",
    |r| {
        let t = r.nth(0, 0.0)?;
        let mut columns = Vec::new();
        for horizon in FIG7_HORIZONS {
            columns.push(t.column(&format!("LWP T={horizon}"))?);
        }
        // Per horizon, the row (momentum) of the shortest half-life.
        let best: Vec<usize> = columns.iter().map(|c| arg_best(c, 1.0)).collect();
        let both = t.column("LWPwD+SCD")?;
        let t10 = &columns[3][best[3]];
        let rise = best.windows(2).all(|w| w[0] <= w[1]) && best[3] > best[0];
        let mut clauses = vec![
            ensure(best[0] == 0, || {
                format!(
                    "{} is its column's smallest, not the m=0 row",
                    columns[0][best[0]]
                )
            }),
            ensure(rise, || {
                format!("the best rows {best:?} of columns 'LWP T=0' … 'LWP T=20' do not rise")
            }),
            t10.is(Above, &both[arg_best(&both, 1.0)]),
        ];
        let lowest = columns.iter().zip(&best).map(|(column, &row)| &column[row]);
        clauses.extend(lowest.map(|cell| cell.is(NotBelow, t10)));
        Ok(all(clauses))
    },
);

const FIG12_CONFIGS: [(f64, usize); 3] = [(1e3, 4), (1e3, 10), (1e5, 4)];
pub(super) const ALPHA: &str = "α (T = αD)";

fn fig12_header((kappa, d): (f64, usize)) -> String {
    format!("κ=1e{:.0}, D={d}", kappa.log10())
}

fn fig12(_: Scale) -> Report {
    let mut table = Table::new(ALPHA, FIG12_CONFIGS.map(fig12_header));
    for alpha in (0..=10).map(f64::from) {
        let halflife = |(kappa, d): (f64, usize)| {
            let t = alpha * d as f64;
            min_halflife(&|_| Method::Lwp { t }, d, kappa)
        };
        let cells = FIG12_CONFIGS.map(|config| format!("{:.2}", halflife(config).log10()));
        table.row(alpha, cells);
    }
    let title = "== Figure 12: log10 half-life vs prediction scale α ==";
    Report::titled(title, table)
}

/// The shape Figures 12 and 13 share, over a cost column of a table whose
/// rows are labelled by α: α=0 worst, α=2 better than α=1, the minimum at
/// 2 ≤ α ≤ 4.
pub(super) fn overcompensation_is_optimal(t: &View, column: &str) -> Claim {
    let (alphas, cost) = (t.column(ALPHA)?, t.column(column)?);
    let (worst, best) = (arg_best(&cost, -1.0), arg_best(&cost, 1.0));
    Ok(all([
        t.at("0", column)?.is(NotBelow, &cost[worst]),
        t.is(("1", column), Above, ("2", column))?,
        ensure((2.0..=4.0).contains(&alphas[best].mean), || {
            format!("{} is the column's minimum, outside 2 ≤ α ≤ 4", cost[best])
        }),
    ]))
}

pub const FIG12: Experiment = Experiment::new(
    false,
    ("fig12_prediction_scale_quadratic", "Fig. 12 (App. E)"),
    fig12,
    "for each (κ, D) no prediction (α=0) is the slowest, α=2 beats α=1,\n\
     and the fastest horizon lies at 2 ≤ α ≤ 4: overcompensating for the\n\
     delay is optimal.",
    |r| {
        let t = r.nth(0, 0.0)?;
        let mut clauses = Vec::new();
        for config in FIG12_CONFIGS {
            clauses.push(overcompensation_is_optimal(&t, &fig12_header(config))?);
        }
        Ok(all(clauses))
    },
);

const APPA_COLUMNS: [&str; 5] = [
    "batch total",
    "pipeline total",
    "pipeline stage 0",
    "pipeline last stage",
    "weight copies (batch/pipe)",
];

fn appa(_: Scale) -> Report {
    let mut table = Table::new("stages (L=W)", APPA_COLUMNS);
    for stages in [8usize, 34, 78, 169] {
        let m = MemoryModel::fine_grained(stages);
        let activations = [
            m.batch_parallel_activations_total(),
            m.pipeline_activations_total(),
            m.pipeline_activations_at_stage(0),
            m.pipeline_activations_at_stage(stages - 1),
        ];
        let copies = format!("{}/{}", m.weight_copies(false), m.weight_copies(true));
        table.row(
            stages,
            activations.iter().map(usize::to_string).chain([copies]),
        );
    }
    let title = "== Appendix A: batch vs pipeline parallel memory model ==";
    Report::titled(title, table)
}

pub const APPA: Experiment = Experiment::new(
    false,
    ("appa_memory", "App. A"),
    appa,
    "with L = W stages batch and pipeline parallelism both hold Θ(L·W)\n\
     activations (totals within a factor of two), the pipeline's needs\n\
     fall from 2W at stage 0 to 2 at the last stage, and it keeps one\n\
     weight copy where batch parallelism keeps W.",
    |r| {
        let t = r.nth(0, 0.0)?;
        let [batch, pipe, first, last, copies] = APPA_COLUMNS;
        let mut clauses = Vec::new();
        for row in t.labels() {
            let w = t.at(row, "stages (L=W)")?.mean;
            let (batch, pipe) = (t.at(row, batch)?, t.at(row, pipe)?);
            let (first, last, text) = (t.at(row, first)?, t.at(row, last)?, t.text(row, copies)?);
            let within = batch.mean <= pipe.mean && pipe.mean <= 2.0 * batch.mean;
            let (square, double) = (w * w, 2.0 * w);
            clauses.extend([
                ensure(batch.mean == square, || {
                    format!("{batch} is not L·W = {square}")
                }),
                ensure(within, || format!("{pipe} is not within [1, 2] × {batch}")),
                ensure(first.mean == double, || {
                    format!("{first} is not 2W = {double}")
                }),
                ensure(last.mean == 2.0, || format!("{last} is not 2")),
                ensure(text == format!("{row}/1"), || {
                    format!("row '{row}', column '{copies}' = {text} is not {row}/1")
                }),
            ]);
        }
        Ok(all(clauses))
    },
);

fn appd(_: Scale) -> Report {
    let cases = [
        ("GDM", Method::Gdm, 0.9, 0.02, 0usize),
        ("GDM", Method::Gdm, 0.9, 0.02, 4),
        ("GDM", Method::Gdm, 0.5, 0.05, 3),
        ("Nesterov", Method::Nesterov, 0.9, 0.02, 1),
        ("SCD", Method::scd(0.9, 4), 0.9, 0.02, 4),
        ("SCD", Method::scd(0.95, 8), 0.95, 0.01, 8),
        ("LWPD", Method::lwpd(4), 0.9, 0.02, 4),
        ("LWP T=8", Method::Lwp { t: 8.0 }, 0.9, 0.01, 4),
        ("LWPwD+SCD", Method::lwpd_scd(0.9, 4), 0.9, 0.02, 4),
        ("LWPwD+SCD", Method::lwpd_scd(0.97, 8), 0.97, 0.005, 8),
    ];
    let headers = ["m", "ηλ", "D", "|r| theory", "|r| simulated", "Δ"];
    let mut table = Table::new("method", headers);
    let mut worst = 0.0f64;
    for (name, method, m, el, d) in cases {
        let theory = dominant_root_magnitude(method, m, el, d);
        let simulated = simulate_delayed_quadratic(method, m, el, d, 6000).empirical_rate;
        let delta = (theory - simulated).abs();
        if theory < 1.0 {
            worst = worst.max(delta);
        }
        let rates = [theory, simulated, delta].map(|x| format!("{x:.5}"));
        let case = [format!("{m}"), format!("{el}"), d.to_string()];
        table.row(name, case.into_iter().chain(rates));
    }
    let title = "== Appendix D: characteristic polynomials vs direct simulation ==";
    let mut r = Report::titled(title, table);
    r.line(format!("worst |Δ| over stable cases: {worst:.5}\n"));
    r
}

pub const APPD: Experiment = Experiment::new(
    false,
    ("appd_transition_check", "App. D"),
    appd,
    "every case is stable, and the contraction rate of the simulated\n\
     delayed optimizer equals the dominant root of its characteristic\n\
     polynomial (Eqs. 28–31) to four decimal places.",
    |r| {
        let t = r.nth(0, 1e-4)?;
        let (theory, simulated) = (t.column("|r| theory")?, t.column("|r| simulated")?);
        let stable = |root: &Cell| ensure(root.mean < 1.0, || format!("{root} is not stable"));
        let stable: Vec<_> = theory.iter().map(stable).collect();
        Ok(all(stable
            .into_iter()
            .chain(rows(&simulated, Matches, &theory))))
    },
);
