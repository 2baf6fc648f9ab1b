//! The reproduction, in tier-1: the committed `results/*.txt` are held to
//! the claims `pbp_bench::EXPERIMENTS` registers for them, the analytic
//! experiments are re-run against their records, and every training
//! experiment is executed at a fixed smoke scale.

use pbp_bench::{results_dir, Experiment, Report, Scale, Table, EXPERIMENTS};
use std::path::{Path, PathBuf};

fn record(e: &Experiment) -> Report {
    Report::load(&results_dir(), e.name).unwrap_or_else(|err| panic!("{err}"))
}

#[test]
fn registry_names_are_the_record_stems() {
    let mut recorded: Vec<String> = std::fs::read_dir(results_dir())
        .expect("results/ exists")
        .map(|entry| entry.expect("readable entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "txt"))
        .map(|path| {
            path.file_stem()
                .expect("a stem")
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    recorded.sort();
    let mut registered: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    registered.sort();
    assert_eq!(recorded, registered);
}

#[test]
fn every_record_has_its_registered_verdict() {
    // EXPERIMENTS.md is hand-written; it must give every experiment the
    // registry's verdict and, under a "not reproduced", the seed count and
    // the clauses the claim fails on the record, as `--check` prints them.
    let doc = std::fs::read_to_string(results_dir().join("../EXPERIMENTS.md")).expect("the doc");
    for e in EXPERIMENTS {
        e.check_record(&results_dir())
            .unwrap_or_else(|mismatch| panic!("{}: {mismatch}", e.name));
        assert_eq!(e.reproduced, e.seeds.is_empty(), "{}", e.name);
        let verdict = match (e.claim)(&record(e)).expect("a readable record") {
            Ok(()) => "reproduced ✓\n".to_string(),
            Err(failing) => {
                assert!(e.seeds.contains("seed"), "{}", e.name);
                let clauses = failing.replace('\n', "\n    ");
                format!("not reproduced ✗ ({}):\n\n    {clauses}\n", e.seeds)
            }
        };
        let expected = format!("Verdict (`{}`): {verdict}", e.name);
        assert!(doc.contains(&expected), "EXPERIMENTS.md lacks\n{expected}");
    }
}

#[test]
fn analytic_experiments_reproduce_their_records_byte_for_byte() {
    for e in EXPERIMENTS.iter().filter(|e| !e.trains) {
        let report = e.report(Scale::FULL);
        let recorded = std::fs::read_to_string(&report.path).expect("a record");
        assert_eq!(report.render(), recorded, "{}", e.name);
        assert_eq!(
            Report::parse(&report.path, &recorded),
            Ok(report),
            "{}",
            e.name
        );
    }
}

#[test]
fn training_experiments_run_at_smoke_scale_with_their_records_shape() {
    for e in EXPERIMENTS.iter().filter(|e| e.trains) {
        let (fresh, recorded) = (e.report(Scale::SMOKE), record(e));
        let (fresh, recorded): (Vec<_>, Vec<_>) =
            (fresh.tables().collect(), recorded.tables().collect());
        assert_eq!(fresh.len(), recorded.len(), "{}: table count", e.name);
        for (fresh, recorded) in fresh.into_iter().zip(recorded) {
            assert_eq!(fresh.headers(), recorded.headers(), "{}", e.name);
            let labels = |t: &Table| {
                t.rows()
                    .iter()
                    .map(|row| row[0].clone())
                    .collect::<Vec<_>>()
            };
            // One epoch is run, so a per-epoch table has its first row only.
            let rows = match fresh.headers()[0] == "epoch" {
                true => 1,
                false => recorded.rows().len(),
            };
            assert_eq!(labels(fresh), labels(recorded)[..rows], "{}", e.name);
        }
    }
}

enum Change {
    /// Exchange the cells of two columns on every row.
    Swap(&'static str, &'static str),
    /// Reverse a column top to bottom.
    Reverse(&'static str),
}
use Change::{Reverse, Swap};

/// One row per `reproduced: true` experiment: a change to table `.1` of its
/// record under which its claim must fail, naming the row and column `.3`.
const PERTURBATIONS: &[(&str, usize, Change, (&str, &str))] = &[
    ("fig2_utilization", 0, Swap("N=1", "N=32"), ("VGG11", "N=1")),
    (
        "fig4_root_heatmaps",
        0,
        Reverse("stable cell fraction"),
        ("GDM for D=0", "stable cell fraction"),
    ),
    (
        "fig5_halflife_vs_kappa",
        0,
        Swap("GDM D=1", "LWPwD+SCD D=1"),
        ("1e1", "GDM D=1"),
    ),
    ("fig6_halflife_vs_delay", 0, Reverse("GDM"), ("2", "GDM")),
    (
        "fig7_horizon_momentum",
        0,
        Swap("LWP T=0", "LWP T=20"),
        ("2", "LWP T=0"),
    ),
    ("fig8_cifar_rn20", 1, Reverse("val acc"), ("PB", "val acc")),
    (
        "fig12_prediction_scale_quadratic",
        0,
        Reverse("κ=1e3, D=4"),
        ("0", "κ=1e3, D=4"),
    ),
    (
        "fig13_prediction_scale_nn",
        0,
        Reverse("final train loss"),
        ("0", "final train loss"),
    ),
    (
        "fig16_filldrain_validation",
        0,
        Reverse("batch SGD val acc"),
        ("0", "batch SGD val acc"),
    ),
    (
        "fig17_hparam_scaling",
        0,
        Reverse("batch 32"),
        ("0", "batch 32"),
    ),
    (
        "table2_weight_stashing",
        0,
        Swap("SGDM", "PB"),
        ("VGG11", "SGDM"),
    ),
    (
        "appa_memory",
        0,
        Swap("batch total", "pipeline total"),
        ("8", "batch total"),
    ),
    (
        "appd_transition_check",
        0,
        Reverse("|r| simulated"),
        ("GDM", "|r| simulated"),
    ),
    (
        "ablation_adam_delay",
        0,
        Swap("SGDM", "Adam"),
        ("4", "Adam"),
    ),
    (
        "ablation_asgd",
        0,
        Reverse("val acc"),
        ("no delay", "val acc"),
    ),
];

/// The tables of `record` (all a claim reads), table `index` changed.
fn perturbed(record: &Report, index: usize, change: &Change) -> Report {
    let mut copy = Report::default();
    for (i, table) in record.tables().enumerate() {
        let headers = table.headers();
        let column = |name: &str| headers.iter().position(|h| h == name).expect("a header");
        let mut rows = table.rows().to_vec();
        match change {
            _ if i != index => {}
            Swap(a, b) => rows
                .iter_mut()
                .for_each(|row| row.swap(column(a), column(b))),
            Reverse(name) => {
                let cells: Vec<String> = rows
                    .iter()
                    .rev()
                    .map(|row| row[column(name)].clone())
                    .collect();
                rows.iter_mut()
                    .zip(cells)
                    .for_each(|(row, cell)| row[column(name)] = cell);
            }
        }
        let mut changed = Table::new(&headers[0], &headers[1..]);
        rows.iter().for_each(|row| changed.row(&row[0], &row[1..]));
        copy.table(changed);
    }
    copy
}

/// A copy of `results/` with one record replaced.
fn results_with(name: &str, report: &Report) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("paper_claims_{}_{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("a temp dir");
    for e in EXPERIMENTS {
        let file = format!("{}.txt", e.name);
        std::fs::copy(results_dir().join(&file), dir.join(&file)).expect("a copied record");
    }
    std::fs::write(dir.join(format!("{name}.txt")), report.render()).expect("a written record");
    dir
}

#[test]
fn every_reproduced_claim_fails_on_a_perturbed_record() {
    let reproduced: Vec<&str> = EXPERIMENTS
        .iter()
        .filter(|e| e.reproduced)
        .map(|e| e.name)
        .collect();
    let perturbed_names: Vec<&str> = PERTURBATIONS.iter().map(|row| row.0).collect();
    assert_eq!(
        perturbed_names, reproduced,
        "one perturbation per reproduced experiment"
    );
    for (name, index, change, (row, column)) in PERTURBATIONS {
        let e = EXPERIMENTS
            .iter()
            .find(|e| e.name == *name)
            .expect("registered");
        let dir = results_with(name, &perturbed(&record(e), *index, change));
        // What `pbp-experiments --check <dir>` prints, and exits non-zero on.
        // (Fig. 9's claim reads Fig. 8's record, so it may flip as well.)
        let failure = e.check_record(&dir).expect_err(name);
        let named = format!("row '{row}', column '{column}'");
        assert!(
            failure.starts_with("FAILS") && failure.contains(&named),
            "{failure}"
        );
        std::fs::remove_dir_all(Path::new(&dir)).expect("temp dir removed");
    }
}

#[test]
fn a_record_that_lacks_what_its_claim_reads_is_an_error_not_a_panic() {
    for e in EXPERIMENTS {
        let mut gutted = Report::default();
        for table in record(e).tables() {
            let headers = table.headers();
            // The label column alone: every other column is gone.
            let mut labels = Table::new(&headers[0], [""; 0]);
            table
                .rows()
                .iter()
                .for_each(|row| labels.row(&row[0], [""; 0]));
            gutted.table(labels);
        }
        let err = (e.claim)(&gutted).expect_err(e.name);
        assert!(err.row.is_some() || err.column.is_some(), "{err}");
        // … and neither does a registered "not reproduced" excuse it.
        let checked = e.check(&gutted).expect_err(e.name);
        assert_eq!(checked, err.to_string(), "{}", e.name);
        assert!((e.claim)(&Report::default()).is_err(), "{}", e.name);
    }
}
