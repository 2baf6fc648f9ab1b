//! `pbp-launch`: spawn and supervise a multi-process pipelined run.
//!
//! One executable, two modes:
//!
//! * **Parent** (no `--rank`): spawns `--world` copies of itself, one
//!   per stage group, and supervises them — any child failure kills the
//!   group and respawns it from the newest snapshot counter all ranks
//!   hold, under the workspace's one retry loop and `RecoveryPolicy` (see
//!   `pbp_dist::launch`); once `--max-restarts` respawns are spent it
//!   exits with the last fault.
//! * **Child** (`--rank R`, appended by the parent): binds its
//!   downstream link, connects upstream (with retry, which doubles as
//!   the reconnect path after a restart), and runs its stage slice via
//!   `pbp_dist::run_rank`.
//!
//! ```text
//! pbp-launch --world 4 --snap-dir /tmp/run --epochs 2 \
//!     --layers 2,16,16,3 --data spirals:3,24,0.05,2 --plan pb --snap-every 48
//! ```
//!
//! `--snap-every` counts optimizer updates, as an engine's
//! `SnapshotPolicy` does: a rank snapshots every that many updates, which
//! is that many microbatches under `--plan pb` and `M` times as many under
//! `1f1b:M`, `2bp:M` or `filldrain:M`. Without it a rank snapshots once,
//! at the end of the run.
//!
//! Fault injection for tests: `PBP_NET_FAULTS` holds the one fault
//! script (`pbp_pipeline::fault`) — `1:down:drop@7` scripts wire chaos,
//! `rank:<r>:crash@<k>` makes rank `r` abort as it turns to backward `k`
//! (once, as every clause fires once: the parent hands a respawn the plan
//! minus its rank clauses).

use pbp_dist::{
    env_net_faults, launch, DistError, LaunchSpec, LinkEndpoint, RankRecovery, RankSpec,
    ReconnectPolicy, Topology, Transport,
};
use pbp_optim::{Hyperparams, LrSchedule, Mitigation};
use pbp_pipeline::{MicrobatchSchedule, RecoveryPolicy, SnapshotPolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::time::Duration;

struct Args {
    world: Option<usize>,
    rank: Option<usize>,
    resume_at: usize,
    transport: Option<String>,
    snap_dir: PathBuf,
    snap_every: Option<usize>,
    layers: Vec<usize>,
    data: String,
    epochs: usize,
    net_seed: u64,
    order_seed: u64,
    plan: String,
    mitigation: String,
    weight_stashing: bool,
    lr: f32,
    momentum: f32,
    stall_ms: u64,
    max_restarts: usize,
    attempt_timeout_ms: u64,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            world: None,
            rank: None,
            resume_at: 0,
            transport: None,
            snap_dir: PathBuf::from("results/dist-run"),
            snap_every: None,
            layers: vec![2, 16, 16, 3],
            data: "spirals:3,24,0.05,2".into(),
            epochs: 1,
            net_seed: 1,
            order_seed: 7,
            plan: "pb".into(),
            mitigation: "none".into(),
            weight_stashing: false,
            lr: 0.05,
            momentum: 0.9,
            stall_ms: 10_000,
            max_restarts: 3,
            attempt_timeout_ms: 120_000,
        }
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    let value = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
        it.next().cloned().ok_or(format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--world" => args.world = Some(parse(&value(&mut it, flag)?, flag)?),
            "--rank" => args.rank = Some(parse(&value(&mut it, flag)?, flag)?),
            "--resume-at" => args.resume_at = parse(&value(&mut it, flag)?, flag)?,
            "--transport" => args.transport = Some(value(&mut it, flag)?),
            "--snap-dir" => args.snap_dir = PathBuf::from(value(&mut it, flag)?),
            "--snap-every" => args.snap_every = Some(parse(&value(&mut it, flag)?, flag)?),
            "--layers" => {
                args.layers = value(&mut it, flag)?
                    .split(',')
                    .map(|s| parse(s, flag))
                    .collect::<Result<_, _>>()?;
            }
            "--data" => args.data = value(&mut it, flag)?,
            "--epochs" => args.epochs = parse(&value(&mut it, flag)?, flag)?,
            "--net-seed" => args.net_seed = parse(&value(&mut it, flag)?, flag)?,
            "--order-seed" => args.order_seed = parse(&value(&mut it, flag)?, flag)?,
            "--plan" => args.plan = value(&mut it, flag)?,
            "--mitigation" => args.mitigation = value(&mut it, flag)?,
            "--weight-stashing" => args.weight_stashing = true,
            "--lr" => args.lr = parse(&value(&mut it, flag)?, flag)?,
            "--momentum" => args.momentum = parse(&value(&mut it, flag)?, flag)?,
            "--stall-ms" => args.stall_ms = parse(&value(&mut it, flag)?, flag)?,
            "--max-restarts" => args.max_restarts = parse(&value(&mut it, flag)?, flag)?,
            "--attempt-timeout-ms" => {
                args.attempt_timeout_ms = parse(&value(&mut it, flag)?, flag)?
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(raw: &str, flag: &str) -> Result<T, String> {
    raw.trim()
        .parse::<T>()
        .map_err(|_| format!("invalid value {raw:?} for {flag}"))
}

fn parse_plan(raw: &str) -> Result<MicrobatchSchedule, String> {
    if raw == "pb" {
        return Ok(MicrobatchSchedule::PipelinedBackprop);
    }
    if let Some(m) = raw.strip_prefix("1f1b:") {
        return Ok(MicrobatchSchedule::OneFOneB {
            microbatches_per_update: parse(m, "--plan")?,
        });
    }
    if let Some(m) = raw.strip_prefix("2bp:") {
        return Ok(MicrobatchSchedule::TwoBP {
            microbatches_per_update: parse(m, "--plan")?,
        });
    }
    if let Some(n) = raw.strip_prefix("filldrain:") {
        return Ok(MicrobatchSchedule::FillDrain {
            update_size: parse(n, "--plan")?,
        });
    }
    Err(format!(
        "unknown plan {raw:?} (want pb, 1f1b:M, 2bp:M or filldrain:N)"
    ))
}

fn parse_data(raw: &str) -> Result<pbp_data::Dataset, String> {
    let (kind, params) = raw
        .split_once(':')
        .ok_or(format!("data spec {raw:?} needs kind:params"))?;
    let parts: Vec<&str> = params.split(',').collect();
    if parts.len() != 4 {
        return Err(format!("data spec {raw:?} needs k,n,noise,seed"));
    }
    let k: usize = parse(parts[0], "--data")?;
    let n: usize = parse(parts[1], "--data")?;
    let noise: f32 = parse(parts[2], "--data")?;
    let seed: u64 = parse(parts[3], "--data")?;
    match kind {
        "spirals" => Ok(pbp_data::spirals(k, n, noise, seed)),
        "blobs" => Ok(pbp_data::blobs(k, n, noise, seed)),
        other => Err(format!("unknown dataset kind {other:?}")),
    }
}

fn parse_mitigation(raw: &str) -> Result<Mitigation, String> {
    match raw {
        "none" => Ok(Mitigation::None),
        "scd" => Ok(Mitigation::scd()),
        other => Err(format!("unknown mitigation {other:?} (want none or scd)")),
    }
}

fn run_child(args: &Args, world: usize, rank: usize) -> Result<(), DistError> {
    let layer_stages = args.layers.len() - 1;
    let topology = Topology::contiguous(layer_stages, world)?;
    let data = parse_data(&args.data).map_err(DistError::Spec)?;
    let plan = parse_plan(&args.plan).map_err(DistError::Spec)?;
    let total = args.epochs * data.len();
    let transport = match &args.transport {
        Some(raw) => Transport::parse(raw)?,
        None => Transport::Unix {
            dir: args.snap_dir.join("links"),
        },
    };
    let stall = Duration::from_millis(args.stall_ms);
    let faults = env_net_faults();
    // A plan this process cannot honour is refused by `run_rank`.
    let abort_after = faults.as_ref().and_then(|p| p.process_crash(rank).ok()?);
    let snapshots = SnapshotPolicy {
        dir: args.snap_dir.clone(),
        // By default one snapshot, at the end of the run.
        every_updates: args
            .snap_every
            .unwrap_or(total.div_ceil(plan.microbatches_per_update()).max(1)),
        keep: 3,
    };
    let spec = RankSpec {
        rank,
        topology,
        plan,
        mitigation: parse_mitigation(&args.mitigation).map_err(DistError::Spec)?,
        weight_stashing: args.weight_stashing,
        schedule: LrSchedule::constant(Hyperparams::new(args.lr, args.momentum)),
        seed: args.order_seed,
        total_microbatches: total,
        stall,
        snapshots: Some(snapshots),
        resume_at: args.resume_at,
        abort_after,
        recovery: RankRecovery {
            net_faults: faults,
            reconnect: Some(ReconnectPolicy {
                deadline: stall.min(Duration::from_secs(5)),
                backoff: Duration::from_millis(10),
            }),
        },
    };

    let mut rng = StdRng::seed_from_u64(args.net_seed);
    let net = pbp_nn::models::mlp(&args.layers, &mut rng);

    // Bind the downstream listener before dialing upstream, so the whole
    // chain comes up regardless of spawn order: everyone's listener
    // exists by the time anyone's connect retries give up. The reliable
    // layer keeps the endpoints, so a torn link re-dials / re-accepts
    // through the same transport.
    let downstream = (rank + 1 < world)
        .then(|| transport.listen(rank).map(LinkEndpoint::Listen))
        .transpose()?;
    let upstream = (rank > 0).then(|| LinkEndpoint::Dial {
        transport: transport.clone(),
        link: rank - 1,
    });

    let outcome = pbp_dist::run_rank(net, &data, &spec, upstream, downstream, None)?;
    eprintln!(
        "rank {rank}/{world}: done, {} microbatches, loss sum {:.6}",
        outcome.samples_seen, outcome.loss_sum
    );
    Ok(())
}

fn run_parent(args: &Args, world: usize, argv: Vec<String>) -> Result<(), DistError> {
    let program = std::env::current_exe()?;
    let spec = LaunchSpec {
        program,
        args: argv,
        world,
        snapshot_dir: args.snap_dir.clone(),
        recovery: RecoveryPolicy {
            max_restarts: args.max_restarts,
            backoff: Duration::from_millis(100),
        },
        attempt_timeout: Some(Duration::from_millis(args.attempt_timeout_ms)),
    };
    let report = launch(&spec)?;
    for event in &report.events {
        eprintln!("supervisor: {event}");
    }
    eprintln!(
        "launch complete: {} attempt(s), resumed at {:?}",
        report.attempts, report.resume_points
    );
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("pbp-launch: {msg}");
            std::process::exit(2);
        }
    };
    if args.layers.len() < 2 {
        eprintln!("pbp-launch: --layers needs at least an input and an output size");
        std::process::exit(2);
    }
    let Some(world) = args.world else {
        eprintln!("pbp-launch: --world is required");
        std::process::exit(2);
    };
    // The parent appends `--rank` for each child; nothing else makes a
    // process a child.
    let result = match args.rank {
        Some(rank) => run_child(&args, world, rank),
        None => run_parent(&args, world, argv),
    };
    if let Err(e) = result {
        eprintln!("pbp-launch: {e}");
        std::process::exit(1);
    }
}
