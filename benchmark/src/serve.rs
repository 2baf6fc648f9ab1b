//! The serving workload: `pbp-serve`'s dynamic batcher over a small VGG.
//!
//! Phase A is a closed loop — one thread sends a burst of 512 requests,
//! waits for every reply and starts over — and gives the saturated
//! throughput. Phase B is an open loop: requests are due on a fixed
//! schedule whatever the replies do, latency is timed from the due time,
//! and how late the generator ran is reported. A run alternates the two in
//! slices of three seconds. Which image each request carries follows
//! `--seed`; every reply is compared bit for bit with a solo eval-mode
//! forward of the same image.

use crate::ledger::Ledger;
use crate::probes;
use crate::spec::{self, Better};
use crate::stats::{median, percentile, tail_quantile, Summary};
use crate::sys::{self, Usage};
use crate::{Outcome, RunOpts, SetUps};
use pbp_data::{Dataset, DatasetSpec, SyntheticImages};
use pbp_nn::loss::softmax_cross_entropy_losses;
use pbp_nn::models::vgg_cnn;
use pbp_nn::Network;
use pbp_serve::{Client, Pending, ServeConfig, ServeStats, Server};
use pbp_tensor::Tensor;
use pbp_trace::{TracePhase, Tracer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

pub const NAME: &str = "serve.vgg";
const NET_SEED: u64 = 0x5EED_0022;
const DATA_SEED: u64 = 0xDA7A_0022;
const IMAGES: usize = 256;
const IMAGE: usize = 16;
const WIDTH: usize = 16;
const DEPTH: usize = 2;
const HIDDEN: usize = 256;
/// Requests the warm-up keeps outstanding.
const WINDOW: usize = 256;
/// Requests of the closed-loop phase at full size, at least...
const SATURATED_REQUESTS: usize = 16_384;
/// ...and of one burst of it: half the server's queue bound, eight full
/// batches.
const BURST_REQUESTS: usize = 512;
/// Open-loop rate: between the unbatched and the batch-64 capacity of one
/// worker, so coalescing is needed but no backlog grows.
const PACED_RATE: f64 = 3000.0;
/// Latency limit on the tail percentile.
pub const SLO_MS: f64 = 25.0;
const WARM_REQUESTS: usize = 512;

fn build_net() -> Network {
    let mut rng = StdRng::seed_from_u64(NET_SEED);
    vgg_cnn(3, WIDTH, DEPTH, IMAGE, HIDDEN, 10, &mut rng)
}

fn build_data() -> Dataset {
    SyntheticImages::new(DatasetSpec::cifar_sim(IMAGE), DATA_SEED).generate(IMAGES, 1)
}

/// Which image each of `n` requests carries.
pub fn request_plan(seed: u64, n: usize, images: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E21_7E00);
    (0..n).map(|_| rng.gen_range(0..images)).collect()
}

/// When request `i` of an open-loop phase is due, from the phase start.
/// A function of the index alone: replies never move it.
pub fn due_offset(i: usize, rate: f64) -> Duration {
    Duration::from_secs_f64(i as f64 / rate)
}

/// The solo eval-mode forward of every image, and the loss of its logits.
struct Solo {
    logits: Vec<Tensor>,
    loss: Vec<f64>,
}

fn solo_reference(data: &Dataset) -> Solo {
    let mut net = build_net();
    net.set_training(false);
    let (mut logits, mut loss) = (Vec::new(), Vec::new());
    for i in 0..data.len() {
        let (x, label) = data.sample(i);
        let y = net.forward(&probes::batched(x));
        net.clear_stash();
        loss.push(softmax_cross_entropy_losses(&y, &[label])[0]);
        logits.push(y);
    }
    Solo { logits, loss }
}

/// Tallies replies: each is one operation, failed unless bit-identical to
/// the solo forward.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    loss_sum: f64,
    first_failure: Option<String>,
}

impl Tally {
    fn reply(&mut self, solo: &Solo, image: usize, reply: Result<Tensor, pbp_serve::ServeError>) {
        self.attempted += 1;
        match reply {
            Ok(y) => {
                let want = solo.logits[image].as_slice();
                let same = y.len() == want.len()
                    && y.as_slice()
                        .iter()
                        .zip(want)
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                if same {
                    self.loss_sum += solo.loss[image];
                } else {
                    self.refuse(format!(
                        "reply for image {image} differs from the solo forward"
                    ));
                }
            }
            Err(e) => self.refuse(format!("request for image {image}: {e}")),
        }
    }

    /// A request that was refused or answered wrongly.
    fn refuse(&mut self, why: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }

    fn merge_into(self, outcome: &mut Outcome, phase: &str) {
        outcome.attempted += self.attempted;
        outcome.failed += self.failed;
        if let Some(why) = self.first_failure {
            outcome
                .failures
                .push(format!("{phase}: {} failed, first: {why}", self.failed));
        }
    }
}

struct Saturated {
    /// Replies per second over the whole phase...
    qps: f64,
    /// ...and over each burst of it: the repeats the gated value is read
    /// from...
    burst_qps: Vec<f64>,
    /// ...with the CPU microseconds a request each cost the process.
    burst_cpu_us: Vec<f64>,
    used: Usage,
    requests: usize,
    tally: Tally,
}

/// Phase A: a closed loop in bursts. One thread submits `burst` requests
/// back to back, waits for every reply, and starts over, through `plan`
/// once and then over again until `seconds` have passed: a burst is of
/// fixed size, the clock only decides how many there are.
///
/// A client that instead keeps a window of requests outstanding — one new
/// request per reply — hands the batcher back exactly the batches it was
/// given: a batch once split by the 2 ms deadline comes back split, and the
/// server sits at full batches (10.6 k replies/s) or at batches of 30
/// (8.0-8.7 k) for whole runs, by how the first hundred requests happened
/// to be scheduled. A burst starts from an empty server every time.
#[allow(clippy::too_many_arguments)]
fn saturated(
    client: &Client,
    data: &Dataset,
    plan: &[usize],
    burst: usize,
    seconds: f64,
    solo: &Solo,
    ledger: &mut Ledger,
    repeat: u64,
) -> Saturated {
    let mut tally = Tally::default();
    let (mut burst_qps, mut burst_cpu_us) = (Vec::new(), Vec::new());
    let mut outstanding: Vec<(usize, Pending)> = Vec::with_capacity(burst);
    let before = sys::usage();
    let t0 = Instant::now();
    let mut submitted = 0;
    while submitted < plan.len() || t0.elapsed().as_secs_f64() < seconds {
        let (burst_usage, burst_start) = (sys::usage(), Instant::now());
        for _ in 0..burst {
            let image = plan[submitted % plan.len()];
            submitted += 1;
            let x = data.sample(image).0.clone();
            match ledger
                .span("serve.submit", TracePhase::Forward, repeat, || {
                    client.submit(x)
                })
                .0
            {
                Ok(pending) => outstanding.push((image, pending)),
                Err(e) => tally.reply(solo, image, Err(e)),
            }
        }
        for (image, pending) in outstanding.drain(..) {
            let (reply, _) =
                ledger.span("serve.wait", TracePhase::Stall, repeat, || pending.wait());
            tally.reply(solo, image, reply);
        }
        burst_qps.push(burst as f64 / burst_start.elapsed().as_secs_f64());
        burst_cpu_us.push(sys::usage().since(&burst_usage).cpu_us as f64 / burst as f64);
    }
    let wall = t0.elapsed();
    Saturated {
        qps: submitted as f64 / wall.as_secs_f64(),
        burst_qps,
        burst_cpu_us,
        used: sys::usage().since(&before),
        requests: submitted,
        tally,
    }
}

pub struct Paced {
    pub latency_ms: Vec<f64>,
    pub lateness_ms: Vec<f64>,
    used: Usage,
    requests: usize,
    tally: Tally,
}

impl Paced {
    /// Share of the phase's requests over the limit or failed.
    pub fn slo_miss_share(&self) -> f64 {
        let slow = self.latency_ms.iter().filter(|&&l| l > SLO_MS).count() as u64;
        (slow + self.tally.failed) as f64 / self.requests.max(1) as f64
    }

    /// The tail stays under the limit, nothing failed, and the last
    /// quarter of the phase is not slower than the first: no backlog grew.
    pub fn within_slo(&self) -> bool {
        if self.tally.failed > 0 || self.latency_ms.len() < 8 {
            return false;
        }
        let quarter = self.latency_ms.len() / 4;
        let early = median(&self.latency_ms[..quarter]);
        let late = median(&self.latency_ms[self.latency_ms.len() - quarter..]);
        percentile(&self.latency_ms, 0.99) <= SLO_MS && late <= 2.0 * early + 1.0
    }
}

/// An open-loop phase: request `i` is due at `i / rate` whatever the
/// replies do. The generator (this thread) sleeps until each due time and
/// submits; a collector thread waits for the replies in order and times
/// each from its due time.
fn paced(
    client: &Client,
    data: &Dataset,
    plan: &[usize],
    solo: &Solo,
    rate: f64,
    ledger: &mut Ledger,
    repeat: u64,
) -> Paced {
    let (tx, rx) = std::sync::mpsc::channel::<(Instant, usize, Pending)>();
    let tracer = ledger.tracer().clone();
    let before = sys::usage();
    let (lateness_ms, refused, (latency_ms, mut tally)) = std::thread::scope(|s| {
        let collector = s.spawn(move || {
            let mut ledger = Ledger::new(NAME, tracer);
            let mut tally = Tally::default();
            let mut latency_ms = Vec::with_capacity(plan.len());
            for (due, image, pending) in rx {
                let (reply, _) =
                    ledger.span("serve.wait", TracePhase::Stall, repeat, || pending.wait());
                latency_ms.push(due.elapsed().as_secs_f64() * 1e3);
                tally.reply(solo, image, reply);
            }
            (latency_ms, tally)
        });
        let mut lateness_ms = Vec::with_capacity(plan.len());
        let mut refused = Vec::new();
        let start = Instant::now() + Duration::from_millis(2);
        for (i, &image) in plan.iter().enumerate() {
            let due = start + due_offset(i, rate);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            lateness_ms.push(due.elapsed().as_secs_f64() * 1e3);
            let x = data.sample(image).0.clone();
            match ledger
                .span("serve.submit", TracePhase::Forward, repeat, || {
                    client.submit(x)
                })
                .0
            {
                Ok(pending) => tx.send((due, image, pending)).expect("collector is alive"),
                Err(e) => refused.push(e),
            }
        }
        drop(tx);
        (
            lateness_ms,
            refused,
            collector.join().expect("collector thread"),
        )
    });
    for e in refused {
        tally.attempted += 1;
        tally.refuse(format!("submit refused: {e}"));
    }
    Paced {
        latency_ms,
        lateness_ms,
        used: sys::usage().since(&before),
        requests: plan.len(),
        tally,
    }
}

/// One full set-up: data, request plan, model, server start, warm-up.
struct Prepared {
    data: Dataset,
    took: Duration,
    generate: Duration,
}

fn set_up(seed: u64, ledger: &mut Ledger) -> Prepared {
    let t0 = Instant::now();
    let (data, generate) = ledger.span("data.generate", TracePhase::Snapshot, 0, build_data);
    let plan = request_plan(seed, WARM_REQUESTS, data.len());
    let server = Server::start(vec![build_net()], ServeConfig::default());
    let client = server.client();
    let mut outstanding = VecDeque::with_capacity(WINDOW);
    for &image in &plan {
        if outstanding.len() == WINDOW {
            let pending: Pending = outstanding.pop_front().expect("window is full");
            let _ = pending.wait();
        }
        if let Ok(pending) = client.submit(data.sample(image).0.clone()) {
            outstanding.push_back(pending);
        }
    }
    outstanding.into_iter().for_each(|p| {
        let _ = p.wait();
    });
    server.shutdown();
    Prepared {
        data,
        took: t0.elapsed(),
        generate,
    }
}

/// The server's own counters must agree with what the clients saw.
/// `may_overload`: the traced pass's rate staircase is meant to find the
/// rate that no longer fits, so refusals there are not failures.
fn check_stats(stats: &ServeStats, may_overload: bool, outcome: &mut Outcome) {
    outcome.attempted += 1;
    let overloaded = !may_overload && stats.overloaded != 0;
    if stats.submitted != stats.replied || overloaded || stats.worker_panics != 0 {
        outcome.fail(format!(
            "server counters: submitted {} replied {} overloaded {} worker_panics {}",
            stats.submitted, stats.replied, stats.overloaded, stats.worker_panics
        ));
    }
}

/// Requests in a window of an open-loop phase: one second's worth.
fn window_requests(rate: f64) -> usize {
    (rate as usize).max(1)
}

/// The `q` percentile of each window of `per_window` latencies, in time
/// order; empty when no request was answered.
fn window_percentiles(latency_ms: &[f64], per_window: usize, q: f64) -> Vec<f64> {
    latency_ms
        .chunks(per_window.max(1))
        .map(|w| percentile(w, q))
        .collect()
}

/// The `q` percentile of a whole phase's latencies, 0 when there are none.
fn whole_phase(latency_ms: &[f64], q: f64) -> f64 {
    if latency_ms.is_empty() {
        0.0
    } else {
        percentile(latency_ms, q)
    }
}

/// The quiet decile of a phase's windows. A phase in which every request
/// was refused has no latency to report: the metric reads 0 and the
/// refusals, as failed operations, fail the run.
fn quiet_or_zero(values: &[f64]) -> Summary {
    if values.is_empty() {
        Summary::single(0.0)
    } else {
        Summary::quiet(values, Better::Lower)
    }
}

fn paced_requests(rate: f64, seconds: f64) -> usize {
    ((rate * seconds) as usize).max(64)
}

/// Seconds of one slice of the end-to-end pass: two saturated, one paced.
const SLICE_SECONDS: f64 = 3.0;

/// The end-to-end pass: slices of three seconds, each two seconds of phase
/// A (its share of 16 384 requests at least), which the gated timings are
/// read from, and one of phase B — at the default 28 seconds nine slices,
/// 27 000 paced requests. The phases alternate so that both see the whole
/// run: a neighbour slows this box for 10-40 s at a time, nine seconds of
/// phase A in a row were often all slow (ten runs spread 12 %), and the
/// quiet decile needs a quiet tenth.
pub fn run_end_to_end(opts: &RunOpts) -> Result<Outcome, String> {
    let mut ledger = Ledger::new(NAME, Tracer::disabled());
    let prepared = set_up(opts.seed, &mut ledger);
    let data = &prepared.data;
    let solo = solo_reference(data);
    let slices = ((opts.seconds / SLICE_SECONDS) as usize).max(1);
    let paced_seconds = opts.seconds / 3.0 / slices as f64;
    let saturated_seconds = 2.0 * paced_seconds;
    let burst = BURST_REQUESTS / opts.scale;
    let n_a = (SATURATED_REQUESTS / opts.scale)
        .div_ceil(slices)
        .next_multiple_of(burst);
    // Whole windows, so that the slices' latencies line up end to end.
    let window = window_requests(PACED_RATE);
    let n_b = match paced_requests(PACED_RATE, paced_seconds) {
        n if n >= window => n - n % window,
        n => n,
    };
    let plan = request_plan(opts.seed, slices * (n_a + n_b), data.len());

    let server = Server::start(vec![build_net()], ServeConfig::default());
    let client = server.client();
    let (mut sat, mut pac) = (Vec::new(), Vec::new());
    let mut setups = SetUps::new(prepared.took);
    for (slice, plan) in plan.chunks(n_a + n_b).enumerate() {
        setups.catch_up(slice as f64 / slices as f64, || {
            Ok(set_up(opts.seed, &mut ledger).took)
        })?;
        let repeat = slice as u64 + 1;
        sat.push(saturated(
            &client,
            data,
            &plan[..n_a],
            burst,
            saturated_seconds,
            &solo,
            &mut ledger,
            repeat,
        ));
        pac.push(paced(
            &client,
            data,
            &plan[n_a..],
            &solo,
            PACED_RATE,
            &mut ledger,
            repeat,
        ));
    }
    let (_, stats) = server.shutdown();
    setups.catch_up(1.0, || Ok(set_up(opts.seed, &mut ledger).took))?;

    let mut outcome = Outcome::default();
    check_stats(&stats, false, &mut outcome);
    // Every slice's series end to end, in time order.
    let latency_ms: Vec<f64> = pac.iter().flat_map(|b| b.latency_ms.clone()).collect();
    let lateness_ms: Vec<f64> = pac.iter().flat_map(|b| b.lateness_ms.clone()).collect();
    let burst_qps: Vec<f64> = sat.iter().flat_map(|a| a.burst_qps.clone()).collect();
    let burst_cpu_us: Vec<f64> = sat.iter().flat_map(|a| a.burst_cpu_us.clone()).collect();
    let (a_requests, b_requests): (usize, usize) = (
        sat.iter().map(|a| a.requests).sum(),
        pac.iter().map(|b| b.requests).sum(),
    );
    let tallies = || {
        sat.iter()
            .map(|a| &a.tally)
            .chain(pac.iter().map(|b| &b.tally))
    };
    let replies: u64 = tallies().map(|t| t.attempted - t.failed).sum();
    let loss_mean = tallies().map(|t| t.loss_sum).sum::<f64>() / replies.max(1) as f64;
    // Throughput and CPU time are read per burst of phase A and gated at
    // the quiet decile of the bursts, like every timing. What phase B
    // measures is printed, not gated: how long a mostly idle virtual core
    // takes to wake decides it, run by run. The CPU time of a paced request
    // is 170-260 us (twice a saturated one's: batches of 7-9 and four
    // thread wake-ups a request); the quiet decile of the one-second
    // windows' p50 latency sat at 2.3-3.0 ms, ten-run medians 12 % apart
    // (`diag.serve_lat_p50_ms`); a neighbour's single hiccup decides the
    // tail (whole phase 4.6..45 ms over ten quiet runs;
    // `diag.serve_lat_p99_ms`), which is reported with the limit it is held
    // to and is not an output check either.
    let p50s = window_percentiles(&latency_ms, window, 0.5);
    let tail_q = tail_quantile(latency_ms.len());
    outcome.metrics = vec![
        (spec::SETUP_S, setups.summary()),
        (
            spec::SAMPLES_PER_S,
            Summary::quiet(&burst_qps, Better::Higher),
        ),
        (
            spec::CPU_US_PER_SAMPLE,
            Summary::quiet(&burst_cpu_us, Better::Lower),
        ),
        (spec::PEAK_RSS_MB, Summary::single(setups.peak_rss_mb())),
        (spec::LOSS_MEAN, Summary::single(loss_mean)),
    ];
    outcome.note("slices", slices);
    outcome.note(
        "saturated_qps_whole_phase",
        a_requests as f64 / sat.iter().map(|a| a.requests as f64 / a.qps).sum::<f64>(),
    );
    outcome.note("paced_p50_ms_quiet_window", quiet_or_zero(&p50s).value);
    outcome.note("paced_tail_quantile", tail_q);
    outcome.note(
        "paced_tail_ms_whole_phase",
        whole_phase(&latency_ms, tail_q),
    );
    outcome.note(
        "paced_cpu_us_per_request",
        pac.iter().map(|b| b.used.cpu_us).sum::<u64>() as f64 / b_requests as f64,
    );
    outcome.note("saturated_requests", a_requests);
    outcome.note("paced_requests", b_requests);
    outcome.note("paced_rate_per_s", PACED_RATE);
    outcome.note("slo_ms", SLO_MS);
    outcome.note("slo_met", pac.iter().all(Paced::within_slo));
    outcome.note(
        "slo_miss_share",
        pac.iter()
            .map(|b| b.slo_miss_share() * b.requests as f64)
            .sum::<f64>()
            / b_requests as f64,
    );
    outcome.note("gen_lateness_ms_p99", percentile(&lateness_ms, 0.99));
    outcome.note(
        "mean_batch",
        stats.replied as f64 / stats.batches.max(1) as f64,
    );
    outcome.note("max_coalesced", stats.max_coalesced);
    outcome.note("setup_first_s", setups.first());
    for a in sat {
        a.tally.merge_into(&mut outcome, "phase A");
    }
    for b in pac {
        b.tally.merge_into(&mut outcome, "phase B");
    }
    Ok(outcome)
}

/// Latency of lone requests against an idle `max_batch = 1` server, minus
/// the forward itself: what the channel hops and the batcher cost.
fn idle_rtt_us(data: &Dataset, solo_forward_us: f64, ledger: &mut Ledger, reps: usize) -> f64 {
    let config = ServeConfig {
        max_batch: 1,
        ..ServeConfig::default()
    };
    let server = Server::start(vec![build_net()], config);
    let client = server.client();
    let mut times = Vec::with_capacity(reps);
    for i in 0..reps + 8 {
        let x = data.sample(i % data.len()).0.clone();
        let (reply, took) = ledger.span("serve.infer_idle", TracePhase::Forward, 0, || {
            client.infer(x)
        });
        if reply.is_ok() && i >= 8 {
            times.push(took.as_secs_f64() * 1e6);
        }
    }
    server.shutdown();
    if times.is_empty() {
        0.0
    } else {
        median(&times) - solo_forward_us
    }
}

/// Eval-mode forward of the served model at `batch`, microseconds a call.
fn eval_forward_us(data: &Dataset, batch: usize, ledger: &mut Ledger, reps: usize) -> f64 {
    let mut net = build_net();
    net.set_training(false);
    let indices: Vec<usize> = (0..batch).map(|i| i % data.len()).collect();
    let (x, _) = data.batch(&indices);
    let mut times = Vec::with_capacity(reps);
    for i in 0..reps + 2 {
        let (_, took) = ledger.span("nn.eval_forward", TracePhase::Forward, batch as u64, || {
            std::hint::black_box(net.forward(&x));
            net.clear_stash();
        });
        if i >= 2 {
            times.push(took.as_secs_f64() * 1e6);
        }
    }
    median(&times)
}

/// The traced pass: the same phases with the harness's spans recorded,
/// the probes of the layers serving uses, and the diagnostic phases (an
/// idle server, 1000 req/s, the rate staircase).
pub fn run_traced(opts: &RunOpts) -> Result<Outcome, String> {
    let tracer = Tracer::new();
    let mut ledger = Ledger::new(NAME, tracer.clone());
    let mut quiet = Ledger::new(NAME, Tracer::disabled());
    let prepared = set_up(opts.seed, &mut ledger);
    let data = &prepared.data;
    let solo = solo_reference(data);
    let div = opts.scale;
    let mut outcome = Outcome::default();
    // tensor and nn: the kernels and the forward pass serving runs.
    let fc = [(WIDTH * IMAGE * IMAGE, HIDDEN), (HIDDEN, 10)];
    let size = probes::model_size(&mut build_net(), data.sample(0).0);
    let b1 = eval_forward_us(data, 1, &mut ledger, (256 / div).max(8));
    let b64 = eval_forward_us(data, 64, &mut ledger, (32 / div).max(4));
    let (_, fetch) = ledger.span("data.sample", TracePhase::Forward, 0, || {
        for i in 0..1024 {
            std::hint::black_box(data.sample(i % data.len()).0.clone());
        }
    });
    let mut m: Vec<(&'static str, f64)> = vec![
        ("tensor.peak_gflops", probes::peak_gflops(&mut ledger)),
        (
            "tensor.pool_dispatch_us",
            probes::pool_dispatch_us(&mut ledger, 2000 / div),
        ),
        (
            "tensor.pool_threads",
            pbp_tensor::pool::configured_threads() as f64,
        ),
        (
            "tensor.conv_batched_gflops_b64",
            probes::conv_batched_gflops(&mut ledger, 64, (32 / div).max(2)),
        ),
        (
            "tensor.fc_gflops_b1",
            probes::linear_kernels(&mut ledger, &fc, 1, (64 / div).max(2)).fwd_gflops,
        ),
        (
            "tensor.fc_gflops_b64",
            probes::linear_kernels(&mut ledger, &fc, 64, (16 / div).max(2)).fwd_gflops,
        ),
        ("tensor.flops_per_sample", size.flops as f64),
        ("tensor.bytes_per_sample", size.bytes as f64),
        ("nn.eval_fwd_us_b1", b1),
        ("nn.eval_fwd_us_b64", b64),
        (
            "serve.idle_rtt_us",
            idle_rtt_us(data, b1, &mut ledger, (256 / div).max(8)),
        ),
        ("data.sample_fetch_us", fetch.as_secs_f64() * 1e6 / 1024.0),
        ("data.generate_ms", prepared.generate.as_secs_f64() * 1e3),
        ("diag.setup_first_s", prepared.took.as_secs_f64()),
    ];

    // Phase A untraced and traced, then the paced phases, on one server.
    let n_a = SATURATED_REQUESTS / div / 2;
    let seconds = |full: f64| if div > 1 { full / 8.0 } else { full };
    let rates = [
        (1000.0, seconds(3.0)),
        (2000.0, seconds(1.5)),
        (PACED_RATE, seconds(3.0)),
        (4000.0, seconds(1.5)),
        (6000.0, seconds(1.5)),
    ];
    let total: usize = 2 * n_a
        + rates
            .iter()
            .map(|&(r, s)| paced_requests(r, s))
            .sum::<usize>();
    let plan = request_plan(opts.seed, total, data.len());
    let server = Server::start(vec![build_net()], ServeConfig::default());
    let client = server.client();
    let threads = sys::live_threads();
    // Twice the same bursts, by count: the clock decides nothing here.
    let burst = BURST_REQUESTS / div;
    let untraced = saturated(
        &client,
        data,
        &plan[..n_a],
        burst,
        0.0,
        &solo,
        &mut quiet,
        1,
    );
    let before = server.stats();
    let traced = saturated(
        &client,
        data,
        &plan[n_a..2 * n_a],
        burst,
        0.0,
        &solo,
        &mut ledger,
        2,
    );
    let after_a = server.stats();
    m.push((
        "serve.mean_batch_sat",
        (after_a.replied - before.replied) as f64
            / (after_a.batches - before.batches).max(1) as f64,
    ));
    m.push(("serve.batch_speedup", untraced.qps * b1 * 1e-6));
    m.push((
        "trace.enabled_overhead_pct",
        (untraced.qps - traced.qps) / untraced.qps * 100.0,
    ));
    m.push(("pipeline.threads", threads as f64));
    m.push((
        "pipeline.ctx_switches_per_sample",
        untraced.used.ctx_switches as f64 / untraced.requests as f64,
    ));
    untraced.tally.merge_into(&mut outcome, "phase A");
    traced.tally.merge_into(&mut outcome, "phase A traced");

    let mut cursor = 2 * n_a;
    let mut rate_in_slo = 0.0;
    for (rate, secs) in rates {
        let n = paced_requests(rate, secs);
        let before = server.stats();
        let phase = paced(
            &client,
            data,
            &plan[cursor..cursor + n],
            &solo,
            rate,
            &mut ledger,
            rate as u64,
        );
        cursor += n;
        let after = server.stats();
        if phase.within_slo() && after.overloaded == before.overloaded {
            rate_in_slo = rate;
        }
        if rate == 1000.0 {
            m.push((
                "serve.lat_p50_ms_r1000",
                whole_phase(&phase.latency_ms, 0.5),
            ));
        }
        if rate == PACED_RATE {
            m.push((
                "serve.mean_batch_paced",
                (after.replied - before.replied) as f64
                    / (after.batches - before.batches).max(1) as f64,
            ));
            m.push(("serve.slo_miss_share", phase.slo_miss_share()));
            m.push(("diag.serve_lat_p50_ms", whole_phase(&phase.latency_ms, 0.5)));
            m.push((
                "diag.serve_lat_p99_ms",
                whole_phase(&phase.latency_ms, 0.99),
            ));
            m.push((
                "serve.gen_lateness_ms_p99",
                percentile(&phase.lateness_ms, 0.99),
            ));
            m.push((
                "serve.overloaded",
                (after.overloaded - before.overloaded) as f64,
            ));
            // Only the gated rate's replies are operations of the run: the
            // staircase is meant to find the rate that no longer fits.
            phase.tally.merge_into(&mut outcome, "phase B");
        }
    }
    let (_, stats) = server.shutdown();
    m.push(("serve.rate_in_slo", rate_in_slo));
    m.push(("serve.max_coalesced", stats.max_coalesced as f64));
    m.push(("serve.rejected", stats.rejected as f64));
    check_stats(&stats, true, &mut outcome);

    ledger.flush();
    drop(ledger);
    let trace = tracer.finish();
    m.push((
        "trace.spans_per_sample",
        trace.span_count() as f64 / total as f64,
    ));
    let path = format!("out/trace_{NAME}.json");
    trace.write(&path).map_err(|e| format!("{path}: {e}"))?;
    outcome.note("trace_file", format!("benchmark/{path}"));
    outcome.note("trace_spans", trace.span_count());
    outcome.metrics = m
        .into_iter()
        .map(|(k, v)| (k, Summary::single(v)))
        .collect();
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_depend_on_the_index_only() {
        // The schedule is a pure function of (index, rate): nothing a reply
        // does can move a due time, which is what makes the loop open.
        assert_eq!(due_offset(0, 3000.0), Duration::ZERO);
        assert_eq!(due_offset(3000, 3000.0), Duration::from_secs(1));
        let gaps: Vec<Duration> = (1..100)
            .map(|i| due_offset(i, 1000.0) - due_offset(i - 1, 1000.0))
            .collect();
        assert!(gaps.iter().all(|g| (g.as_secs_f64() - 1e-3).abs() < 1e-9));
        assert_eq!(paced_requests(3000.0, 6.0), 18_000);
    }

    #[test]
    fn windows_see_every_request_and_an_unanswered_phase_reads_zero() {
        let latency: Vec<f64> = (0..600).map(|i| if i < 100 { 50.0 } else { 2.0 }).collect();
        // One stalled window of six moves its own tail, not the gated value.
        let tails = window_percentiles(&latency, 100, 0.9);
        assert_eq!(tails, [50.0, 2.0, 2.0, 2.0, 2.0, 2.0]);
        assert_eq!(quiet_or_zero(&tails).value, 2.0);
        // A last, short window is still seen.
        assert_eq!(window_percentiles(&latency, 250, 0.5).len(), 3);
        assert!(window_percentiles(&[], 100, 0.99).is_empty());
        assert_eq!(quiet_or_zero(&[]).value, 0.0);
        assert_eq!(whole_phase(&latency, 0.5), 2.0);
        assert_eq!(whole_phase(&[], 0.99), 0.0);
        assert_eq!(window_requests(3000.0), 3000);
    }

    #[test]
    fn two_seeds_give_different_inputs_with_identical_counts() {
        let (a, b) = (request_plan(1, 500, IMAGES), request_plan(2, 500, IMAGES));
        assert_eq!((a.len(), b.len()), (500, 500));
        assert_ne!(a, b);
        assert_eq!(a, request_plan(1, 500, IMAGES));
        assert!(a.iter().chain(&b).all(|&i| i < IMAGES));
    }

    #[test]
    fn open_loop_reports_lateness_and_serves_bit_identical_replies() {
        let data = build_data();
        let solo = solo_reference(&data);
        let server = Server::start(vec![build_net()], ServeConfig::default());
        let client = server.client();
        let plan = request_plan(3, 40, data.len());
        let mut ledger = Ledger::new(NAME, Tracer::disabled());
        let phase = paced(&client, &data, &plan, &solo, 2000.0, &mut ledger, 0);
        let (_, stats) = server.shutdown();
        assert_eq!(phase.latency_ms.len(), 40);
        assert_eq!(
            phase.lateness_ms.len(),
            40,
            "lateness is reported per request"
        );
        assert!(phase.lateness_ms.iter().all(|&l| l >= 0.0));
        // Latency runs from the due time, so it includes the lateness.
        assert!(phase
            .latency_ms
            .iter()
            .zip(&phase.lateness_ms)
            .all(|(l, late)| l >= late));
        assert_eq!((phase.tally.attempted, phase.tally.failed), (40, 0));
        assert_eq!(stats.submitted, stats.replied);
    }

    #[test]
    fn a_wrong_reply_is_a_failed_operation() {
        let data = build_data();
        let solo = solo_reference(&data);
        let mut tally = Tally::default();
        tally.reply(&solo, 0, Ok(solo.logits[0].clone()));
        tally.reply(&solo, 0, Ok(solo.logits[1].clone()));
        tally.reply(&solo, 0, Err(pbp_serve::ServeError::Overloaded));
        assert_eq!((tally.attempted, tally.failed), (3, 2));
        assert_eq!(tally.loss_sum, solo.loss[0]);
    }
}
