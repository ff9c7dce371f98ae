//! `kbench`: the k-ECSS service benchmark.
//!
//! ```text
//! kbench --kecss <path to kecss> --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! `--trace 0` drives the workload against release `kecss serve` processes
//! and prints the end-to-end metrics; `--trace 1` runs the traced replay
//! and prints the per-layer metrics. `--tiny` shrinks every input for the
//! self-check. The last line of standard output is the result object; the
//! line before it records the host, the digests and every metric's samples.
//! See README.md for the workloads and the metric definitions.

mod drive;
mod host;
mod net;
mod plan;
mod servers;
mod stats;
mod trace;

use drive::{Jobs, Pass};
use net::Conn;
use plan::{Plan, Reference, Workload};
use servers::Deployment;
use stats::{num, object, string, Summary};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Generated inputs, server logs and span dumps, relative to the checkout.
const WORK_DIR: &str = ".bench_work";

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub kecss: PathBuf,
    pub tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        let i = argv.iter().position(|a| a == flag)?;
        argv.get(i + 1).cloned()
    };
    let need = |v: Option<String>, flag: &str| v.ok_or(format!("missing {flag} <value>"));
    let workload_name = need(get("--workload"), "--workload")?;
    let workload = Workload::parse(&workload_name).ok_or(format!(
        "unknown workload '{workload_name}' (expected small_jobs, big_instances, high_k or fleet_small)"
    ))?;
    let seed = need(get("--seed"), "--seed")?
        .parse()
        .map_err(|_| "--seed expects an unsigned integer")?;
    let seconds: f64 = need(get("--seconds"), "--seconds")?
        .parse()
        .map_err(|_| "--seconds expects a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match need(get("--trace"), "--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got '{other}'")),
    };
    let kecss = PathBuf::from(need(get("--kecss"), "--kecss")?);
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        kecss,
        tiny: argv.iter().any(|a| a == "--tiny"),
    })
}

/// The metrics of one run, each with the samples behind it.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(&'static str, &'static str, f64, Summary)>,
    /// Figures recorded in the record line only.
    notes: Vec<(&'static str, &'static str, f64, Summary)>,
}

impl Report {
    /// Adds metric `name` with its reported `value` and the samples it
    /// summarises (a single-valued metric passes `&[value]`).
    pub fn add(&mut self, name: &'static str, unit: &'static str, value: f64, samples: &[f64]) {
        self.metrics.push((name, unit, value, Summary::of(samples)));
    }

    /// Like [`Report::add`], for a figure that is not a metric of the result.
    pub fn note(&mut self, name: &'static str, unit: &'static str, value: f64, samples: &[f64]) {
        self.notes.push((name, unit, value, Summary::of(samples)));
    }

    fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let metrics: Vec<(String, String)> = self
            .metrics
            .iter()
            .map(|(name, unit, value, _)| {
                let v = object(&[("value".into(), num(*value)), ("unit".into(), string(unit))]);
                (name.to_string(), v)
            })
            .collect();
        object(&[
            ("correct".into(), correct.to_string()),
            ("attempted".into(), attempted.to_string()),
            ("failed".into(), failed.to_string()),
            ("metrics".into(), object(&metrics)),
        ])
    }

    fn samples(&self) -> String {
        let fields: Vec<(String, String)> = self
            .metrics
            .iter()
            .chain(&self.notes)
            .map(|(name, unit, value, s)| {
                let v = object(&[
                    ("unit".into(), string(unit)),
                    ("value".into(), num(*value)),
                    ("n".into(), s.n.to_string()),
                    ("q1".into(), num(s.q1)),
                    ("median".into(), num(s.median)),
                    ("q3".into(), num(s.q3)),
                ]);
                (name.to_string(), v)
            })
            .collect();
        object(&fields)
    }
}

/// What a run hands back to `main` for printing.
pub struct Outcome {
    pub report: Report,
    pub tally: drive::Tally,
    /// Payload mismatches in the traced replay (the in-process `job::run`).
    pub replay_mismatches: u64,
}

/// The pause between two timed start-ups, so that a run's start-ups see
/// the host in more than one of its speed states: back to back, the 21
/// start-ups of a run took about 20 ms and their median moved by 22% from
/// run to run.
const SETUP_GAP: Duration = Duration::from_millis(20);

/// Starts the workload's servers `times` times, timing each start up to an
/// open client connection, and keeps the last deployment running. Returns
/// when each start began and ended.
pub fn set_up(
    args: &Args,
    plan: &Plan,
    log_dir: &Path,
    times: usize,
) -> Result<(Deployment, Conn, Vec<Range<Instant>>), String> {
    let mut starts = Vec::new();
    for i in 0..times.max(1) {
        if i > 0 {
            std::thread::sleep(SETUP_GAP);
        }
        let start = Instant::now();
        let deployment = Deployment::start(&args.kecss, plan.fleet, log_dir)?;
        let conn = Conn::connect(deployment.front(), !plan.fleet).map_err(|e| e.to_string())?;
        starts.push(start..Instant::now());
        if i + 1 == times.max(1) {
            return Ok((deployment, conn, starts));
        }
        drop(conn);
        deployment.shutdown()?;
    }
    unreachable!("the loop returns on its last iteration")
}

/// The `p`-quantile of `ms` (spec index, latency) over the window. A
/// multi-shape workload reports the mean over shapes of each shape's
/// quantile: a quantile over all jobs would land between shapes whose costs
/// differ by 10–100×, and the mean weighs each shape by its cost, as the
/// throughput does (a geometric mean over shapes, which weighs the cheap
/// `file:` ring jobs as much as the 2048-vertex ones, spread 2–3× wider on
/// `big_instances`).
fn latency_ms(plan: &Plan, ms: &[(usize, f64)], p: f64) -> f64 {
    let per_shape: Vec<f64> = (0..plan.shapes)
        .map(|shape| {
            let mut of_shape: Vec<f64> = ms
                .iter()
                .filter(|(spec, _)| spec % plan.shapes == shape)
                .map(|(_, ms)| *ms)
                .collect();
            of_shape.sort_by(f64::total_cmp);
            stats::quantile(&of_shape, p)
        })
        .collect();
    stats::mean(&per_shape)
}

/// The timed window is cut into slices of at least this long (whole cycles
/// of job shapes), for the per-second samples in the record line.
const SLICE: Duration = Duration::from_secs(1);

/// One slice of the timed window.
struct Slice {
    /// Indices into the pass's verified jobs.
    jobs: Range<usize>,
    time: Range<Instant>,
    cpu_s: f64,
}

impl Slice {
    fn secs(&self) -> f64 {
        (self.time.end - self.time.start).as_secs_f64()
    }
}

/// The untraced run: set up, warm up, one timed window, the nine
/// end-to-end metrics.
///
/// The timed metrics are reported at the reference host speed: a
/// [`host::Sampler`] times a fixed calibration loop every 20 ms on the
/// run's CPU, and each start-up, each job's latency and each slice's wall
/// and CPU time is scaled by the mean speed over it, so the host slowing
/// down or speeding up does not read as a change of the program. The
/// calibration loop's own time is taken out of every start-up, job and
/// slice it ran in: left in, it delayed 1–2% of the ~90 µs `small_jobs`
/// jobs by ~150 µs, and their p99 spread 13% from run to run instead of 3%.
/// The raw figures are in the record line as `raw.*`.
fn untraced(
    args: &Args,
    plan: &Plan,
    refs: &[Reference],
    log_dir: &Path,
) -> Result<Outcome, String> {
    let requests = drive::encode(&plan.specs, !plan.fleet);
    let jobs = Jobs {
        requests: &requests,
        refs,
        window: plan.window,
    };
    let setups = match (args.tiny, plan.fleet) {
        (true, _) => 2,
        (false, false) => 41,
        (false, true) => 21,
    };
    let sampler = host::Sampler::start();
    let (deployment, mut conn, starts) = set_up(args, plan, log_dir, setups)?;
    let io = |e: std::io::Error| format!("{} client: {e}", plan.workload.name());

    let mut warm = Pass::default();
    let warm_jobs = if plan.shapes > 1 {
        1
    } else {
        256.min(plan.specs.len())
    };
    jobs.run(
        &mut conn,
        &mut drive::once((0..warm_jobs).collect()),
        &mut warm,
        &mut || {},
    )
    .map_err(io)?;

    // VmHWM is read once the job list has been served once: the job tables
    // keep a record of every job, so a reading at the end of the window
    // would grow with the run's throughput.
    let mut completed = 0usize;
    let mut rss_mb = None;
    let mut after_each = || {
        completed += 1;
        if completed == plan.specs.len() {
            rss_mb = Some(deployment.peak_rss_mb());
        }
    };
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut pass = Pass::default();
    let mut slices = Vec::new();
    let mut cursor = 0usize;
    while slices.is_empty() || Instant::now() < deadline {
        let from = pass.done.len();
        let (t0, cpu0) = (Instant::now(), deployment.cpu_seconds());
        let mut next = drive::until(
            (t0 + SLICE).min(deadline),
            &mut cursor,
            plan.specs.len(),
            plan.shapes,
        );
        jobs.run(&mut conn, &mut next, &mut pass, &mut after_each)
            .map_err(io)?;
        slices.push(Slice {
            jobs: from..pass.done.len(),
            time: t0..Instant::now(),
            cpu_s: deployment.cpu_seconds() - cpu0,
        });
    }
    let rss_mb = rss_mb.unwrap_or_else(|| deployment.peak_rss_mb());
    drop(conn);
    deployment.shutdown()?;
    let speeds = sampler.stop();

    let median = |v: &[f64]| Summary::of(v).median;
    let speed = |t: &Range<Instant>| speeds.over(t.start, t.end);
    let scaled = |t: &Range<Instant>| speeds.scaled_secs(t.start, t.end);
    let setup_s: Vec<f64> = starts.iter().map(scaled).collect();
    let jobs_done = pass.done.len().max(1) as f64;
    let secs: f64 = slices.iter().map(Slice::secs).sum();
    let cpu_s: f64 = slices.iter().map(|s| s.cpu_s).sum();
    let scaled_secs: f64 = slices.iter().map(|s| scaled(&s.time)).sum();
    let scaled_cpu_s: f64 = slices.iter().map(|s| s.cpu_s * speed(&s.time)).sum();
    let nonempty: Vec<&Slice> = slices.iter().filter(|s| !s.jobs.is_empty()).collect();
    let rates: Vec<f64> = nonempty
        .iter()
        .map(|s| s.jobs.len() as f64 / scaled(&s.time))
        .collect();
    let cpu_ms: Vec<f64> = nonempty
        .iter()
        .map(|s| s.cpu_s * 1e3 * speed(&s.time) / s.jobs.len() as f64)
        .collect();
    let raw_ms: Vec<(usize, f64)> = pass
        .done
        .iter()
        .map(|d| (d.spec, d.latency.as_secs_f64() * 1e3))
        .collect();
    let scaled_ms: Vec<(usize, f64)> = pass
        .done
        .iter()
        .map(|d| (d.spec, scaled(&(d.sent..d.sent + d.latency)) * 1e3))
        .collect();
    let all_ms = |ms: &[(usize, f64)]| -> Vec<f64> { ms.iter().map(|(_, ms)| *ms).collect() };
    let tally = drive::Tally {
        attempted: warm.tally.attempted + pass.tally.attempted,
        failed: warm.tally.failed + pass.tally.failed,
        mismatched: warm.tally.mismatched + pass.tally.mismatched,
    };
    let verified = stats::ratio(
        (tally.attempted - tally.failed) as f64,
        tally.attempted as f64,
    );
    let ratios: Vec<f64> = refs.iter().map(|r| r.approx_ratio).collect();
    let rounds: Vec<f64> = refs
        .iter()
        .filter_map(|r| r.rounds)
        .map(|r| r as f64)
        .collect();

    let mut report = Report::default();
    report.add("setup_s", "s", median(&setup_s), &setup_s);
    report.add("jobs_per_s", "jobs/s", jobs_done / scaled_secs, &rates);
    report.add(
        "latency_p50_ms",
        "ms",
        latency_ms(plan, &scaled_ms, 0.5),
        &all_ms(&scaled_ms),
    );
    report.add(
        "latency_p99_ms",
        "ms",
        latency_ms(plan, &scaled_ms, 0.99),
        &all_ms(&scaled_ms),
    );
    report.add(
        "cpu_ms_per_job",
        "ms",
        scaled_cpu_s * 1e3 / jobs_done,
        &cpu_ms,
    );
    report.add("peak_rss_mb", "MB", rss_mb, &[rss_mb]);
    report.add("verified_frac", "ratio", verified, &[verified]);
    report.add("approx_ratio", "ratio", stats::mean(&ratios), &ratios);
    report.add("rounds_per_job", "rounds", stats::mean(&rounds), &rounds);

    let raw_setup_s: Vec<f64> = starts
        .iter()
        .map(|t| (t.end - t.start).as_secs_f64())
        .collect();
    let raw_rate = jobs_done / secs;
    let raw_cpu = cpu_s * 1e3 / jobs_done;
    report.note("raw.setup_s", "s", median(&raw_setup_s), &raw_setup_s);
    report.note("raw.jobs_per_s", "jobs/s", raw_rate, &[raw_rate]);
    report.note(
        "raw.latency_p50_ms",
        "ms",
        latency_ms(plan, &raw_ms, 0.5),
        &all_ms(&raw_ms),
    );
    report.note(
        "raw.latency_p99_ms",
        "ms",
        latency_ms(plan, &raw_ms, 0.99),
        &all_ms(&raw_ms),
    );
    report.note("raw.cpu_ms_per_job", "ms", raw_cpu, &[raw_cpu]);
    let window_speed = slices
        .iter()
        .map(|s| s.secs() * speed(&s.time))
        .sum::<f64>()
        / secs;
    report.note("host.speed", "ratio", window_speed, &speeds.values());
    Ok(Outcome {
        report,
        tally,
        replay_mismatches: 0,
    })
}

fn run(args: &Args) -> Result<(), String> {
    let work_dir = Path::new(WORK_DIR);
    let log_dir = work_dir.join(format!(
        "logs-{}-{}-{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::create_dir_all(&log_dir).map_err(|e| format!("{}: {e}", log_dir.display()))?;
    if !args.kecss.is_file() {
        return Err(format!("no kecss binary at {}", args.kecss.display()));
    }

    let plan = plan::build(args.workload, args.seed, args.tiny, work_dir)?;
    let refs = plan::references(&plan.specs)?;
    let mut digest = stats::Fnv::default();
    for r in &refs {
        digest.update(&r.payload);
    }
    // Every workload runs its servers, the client and the speed sampler on
    // one CPU. A hand-off between threads is then a context switch on that
    // CPU rather than a wake-up of the other vCPU, which costs whatever the
    // hypervisor takes to schedule it: unpinned, `small_jobs` read 6.4k to
    // 9.5k jobs/s over five runs and tracked the calibration loop not at
    // all. The references above are computed before, on two threads.
    let pinned_cpu = host::pin_to_one_cpu();

    let outcome = if args.trace {
        trace::run(args, &plan, &refs, &log_dir)?
    } else {
        untraced(args, &plan, &refs, &log_dir)?
    };
    if let Some(dir) = &plan.files {
        let _ = std::fs::remove_dir_all(dir);
    }
    let tally = outcome.tally;
    let correct = tally.mismatched == 0
        && outcome.replay_mismatches == 0
        && tally.failed == 0
        && tally.attempted > 0
        && refs.iter().all(|r| r.verified);

    let record = object(&[
        ("kbench".into(), string("record")),
        ("workload".into(), string(args.workload.name())),
        ("seed".into(), args.seed.to_string()),
        ("trace".into(), u8::from(args.trace).to_string()),
        ("seconds".into(), num(args.seconds)),
        ("tiny".into(), args.tiny.to_string()),
        ("host".into(), host::fingerprint()),
        (
            "pinned_cpu".into(),
            pinned_cpu.map_or("null".into(), |c| c.to_string()),
        ),
        ("jobs_in_list".into(), plan.specs.len().to_string()),
        (
            "payload_digest".into(),
            string(&format!("fnv1a64:{}", digest.hex())),
        ),
        ("attempted".into(), tally.attempted.to_string()),
        ("failed".into(), tally.failed.to_string()),
        ("mismatched".into(), tally.mismatched.to_string()),
        (
            "replay_mismatches".into(),
            outcome.replay_mismatches.to_string(),
        ),
        ("samples".into(), outcome.report.samples()),
    ]);
    println!("{record}");
    println!(
        "{}",
        outcome
            .report
            .result_line(correct, tally.attempted.max(1), tally.failed)
    );
    Ok(())
}

fn main() {
    let result = parse_args().and_then(|args| run(&args));
    if let Err(err) = result {
        eprintln!("kbench: error: {err}");
        std::process::exit(1);
    }
}
