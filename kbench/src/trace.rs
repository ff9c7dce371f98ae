//! The traced run: per-layer numbers from the benchmark's own spans.
//!
//! Each round takes the next batch of the workload's job list and runs it
//! through every side of the paired rows, alternating which side goes first:
//!
//! * the socket path twice, once untraced and once traced (their ratio is
//!   `trace.overhead_ratio`); a fleet batch also goes straight to one worker
//!   (`coordinator.hop_us` is the difference);
//! * an in-process [`Scheduler`] with the same window (`event_loop.overhead_us`
//!   is socket minus in-process, and the closure timestamps give the queue
//!   wait and the notify time);
//! * the in-process scheduler with `kecss_obs` recording on and off
//!   (`obs.overhead_ratio`);
//! * a replay of each job's public calls — decode, build, dispatch and the
//!   solver rows under it, verify, run, encode — each wrapped in a span.
//!
//! Spans (name, start, end, parent, job) are kept in memory and written to
//! `spans.jsonl` in the run's log directory when the run ends. Counts come
//! from the servers' `METRICS` and `FLEET` replies and from `/proc`. Nothing
//! is added inside the program.

use crate::drive::{self, Jobs, Pass, Tally};
use crate::net::Conn;
use crate::plan::{Plan, Reference};
use crate::servers;
use crate::stats::{mean, ratio, Summary};
use crate::{Args, Outcome, Report};
use congest::CostModel;
use graphs::{bfs, connectivity, mst, Graph};
use kecss::baselines::thurimella;
use kecss::cuts::CutFamily;
use kecss::{augk, tap, three_ecss, verification};
use kecss_runtime::Executor;
use kecss_server::job::{self, Algorithm, JobSpec};
use kecss_server::protocol::{Request, Response};
use kecss_server::scheduler::{Outcome as JobOutcome, Scheduler};
use kecss_server::wire;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Spans written to `spans.jsonl`: enough to inspect a few thousand jobs
/// without a long run leaving tens of MB behind. Every span still counts in
/// the layer totals.
const SPANS_WRITTEN: usize = 50_000;

struct Span {
    name: &'static str,
    parent: &'static str,
    job: u64,
    start: Duration,
    end: Duration,
}

/// The span store and the per-call samples of every layer.
struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    /// Per-call durations in µs, by span name.
    calls: BTreeMap<&'static str, Vec<f64>>,
    /// Per-call counts (`tap.iterations`, `cuts.found`, `job.payload_bytes`).
    counts: BTreeMap<&'static str, Vec<f64>>,
}

impl Spans {
    fn time<T>(
        &mut self,
        name: &'static str,
        parent: &'static str,
        job: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let value = black_box(f());
        let end = Instant::now();
        self.spans.push(Span {
            name,
            parent,
            job,
            start: start - self.origin,
            end: end - self.origin,
        });
        self.calls
            .entry(name)
            .or_default()
            .push((end - start).as_secs_f64() * 1e6);
        value
    }

    fn count(&mut self, name: &'static str, value: f64) {
        self.counts.entry(name).or_default().push(value);
    }

    fn total_us(&self, name: &str) -> f64 {
        self.calls.get(name).map_or(0.0, |v| v.iter().sum())
    }

    fn samples(&self, name: &str) -> Vec<f64> {
        self.calls.get(name).cloned().unwrap_or_default()
    }

    /// Writes the first [`SPANS_WRITTEN`] spans as JSON lines.
    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.iter().take(SPANS_WRITTEN) {
            writeln!(
                out,
                "{{\"name\": \"{}\", \"parent\": \"{}\", \"job\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name,
                s.parent,
                s.job,
                s.start.as_nanos(),
                s.end.as_nanos()
            )?;
        }
        out.flush()
    }
}

fn solver_error(e: kecss::Error) -> String {
    e.to_string()
}

/// The solver rows under `job::dispatch`, replayed with the dispatch's own
/// inputs and random stream so each call does exactly the work it did there.
fn solver_rows(spec: &JobSpec, g: &Graph, job: u64, sp: &mut Spans) -> Result<(), String> {
    let solver_seed = spec.seed ^ job::SOLVER_SEED_SALT;
    let mut rng = ChaCha8Rng::seed_from_u64(solver_seed);
    let exec = Executor::Sequential;
    let model = |sp: &mut Spans| {
        let d = sp.time("bfs.diameter", "job.dispatch", job, || bfs::diameter(g));
        CostModel::new(g.n(), d.unwrap_or(g.n()))
    };
    match spec.algorithm {
        Algorithm::TwoEcss => {
            let model = model(sp);
            sp.time("connectivity.precheck", "job.dispatch", job, || {
                connectivity::is_k_edge_connected(g, 2)
            });
            let tree = sp.time("mst.kruskal", "job.dispatch", job, || mst::kruskal(g));
            let sol = sp
                .time("tap.solve", "job.dispatch", job, || {
                    tap::solve_with_model(g, &tree, model, &mut rng)
                })
                .map_err(solver_error)?;
            sp.count("tap.iterations", sol.iterations as f64);
        }
        Algorithm::KEcss => {
            let model = model(sp);
            sp.time("connectivity.precheck", "job.dispatch", job, || {
                connectivity::is_k_edge_connected(g, spec.k)
            });
            let mut h = sp.time("mst.kruskal", "job.dispatch", job, || mst::kruskal(g));
            let enumerator = spec.enumerator.build();
            // A second enumerator for the standalone enumeration, so the
            // augmentation chain sees exactly the calls dispatch made.
            let probe = spec.enumerator.build();
            for level in 2..=spec.k {
                let aug = sp
                    .time("augk.augment", "job.dispatch", job, || {
                        augk::augment_with_enumerator(
                            g,
                            &h,
                            level,
                            model,
                            &mut rng,
                            &exec,
                            enumerator.as_ref(),
                        )
                    })
                    .map_err(solver_error)?;
                let family = sp
                    .time("cuts.enumerate", "augk.augment", job, || {
                        CutFamily::enumerate_with_enumerator(
                            g,
                            &h,
                            level - 1,
                            probe.as_ref(),
                            0,
                            &exec,
                        )
                    })
                    .map_err(solver_error)?;
                sp.count("cuts.found", family.len() as f64);
                let union = h.union(&aug.added);
                sp.time("augk.certify", "augk.augment", job, || {
                    connectivity::is_k_edge_connected_in(g, &union, level)
                });
                h.union_with(&aug.added);
            }
        }
        Algorithm::ThreeEcss | Algorithm::ThreeEcssWeighted => {
            let model = model(sp);
            let weighted = spec.algorithm == Algorithm::ThreeEcssWeighted;
            sp.time("three_ecss.solve", "job.dispatch", job, || {
                if weighted {
                    three_ecss::solve_weighted_with_model(g, model, &mut rng)
                } else {
                    three_ecss::solve_with_model(g, model, &mut rng)
                }
            })
            .map_err(solver_error)?;
        }
        Algorithm::Thurimella => {
            sp.time("thurimella.solve", "job.dispatch", job, || {
                thurimella::sparse_certificate(g, spec.k)
            });
        }
        Algorithm::MstOnly => {
            sp.time("mst.kruskal", "job.dispatch", job, || mst::kruskal(g));
        }
        Algorithm::Greedy => {}
    }
    Ok(())
}

/// Replays one job's public calls; returns the `job::run` payload.
fn replay(spec: &JobSpec, job: u64, sp: &mut Spans) -> Result<Vec<u8>, String> {
    let frame = wire::encode_request(&Request::SubmitWait(spec.clone()));
    let header: [u8; wire::FRAME_HEADER_BYTES] = frame[..wire::FRAME_HEADER_BYTES]
        .try_into()
        .expect("a frame starts with its header");
    let (opcode, flags, _) = wire::parse_frame_header(&header)?;
    let body = &frame[wire::FRAME_HEADER_BYTES..];
    sp.time("wire.decode", "front_end", job, || {
        wire::decode_request(opcode, flags, body)
    })?;
    let line = Request::Submit(spec.clone()).to_line();
    sp.time("protocol.parse", "front_end", job, || Request::parse(&line))?;

    let graph = sp.time("instance.build", "job.run", job, || {
        spec.instance.build(spec.k, spec.seed)
    })?;
    let (edges, _, _) = sp
        .time("job.dispatch", "job.run", job, || {
            job::dispatch(
                &graph,
                spec.algorithm,
                spec.k,
                spec.seed ^ job::SOLVER_SEED_SALT,
                &Executor::Sequential,
                spec.enumerator,
            )
        })
        .map_err(solver_error)?;
    solver_rows(spec, &graph, job, sp)?;
    let target = spec.algorithm.certified_k(spec.k).max(1);
    let mut verify_rng = ChaCha8Rng::seed_from_u64(spec.seed ^ job::VERIFY_SEED_SALT);
    sp.time("verification.verify", "job.run", job, || {
        verification::verify_exact(&graph, &edges, target, &mut verify_rng)
    });
    sp.time("bfs.diameter_hint", "verification.verify", job, || {
        bfs::diameter_hint(&graph)
    });
    drop(graph);

    let payload = sp.time("job.run", "job", job, || {
        job::run(spec, &Executor::Sequential)
    })?;
    sp.count("job.payload_bytes", payload.len() as f64);
    let response = Response::Result {
        id: job,
        payload: Arc::new(payload),
    };
    sp.time("wire.encode_result", "front_end", job, || {
        wire::encode_response(&response)
    });
    sp.time("protocol.render_result", "front_end", job, || {
        response.render_text()
    });
    let Response::Result { payload, .. } = response else {
        unreachable!("built as a RESULT above")
    };
    Ok(Arc::try_unwrap(payload).unwrap_or_else(|shared| (*shared).clone()))
}

/// Per-job timings of an in-process scheduler pass, in µs.
#[derive(Default)]
struct SchedulerSamples {
    latency: Vec<f64>,
    queue_wait: Vec<f64>,
    notify: Vec<f64>,
    mismatches: u64,
}

/// Runs `batch` through `sched` keeping `window` jobs in flight; each job's
/// closure stamps its start and end around `job::run`, so a job's latency
/// (submit call to `wait` return) splits exactly into queue wait, run and
/// notify.
fn scheduler_pass(
    sched: &Scheduler,
    plan: &Plan,
    refs: &[Reference],
    batch: &[usize],
    window: usize,
    out: &mut SchedulerSamples,
) -> Result<(), String> {
    type Stamps = Arc<Mutex<Option<(Instant, Instant)>>>;
    let mut inflight: VecDeque<(u64, usize, Instant, Stamps)> = VecDeque::new();
    let mut todo = batch.iter().copied();
    loop {
        while inflight.len() < window.max(1) {
            let Some(s) = todo.next() else { break };
            let spec = plan.specs[s].clone();
            let stamps: Stamps = Arc::new(Mutex::new(None));
            let slot = Arc::clone(&stamps);
            // Stamped before the call: the woken pool thread may preempt
            // this one and finish the job before `submit_with` returns.
            let submitted = Instant::now();
            let id = sched
                .submit_with(Box::new(move || {
                    let start = Instant::now();
                    let payload = job::run(&spec, &Executor::Sequential);
                    *slot.lock().expect("stamp lock") = Some((start, Instant::now()));
                    payload
                }))
                .map_err(|e| format!("in-process scheduler: {e}"))?;
            inflight.push_back((id, s, submitted, stamps));
        }
        let Some((id, s, submitted, stamps)) = inflight.pop_front() else {
            return Ok(());
        };
        let outcome = sched.wait(id);
        let returned = Instant::now();
        let (start, end) = stamps
            .lock()
            .expect("stamp lock")
            .unwrap_or((returned, returned));
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        out.latency.push(us(returned - submitted));
        out.queue_wait
            .push(us(start.saturating_duration_since(submitted)));
        out.notify.push(us(returned.saturating_duration_since(end)));
        match outcome {
            Some(JobOutcome::Done(payload)) if *payload == refs[s].payload => {}
            _ => out.mismatches += 1,
        }
        let _ = sched.take_result(id);
    }
}

/// Sum of every series of `name` in a `METRICS` exposition.
fn metric_sum(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| {
            l.strip_prefix(name)
                .is_some_and(|rest| rest.starts_with(' ') || rest.starts_with('{'))
        })
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

/// `(retries, max/min dispatched per worker)` from a `FLEET` text.
fn fleet_counts(text: &str) -> (f64, f64) {
    let retries = text
        .lines()
        .find(|l| l.starts_with("jobs "))
        .and_then(|l| l.split_whitespace().skip_while(|w| *w != "retries").nth(1))
        .and_then(|w| w.parse().ok())
        .unwrap_or(0.0);
    let dispatched: Vec<f64> = text
        .lines()
        .filter(|l| l.starts_with("worker "))
        .filter_map(|l| {
            l.split_whitespace()
                .skip_while(|w| *w != "dispatched")
                .nth(1)?
                .parse()
                .ok()
        })
        .collect();
    let max = dispatched.iter().copied().fold(0.0, f64::max);
    let min = dispatched.iter().copied().fold(f64::INFINITY, f64::min);
    (
        retries,
        if dispatched.is_empty() {
            0.0
        } else {
            ratio(max, min)
        },
    )
}

/// Paired samples of one round, as per-round means (µs).
#[derive(Default)]
struct Rounds {
    plain: Vec<f64>,
    traced: Vec<f64>,
    direct: Vec<f64>,
    sched: Vec<f64>,
    obs_on: Vec<f64>,
    obs_off: Vec<f64>,
    coverage: Vec<f64>,
}

pub fn run(
    args: &Args,
    plan: &Plan,
    refs: &[Reference],
    log_dir: &Path,
) -> Result<Outcome, String> {
    // Fleet requests are text lines, which a worker accepts directly too.
    let requests = drive::encode(&plan.specs, !plan.fleet);
    let jobs = Jobs {
        requests: &requests,
        refs,
        window: plan.window,
    };
    let (deployment, mut conn, _) = crate::set_up(args, plan, log_dir, 1)?;
    let mut direct = if plan.fleet {
        Some(Conn::connect(&deployment.servers[1].addr, false).map_err(|e| e.to_string())?)
    } else {
        None
    };
    let io = |e: std::io::Error| format!("{} client: {e}", plan.workload.name());
    let sched = Scheduler::new(1, 64);
    // Multi-shape workloads pair their sides job by job, so that the host's
    // speed, which drifts over seconds, is the same on both sides of a pair.
    let batch_len = if plan.shapes == 1 { 32 } else { 1 };

    let mut tally = Tally::default();
    let mut add = |t: &Tally| {
        tally.attempted += t.attempted;
        tally.failed += t.failed;
        tally.mismatched += t.mismatched;
    };
    if plan.shapes == 1 {
        let mut warm = Pass::default();
        jobs.run(
            &mut conn,
            &mut drive::once((0..64).collect()),
            &mut warm,
            &mut || {},
        )
        .map_err(io)?;
        add(&warm.tally);
    }

    let coordinator_pid = plan.fleet.then(|| deployment.servers[0].pid());
    let mut threads_peak = 0u64;
    let mut sample_threads = || {
        if let Some(pid) = coordinator_pid {
            threads_peak = threads_peak.max(servers::status_field(pid, "Threads:"));
        }
    };

    let store = Arc::new(Mutex::new(Spans {
        origin: Instant::now(),
        spans: Vec::new(),
        calls: BTreeMap::new(),
        counts: BTreeMap::new(),
    }));
    let mut rounds = Rounds::default();
    let mut sched_samples = SchedulerSamples::default();
    let mut obs_on = SchedulerSamples::default();
    let mut obs_off = SchedulerSamples::default();
    let mut pooled_traced = Vec::new();
    let mut pooled_plain = Vec::new();
    let mut pooled_direct = Vec::new();
    let mut replay_mismatches = 0u64;
    let mut replayed = 0u64;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut round = 0usize;
    while round == 0 || Instant::now() < deadline {
        let batch: Vec<usize> = (0..batch_len)
            .map(|i| (round * batch_len + i) % plan.specs.len())
            .collect();
        let before = sched_samples.latency.len();
        // Which side of each pair goes first alternates by round (and, for a
        // multi-shape list, also by cycle, so every shape sees both orders).
        let flip = if plan.shapes == 1 {
            round % 2 == 1
        } else {
            (round + round / plan.shapes) % 2 == 1
        };
        for side in 0..2 {
            if (side == 0) != flip {
                let mut plain = Pass::default();
                jobs.run(
                    &mut conn,
                    &mut drive::once(batch.clone()),
                    &mut plain,
                    &mut || {},
                )
                .map_err(io)?;
                add(&plain.tally);
                let us = plain.latencies_us();
                rounds.plain.push(mean(&us));
                pooled_plain.extend(us);
                continue;
            }
            let mut traced = Pass::default();
            jobs.run(
                &mut conn,
                &mut drive::once(batch.clone()),
                &mut traced,
                &mut sample_threads,
            )
            .map_err(io)?;
            add(&traced.tally);
            let us = traced.latencies_us();
            rounds.traced.push(mean(&us));
            pooled_traced.extend(us);
            if let Some(direct) = direct.as_mut() {
                let mut straight = Pass::default();
                jobs.run(
                    direct,
                    &mut drive::once(batch.clone()),
                    &mut straight,
                    &mut || {},
                )
                .map_err(io)?;
                add(&straight.tally);
                let us = straight.latencies_us();
                rounds.direct.push(mean(&us));
                pooled_direct.extend(us);
            }
            scheduler_pass(&sched, plan, refs, &batch, plan.window, &mut sched_samples)?;
            rounds.sched.push(mean(&sched_samples.latency[before..]));
            for on in [flip, !flip] {
                let target: &mut SchedulerSamples = if on { &mut obs_on } else { &mut obs_off };
                let from = target.latency.len();
                let previous = kecss_obs::set_enabled(on);
                let result = scheduler_pass(&sched, plan, refs, &batch, plan.window, target);
                kecss_obs::set_enabled(previous);
                result?;
                let m = mean(&target.latency[from..]);
                if on {
                    rounds.obs_on.push(m);
                } else {
                    rounds.obs_off.push(m);
                }
            }
            let runs_before = store.lock().expect("span store").samples("job.run").len();
            for &s in &batch {
                replayed += 1;
                // The replay runs on the scheduler's pool thread, like the
                // in-process jobs its `job::run` is compared with: on a
                // shared host the two vCPUs can run at different speeds.
                let (spec, job, spans) = (plan.specs[s].clone(), replayed, Arc::clone(&store));
                let id = sched
                    .submit_with(Box::new(move || {
                        replay(&spec, job, &mut spans.lock().expect("span store"))
                    }))
                    .map_err(|e| format!("in-process scheduler: {e}"))?;
                match sched.wait(id) {
                    Some(JobOutcome::Done(payload)) if *payload == refs[s].payload => {}
                    _ => replay_mismatches += 1,
                }
                let _ = sched.take_result(id);
            }
            // The round's layer self times add up to the front end (socket
            // minus in-process), queue wait, notify, job::run (build,
            // dispatch with the solver rows under it, verify, render) and
            // the coordinator hop; coverage is that sum over the round's
            // traced latency.
            let run = mean(&store.lock().expect("span store").samples("job.run")[runs_before..]);
            let traced_r = *rounds.traced.last().expect("pushed above");
            let socket_r = rounds.direct.last().copied().unwrap_or(traced_r);
            let layers = (socket_r - rounds.sched[rounds.sched.len() - 1])
                + mean(&sched_samples.queue_wait[before..])
                + mean(&sched_samples.notify[before..])
                + run
                + (traced_r - socket_r);
            rounds.coverage.push(ratio(layers, traced_r));
        }
        round += 1;
    }
    replay_mismatches += sched_samples.mismatches + obs_on.mismatches + obs_off.mismatches;

    let metrics = deployment.metrics()?;
    let fleet_text = if plan.fleet {
        Conn::connect(deployment.front(), false)
            .and_then(|mut c| c.text_request("FLEET"))
            .map_err(|e| format!("FLEET: {e}"))?
    } else {
        String::new()
    };
    drop(conn);
    drop(direct);
    deployment.shutdown()?;
    sched.shutdown();
    let sp = Arc::try_unwrap(store)
        .map_err(|_| "span store still shared after the replays".to_string())?
        .into_inner()
        .map_err(|_| "a replay panicked holding the span store".to_string())?;
    sp.write(&log_dir.join("spans.jsonl"))
        .map_err(|e| format!("writing spans: {e}"))?;

    // Per-job means over the replayed jobs (µs unless converted).
    let jobs_n = replayed.max(1) as f64;
    let per_job = |name: &str| sp.total_us(name) / jobs_n;
    let sum_metric = |name: &str| metrics.iter().map(|m| metric_sum(m, name)).sum::<f64>();
    let socket_side = if plan.fleet {
        &pooled_direct
    } else {
        &pooled_traced
    };
    let overhead_us = mean(socket_side) - mean(&sched_samples.latency);
    let hop_us = if plan.fleet {
        mean(&pooled_traced) - mean(&pooled_direct)
    } else {
        0.0
    };
    let per_round = |a: &[f64], b: &[f64], f: fn(f64, f64) -> f64| -> Vec<f64> {
        a.iter().zip(b).map(|(x, y)| f(*x, *y)).collect()
    };
    let socket_rounds = if plan.fleet {
        &rounds.direct
    } else {
        &rounds.traced
    };
    let run_us = per_job("job.run");
    let render_us = run_us
        - per_job("instance.build")
        - per_job("job.dispatch")
        - per_job("verification.verify");
    let cover_us = per_job("augk.augment") - per_job("cuts.enumerate") - per_job("augk.certify");
    let queue_wait = mean(&sched_samples.queue_wait);
    let notify = mean(&sched_samples.notify);
    let traced_us = mean(&pooled_traced);
    let (retries, skew) = fleet_counts(&fleet_text);
    let coordinator_metrics = if plan.fleet { metrics[0].as_str() } else { "" };
    let assign_wait_us = ratio(
        metric_sum(coordinator_metrics, "fleet_assignment_wait_ns_sum"),
        metric_sum(coordinator_metrics, "fleet_assignment_wait_ns_count"),
    ) / 1e3;

    let mut r = Report::default();
    let layer = |r: &mut Report, metric: &'static str, span: &str, unit: &'static str| {
        let scale = if unit == "ms" { 1e-3 } else { 1.0 };
        let samples: Vec<f64> = sp.samples(span).iter().map(|v| v * scale).collect();
        r.add(metric, unit, per_job(span) * scale, &samples);
    };
    let overhead_rounds = per_round(socket_rounds, &rounds.sched, |a, b| a - b);
    r.add(
        "event_loop.overhead_us",
        "us",
        overhead_us,
        &overhead_rounds,
    );
    layer(&mut r, "wire.decode_us", "wire.decode", "us");
    layer(&mut r, "wire.encode_result_us", "wire.encode_result", "us");
    layer(&mut r, "protocol.parse_us", "protocol.parse", "us");
    layer(
        &mut r,
        "protocol.render_result_us",
        "protocol.render_result",
        "us",
    );
    r.add(
        "scheduler.queue_wait_us",
        "us",
        queue_wait,
        &sched_samples.queue_wait,
    );
    r.add("scheduler.notify_us", "us", notify, &sched_samples.notify);
    let busy = sum_metric("server_reply_busy_total");
    r.add("scheduler.busy_replies", "count", busy, &[busy]);
    layer(&mut r, "instance.build_ms", "instance.build", "ms");
    layer(&mut r, "bfs.diameter_ms", "bfs.diameter", "ms");
    layer(&mut r, "bfs.diameter_hint_ms", "bfs.diameter_hint", "ms");
    layer(
        &mut r,
        "connectivity.precheck_ms",
        "connectivity.precheck",
        "ms",
    );
    layer(&mut r, "mst.kruskal_ms", "mst.kruskal", "ms");
    layer(&mut r, "tap.solve_ms", "tap.solve", "ms");
    let counted = |name: &str| sp.counts.get(name).cloned().unwrap_or_default();
    let iterations = counted("tap.iterations");
    r.add("tap.iterations", "count", mean(&iterations), &iterations);
    layer(&mut r, "thurimella.solve_ms", "thurimella.solve", "ms");
    layer(&mut r, "cuts.enumerate_ms", "cuts.enumerate", "ms");
    let found = counted("cuts.found");
    r.add("cuts.found", "count", mean(&found), &found);
    let useful = ratio(
        sum_metric("solver_enum_cuts_total"),
        sum_metric("solver_enum_candidates_total"),
    );
    r.add("cuts.useful_ratio", "ratio", useful, &[useful]);
    layer(&mut r, "augk.augment_ms", "augk.augment", "ms");
    r.add("augk.cover_ms", "ms", cover_us / 1e3, &[cover_us / 1e3]);
    layer(&mut r, "augk.certify_ms", "augk.certify", "ms");
    let retry_ratio = ratio(
        sum_metric("solver_augment_retries_total"),
        sum_metric("solver_augment_attempts_total"),
    );
    r.add("augk.retry_ratio", "ratio", retry_ratio, &[retry_ratio]);
    layer(&mut r, "three_ecss.solve_ms", "three_ecss.solve", "ms");
    layer(
        &mut r,
        "verification.verify_ms",
        "verification.verify",
        "ms",
    );
    layer(&mut r, "job.dispatch_ms", "job.dispatch", "ms");
    r.add("job.render_ms", "ms", render_us / 1e3, &[render_us / 1e3]);
    let bytes = counted("job.payload_bytes");
    r.add("job.payload_bytes", "count", mean(&bytes), &bytes);
    let hop_rounds = per_round(&rounds.traced, &rounds.direct, |a, b| a - b);
    r.add("coordinator.hop_us", "us", hop_us, &hop_rounds);
    r.add(
        "coordinator.assign_wait_us",
        "us",
        assign_wait_us,
        &[assign_wait_us],
    );
    let threads = threads_peak as f64;
    r.add("coordinator.threads_peak", "count", threads, &[threads]);
    r.add("coordinator.retries", "count", retries, &[retries]);
    r.add("coordinator.dispatch_skew", "ratio", skew, &[skew]);
    let obs_ratio = ratio(mean(&obs_on.latency), mean(&obs_off.latency));
    let obs_rounds = per_round(&rounds.obs_on, &rounds.obs_off, ratio);
    r.add("obs.overhead_ratio", "ratio", obs_ratio, &obs_rounds);
    r.add(
        "trace.coverage",
        "ratio",
        Summary::of(&rounds.coverage).median,
        &rounds.coverage,
    );
    let overhead_ratio = ratio(traced_us, mean(&pooled_plain));
    let overhead_ratio_rounds = per_round(&rounds.traced, &rounds.plain, ratio);
    r.add(
        "trace.overhead_ratio",
        "ratio",
        overhead_ratio,
        &overhead_ratio_rounds,
    );

    Ok(Outcome {
        report: r,
        tally,
        replay_mismatches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sums_labelled_series() {
        let text = "a_total{strategy=\"ks\"} 3\na_total{strategy=\"exact\"} 4\na_total_x 9\nb 1\n";
        assert_eq!(metric_sum(text, "a_total"), 7.0);
        assert_eq!(metric_sum(text, "b"), 1.0);
        assert_eq!(metric_sum(text, "c"), 0.0);
    }

    #[test]
    fn reads_fleet_retries_and_skew() {
        let text = "# kecss fleet status v1\nworkers 2 live 2\n\
                    worker w1 127.0.0.1:1 live inflight 0 dispatched 30 age_ms 5\n\
                    worker w2 127.0.0.1:2 live inflight 0 dispatched 20 age_ms 5\n\
                    jobs submitted 50 completed 50 failed 0 cancelled 0 rejected 0 retries 2\n";
        assert_eq!(fleet_counts(text), (2.0, 1.5));
        assert_eq!(fleet_counts(""), (0.0, 0.0));
    }
}
